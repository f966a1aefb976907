"""Lockstep IPC between the leader and follower variants.

The paper's monitor synchronizes variants through a shared-memory channel
with mutexes and condition variables set up by ``setup_mvx()`` (§3.2,
§3.3).  We reproduce that shape: a :class:`LockstepChannel` carries
sequence-numbered call records and results between the leader thread and
the follower thread.

**Strict baton serialization.**  Exactly one variant executes guest code
at any instant; the baton passes at libc-call boundaries:

1. the leader reaches libc call *k*, posts its record, hands the baton to
   the follower, and waits;
2. the follower (now running) reaches *its* call *k*, posts its record,
   hands the baton back, and waits for the call's result;
3. the leader compares the records (name + scalar args), executes the call
   (or marks it local), posts the result, and *keeps* the baton — it runs
   on to call *k+1* (or to ``mvx_end``), where handing the baton over
   releases the follower to consume the result and continue.

This serialization is faithful to lockstep MVX semantics and makes every
run bit-deterministic, which the virtual-time benchmarks rely on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.divergence import CallRecord, DivergenceKind, DivergenceReport
from repro.errors import MvxDivergence, MvxError

#: Host-time safety net so a protocol bug fails a test instead of hanging.
#: A wait gives up only at the end of a slice this long in which its peer
#: cannot make progress: the peer is waiting on the channel too and
#: neither side's condition holds (a deadlock), or the peer's host thread
#: is dead.  A peer that is merely slow (parked in the scheduler, running
#: other tasks, traced) never trips it, so host speed cannot turn into a
#: divergence verdict.
_WAIT_TIMEOUT_S = 30.0

LEADER = "leader"
FOLLOWER = "follower"


@dataclass
class LibcResult:
    """What the leader publishes after executing (or classifying) a call."""

    seq: int
    retval: int
    errno: int
    #: True when the call is LOCAL-category: the follower must execute it
    #: itself against its own memory instead of consuming emulated state.
    execute_locally: bool = False


@dataclass
class CallEvent:
    """One libc call the leader executed, as ``SmvxMonitor.capture``
    flattens it: the leader-side :class:`CallRecord` plus everything a
    monitor needs to emulate the call for its follower — retval/errno and
    the bytes of every output buffer the call produced in the leader's
    memory.  In process it goes straight to ``SmvxMonitor.publish``;
    distributed, it crosses a cluster link (``repro.cluster.wire``).

    ``sync`` marks a security-sensitive call: the leader flushes the
    batch and waits for the remote verdict *before* executing it (the
    dMVX sensitive-operation sync point)."""

    seq: int
    name: str
    args: Tuple[int, ...]
    retval: int = 0
    errno: int = 0
    execute_locally: bool = False
    #: (arg_index, payload bytes) for each output buffer, captured from
    #: the leader's memory right after the call executed.
    buffers: Tuple[Tuple[int, bytes], ...] = ()
    sync: bool = False
    #: leader-side location of the call (for location-exact alarms).
    task: int = -1
    pc: int = -1

    def to_dict(self) -> Dict:
        return {
            "seq": self.seq, "name": self.name, "args": list(self.args),
            "retval": self.retval, "errno": self.errno,
            "local": self.execute_locally,
            "buffers": [[index, data.hex()] for index, data in self.buffers],
            "sync": self.sync, "task": self.task, "pc": self.pc,
        }

    @staticmethod
    def from_dict(raw: Dict) -> "CallEvent":
        return CallEvent(
            raw["seq"], raw["name"], tuple(raw["args"]), raw["retval"],
            raw["errno"], raw["local"],
            tuple((index, bytes.fromhex(data))
                  for index, data in raw["buffers"]),
            raw["sync"], raw["task"], raw["pc"])


@dataclass
class VariantStatus:
    done: bool = False
    fault: Optional[str] = None
    calls_made: int = 0
    #: guest PC at the fault (e.g. the unmapped gadget address); -1 if
    #: not applicable.
    fault_pc: int = -1
    #: guest task id of the faulting variant thread; -1 if unknown.
    fault_task: int = -1


class LockstepTimeout(MvxError):
    pass


class LockstepChannel:
    """The shared-memory rendezvous object (host model of the paper's
    mutex/condvar + ring buffer)."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._baton = LEADER
        #: the follower's call, posted and not yet taken by the leader.
        self._follower_call: Optional[CallRecord] = None
        self._result: Optional[LibcResult] = None
        self.status: Dict[str, VariantStatus] = {
            LEADER: VariantStatus(), FOLLOWER: VariantStatus()}
        self.rendezvous_count = 0
        self.divergence: Optional[DivergenceReport] = None
        #: each side's host thread (the last one to wait on its behalf);
        #: the monitor binds the follower's at start.
        self.threads: Dict[str, threading.Thread] = {}
        #: the condition each side is waiting for, None while it runs.  A
        #: side that gave up keeps its entry: it will never signal again.
        self._waiting: Dict[str, Optional[Callable[[], bool]]] = {
            LEADER: None, FOLLOWER: None}

    # -- internals -------------------------------------------------------------

    def _wait_for(self, predicate, who: str) -> None:
        peer = FOLLOWER if who == LEADER else LEADER
        self.threads[who] = threading.current_thread()
        self._waiting[who] = predicate
        while not self._cond.wait_for(predicate, timeout=_WAIT_TIMEOUT_S):
            peer_waits_for = self._waiting[peer]
            thread = self.threads.get(peer)
            if peer_waits_for is not None and not peer_waits_for():
                reason = "protocol stall"
            elif thread is not None and not thread.is_alive():
                reason = f"{peer} thread died"
            else:
                continue                # the peer can still make progress
            raise LockstepTimeout(
                f"{who}: lockstep wait timed out ({reason})")
        self._waiting[who] = None

    def _give_baton(self, to: str) -> None:
        self._baton = to
        self._cond.notify_all()

    def _flag_divergence(self, report: DivergenceReport) -> None:
        self.divergence = report
        self._cond.notify_all()

    # -- leader side --------------------------------------------------------------

    def leader_announce(self, record: CallRecord) -> CallRecord:
        """Post the leader's call, release the follower, wait for its
        matching record.  Returns the follower's record."""
        with self._cond:
            self.status[LEADER].calls_made += 1
            self._give_baton(FOLLOWER)
            self._wait_for(
                lambda: (self._follower_call is not None
                         or self.status[FOLLOWER].done
                         or self.divergence is not None),
                LEADER)
            if self.divergence is not None:
                raise MvxDivergence(self.divergence)
            if self._follower_call is None:
                # follower finished without making this call
                status = self.status[FOLLOWER]
                kind = (DivergenceKind.FOLLOWER_FAULT if status.fault
                        else DivergenceKind.CALL_COUNT)
                report = DivergenceReport(
                    kind, record.seq, record.name,
                    status.fault or
                    f"follower returned after {status.calls_made} calls; "
                    f"leader issued call #{record.seq} ({record.name})",
                    task_id=status.fault_task, guest_pc=status.fault_pc)
                self._flag_divergence(report)
                raise MvxDivergence(report)
            follower_record = self._follower_call
            self._follower_call = None
            self.rendezvous_count += 1
            return follower_record

    def leader_publish(self, result: LibcResult) -> None:
        """Publish the executed call's result; the baton stays with the
        leader (the follower picks the result up at the next handoff)."""
        with self._cond:
            self._result = result
            self._cond.notify_all()

    def leader_finish(self) -> VariantStatus:
        """mvx_end: mark the leader done, release the follower to drain,
        and wait for the follower to complete."""
        with self._cond:
            self.status[LEADER].done = True
            self._give_baton(FOLLOWER)
            self._wait_for(
                lambda: (self.status[FOLLOWER].done
                         or self.divergence is not None),
                LEADER)
            if self.divergence is not None:
                raise MvxDivergence(self.divergence)
            return self.status[FOLLOWER]

    def leader_abort(self, report: DivergenceReport) -> None:
        with self._cond:
            self._flag_divergence(report)

    # -- follower side ---------------------------------------------------------------

    def follower_wait_turn(self) -> None:
        """Block until the baton arrives (initial release and after each
        of the leader's call boundaries)."""
        with self._cond:
            self._wait_for(
                lambda: self._baton == FOLLOWER or self.divergence is not None,
                FOLLOWER)
            if self.divergence is not None:
                raise MvxDivergence(self.divergence)

    def follower_announce(self, record: CallRecord) -> LibcResult:
        """Post the follower's call, hand the baton back, wait for the
        leader's result."""
        with self._cond:
            if self.status[LEADER].done:
                report = DivergenceReport(
                    DivergenceKind.CALL_COUNT, record.seq, record.name,
                    f"follower issued extra call #{record.seq} "
                    f"({record.name}) after the leader finished")
                self._flag_divergence(report)
                raise MvxDivergence(report)
            self._follower_call = record
            self.status[FOLLOWER].calls_made += 1
            self._result = None
            self._give_baton(LEADER)
            self._wait_for(
                lambda: self._result is not None or self.divergence is not None,
                FOLLOWER)
            if self.divergence is not None:
                raise MvxDivergence(self.divergence)
            result = self._result
            # wait for the baton before running on (strict serialization)
            self._wait_for(
                lambda: self._baton == FOLLOWER or self.divergence is not None,
                FOLLOWER)
            if self.divergence is not None:
                raise MvxDivergence(self.divergence)
            return result

    def follower_abort(self, report: DivergenceReport) -> None:
        """Follower-detected divergence (e.g. a local-call return value
        mismatch): flag it and wake the leader."""
        with self._cond:
            self._flag_divergence(report)

    def follower_finish(self, fault: Optional[str] = None,
                        fault_pc: int = -1, fault_task: int = -1) -> None:
        with self._cond:
            status = self.status[FOLLOWER]
            status.done = True
            status.fault = fault
            status.fault_pc = fault_pc
            status.fault_task = fault_task
            self._give_baton(LEADER)


__all__ = [
    "CallEvent",
    "FOLLOWER",
    "LEADER",
    "LibcResult",
    "LockstepChannel",
    "LockstepTimeout",
    "VariantStatus",
]
