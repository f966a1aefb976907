"""Lockstep IPC between the leader and follower variants.

The paper's monitor synchronizes variants through a shared-memory channel
with mutexes and condition variables set up by ``setup_mvx()`` (§3.2,
§3.3).  A :class:`LockstepChannel` carries sequence-numbered call records
and results between the leader's host thread and the follower's; the two
take turns on one :class:`~repro.kernel.baton.Baton` (a raw lock per
side), so exactly one variant runs guest code at any instant:

1. the leader reaches libc call *k*, posts its record, gives the follower
   the baton, and waits;
2. the follower reaches *its* call *k*, posts its record, gives the baton
   back, and waits;
3. the leader compares the records (name + scalar args), executes the call
   (or marks it local), posts the result, and *keeps* the baton until call
   *k+1* (or ``mvx_end``), where the follower takes the result and runs on.

This strict alternation is faithful to lockstep MVX semantics and makes
every run bit-deterministic, which the virtual-time benchmarks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.divergence import CallRecord, DivergenceKind, DivergenceReport
from repro.errors import MvxDivergence, MvxError
from repro.kernel.baton import Baton

#: The watchdog slice of every lockstep wait (read at wait time), so that
#: a protocol bug fails instead of hanging; see :class:`Baton`.
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
    mutex/condvar + ring buffer): the posted call and result, and the
    :class:`~repro.kernel.baton.Baton` the two variants pass."""

    def __init__(self) -> None:
        self._baton = Baton(LEADER, FOLLOWER)
        #: the follower's call, posted and not yet taken by the leader.
        self._follower_call: Optional[CallRecord] = None
        self._result: Optional[LibcResult] = None
        self.status: Dict[str, VariantStatus] = {
            LEADER: VariantStatus(), FOLLOWER: VariantStatus()}
        self.rendezvous_count = 0
        self.divergence: Optional[DivergenceReport] = None
        #: each side's host thread; the monitor binds the follower's.
        self.threads = self._baton.threads

    # -- internals -------------------------------------------------------------

    def _handoff(self, who: str, give: bool = True) -> None:
        """Give the peer the baton (unless ``give`` is False) and wait
        until it comes back."""
        baton = self._baton
        if give and not baton.give(who):
            baton.turn = None       # out of turn: nobody may run again
            raise LockstepTimeout(
                f"{who}: lockstep handoff out of turn (protocol stall)")
        stall = baton.wait(who, _WAIT_TIMEOUT_S)
        if stall is not None:
            raise LockstepTimeout(f"{who}: lockstep wait timed out ({stall})")
        if self.divergence is not None:
            raise MvxDivergence(self.divergence)

    def _diverge(self, who: str, report: DivergenceReport) -> MvxDivergence:
        """Flag ``report``; the peer gets the baton, if ``who`` has it."""
        self.divergence = report
        self._baton.give(who)
        return MvxDivergence(report)

    # -- leader side --------------------------------------------------------------

    def leader_announce(self, record: CallRecord) -> CallRecord:
        """Post the leader's call, release the follower, wait for its
        matching record.  Returns the follower's record."""
        self.status[LEADER].calls_made += 1
        self._handoff(LEADER)
        follower_record = self._follower_call
        if follower_record is None:
            # follower finished without making this call
            status = self.status[FOLLOWER]
            kind = (DivergenceKind.FOLLOWER_FAULT if status.fault
                    else DivergenceKind.CALL_COUNT)
            raise self._diverge(LEADER, DivergenceReport(
                kind, record.seq, record.name,
                status.fault or
                f"follower returned after {status.calls_made} calls; "
                f"leader issued call #{record.seq} ({record.name})",
                task_id=status.fault_task, guest_pc=status.fault_pc))
        self._follower_call = None
        self.rendezvous_count += 1
        return follower_record

    def leader_publish(self, result: LibcResult) -> None:
        """Publish the executed call's result; the baton stays with the
        leader (the follower picks the result up at the next handoff)."""
        self._result = result

    def leader_finish(self) -> VariantStatus:
        """mvx_end: mark the leader done, release the follower to drain,
        and wait for the follower to complete."""
        self.status[LEADER].done = True
        self._handoff(LEADER)
        return self.status[FOLLOWER]

    def leader_abort(self, report: DivergenceReport) -> None:
        self._diverge(LEADER, report)

    # -- follower side ---------------------------------------------------------------

    def follower_wait_turn(self) -> None:
        """Block until the baton arrives (initial release and after each
        of the leader's call boundaries)."""
        self._handoff(FOLLOWER, give=False)

    def follower_announce(self, record: CallRecord) -> LibcResult:
        """Post the follower's call, hand the baton back, and return the
        leader's result once the baton comes back with it."""
        if self.status[LEADER].done:
            raise self._diverge(FOLLOWER, DivergenceReport(
                DivergenceKind.CALL_COUNT, record.seq, record.name,
                f"follower issued extra call #{record.seq} "
                f"({record.name}) after the leader finished"))
        self._follower_call = record
        self.status[FOLLOWER].calls_made += 1
        self._result = None
        self._handoff(FOLLOWER)
        return self._result

    def follower_abort(self, report: DivergenceReport) -> None:
        """Follower-detected divergence (e.g. a local-call return value
        mismatch): flag it and wake the leader."""
        self._diverge(FOLLOWER, report)

    def follower_finish(self, fault: Optional[str] = None,
                        fault_pc: int = -1, fault_task: int = -1) -> None:
        status = self.status[FOLLOWER]
        status.done = True
        status.fault = fault
        status.fault_pc = fault_pc
        status.fault_task = fault_task
        self._baton.give(FOLLOWER)


__all__ = [
    "CallEvent",
    "FOLLOWER",
    "LEADER",
    "LibcResult",
    "LockstepChannel",
    "LockstepTimeout",
    "VariantStatus",
]
