"""The lockstep channel on its ``Baton`` against the channel it replaced.

``LockstepChannel`` used to wait on a ``threading.Condition`` through one
predicate per wait; it now passes a :class:`~repro.kernel.baton.Baton`
between the leader and the follower.  ``ReferenceLockstepChannel`` below
is the earlier channel, kept verbatim.  Each drawn script is played on
both channels by the same two threads, the leader on the test's thread
and the follower on its own, as ``SmvxMonitor`` drives them:

* matching emulated and LOCAL calls;
* the leader aborting after an argument mismatch;
* the follower aborting after a LOCAL return-value mismatch;
* a follower that finishes early, or calls after ``leader_finish``
  (``CALL_COUNT``);
* a follower fault (``FOLLOWER_FAULT`` with its pc and task);
* the mirror's deferred publish: the leader keeps the baton between its
  rendezvous and the publish that a later wire message brings.

Both sides' returned records and results, the exceptions each raised,
the final ``status``, ``divergence`` and ``rendezvous_count`` must
agree, and so must the order in which the two sides ran while nothing
diverged.  The ``Baton`` itself is checked at the end: strict
alternation, and its watchdog's rule (a slow holder never trips a timed
wait; a dead peer does; two sides waiting on each other give up).
"""

import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import ipc
from repro.core.divergence import CallRecord, DivergenceKind, DivergenceReport
from repro.core.ipc import (
    FOLLOWER,
    LEADER,
    LibcResult,
    LockstepChannel,
    LockstepTimeout,
    VariantStatus,
)
from repro.errors import MvxDivergence
from repro.kernel.baton import Baton

_WAIT_TIMEOUT_S = ipc._WAIT_TIMEOUT_S


# -- the channel as it stood ----------------------------------------------------------


class ReferenceLockstepChannel:
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


# -- scripts ------------------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    name: str
    #: LOCAL: the follower runs the call itself and checks the retval.
    local: bool
    retval: int
    #: the leader's compare fails: it aborts (``ARGUMENT``).
    argument_mismatch: bool = False
    #: LOCAL only: the follower's own retval differs (``RETVAL``).
    retval_mismatch: bool = False
    #: the mirror's deferred publish: the leader publishes a moment
    #: after its rendezvous, the baton still in hand.
    deferred: bool = False


@dataclass(frozen=True)
class Script:
    calls: Tuple[Call, ...]
    #: how many calls the follower makes: fewer than the leader finishes
    #: early, more calls after ``leader_finish``.
    follower_calls: int
    #: the follower faults after its last call instead of returning.
    fault: Optional[Tuple[int, int]] = None     # (pc, task)


NAMES = ("read", "write", "recv", "getpid", "malloc", "time")


@st.composite
def scripts(draw):
    calls = tuple(draw(st.lists(st.builds(
        Call,
        name=st.sampled_from(NAMES),
        local=st.booleans(),
        retval=st.integers(0, 4096),
        argument_mismatch=st.sampled_from((False,) * 7 + (True,)),
        retval_mismatch=st.sampled_from((False,) * 5 + (True,)),
        deferred=st.booleans()), max_size=5)))
    calls = tuple(Call(c.name, c.local, c.retval, c.argument_mismatch,
                       c.retval_mismatch and c.local, c.deferred)
                  for c in calls)
    extra = draw(st.sampled_from((0, 0, 0, -1, -2, 1, 2)))
    follower_calls = max(0, len(calls) + extra)
    fault = draw(st.none() | st.tuples(
        st.integers(0x5555_0000_0000, 0x5555_ffff_ffff), st.integers(1, 9)))
    return Script(calls, follower_calls, fault)


def _describe(exc: BaseException):
    if isinstance(exc, MvxDivergence):
        return type(exc).__name__, exc.report
    return type(exc).__name__, str(exc)


def _leader(channel, script: Script, order: List[str]) -> list:
    """The leader side, as ``SmvxMonitor._leader_call`` and
    ``region_end`` drive it."""
    seen = []
    try:
        for seq, call in enumerate(script.calls, start=1):
            order.append(f"leader:{seq}")
            follower = channel.leader_announce(
                CallRecord(seq, call.name, (seq, 0xAAAA_0000), LEADER))
            seen.append(("record", follower))
            if call.argument_mismatch:
                report = DivergenceReport(
                    DivergenceKind.ARGUMENT, seq, call.name, "test",
                    leader=CallRecord(seq, call.name, (seq,), LEADER),
                    follower=follower)
                channel.leader_abort(report)
                seen.append(("aborted", report))
                return seen
            if call.deferred:
                time.sleep(0.001)
            channel.leader_publish(
                LibcResult(seq, call.retval, seq % 3, call.local))
        seen.append(("finished", asdict(channel.leader_finish())))
    except (MvxDivergence, LockstepTimeout) as exc:
        seen.append(("raised",) + _describe(exc))
    return seen


def _follower(channel, script: Script, order: List[str],
              seen: list) -> None:
    """The follower side, as ``SmvxMonitor._follower_main`` and
    ``_follower_call`` drive it."""
    try:
        channel.follower_wait_turn()
        for seq in range(1, script.follower_calls + 1):
            call = script.calls[seq - 1] if seq <= len(script.calls) \
                else Call("getpid", False, 0)
            order.append(f"follower:{seq}")
            result = channel.follower_announce(
                CallRecord(seq, call.name, (seq, 0xBBBB_0000), FOLLOWER))
            seen.append(("result", result))
            if result.execute_locally and call.retval_mismatch:
                report = DivergenceReport(
                    DivergenceKind.RETVAL, seq, call.name, "local retval",
                    task_id=2, guest_pc=0x4000 + seq)
                channel.follower_abort(report)
                raise MvxDivergence(report)
        order.append("follower:end")
    except MvxDivergence as exc:
        seen.append(("raised",) + _describe(exc))
        channel.follower_finish(fault="divergence")
        return
    if script.fault is None:
        channel.follower_finish()
    else:
        pc, task = script.fault
        channel.follower_finish(fault=f"SegmentationFault (address {pc:#x})",
                                fault_pc=pc, fault_task=task)


def play(channel_cls, script: Script) -> dict:
    channel = channel_cls()
    order: List[str] = []
    follower_seen: list = []
    thread = threading.Thread(target=_follower,
                              args=(channel, script, order, follower_seen),
                              daemon=True)
    channel.threads[FOLLOWER] = thread
    thread.start()
    leader_seen = _leader(channel, script, order)
    thread.join(timeout=30)
    assert not thread.is_alive()
    return {
        "leader": leader_seen,
        "follower": follower_seen,
        "status": {side: asdict(status)
                   for side, status in channel.status.items()},
        "divergence": channel.divergence,
        "rendezvous_count": channel.rendezvous_count,
        # the two sides overlap only once a divergence ends the lockstep
        "order": order if channel.divergence is None else None,
    }


def call(name="read", local=False, **flags):
    return Call(name, local, 64, **flags)


@settings(max_examples=150, deadline=None, derandomize=True)
@example(Script((call(), call("malloc", True)), 2))
@example(Script((call(), call(argument_mismatch=True), call()), 3))
@example(Script((call(), call("time", True, retval_mismatch=True)), 2))
@example(Script((call(), call("write"), call()), 1))
@example(Script((call(),), 3))
@example(Script((), 1))
@example(Script((call(), call()), 1, (0x5555_0002_e000, 3)))
@example(Script((call(),), 1, (0x5555_0002_e000, 3)))
@example(Script((call(deferred=True), call("malloc", True, deferred=True)),
                2))
@given(script=scripts())
def test_channel_matches_reference(script):
    assert play(LockstepChannel, script) == \
        play(ReferenceLockstepChannel, script)


def test_scripts_reach_every_outcome():
    """The drawn scripts (examples aside) end in every way the protocol
    can end."""
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(script=scripts())
    def collect(script):
        outcome = play(LockstepChannel, script)
        report = outcome["divergence"]
        seen.add(report.kind if report is not None else
                 "fault" if outcome["status"][FOLLOWER]["fault"] else "clean")
        seen.update("deferred" for c in script.calls if c.deferred)

    collect()
    assert seen >= {"clean", "fault", "deferred", DivergenceKind.ARGUMENT,
                    DivergenceKind.RETVAL, DivergenceKind.CALL_COUNT,
                    DivergenceKind.FOLLOWER_FAULT}


# -- the baton --------------------------------------------------------------------


@pytest.mark.parametrize("timeout", [None, 30.0], ids=["untimed", "timed"])
def test_baton_strictly_alternates(timeout):
    """10^4 handoffs: each side runs only while it holds the turn, and
    a shared counter shows the two never overlap."""
    rounds = 5_000
    baton = Baton("a", "b")
    running = [0]
    overlaps, turns, errors = [], [], []

    def side(name):
        try:
            for index in range(rounds):
                if name == "b" or index:
                    assert baton.wait(name, timeout) is None
                running[0] += 1
                if running[0] != 1:
                    overlaps.append((name, index))
                turns.append(name)
                if index % 64 == 0:
                    time.sleep(0)       # invite the peer to run, if it can
                running[0] -= 1
                assert baton.give(name)
        except AssertionError as exc:
            errors.append(exc)

    peer = threading.Thread(target=side, args=("b",), daemon=True)
    peer.start()
    side("a")
    peer.join(timeout=30)
    assert not peer.is_alive()
    assert not errors and not overlaps
    assert turns == ["a", "b"] * rounds
    assert baton.turn == "a"


def test_give_out_of_turn_gives_nothing():
    baton = Baton("a", "b")
    assert not baton.give("b")
    assert baton.turn == "a"
    assert baton.give("a")
    assert baton.wait("b", 1.0) is None     # the give was not lost
    assert not baton.give("a")


def test_slow_holder_never_trips_the_timed_wait():
    baton = Baton("a", "b")
    done = []

    def slow():
        assert baton.wait("b", 30.0) is None
        time.sleep(0.2)                 # ten watchdog slices
        baton.give("b")
        done.append(True)

    thread = threading.Thread(target=slow, daemon=True)
    thread.start()
    baton.give("a")
    assert baton.wait("a", 0.02) is None
    thread.join(timeout=10)
    assert done


def test_dead_peer_trips_the_timed_wait():
    baton = Baton("a", "b")
    thread = threading.Thread(target=baton.wait, args=("b", 30.0),
                              daemon=True)
    thread.start()
    baton.give("a")
    thread.join(timeout=10)             # took the turn, then died
    assert baton.wait("a", 0.02) == "b thread died"


def test_sides_waiting_on_each_other_give_up():
    """Both sides wait and neither gives: a deadlock, not a slow peer."""
    baton = Baton("a", "b")
    seen = {}
    thread = threading.Thread(
        target=lambda: seen.setdefault("b", baton.wait("b", 0.02)),
        daemon=True)
    thread.start()
    assert baton.wait("a", 0.02) == "protocol stall"
    thread.join(timeout=10)
    assert seen["b"] == "protocol stall"


def test_a_give_as_the_slice_ends_is_not_a_stall():
    """The peer gives the turn back, and starts to wait for its own next
    turn, just as the waiter's slice runs out: both sides are waiting,
    but the waiter has been given the turn, so it takes it."""
    baton = Baton("a", "b")
    baton.give("a")
    lock = baton._locks["a"]

    class LateGive:
        """``a``'s lock: its first timed acquire runs out as ``b`` gives
        the turn back and waits."""
        raced = False

        def acquire(self, blocking=True, timeout=-1):
            if blocking and not self.raced:
                self.raced = True
                baton.give("b")
                baton._waiting["b"] = True
                return False
            return lock.acquire(blocking, timeout)

        def release(self):
            lock.release()

    baton._locks["a"] = LateGive()
    assert baton.wait("a", 0.02) is None
    assert baton.turn == "a"
