"""The fault plane's one injection decision against the two it replaced.

``FaultPlane`` used to decide each fault kind twice: every injection
site branched on the schedule's mode, drawing from the counter stream
for a probabilistic schedule and calling ``_planned`` for a plan.  Now
each site counts its opportunity and asks ``_fires`` once.  The old
``install``, ``_planned``, ``before_syscall``, ``clamp_io``,
``segment_delivery``, ``spurious_wake`` and ``link_frame`` are kept
below verbatim as ``reference_*`` (``install`` for the separate
``_opens`` counter it reset), and ``ReferencePlane`` runs them on the
plane's unchanged ``_draw``, ``_opp`` and ``_inject``.

Each case installs one schedule on both planes with the same seed:
either probabilistic (every field the sites read, zeros and 1.0
included) or a plan of up to 20 entries over all 12 kinds (duplicate
``(kind, nth)`` keys, targeted and untargeted link entries, and
probabilistic fields beside it that it must ignore).  It drives the same
calls through every injection method and compares every return value,
the ``fault_hook`` calls, ``injected_events``, ``injected_by_kind``,
``injected_total``, ``digest`` and the draw counter.
"""

import hashlib
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.kernel.errno_codes import Errno
from repro.kernel.faults import (
    EAGAIN_SYSCALLS,
    KNOWN_FAULT_KINDS,
    RETRYABLE_SYSCALLS,
    SHORT_READ_SYSCALLS,
    SHORT_WRITE_SYSCALLS,
    FaultPlane,
    FaultSchedule,
    battery,
)


def reference_install(self, schedule: Optional[FaultSchedule]) -> None:
    """Install ``schedule`` (or None to disarm) and reset the
    decision stream, so install+workload is reproducible."""
    self.schedule = schedule
    self._counter = 0
    self._opens = 0
    self.injected_total = 0
    self.injected_by_kind = {}
    self._opps = {}
    self.injected_events = []
    self._plan = None
    if schedule is not None and schedule.plan is not None:
        self._plan = {}
        for entry in schedule.plan:
            key = (entry["kind"], entry["nth"])
            self._plan.setdefault(key, []).append(entry)
    self._digest = hashlib.sha256()
    self.active = schedule is not None


def reference_planned(self, kind: str, nth: int,
                      target: Optional[str] = None) -> Optional[Dict]:
    """The plan entry for this (kind, nth) opportunity, if any.
    Entries carrying a ``target`` (link names) only match that
    target; untargeted entries match anywhere."""
    if self._plan is None:
        return None
    for entry in self._plan.get((kind, nth), ()):
        want = entry.get("target")
        if want is None or want == target:
            return entry
    return None


def reference_before_syscall(self, name: str) -> Optional[int]:
    """Fault to return instead of running the handler, or None.

    Called after the syscall is counted/charged and entry hooks ran:
    an injected EINTR is a real kernel crossing, and the trace's
    syscall digest must contain it.
    """
    schedule = self.schedule
    if schedule is None:
        return None
    plan = self._plan
    if name == "open":
        self._opens += 1
        if plan is not None:
            if self._planned("emfile", self._opens) is not None:
                self._inject("emfile", name, nth=self._opens)
                return -Errno.EMFILE
            if self._planned("enomem", self._opens) is not None:
                self._inject("enomem", name, nth=self._opens)
                return -Errno.ENOMEM
        else:
            if schedule.emfile_every and \
                    self._opens % schedule.emfile_every == 0:
                self._inject("emfile", name, nth=self._opens)
                return -Errno.EMFILE
            if schedule.enomem_every and \
                    self._opens % schedule.enomem_every == 0:
                self._inject("enomem", name, nth=self._opens)
                return -Errno.ENOMEM
    if name in RETRYABLE_SYSCALLS:
        nth = self._opp("eintr")
        if plan is not None:
            if self._planned("eintr", nth) is not None:
                self._inject("eintr", name, nth=nth)
                return -Errno.EINTR
        elif schedule.eintr_p and self._draw() < schedule.eintr_p:
            self._inject("eintr", name, nth=nth)
            return -Errno.EINTR
    if name in EAGAIN_SYSCALLS:
        nth = self._opp("eagain")
        if plan is not None:
            if self._planned("eagain", nth) is not None:
                self._inject("eagain", name, nth=nth)
                return -Errno.EAGAIN
        elif schedule.eagain_p and self._draw() < schedule.eagain_p:
            self._inject("eagain", name, nth=nth)
            return -Errno.EAGAIN
    return None


def reference_clamp_io(self, name: str, count: int) -> int:
    """Possibly shorten a transfer; never below 1 byte (a clamp to 0
    would forge EOF on reads and a no-op on writes)."""
    schedule = self.schedule
    if schedule is None or count <= 1:
        return count
    plan = self._plan
    if name in SHORT_READ_SYSCALLS:
        nth = self._opp("short_read")
        if plan is not None:
            entry = self._planned("short_read", nth)
            if entry is not None:
                clamped = max(1, min(count, entry["granted"]))
                if clamped < count:
                    self._inject("short_read", name, asked=count,
                                 granted=clamped, nth=nth)
                return clamped
        elif schedule.short_read_p and \
                self._draw() < schedule.short_read_p:
            clamped = max(1, min(count, schedule.short_read_cap))
            if clamped < count:
                self._inject("short_read", name, asked=count,
                             granted=clamped, nth=nth)
            return clamped
    if name in SHORT_WRITE_SYSCALLS:
        nth = self._opp("short_write")
        if plan is not None:
            entry = self._planned("short_write", nth)
            if entry is not None:
                clamped = max(1, min(count, entry["granted"]))
                if clamped < count:
                    self._inject("short_write", name, asked=count,
                                 granted=clamped, nth=nth)
                return clamped
        elif schedule.short_write_p and \
                self._draw() < schedule.short_write_p:
            clamped = max(1, min(count, schedule.short_write_cap))
            if clamped < count:
                self._inject("short_write", name, asked=count,
                             granted=clamped, nth=nth)
            return clamped
    return count


def reference_segment_delivery(self, data: bytes
                               ) -> Optional[List[Tuple[bytes, int]]]:
    """Split one socket delivery into ``(chunk, extra_delay_ns)``
    pieces, or None to deliver whole.  Delays are cumulative in the
    caller: segment *k* arrives k * extra_delay_ns after the first."""
    schedule = self.schedule
    if schedule is None:
        return None
    nth = self._opp("segment")
    if self._plan is not None:
        entry = self._planned("segment", nth)
        if entry is None:
            return None
        size, delay_ns = entry["size"], entry["delay_ns"]
    elif schedule.segment_bytes:
        size, delay_ns = (schedule.segment_bytes,
                          schedule.segment_extra_delay_ns)
    else:
        return None
    if len(data) <= size:
        return None
    pieces = [(bytes(data[i:i + size]), (i // size) * delay_ns)
              for i in range(0, len(data), size)]
    self._inject("segment", "deliver", nbytes=len(data),
                 pieces=len(pieces), size=size, delay_ns=delay_ns,
                 nth=nth)
    return pieces


def reference_spurious_wake(self) -> bool:
    """Should this park be woken spuriously?  (Consulted by the
    scheduler; draws only when the schedule arms it, so schedules
    without it keep their exact historical decision streams.)"""
    schedule = self.schedule
    if schedule is None:
        return False
    nth = self._opp("spurious_wake")
    if self._plan is not None:
        if self._planned("spurious_wake", nth) is not None:
            self._inject("spurious_wake", "park", nth=nth)
            return True
        return False
    if not schedule.spurious_wake_p:
        return False
    if self._draw() < schedule.spurious_wake_p:
        self._inject("spurious_wake", "park", nth=nth)
        return True
    return False


def reference_link_frame(self, link: str, frame_seq: int,
                         nbytes: int) -> float:
    """Extra delivery delay (ns) for one wire frame on a cluster
    link, drawn from this plane's stream.  Each
    :class:`repro.cluster.link.ClusterLink` owns its *own* plane, so
    link draws never perturb a host's syscall fault stream.

    All four kinds are additive latency on a reliable in-order
    transport — content is never lost, so they can shift verdict
    arrival times but never fabricate a divergence."""
    schedule = self.schedule
    if schedule is None:
        return 0.0
    extra = 0.0
    if self._plan is not None:
        # frame_seq is the per-link opportunity index: plan entries
        # for link kinds carry the link name as their target, so a
        # plan shared across links applies only where it was recorded.
        for kind in ("link_partition", "link_delay", "link_drop",
                     "link_reorder"):
            entry = self._planned(kind, frame_seq, target=link)
            if entry is not None:
                extra += entry["extra_ns"]
                self._inject(kind, link, frame=frame_seq,
                             extra_ns=entry["extra_ns"],
                             nth=frame_seq)
        return extra
    if schedule.link_partition_every and \
            frame_seq % schedule.link_partition_every == 0:
        extra += schedule.link_partition_ns
        self._inject("link_partition", link, frame=frame_seq,
                     held_ns=schedule.link_partition_ns,
                     extra_ns=schedule.link_partition_ns,
                     nth=frame_seq)
    if schedule.link_delay_p and self._draw() < schedule.link_delay_p:
        extra += schedule.link_delay_ns
        self._inject("link_delay", link, frame=frame_seq,
                     delay_ns=schedule.link_delay_ns,
                     extra_ns=schedule.link_delay_ns, nth=frame_seq)
    if schedule.link_drop_p and self._draw() < schedule.link_drop_p:
        extra += schedule.link_rto_ns
        self._inject("link_drop", link, frame=frame_seq,
                     rto_ns=schedule.link_rto_ns, nbytes=nbytes,
                     extra_ns=schedule.link_rto_ns, nth=frame_seq)
    if schedule.link_reorder_p and \
            self._draw() < schedule.link_reorder_p:
        extra += schedule.link_reorder_ns
        self._inject("link_reorder", link, frame=frame_seq,
                     late_ns=schedule.link_reorder_ns,
                     extra_ns=schedule.link_reorder_ns,
                     nth=frame_seq)
    return extra


class ReferencePlane(FaultPlane):
    """The old plane: its injection methods, its ``_planned`` and the
    ``_opens`` counter its ``install`` reset."""

    install = reference_install
    _planned = reference_planned
    before_syscall = reference_before_syscall
    clamp_io = reference_clamp_io
    segment_delivery = reference_segment_delivery
    spurious_wake = reference_spurious_wake
    link_frame = reference_link_frame


LINKS = ("h0->h1", "h1->h0")
#: every name the sites test for, plus one outside them all.
SYSCALLS = sorted(RETRYABLE_SYSCALLS | EAGAIN_SYSCALLS | {"open", "close"})
IO_SYSCALLS = sorted(SHORT_READ_SYSCALLS | SHORT_WRITE_SYSCALLS
                     | {"accept4"})

probabilities = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)
everys = st.integers(0, 6)
delays = st.integers(0, 5_000)

probabilistic = st.builds(
    FaultSchedule,
    name=st.sampled_from(["t", "everything"]),
    eintr_p=probabilities, eagain_p=probabilities,
    short_read_p=probabilities, short_read_cap=st.integers(0, 120),
    short_write_p=probabilities, short_write_cap=st.integers(0, 120),
    emfile_every=everys, enomem_every=everys,
    segment_bytes=st.integers(0, 40), segment_extra_delay_ns=delays,
    spurious_wake_p=probabilities,
    link_delay_p=probabilities, link_delay_ns=delays,
    link_drop_p=probabilities, link_rto_ns=delays,
    link_reorder_p=probabilities, link_reorder_ns=delays,
    link_partition_every=everys, link_partition_ns=delays)


@st.composite
def plan_entries(draw, kind=None):
    """One well-formed entry (``plan_from_events`` shape): link kinds
    may name either link, a link never driven, or none at all; a host
    kind naming a target never matches."""
    kind = kind or draw(st.sampled_from(sorted(KNOWN_FAULT_KINDS)))
    entry: Dict = {"kind": kind, "nth": draw(st.integers(1, 6))}
    if kind in ("short_read", "short_write"):
        entry["granted"] = draw(st.integers(0, 120))
    elif kind == "segment":
        entry["size"] = draw(st.integers(1, 40))
        entry["delay_ns"] = draw(delays)
    elif kind.startswith("link_"):
        entry["extra_ns"] = draw(delays)
    target = draw(st.sampled_from((None, None) + LINKS + ("h2->h0",)))
    if target is not None:
        entry["target"] = target
    return entry


@st.composite
def plans(draw):
    entries = draw(st.lists(plan_entries(), max_size=16))
    # name some opportunities twice: the first matching entry wins
    for _ in range(draw(st.integers(0, 4)) if entries else 0):
        first = draw(st.sampled_from(entries))
        again = draw(plan_entries(kind=first["kind"]))
        again["nth"] = first["nth"]
        entries.append(again)
    # a plan ignores the probabilistic fields beside it
    return replace(draw(probabilistic), plan=entries)


calls = st.lists(st.one_of(
    st.tuples(st.just("before_syscall"),
              st.just("open") | st.sampled_from(SYSCALLS)),
    st.tuples(st.just("clamp_io"), st.sampled_from(IO_SYSCALLS),
              st.integers(0, 200)),
    st.tuples(st.just("segment_delivery"),
              st.integers(0, 100).map(lambda n: bytes(range(n)))),
    st.tuples(st.just("spurious_wake")),
    st.tuples(st.just("link_frame"), st.sampled_from(LINKS),
              st.integers(0, 3_000)),
), min_size=50, max_size=80)


def drive(plane: FaultPlane, schedule: FaultSchedule, script) -> Dict:
    """Install ``schedule``, run ``script`` and return everything the
    plane let out.  Frame numbers rise per link, as on a real link."""
    hooked: List = []
    plane.fault_hook = lambda kind, target, detail: hooked.append(
        (kind, target, list(detail.items())))
    plane.install(schedule)
    frames = dict.fromkeys(LINKS, 0)
    returns = []
    for method, *args in script:
        if method == "link_frame":
            link, nbytes = args
            frames[link] += 1
            args = [link, frames[link], nbytes]
        returns.append(getattr(plane, method)(*args))
    return {
        "returns": repr(returns),
        "hooked": hooked,
        "events": [list(event.items()) for event in plane.injected_events],
        "by_kind": plane.injected_by_kind,
        "total": plane.injected_total,
        "digest": plane.digest,
        "draws": plane._counter,
    }


def assert_same(schedule: FaultSchedule, script) -> Dict[str, int]:
    expected = drive(ReferencePlane(b"seed"), schedule, script)
    assert drive(FaultPlane(b"seed"), schedule, script) == expected
    return expected["by_kind"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(schedule=probabilistic | plans(), script=calls)
def test_one_decision_matches_both_reference_modes(schedule, script):
    assert_same(schedule, script)


def test_every_kind_fires_identically_in_both_modes():
    """A fixed, non-vacuous case: a schedule arming all 12 kinds, and
    the plan recorded from it, each fire every kind on both planes."""
    armed = FaultSchedule(
        name="all", eintr_p=0.2, eagain_p=0.3, short_read_p=0.5,
        short_read_cap=7, short_write_p=0.5, short_write_cap=9,
        emfile_every=2, enomem_every=3, segment_bytes=16,
        segment_extra_delay_ns=1_000, spurious_wake_p=0.4,
        link_delay_p=0.4, link_delay_ns=100, link_drop_p=0.3,
        link_rto_ns=900, link_reorder_p=0.3, link_reorder_ns=50,
        link_partition_every=4, link_partition_ns=7_000)
    script = [("before_syscall", name) for name in SYSCALLS] * 4
    script += [("clamp_io", name, 64) for name in IO_SYSCALLS] * 4
    script += [("segment_delivery", bytes(40)), ("spurious_wake",)] * 8
    script += [("link_frame", link, 100) for link in LINKS] * 8
    fired = assert_same(armed, script)
    assert set(fired) == KNOWN_FAULT_KINDS
    plane = FaultPlane(b"seed")
    drive(plane, armed, script)
    plan = FaultSchedule.plan_from_events(plane.injected_events)
    assert assert_same(plan, script) == fired
    for schedule in battery():
        assert_same(schedule, script)
