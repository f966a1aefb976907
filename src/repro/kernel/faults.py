"""Deterministic kernel-boundary fault injection.

The paper's security argument assumes the monitor survives hostile and
degenerate I/O (the CVE-2013-2028 attacker deliberately paces request
bytes, §2.2), yet a simulated kernel that only ever exercises the happy
path cannot witness the retry/partial-I/O behaviour real servers live
with.  This module is the adversarial-schedule plane: per *fault
schedule* it can inject twelve kinds of fault:

* ``short_read``/``short_write``: ``read``/``recvfrom`` and
  ``write``/``sendto`` transfer fewer bytes than asked;
* ``eintr`` before retry-able syscalls, ``eagain`` (spurious) before
  ``recvfrom``/``accept4``;
* ``emfile``/``enomem``: resource exhaustion on ``open``;
* ``segment``: socket deliveries split into late-arriving pieces
  (attacker-style pacing applied to *every* stream);
* ``spurious_wake``: a parked scheduler task woken with nothing ready;
* ``link_delay``, ``link_drop`` (retransmitted one RTO later),
  ``link_reorder`` and ``link_partition`` on a cluster link's frames,
  all latency-only (each ``repro.cluster.link.ClusterLink`` owns its
  own plane).

It can also cap listener backlogs so connects overflow into
``ECONNREFUSED``.

Every decision is drawn from a SHA-256 counter stream keyed by the
kernel's seed plus the schedule name, exactly like ``/dev/urandom``
(`repro.kernel.vfs.UrandomStream`), so a schedule is a pure function of
``(seed, schedule, query sequence)``: re-running the same workload on a
kernel with the same seed and schedule reproduces every fault
bit-for-bit.  That is what keeps ``repro.trace`` record/replay exact —
the trace stores only the schedule *spec* (rr's insight: perturbations
must themselves be replayable), and replay re-derives the identical
fault stream.

The plane is inert by default: ``Kernel`` creates one with no schedule
installed and the syscall hot path pays a single attribute test.

Schedules come in two forms, and one decision serves both.  Each
injection site counts its opportunity (the nth ``open``, retry-able
syscall, transfer, delivery, park or link frame) and asks
``FaultPlane._fires`` whether that ``(kind, nth, target)`` fires.  A
*probabilistic* schedule answers from its fields: every Nth opportunity
for ``emfile``, ``enomem`` and ``link_partition``, every delivery for
``segment`` while ``segment_bytes`` is set, and a draw from the counter
stream under the kind's probability for the other eight (no draw when
it is zero, so an unarmed kind leaves the stream alone).  A *plan*
schedule (``FaultSchedule(plan=[...])``) answers with its explicit
``{kind, nth, ...}`` entry and ignores the probabilistic fields; an
entry naming a ``target`` matches only that link.  The site takes its
parameters (``granted``, ``size``/``delay_ns``, ``extra_ns``) from the
entry, else from the schedule.

Since both forms count the same opportunities, a failing probabilistic
run's ``injected_events`` convert one-for-one into a plan
(:meth:`FaultSchedule.plan_from_events`) that replays the same faults,
and whose event list `repro.sim`'s shrinker can bisect
deterministically.  A host plane's plan also replays the same
``digest``.  A link plane's does not: a planned link event records only
the delay it adds (``extra_ns``), not the schedule figure behind it
(``held_ns``, ``delay_ns``, ``rto_ns`` and ``nbytes``, ``late_ns``).
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.kernel.errno_codes import Errno

#: syscalls a fault schedule may interrupt with EINTR; the libc layer
#: restarts these (SA_RESTART semantics), so the guest never sees the
#: interruption — only the extra kernel crossings.
RETRYABLE_SYSCALLS = frozenset((
    "read", "write", "recvfrom", "sendto", "accept4",
    "epoll_wait", "epoll_pwait", "open",
))

#: syscalls that may spuriously report EAGAIN (legal for any non-blocking
#: fd: the caller must treat readiness as a hint, not a promise).
EAGAIN_SYSCALLS = frozenset(("recvfrom", "accept4"))

#: syscalls whose byte counts a schedule may clamp (partial transfer).
SHORT_READ_SYSCALLS = frozenset(("read", "recvfrom"))
SHORT_WRITE_SYSCALLS = frozenset(("write", "sendto"))

#: every fault kind a plane can inject.  Plan entries and sim axes are
#: validated against this set at construction so a typo fails loudly
#: instead of producing a vacuous scenario.
KNOWN_FAULT_KINDS = frozenset((
    "eintr", "eagain", "emfile", "enomem",
    "short_read", "short_write", "segment", "spurious_wake",
    "link_delay", "link_drop", "link_reorder", "link_partition",
))


@dataclass
class FaultSchedule:
    """One named, serializable battery entry.

    Probabilities are per-opportunity; ``*_every`` counters fire on every
    Nth opportunity (1-indexed), which keeps resource-exhaustion faults
    rare but inevitable.  A schedule is plain data so traces can embed it
    (`to_dict`) and replay can rebuild it (`from_dict`).
    """

    name: str = "none"
    #: P(EINTR) before each retry-able syscall.
    eintr_p: float = 0.0
    #: P(spurious EAGAIN) before recvfrom/accept4.
    eagain_p: float = 0.0
    #: P(clamp) and byte cap for short reads (never clamps to 0: a
    #: zero-byte read would forge EOF).
    short_read_p: float = 0.0
    short_read_cap: int = 1
    #: P(clamp) and byte cap for short writes.
    short_write_p: float = 0.0
    short_write_cap: int = 1
    #: every Nth open fails EMFILE (0 = never).
    emfile_every: int = 0
    #: every Nth open fails ENOMEM (0 = never) — open(2) really can;
    #: guest mmap/malloc live outside the syscall surface (see
    #: docs/architecture.md §9 on fidelity limits).
    enomem_every: int = 0
    #: split every socket delivery into segments of at most this many
    #: bytes (0 = off) ...
    segment_bytes: int = 0
    #: ... each segment after the first arriving this much later than
    #: the previous one (attacker-style pacing on every stream).
    segment_extra_delay_ns: int = 0
    #: cap every listener's effective backlog (None = leave alone).
    backlog_cap: Optional[int] = None
    #: P(spurious scheduler wakeup) per park: the task is woken with no
    #: readiness behind it and must re-check and re-block (kernels really
    #: do this; thundering-herd handling must survive it).
    spurious_wake_p: float = 0.0
    # -- inter-host link faults (repro.cluster.link) ----------------------
    # All four kinds are *latency-only* on a reliable in-order link
    # (TCP-style): a dropped frame is retransmitted after the RTO, a
    # reordered frame waits in the receive buffer until its predecessors
    # deliver, a partition holds frames until it heals.  Payloads are
    # never lost or corrupted, so link faults can never cause a spurious
    # divergence — only later verdicts.
    #: P(extra queueing delay) per frame, and how much.
    link_delay_p: float = 0.0
    link_delay_ns: int = 0
    #: P(first transmission lost) per frame; the retransmit lands one
    #: RTO later.
    link_drop_p: float = 0.0
    link_rto_ns: int = 2_000_000
    #: P(frame overtaken in flight): it arrives late by this much and the
    #: receiver's in-order delivery holds everything behind it.
    link_reorder_p: float = 0.0
    link_reorder_ns: int = 0
    #: every Nth frame hits a transient partition (0 = never) and waits
    #: this long for it to heal.
    link_partition_every: int = 0
    link_partition_ns: int = 0
    #: explicit fault plan: a list of ``{"kind", "nth", ...params}``
    #: entries keyed by (kind, nth opportunity).  When set, the plane
    #: ignores the probabilistic fields and injects *exactly* these
    #: events — the shrinkable form a failing probabilistic run is
    #: converted to (``FaultPlane.injected_events`` →
    #: :meth:`plan_from_events`) so `repro.sim` can bisect the event
    #: list while every surviving event stays pinned to its opportunity.
    plan: Optional[List[Dict]] = None

    def __post_init__(self) -> None:
        if self.plan is None:
            return
        for entry in self.plan:
            kind = entry.get("kind")
            if kind not in KNOWN_FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r} in plan for schedule "
                    f"{self.name!r}; known kinds: "
                    f"{', '.join(sorted(KNOWN_FAULT_KINDS))}")
            nth = entry.get("nth")
            if not isinstance(nth, int) or nth < 1:
                raise ValueError(
                    f"plan entry for {kind!r} needs a 1-indexed integer "
                    f"'nth' opportunity, got {nth!r}")

    def to_dict(self) -> Dict:
        raw = asdict(self)
        if raw.get("plan") is None:
            del raw["plan"]
        return raw

    @staticmethod
    def from_dict(raw: Dict) -> "FaultSchedule":
        known = FaultSchedule.__dataclass_fields__
        unknown = [key for key in raw if key not in known]
        if unknown:
            raise ValueError(
                f"unknown fault schedule field(s) "
                f"{', '.join(sorted(unknown))}; known fields: "
                f"{', '.join(sorted(known))}")
        return FaultSchedule(**raw)

    @staticmethod
    def plan_from_events(events: List[Dict], name: str = "plan",
                         backlog_cap: Optional[int] = None
                         ) -> "FaultSchedule":
        """Build an explicit-plan schedule replaying exactly ``events``
        (the ``FaultPlane.injected_events`` of a prior run).  Link-kind
        events keep their link name as a ``target`` so per-link planes
        only apply their own entries."""
        plan: List[Dict] = []
        for event in events:
            kind = event["kind"]
            entry: Dict = {"kind": kind, "nth": event["nth"]}
            if kind in ("short_read", "short_write"):
                entry["granted"] = event["granted"]
            elif kind == "segment":
                entry["size"] = event["size"]
                entry["delay_ns"] = event["delay_ns"]
            elif kind.startswith("link_"):
                entry["target"] = event["target"]
                entry["extra_ns"] = event["extra_ns"]
            plan.append(entry)
        return FaultSchedule(name=name, backlog_cap=backlog_cap, plan=plan)


def battery() -> List[FaultSchedule]:
    """The standard adversarial battery: every paper workload must
    complete under each of these with zero spurious MVX divergences.

    Each schedule also arms cluster-link faults (delay/drop/reorder/
    partition); single-host runs never query them, so the historical
    single-host decision streams are unchanged (link draws come from the
    per-link planes in ``repro.cluster.link``, never the host plane)."""
    return [
        FaultSchedule(name="short-reads", short_read_p=0.4,
                      short_read_cap=7,
                      link_delay_p=0.3, link_delay_ns=150_000),
        FaultSchedule(name="short-writes", short_write_p=0.4,
                      short_write_cap=9,
                      link_drop_p=0.2, link_rto_ns=1_000_000),
        FaultSchedule(name="eintr-storm", eintr_p=0.3,
                      link_reorder_p=0.25, link_reorder_ns=80_000),
        FaultSchedule(name="spurious-eagain", eagain_p=0.25,
                      link_partition_every=5,
                      link_partition_ns=3_000_000),
        FaultSchedule(name="segmented-net", segment_bytes=5,
                      segment_extra_delay_ns=20_000,
                      link_delay_p=0.5, link_delay_ns=40_000,
                      link_reorder_p=0.2, link_reorder_ns=60_000),
        FaultSchedule(name="everything", eintr_p=0.15, eagain_p=0.1,
                      short_read_p=0.2, short_read_cap=11,
                      short_write_p=0.2, short_write_cap=13,
                      segment_bytes=48, segment_extra_delay_ns=5_000,
                      link_delay_p=0.2, link_delay_ns=100_000,
                      link_drop_p=0.1, link_rto_ns=1_500_000,
                      link_reorder_p=0.1, link_reorder_ns=50_000,
                      link_partition_every=9,
                      link_partition_ns=2_000_000),
    ]


class FaultPlane:
    """The kernel's fault-injection decision point.

    Inactive (no schedule installed) it costs one attribute test per
    syscall.  Active, each opportunity consumes deterministic PRNG draws
    and every *injected* fault is reported through ``fault_hook`` and
    folded into ``digest`` — the flight recorder taps both, so a trace's
    footer pins the exact fault stream a replay must reproduce.
    """

    def __init__(self, seed: "bytes | str" = b"smvx-repro"):
        if isinstance(seed, str):
            seed = seed.encode()
        self.seed = seed
        self.schedule: Optional[FaultSchedule] = None
        #: the one flag the syscall hot path tests.
        self.active = False
        self._counter = 0
        self._suspend_depth = 0
        self.injected_total = 0
        self.injected_by_kind: Dict[str, int] = {}
        #: per-kind opportunity counters, incremented at every injection
        #: site whether or not a fault fires.  The nth value carried by
        #: each injected event is what lets a probabilistic run be
        #: re-expressed as an explicit plan (same opportunities, same
        #: decisions) and then bisected.
        self._opps: Dict[str, int] = {}
        #: every injection of the current install, with its opportunity
        #: index and site parameters — the raw material for
        #: :meth:`FaultSchedule.plan_from_events`.
        self.injected_events: List[Dict] = []
        self._plan: Optional[Dict[Tuple[str, int], List[Dict]]] = None
        self._digest = hashlib.sha256()
        #: observer: fn(kind, target, detail_dict) on every injection —
        #: the flight recorder's tap.  Never charged virtual time.
        self.fault_hook = None

    # -- lifecycle -----------------------------------------------------------

    def install(self, schedule: Optional[FaultSchedule]) -> None:
        """Install ``schedule`` (or None to disarm) and reset the
        decision stream, so install+workload is reproducible."""
        self.schedule = schedule
        self._counter = 0
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

    @contextmanager
    def suspended(self):
        """No-fault window for machinery-internal I/O (the monitor's
        ``setup()`` reads, rr-style recorder-owned file handling): faults
        model a hostile *world*, not a self-sabotaging monitor."""
        self._suspend_depth += 1
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self._suspend_depth -= 1
            if self._suspend_depth == 0 and self.schedule is not None:
                self.active = previous

    # -- the deterministic decision stream -------------------------------------

    def _draw(self) -> float:
        """One uniform [0, 1) variate from the keyed counter stream."""
        name = (self.schedule.name if self.schedule else "none").encode()
        block = hashlib.sha256(
            self.seed + b"|faults|" + name + b"|" +
            self._counter.to_bytes(8, "little")).digest()
        self._counter += 1
        return int.from_bytes(block[:8], "little") / float(1 << 64)

    def _inject(self, kind: str, target: str, **detail) -> None:
        self.injected_total += 1
        self.injected_by_kind[kind] = self.injected_by_kind.get(kind, 0) + 1
        payload = f"{kind}:{target}:" + ",".join(
            f"{k}={detail[k]}" for k in sorted(detail))
        self._digest.update(payload.encode())
        self.injected_events.append(
            dict(detail, kind=kind, target=target))
        if self.fault_hook is not None:
            self.fault_hook(kind, target, detail)

    def _opp(self, kind: str) -> int:
        """Count one opportunity for ``kind``; returns its 1-indexed
        position.  Counted unconditionally (plan or probabilistic mode)
        so recorded nth values line up across both."""
        nth = self._opps.get(kind, 0) + 1
        self._opps[kind] = nth
        return nth

    def _fires(self, kind: str, nth: int, chance: float = 0.0,
               every: int = 0, target: Optional[str] = None
               ) -> Optional[Dict]:
        """The one injection decision: does opportunity ``nth`` of
        ``kind`` fire?  None if not; otherwise what to inject it with.

        A plan fires exactly its entries and answers with the entry;
        one that names a ``target`` (a link) matches only that target.
        A probabilistic schedule fires every ``every``-th opportunity
        if ``every`` is set, else with probability ``chance``, drawing
        only when ``chance`` is non-zero (so a schedule that leaves a
        kind unarmed keeps its historical stream), and answers with an
        empty entry: the site's parameters then come from the
        schedule."""
        if self._plan is not None:
            for entry in self._plan.get((kind, nth), ()):
                want = entry.get("target")
                if want is None or want == target:
                    return entry
            return None
        if every:
            return {} if nth % every == 0 else None
        if chance and self._draw() < chance:
            return {}
        return None

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    # -- injection points (called by the kernel) --------------------------------

    def before_syscall(self, name: str) -> Optional[int]:
        """Fault to return instead of running the handler, or None.

        Called after the syscall is counted/charged and entry hooks ran:
        an injected EINTR is a real kernel crossing, and the trace's
        syscall digest must contain it.
        """
        schedule = self.schedule
        if schedule is None:
            return None
        if name == "open":
            # EMFILE and ENOMEM share one opportunity: the nth open
            nth = self._opp("open")
            if self._fires("emfile", nth,
                           every=schedule.emfile_every) is not None:
                self._inject("emfile", name, nth=nth)
                return -Errno.EMFILE
            if self._fires("enomem", nth,
                           every=schedule.enomem_every) is not None:
                self._inject("enomem", name, nth=nth)
                return -Errno.ENOMEM
        if name in RETRYABLE_SYSCALLS:
            nth = self._opp("eintr")
            if self._fires("eintr", nth, schedule.eintr_p) is not None:
                self._inject("eintr", name, nth=nth)
                return -Errno.EINTR
        if name in EAGAIN_SYSCALLS:
            nth = self._opp("eagain")
            if self._fires("eagain", nth, schedule.eagain_p) is not None:
                self._inject("eagain", name, nth=nth)
                return -Errno.EAGAIN
        return None

    def clamp_io(self, name: str, count: int) -> int:
        """Possibly shorten a transfer; never below 1 byte (a clamp to 0
        would forge EOF on reads and a no-op on writes)."""
        schedule = self.schedule
        if schedule is None or count <= 1:
            return count
        if name in SHORT_READ_SYSCALLS:
            kind, chance, cap = ("short_read", schedule.short_read_p,
                                 schedule.short_read_cap)
        elif name in SHORT_WRITE_SYSCALLS:
            kind, chance, cap = ("short_write", schedule.short_write_p,
                                 schedule.short_write_cap)
        else:
            return count
        nth = self._opp(kind)
        entry = self._fires(kind, nth, chance)
        if entry is None:
            return count
        clamped = max(1, min(count, entry.get("granted", cap)))
        if clamped < count:
            self._inject(kind, name, asked=count, granted=clamped, nth=nth)
        return clamped

    def segment_delivery(self, data: bytes
                         ) -> Optional[List[Tuple[bytes, int]]]:
        """Split one socket delivery into ``(chunk, extra_delay_ns)``
        pieces, or None to deliver whole.  Delays are cumulative in the
        caller: segment *k* arrives k * extra_delay_ns after the first."""
        schedule = self.schedule
        if schedule is None:
            return None
        nth = self._opp("segment")
        entry = self._fires("segment", nth,
                            every=1 if schedule.segment_bytes else 0)
        if entry is None:
            return None
        size = entry.get("size", schedule.segment_bytes)
        delay_ns = entry.get("delay_ns", schedule.segment_extra_delay_ns)
        if len(data) <= size:
            return None
        pieces = [(bytes(data[i:i + size]), (i // size) * delay_ns)
                  for i in range(0, len(data), size)]
        self._inject("segment", "deliver", nbytes=len(data),
                     pieces=len(pieces), size=size, delay_ns=delay_ns,
                     nth=nth)
        return pieces

    def spurious_wake(self) -> bool:
        """Should this park be woken spuriously?  (Consulted by the
        scheduler; draws only when the schedule arms it, so schedules
        without it keep their exact historical decision streams.)"""
        schedule = self.schedule
        if schedule is None:
            return False
        nth = self._opp("spurious_wake")
        if self._fires("spurious_wake", nth,
                       schedule.spurious_wake_p) is None:
            return False
        self._inject("spurious_wake", "park", nth=nth)
        return True

    def link_frame(self, link: str, frame_seq: int, nbytes: int) -> float:
        """Extra delivery delay (ns) for one wire frame on a cluster
        link, drawn from this plane's stream.  Each
        :class:`repro.cluster.link.ClusterLink` owns its *own* plane, so
        link draws never perturb a host's syscall fault stream.

        All four kinds are additive latency on a reliable in-order
        transport — content is never lost, so they can shift verdict
        arrival times but never fabricate a divergence.  ``frame_seq``
        is the per-link opportunity index of every kind."""
        schedule = self.schedule
        if schedule is None:
            return 0.0
        extra = 0.0
        for kind, chance, every, scheduled_ns, field_name in (
                ("link_partition", 0.0, schedule.link_partition_every,
                 schedule.link_partition_ns, "held_ns"),
                ("link_delay", schedule.link_delay_p, 0,
                 schedule.link_delay_ns, "delay_ns"),
                ("link_drop", schedule.link_drop_p, 0,
                 schedule.link_rto_ns, "rto_ns"),
                ("link_reorder", schedule.link_reorder_p, 0,
                 schedule.link_reorder_ns, "late_ns")):
            entry = self._fires(kind, frame_seq, chance, every, link)
            if entry is None:
                continue
            extra_ns = entry.get("extra_ns")
            detail: Dict = {"frame": frame_seq}
            if extra_ns is None:
                # the schedule's figure, under its own name; a planned
                # event carries only the delay it recorded
                extra_ns = detail[field_name] = scheduled_ns
                if kind == "link_drop":
                    detail["nbytes"] = nbytes
            extra += extra_ns
            self._inject(kind, link, **detail, extra_ns=extra_ns,
                         nth=frame_seq)
        return extra

    def backlog_limit(self, configured: int) -> int:
        """Effective listener backlog under this schedule."""
        schedule = self.schedule
        if schedule is None or schedule.backlog_cap is None:
            return configured
        return min(configured, schedule.backlog_cap)
