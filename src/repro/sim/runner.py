"""Execute one scenario and report everything the oracle needs.

A run maps the scenario to a :class:`~repro.deploy.Deployment` and
builds, starts and drives it through :mod:`repro.deploy` like every
other run, adding only what is the sim's own: a known-bug mutation and
wire taps before the start, and then it collects:

* the server's alarm log (kind / libc call / guest PC per alarm),
* traffic statistics (completions, failures, status counts),
* the attack outcome, if one was fired,
* per-plane digests (fault stream, scheduler decisions, wire events,
  clock end) folded into one scenario digest — the bit-identity the
  determinism recheck and capsule replay compare,
* the fault plane's injected-event list (the raw material the shrinker
  converts into an explicit bisectable plan).

Everything here is a pure function of the scenario dict: no wall clock,
no host randomness.  ``run_scenario`` re-executes the scenario a second
time when ``recheck`` is set and classifies any digest mismatch as
``divergence`` — the determinism stack auditing itself.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.deploy import Deployment, build
from repro.errors import MvxDivergence, ReproError
from repro.kernel.faults import SHORT_READ_SYSCALLS
from repro.sim.scenario import MINX_PROTECT, Scenario
from repro.sim import oracle

#: patience for fault-schedule runs (matches the fault-battery suites).
SIM_MAX_STALLS = 64


@dataclass
class RawRun:
    """What actually happened, before classification."""

    completed: int = 0
    failures: int = 0
    status_counts: Dict[int, int] = field(default_factory=dict)
    alarms: List[Dict] = field(default_factory=list)
    attack: Optional[Dict] = None
    error: Optional[str] = None          # repr of an unhandled exception
    error_kind: Optional[str] = None     # exception class name
    digests: Dict[str, object] = field(default_factory=dict)
    fault_events: List[Dict] = field(default_factory=list)
    injected_by_kind: Dict[str, int] = field(default_factory=dict)
    sched_status: str = ""


@dataclass
class ScenarioOutcome:
    scenario: Scenario
    klass: str
    detail: str
    digest: str
    digests: Dict[str, object]
    raw: RawRun

    def to_dict(self) -> Dict:
        return {
            "index": self.scenario.index,
            "describe": self.scenario.describe(),
            "class": self.klass,
            "detail": self.detail,
            "digest": self.digest,
            "digests": self.digests,
            "completed": self.raw.completed,
            "failures": self.raw.failures,
            "alarms": self.raw.alarms,
            "attack": self.raw.attack,
            "error": self.raw.error,
            "injected_by_kind": self.raw.injected_by_kind,
        }


def _alarm_dicts(alarm_log) -> List[Dict]:
    out = []
    for report in alarm_log.alarms:
        out.append({
            "kind": getattr(getattr(report, "kind", None), "name",
                            getattr(report, "kind", None)),
            "libc_name": getattr(report, "libc_name", None),
            "guest_pc": getattr(report, "guest_pc", None),
        })
    return out


def _arm_mutation(scenario: Scenario, kernel) -> None:
    """Plant a seeded known bug so the swarm+shrinker pipeline can be
    validated end to end.  'zero-read': every second short-read clamp
    returns 0 bytes, forging EOF mid-request — exactly the bug class
    the fault plane's never-below-1-byte rule is there to prevent."""
    if scenario.mutation == "none":
        return
    if scenario.mutation != "zero-read":
        raise ValueError(f"unknown mutation {scenario.mutation!r}")
    plane = kernel.faults
    original = plane.clamp_io
    state = {"clamps": 0}

    def zero_read_clamp(name: str, count: int) -> int:
        granted = original(name, count)
        if granted < count and name in SHORT_READ_SYSCALLS:
            state["clamps"] += 1
            if state["clamps"] % 2 == 0:
                return 0
        return granted

    plane.clamp_io = zero_read_clamp


def _response_digest(result) -> str:
    blob = json.dumps({
        "completed": result.requests_completed,
        "failures": result.failures,
        "bytes": result.bytes_received,
        "statuses": sorted(result.status_counts.items()),
    }, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _fill_traffic(raw: RawRun, result) -> None:
    raw.completed = result.requests_completed
    raw.failures = result.failures
    raw.status_counts = dict(result.status_counts)
    raw.sched_status = result.sched_status
    raw.digests["responses"] = _response_digest(result)


def _snapshot_plane(raw: RawRun, plane, key: str) -> None:
    raw.digests[key] = plane.digest
    raw.fault_events.extend(plane.injected_events)
    for kind, count in plane.injected_by_kind.items():
        raw.injected_by_kind[kind] = \
            raw.injected_by_kind.get(kind, 0) + count


def _control(scenario: Scenario) -> Optional[Dict]:
    """The control plane of a multi-worker littled scenario: its
    supervisor, reload and worker kill, timed from the post-start
    clock."""
    supervise = scenario.supervise and scenario.workers >= 1
    kill = scenario.worker_kill and scenario.workers >= 2
    if not (supervise or kill):
        return None
    control: Dict = {"supervise": supervise}
    if scenario.reload:
        control["reload_after_ns"] = 4_000_000
    if kill:
        control["worker_kills"] = [{"slot": scenario.index
                                    % scenario.workers,
                                    "after_ns": 2_000_000}]
    return control


def deployment(scenario: Scenario) -> Deployment:
    """The deployment a scenario runs.  The sim's client is patient
    (fault-schedule runs need more stalls than the happy path's 2).  A
    cluster is always protected minx, leader plain and mirror sMVX, with
    the schedule on the leader's host plane and on the links."""
    littled = scenario.workload == "littled"
    cluster = scenario.workload == "cluster"
    schedule = scenario.schedule_obj()
    kwargs = {"protect": MINX_PROTECT} if cluster else {
        "protect": scenario.protect, "smvx": scenario.smvx}
    kwargs["variant_strategy"] = scenario.variant_strategy
    if littled:
        kwargs["workers"] = scenario.workers
    return Deployment(
        app="littled" if littled else "minx", seed=scenario.seed,
        kwargs=kwargs, faults=schedule,
        link_faults=schedule if cluster else None,
        control=_control(scenario) if littled else None,
        workload={"requests": scenario.requests,
                  "concurrency": scenario.concurrency,
                  "max_stalls": SIM_MAX_STALLS,
                  "client_mode": scenario.client_mode,
                  "chunk_bytes": scenario.chunk_bytes,
                  "partial_preludes": scenario.partial_preludes},
        attack="none" if littled else scenario.attack,
        clock_skew_ns=scenario.clock_skew_ns, cluster=cluster)


def _wire_tap(run) -> "hashlib._Hash":
    """Per-host wire-event digest (the cross-host pin): no recorder is
    attached in sim runs, so tap the hook directly."""
    wire = hashlib.sha256()
    for host in run.cluster.hosts:
        def tap(direction, link, meta, _h=host.host_id):
            wire.update(
                f"{_h}:{direction}:{link}:{meta['frame']}:"
                f"{meta['lamport']}:{meta['bytes']}".encode())

        host.kernel.wire_hooks.append(tap)
    return wire


def _drive(scenario: Scenario, run, raw: RawRun) -> None:
    """Start and drive the run, and record what the oracle reads of it
    before teardown."""
    from repro.attacks.cve_2013_2028 import VICTIM_DIRECTORY

    run.start()
    diverged = False
    try:
        run.drive()
    except MvxDivergence:
        diverged = True      # the alarm log below carries the details
    if run.result is not None:
        _fill_traffic(raw, run.result)
    if run.exploit is not None:
        raw.attack = {
            "directory_created": run.kernel.vfs.is_dir(VICTIM_DIRECTORY),
            "server_crashed": run.exploit.server_crashed,
            "divergence_detected": run.exploit.divergence_detected,
            "alarm_count": run.exploit.alarm_count,
        }
    if diverged:
        raw.failures = scenario.requests - raw.completed
    if run.supervisor is not None:
        # pin the whole control-plane history (restarts, reload,
        # final served counts) into the digests the oracle compares
        raw.digests["supervisor"] = json.dumps(run.supervisor.snapshot(),
                                               sort_keys=True)


def _execute(scenario: Scenario) -> RawRun:
    raw = RawRun()
    run = build(deployment(scenario))
    kernel = run.kernel
    wire = _wire_tap(run) if run.cluster is not None else None
    _arm_mutation(scenario, kernel)
    try:
        _drive(scenario, run, raw)
    except Exception:
        # a crash must not strand the run's tasks on their host threads;
        # its first error stays the crash report even if teardown fails
        with contextlib.suppress(Exception):
            run.shutdown()
        raise
    run.shutdown()
    raw.alarms = _alarm_dicts(run.leader.alarms)
    _snapshot_plane(raw, kernel.faults, "fault")
    if run.cluster is not None:
        for key, link in sorted(run.cluster.links.items()):
            _snapshot_plane(raw, link.faults, f"link{key[0]}-{key[1]}")
        raw.digests["wire"] = wire.hexdigest()
    if kernel.sched is not None:
        raw.digests["sched"] = kernel.sched.digest
        raw.digests["sched_decisions"] = kernel.sched.decisions
    raw.digests["clock_end"] = round(
        run.cluster.global_time_ns() if run.cluster is not None
        else kernel.clock.monotonic_ns, 3)
    return raw


def execute(scenario: Scenario) -> RawRun:
    """One raw run; unhandled exceptions become ``crash`` material."""
    try:
        return _execute(scenario)
    except (ReproError, RuntimeError, ValueError, KeyError, IndexError,
            AttributeError, TypeError) as exc:
        raw = RawRun()
        raw.error = repr(exc)
        raw.error_kind = type(exc).__name__
        return raw


def combined_digest(digests: Dict[str, object]) -> str:
    blob = json.dumps(digests, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_scenario(scenario: Scenario) -> ScenarioOutcome:
    """Execute, classify, and (for recheck scenarios) audit determinism
    by running the whole scenario twice and comparing digests."""
    raw = execute(scenario)
    klass, detail = oracle.classify(scenario, raw)
    digest = combined_digest(raw.digests)
    if scenario.recheck and klass != "crash":
        second = execute(scenario)
        if combined_digest(second.digests) != digest:
            first_d, second_d = raw.digests, second.digests
            diff = [key for key in sorted(set(first_d) | set(second_d))
                    if first_d.get(key) != second_d.get(key)]
            klass = "divergence"
            detail = ("recheck digests differ: "
                      + ", ".join(diff or ["<none>"]))
    return ScenarioOutcome(scenario=scenario, klass=klass, detail=detail,
                           digest=digest, digests=raw.digests, raw=raw)
