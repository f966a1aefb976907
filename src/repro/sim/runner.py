"""Execute one scenario and report everything the oracle needs.

A run builds the scenario's deployment from its derived seed, installs
the fault schedule, arms any known-bug mutation, drives the traffic and
attack, and collects:

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

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import MvxDivergence, ReproError
from repro.kernel.faults import SHORT_READ_SYSCALLS
from repro.sim.scenario import Scenario
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


def _bench(scenario: Scenario, kernel, server):
    from repro.workloads.ab import ApacheBench
    return ApacheBench(kernel, server, max_stalls=SIM_MAX_STALLS,
                       client_mode=scenario.client_mode,
                       chunk_bytes=scenario.chunk_bytes,
                       partial_preludes=scenario.partial_preludes)


def _snapshot_plane(raw: RawRun, plane, key: str) -> None:
    raw.digests[key] = plane.digest
    raw.fault_events.extend(plane.injected_events)
    for kind, count in plane.injected_by_kind.items():
        raw.injected_by_kind[kind] = \
            raw.injected_by_kind.get(kind, 0) + count


def _run_attack(scenario: Scenario, server, raw: RawRun,
                vfs) -> None:
    from repro.attacks import run_exploit
    from repro.attacks.cve_2013_2028 import VICTIM_DIRECTORY
    outcome = run_exploit(server)
    raw.attack = {
        "directory_created": vfs.is_dir(VICTIM_DIRECTORY),
        "server_crashed": outcome.server_crashed,
        "divergence_detected": outcome.divergence_detected,
        "alarm_count": outcome.alarm_count,
    }


def _execute_minx(scenario: Scenario) -> RawRun:
    from repro.apps.minx import MinxServer
    from repro.kernel.kernel import Kernel

    raw = RawRun()
    kernel = Kernel(seed=scenario.seed)
    server = MinxServer(kernel, protect=scenario.protect,
                        smvx=scenario.smvx,
                        variant_strategy=scenario.variant_strategy)
    schedule = scenario.schedule_obj()
    if schedule is not None:
        kernel.faults.install(schedule)
    _arm_mutation(scenario, kernel)
    server.start()
    bench = _bench(scenario, kernel, server)
    try:
        result = bench.run(scenario.requests,
                           concurrency=scenario.concurrency)
        _fill_traffic(raw, result)
        if scenario.attack == "cve":
            _run_attack(scenario, server, raw, kernel.vfs)
    except MvxDivergence:
        # the alarm log below carries the details; traffic stops here
        raw.failures = scenario.requests - raw.completed
    raw.alarms = _alarm_dicts(server.alarms)
    _snapshot_plane(raw, kernel.faults, "fault")
    raw.digests["clock_end"] = round(kernel.clock.monotonic_ns, 3)
    return raw


def _execute_littled(scenario: Scenario) -> RawRun:
    from repro.apps.littled import LittledServer
    from repro.kernel.kernel import Kernel

    raw = RawRun()
    kernel = Kernel(seed=scenario.seed)
    server = LittledServer(kernel, protect=scenario.protect,
                           smvx=scenario.smvx, workers=scenario.workers,
                           variant_strategy=scenario.variant_strategy)
    schedule = scenario.schedule_obj()
    if schedule is not None:
        kernel.faults.install(schedule)
    _arm_mutation(scenario, kernel)
    server.start()
    sched = kernel.sched
    if scenario.clock_skew_ns and sched is not None:
        sched.apply_clock_skew(
            [i * scenario.clock_skew_ns
             for i in range(len(sched.cores))])

    supervisor = None
    if scenario.supervise and server.workers_n and sched is not None:
        from repro.apps.control import Supervisor
        supervisor = Supervisor(
            server,
            reload_at_ns=(kernel.clock.monotonic_ns + 4_000_000
                          if scenario.reload else None))
        supervisor.start()

    chaos_task = None
    if scenario.worker_kill and server.workers_n >= 2 \
            and sched is not None:
        victim = server.workers[scenario.index % server.workers_n]
        kill_at = kernel.clock.monotonic_ns + 2_000_000

        def chaos() -> None:
            sched.park(deadline_ns=kill_at)
            me = sched.current
            if me is not None and me.cancelled:
                return               # the run ended before the kill slot
            if victim.task is not None and not victim.task.done:
                sched.cancel(victim.task)

        chaos_task = sched.spawn("sim-chaos", chaos)

    bench = _bench(scenario, kernel, server)
    try:
        result = bench.run(scenario.requests,
                           concurrency=scenario.concurrency)
        _fill_traffic(raw, result)
    except MvxDivergence:
        raw.failures = scenario.requests - raw.completed
    if chaos_task is not None and not chaos_task.done:
        sched.cancel(chaos_task)
        sched.run_until(tasks=[chaos_task])
    if supervisor is not None:
        # pin the whole control-plane history (restarts, reload,
        # final served counts) into the digests the oracle compares
        raw.digests["supervisor"] = json.dumps(supervisor.snapshot(),
                                               sort_keys=True)
    server.shutdown()
    raw.alarms = _alarm_dicts(server.alarms)
    _snapshot_plane(raw, kernel.faults, "fault")
    if sched is not None:
        raw.digests["sched"] = sched.digest
        raw.digests["sched_decisions"] = sched.decisions
    raw.digests["clock_end"] = round(kernel.clock.monotonic_ns, 3)
    return raw


def _execute_cluster(scenario: Scenario) -> RawRun:
    from repro.cluster.scenarios import build_minx_cluster

    raw = RawRun()
    schedule = scenario.schedule_obj()
    run = build_minx_cluster(seed=scenario.seed,
                             fault_schedule=schedule, start=False)
    # wire-event digest per host (the satellite's cross-host pin): the
    # recorder isn't attached in sim runs, so tap the hook directly
    wire = hashlib.sha256()
    for host in run.cluster.hosts:
        host_id = host.host_id

        def tap(direction, link, meta, _h=host_id):
            wire.update(
                f"{_h}:{direction}:{link}:{meta['frame']}:"
                f"{meta['lamport']}:{meta['bytes']}".encode())

        host.kernel.wire_hooks.append(tap)
    leader_kernel = run.cluster.host(0).kernel
    if schedule is not None:
        # host-plane faults on the leader too, not just the links: the
        # distributed monitor must survive the same hostile kernel the
        # in-process one does
        leader_kernel.faults.install(schedule)
    _arm_mutation(scenario, leader_kernel)
    if scenario.clock_skew_ns:
        # mirror host boots ahead of the leader: verdict timestamps skew
        run.cluster.host(1).clock.advance_to(
            run.cluster.host(1).clock.monotonic_ns
            + scenario.clock_skew_ns)
    run.leader.start()
    bench = _bench(scenario, leader_kernel, run.leader)
    try:
        result = bench.run(scenario.requests,
                           concurrency=scenario.concurrency)
        _fill_traffic(raw, result)
        if scenario.attack == "cve":
            _run_attack(scenario, run.leader, raw, leader_kernel.vfs)
    except MvxDivergence:
        raw.failures = scenario.requests - raw.completed
    run.dsmvx.settle()
    raw.alarms = _alarm_dicts(run.leader.alarms)
    _snapshot_plane(raw, leader_kernel.faults, "fault")
    for key, link in sorted(run.cluster.links.items()):
        _snapshot_plane(raw, link.faults, f"link{key[0]}-{key[1]}")
    raw.digests["wire"] = wire.hexdigest()
    raw.digests["clock_end"] = round(
        run.cluster.global_time_ns(), 3)
    return raw


_EXECUTORS = {
    "minx": _execute_minx,
    "littled": _execute_littled,
    "cluster": _execute_cluster,
}


def execute(scenario: Scenario) -> RawRun:
    """One raw run; unhandled exceptions become ``crash`` material."""
    executor = _EXECUTORS[scenario.workload]
    try:
        return executor(scenario)
    except ReproError as exc:
        raw = RawRun()
        raw.error = repr(exc)
        raw.error_kind = type(exc).__name__
        return raw
    except (RuntimeError, ValueError, KeyError, IndexError,
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
