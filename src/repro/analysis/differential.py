"""Static-vs-dynamic differential gate for the scope analysis.

The static selection (:mod:`repro.analysis.scope`) claims soundness in
one direction: every function network input *actually* reaches at
runtime must be inside the statically selected set.  This module checks
that claim empirically — the libdft-style dynamic engine
(:mod:`repro.taint`) observes a workload, and every function it records
touching tainted bytes must appear in the static ``ScopeReport``'s
selected set (dynamic ⊆ static).  A violation means the static model
missed a real flow (e.g. the post-return-laundering gap documented in
:mod:`repro.analysis.scope`) and the derived protected set would leave
genuinely attacker-reachable code unreplicated.

Executors cover the three bundled workloads, the CVE-2013-2028 exploit,
fault-schedule variation, and a ``repro.sim`` matrix slice (the swarm's
own seeds/schedules/request mixes replayed under the taint engine).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.analysis.scope import ScopeReport, compute_scope
from repro.taint.engine import TaintEngine
from repro.taint.report import DynamicSite, build_report, diff_against_static


@dataclass(frozen=True)
class DifferentialResult:
    """One workload's dynamic observation diffed against the static set."""

    workload: str
    seed: str
    static_selected: FrozenSet[str]
    #: every dynamic site, with ``statically_selected`` verdicts filled
    sites: Tuple[DynamicSite, ...]
    #: dynamically observed functions the static selection missed —
    #: non-empty means the static analysis is UNSOUND for this run
    missed: Tuple[str, ...]
    scope: ScopeReport
    alarms: int = 0

    @property
    def sound(self) -> bool:
        return not self.missed

    @property
    def dynamic_functions(self) -> FrozenSet[str]:
        return frozenset(site.function for site in self.sites)

    def format(self) -> str:
        verdict = "SOUND" if self.sound else "UNSOUND"
        lines = [f"differential {self.workload} [{self.seed}]: {verdict} "
                 f"({len(self.dynamic_functions)} dynamic ⊆ "
                 f"{len(self.static_selected)} static)"]
        for name in self.missed:
            lines.append(f"  MISSED by static selection: {name}")
        return "\n".join(lines)


def _diff(workload: str, seed: str, engine: TaintEngine, loaded,
          alarms: int = 0) -> DifferentialResult:
    scope = compute_scope(loaded.image)
    report = build_report(engine, loaded)
    sites, missed = diff_against_static(report, scope)
    return DifferentialResult(
        workload=workload, seed=seed,
        static_selected=scope.selected, sites=sites, missed=missed,
        scope=scope, alarms=alarms)


def run_minx_differential(seed: str = "diff/minx", requests: int = 5,
                          schedule=None, exploit: bool = False,
                          concurrency: int = 1) -> DifferentialResult:
    """Serve benign traffic (and optionally the CVE-2013-2028 exploit)
    through minx under the dynamic taint engine, then diff."""
    from repro.apps.minx import MinxServer
    from repro.kernel import Kernel
    from repro.workloads import ApacheBench

    kernel = Kernel(seed=seed)
    server = MinxServer(kernel)
    if schedule is not None:
        kernel.faults.install(schedule)
    engine = TaintEngine(server.process).attach()
    try:
        server.start()
        ApacheBench(kernel, server).run(requests,
                                        concurrency=concurrency)
        if exploit:
            from repro.attacks import run_exploit
            run_exploit(server)
    finally:
        engine.detach()
    return _diff("minx" + ("+cve" if exploit else ""), seed, engine,
                 server.loaded)


def run_littled_differential(seed: str = "diff/littled",
                             requests: int = 5, schedule=None,
                             concurrency: int = 1) -> DifferentialResult:
    from repro.apps.littled import LittledServer
    from repro.kernel import Kernel
    from repro.workloads import ApacheBench

    kernel = Kernel(seed=seed)
    server = LittledServer(kernel)
    if schedule is not None:
        kernel.faults.install(schedule)
    engine = TaintEngine(server.process).attach()
    try:
        server.start()
        ApacheBench(kernel, server).run(requests,
                                        concurrency=concurrency)
    finally:
        engine.detach()
    return _diff("littled", seed, engine, server.loaded)


def run_nbench_differential(seed: str = "diff/nbench",
                            workloads: Tuple[int, ...] = (0, 4, 8)
                            ) -> DifferentialResult:
    """Compute-only control: no network input, so the dynamic set — and
    the static selection — must both be empty."""
    from repro.apps.nbench import boot_nbench
    from repro.kernel import Kernel

    process, loaded, _monitor = boot_nbench(Kernel(seed=seed))
    engine = TaintEngine(process).attach()
    try:
        for index in workloads:
            process.call_function("nb_main", index)
    finally:
        engine.detach()
    return _diff("nbench", seed, engine, loaded)


def run_sim_slice(master_seed: str = "diff-swarm", count: int = 8,
                  start: int = 0) -> List[DifferentialResult]:
    """Replay a ``repro.sim`` matrix slice under the taint engine.

    The swarm's own scenario axes supply the variation — per-scenario
    seeds, fault schedules, request counts and concurrency — while the
    server runs unprotected with the engine attached (the engine needs
    to observe the guest space, and soundness must hold regardless of
    whether MVX is on).  Cluster and mutation scenarios are skipped:
    the former spans hosts the single-process engine cannot watch, the
    latter deliberately breaks the app.
    """
    from repro.sim.scenario import generate_matrix

    results: List[DifferentialResult] = []
    for scenario in generate_matrix(master_seed, count, start=start):
        if scenario.workload not in ("minx", "littled"):
            continue
        if getattr(scenario, "mutation", "none") != "none":
            continue
        requests = max(1, min(scenario.requests, 6))
        schedule = scenario.schedule_obj()
        concurrency = max(1, min(scenario.concurrency, 4))
        if scenario.workload == "minx":
            results.append(run_minx_differential(
                seed=scenario.seed, requests=requests,
                schedule=schedule, concurrency=concurrency,
                exploit=scenario.attack == "cve"))
        else:
            results.append(run_littled_differential(
                seed=scenario.seed, requests=requests,
                schedule=schedule, concurrency=concurrency))
    return results
