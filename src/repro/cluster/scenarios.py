"""Canned distributed-sMVX scenarios: builders, sessions, and the
CVE / battery / replay drivers used by tests, benchmarks, and the CLI.

Every scenario is a pure function of its seed: building the same
scenario twice and driving it with the same stimulus reproduces every
host's trace footer and the merged event order bit-for-bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.deploy import Deployment, Run, build
from repro.kernel.faults import FaultSchedule
from repro.trace.merge import merge_digest, merge_traces
from repro.trace.record import Trace

MINX_PROTECT = "minx_http_process_request_line"
LITTLED_PROTECT = "server_main_loop"


def build_minx_cluster(seed: str = "smvx-cluster",
                       latency_ns: float = 100_000,
                       protect: str = MINX_PROTECT,
                       sensitive: Optional[Sequence[str]] = None,
                       record: bool = False, capacity: int = 4096,
                       fault_schedule: Optional[FaultSchedule] = None,
                       start: bool = True) -> Run:
    """Leader minx on host 0, mirror variant + monitor on host 1."""
    return _build(Deployment(
        app="minx", seed=seed, kwargs={"protect": protect},
        link_faults=fault_schedule, cluster=True, latency_ns=latency_ns,
        sensitive=sensitive), record, capacity, start)


def build_littled_cluster(seed: str = "smvx-cluster",
                          latency_ns: float = 100_000,
                          workers: int = 2,
                          protect: str = LITTLED_PROTECT,
                          sensitive: Optional[Sequence[str]] = None,
                          record: bool = False, capacity: int = 4096,
                          fault_schedule: Optional[FaultSchedule] = None,
                          start: bool = True) -> Run:
    """Pre-forked littled on host 0 (scheduled serving), one mirror
    worker per leader worker on host 1, one wire channel per pair."""
    return _build(Deployment(
        app="littled", seed=seed,
        kwargs={"protect": protect, "workers": workers},
        link_faults=fault_schedule, cluster=True, latency_ns=latency_ns,
        sensitive=sensitive), record, capacity, start)


def _build(spec: Deployment, record: bool = False, capacity: int = 4096,
           start: bool = True) -> Run:
    run = build(spec, record={"capacity": capacity} if record else None)
    return run.start() if start else run


# -- drivers -------------------------------------------------------------------


def run_distributed_cve(seed: str = "smvx-cluster",
                        latency_ns: float = 100_000,
                        record: bool = False) -> Dict:
    """Fire CVE-2013-2028 at the distributed deployment; the verdict
    must come back from the remote monitor before mkdir executes."""
    return _run_cve(Deployment(
        app="minx", seed=seed, kwargs={"protect": MINX_PROTECT},
        attack="cve", cluster=True, latency_ns=latency_ns), record)


def run_inprocess_cve(seed: str = "smvx-cluster") -> Dict:
    """The single-host §4.2 experiment, seeded like host 0 of the
    cluster so both deployments see the same leader kernel stream."""
    return _run_cve(Deployment(
        app="minx", seed=f"{seed}/host0",
        kwargs={"protect": MINX_PROTECT, "smvx": True}, attack="cve"))


def _run_cve(spec: Deployment, record: bool = False) -> Dict:
    from repro.attacks.cve_2013_2028 import VICTIM_DIRECTORY

    run = _build(spec, record).drive()
    traces = run.finish()
    alarms = run.leader.alarms.alarms
    return {"run": run, "outcome": run.exploit, "traces": traces,
            "alarm": alarms[0] if alarms else None,
            "directory_created": run.kernel.vfs.is_dir(VICTIM_DIRECTORY)}


def compare_cve_alarms(seed: str = "smvx-cluster",
                       latency_ns: float = 100_000) -> Dict:
    """The acceptance check: remote monitoring must localize the attack
    exactly like in-process monitoring — same divergence kind, same
    libc call, same guest PC (the leader-space gadget address)."""
    local = run_inprocess_cve(seed)
    distributed = run_distributed_cve(seed, latency_ns)
    fields = {}
    for name in ("kind", "seq", "libc_name", "guest_pc", "task_id"):
        want = getattr(local["alarm"], name, None)
        got = getattr(distributed["alarm"], name, None)
        fields[name] = {"in_process": _plain(want),
                        "distributed": _plain(got),
                        "match": want == got}
    return {
        "match": all(f["match"] for f in fields.values())
        and not local["directory_created"]
        and not distributed["directory_created"],
        "fields": fields,
        "in_process_blocked": not local["directory_created"],
        "distributed_blocked": not distributed["directory_created"],
    }


def _plain(value):
    return getattr(value, "name", value)


def run_distributed_ab(seed: str = "smvx-cluster",
                       latency_ns: float = 100_000, requests: int = 4,
                       fault_schedule: Optional[FaultSchedule] = None,
                       record: bool = False) -> Dict:
    """Benign traffic against distributed minx; every request opens a
    region whose events cross the wire."""
    run = _build(Deployment(
        app="minx", seed=seed, kwargs={"protect": MINX_PROTECT},
        link_faults=fault_schedule, workload={"requests": requests},
        cluster=True, latency_ns=latency_ns), record).drive()
    traces = run.finish()
    return {"run": run, "result": run.result, "traces": traces,
            "alarms": len(run.leader.alarms.alarms)}


def run_link_battery(seed: str = "smvx-cluster",
                     latency_ns: float = 100_000,
                     requests: int = 3) -> List[Dict]:
    """Every battery schedule's link faults against distributed minx.
    Link faults are latency-only, so each entry must complete all
    requests with zero (spurious) divergences."""
    from repro.kernel.faults import battery

    results = []
    for schedule in battery():
        session = run_distributed_ab(seed=f"{seed}/{schedule.name}",
                                     latency_ns=latency_ns,
                                     requests=requests,
                                     fault_schedule=schedule)
        injected = {}
        for link in session["run"].cluster.links.values():
            for kind, count in link.faults.injected_by_kind.items():
                injected[kind] = injected.get(kind, 0) + count
        results.append({
            "schedule": schedule.name,
            "completed": session["result"].status_counts.get(200, 0),
            "requested": requests,
            "alarms": session["alarms"],
            "link_faults": injected,
        })
    return results


def replay_cluster(seed: str = "smvx-cluster",
                   latency_ns: float = 100_000,
                   requests: int = 3) -> Dict:
    """Record a cluster session, then re-derive it from the seeds and
    compare every host's footer pins plus the causally-merged order."""
    from repro.trace.replay import _diff_footers

    def session() -> List[Trace]:
        return run_distributed_ab(seed=seed, latency_ns=latency_ns,
                                  requests=requests, record=True)["traces"]

    recorded = session()
    replayed = session()
    problems: List[str] = []
    for host_id, (want, got) in enumerate(zip(recorded, replayed)):
        problems.extend(f"host{host_id}.{p}" for p in
                        _diff_footers(want.footer, got.footer))
    digest_a = merge_digest(merge_traces(recorded))
    digest_b = merge_digest(merge_traces(replayed))
    if digest_a != digest_b:
        problems.append(f"merged order diverged: {digest_a[:16]} "
                        f"!= {digest_b[:16]}")
    return {"ok": not problems, "problems": problems,
            "traces": recorded, "merged_digest": digest_a}
