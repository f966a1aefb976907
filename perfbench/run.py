"""Host-time benchmark of the sMVX simulator.

One workload per process::

    python3 perfbench/run.py --workload serve-c1000 --seed 1 --trace 0

runs the workload with tracing off and prints its end-to-end metrics;
``--trace 1`` runs it untraced and then traced, and prints the per-layer
split of host time instead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The line before
it, ``report {...}``, carries everything else: provenance, verdicts,
simulated statistics and their ``virtual_digest``.

Without ``--workload`` (or with ``--workload all``) it runs every workload
in its own process, untraced and then traced, ``--repeat`` times each, and
prints one table.  Every metric here is host time; simulated (virtual)
statistics are outputs the benchmark checks, never metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: set-up-only repetitions before the measured units (also warm-up);
#: ``setup_s`` is the median over these and every unit's own set-up.
SETUP_REPS = 15

#: the table's "near zero on" column: layers whose share of traced host
#: time should stay under ``NEAR_ZERO`` on a workload.
NEAR_ZERO = 0.01
EXPECTED_IDLE = {
    "serve-c1000": ("core.variant", "core.relocate", "core.monitor",
                    "core.ipc", "trace", "cluster"),
    "minx-smvx": ("kernel.sched", "trace", "cluster"),
    "sim-swarm": ("trace",),
    "record-replay": ("cluster",),
}


def provenance(seed: int, seed_string: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    return {"seed": seed, "seed_string": seed_string, "commit": commit,
            "src_sha256": source.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus": sorted(os.sched_getaffinity(0))}


def measure(workload, seed: str, seconds: float, clock, on_op) -> list:
    """Run whole units until another one would overrun ``seconds``
    (at least one)."""
    units = []
    begin = perf_counter()
    while True:
        units.append(workload.unit(seed, clock, on_op))
        # every unit starts from a collected heap: a steadier peak RSS
        gc.collect()
        elapsed = perf_counter() - begin
        if elapsed * (len(units) + 1) / len(units) > seconds:
            return units


def percentile(values: list, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def verdicts(units: list) -> dict:
    """Unit-level contracts, each of which must hold in every unit."""
    from cases import digest
    checks: dict = {}
    for unit in units:
        for name, ok in unit.checks.items():
            checks[name] = checks.get(name, True) and ok
    digests = {digest(unit.virtual) for unit in units}
    checks["virtual-digest-agrees"] = len(digests) == 1
    return checks


def end_to_end(units: list, setups: list, took) -> dict:
    """``took(begin, end)`` turns a host interval into seconds."""
    latencies_ms = [1000 * took(*span) for unit in units
                    for span in unit.latencies]
    rates = [unit.completed / sum(took(*phase) for phase in unit.phases)
             for unit in units]
    setups = [took(*span) for span in setups]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "host_ops_per_s": (statistics.median(rates), "1/s"),
        "host_op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "host_op_p90_ms": (percentile(latencies_ms, 0.9), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "host_peak_rss_mb": (peak, "MB"),
    }


def per_layer(tracer, traced: list, cpu_per_wall: float,
              overhead: float) -> dict:
    from layers import HANDOFF, LAYERS, UNATTRIBUTED
    n = len(traced)
    counts = tracer.counts
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tracer.self_s[layer] / n, "s")
        out[f"{layer}.calls"] = (tracer.calls[layer] / n, "count")
    out["host.handoff.self_s"] = (tracer.self_s[HANDOFF] / n, "s")
    out["host.unattributed_s"] = (tracer.self_s[UNATTRIBUTED] / n, "s")

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    def count(key: str, unit: str = "count"):
        return counts[key] / n, unit

    out["kernel.sched.decisions"] = count("kernel.sched.decisions")
    out["kernel.sched.horizon_evals"] = count("kernel.sched.horizon_evals")
    out["kernel.sched.wake_yield"] = (
        ratio("kernel.sched.wakeups", "kernel.sched.horizon_evals"), "ratio")
    out["kernel.epoll.probes_per_poll"] = (
        ratio("kernel.epoll.probes", "kernel.epoll.polls"), "ratio")
    out["kernel.net.connects_refused"] = count("kernel.net.connects_refused")
    out["machine.insns"] = count("machine.insns")
    out["machine.jit_share"] = (
        ratio("machine.jit_insns", "machine.insns"), "ratio")
    out["core.variant.created"] = count("core.variant.created")
    out["core.relocate.slots_scanned"] = count("core.relocate.slots_scanned")
    out["core.relocate.pointer_yield"] = (
        ratio("core.relocate.pointers_found", "core.relocate.slots_scanned"),
        "ratio")
    out["core.ipc.rendezvous"] = count("core.ipc.rendezvous")
    out["trace.events"] = count("trace.events")
    out["trace.script_ops"] = count("trace.script_ops")
    out["trace.bytes"] = count("trace.bytes", "bytes")
    out["cluster.wire_frames"] = count("cluster.wire_frames")
    out["cluster.wire_bytes"] = count("cluster.wire_bytes", "bytes")
    out["host.cpu_per_wall"] = (cpu_per_wall, "ratio")
    out["host.threads_peak"] = (tracer.threads_peak, "count")
    out["spans.overhead"] = (overhead, "ratio")
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    import cases
    from speed import SpeedProbe
    workload = cases.WORKLOADS[name]
    seed_string = f"{name}/{seed}"
    report = {"workload": name, "why": workload.why, "trace": int(trace),
              **provenance(seed, seed_string)}
    clock = cases.ResponseClock()

    def noop() -> None:
        pass

    if not trace:
        with SpeedProbe() as probe:
            setups = [workload.setup(seed_string)
                      for _ in range(SETUP_REPS)]
            cpu, wall = process_time(), perf_counter()
            units = measure(workload, seed_string, seconds, clock, noop)
            report["host_cpu_per_wall"] = \
                (process_time() - cpu) / (perf_counter() - wall)
        setups += [u.setup for u in units if u.setup is not None]
        metrics = end_to_end(units, setups, probe.duration)
        raw = end_to_end(units, setups, lambda begin, end: end - begin)
        report.update({
            "setup_samples": len(setups),
            "slowdown": probe.slowdown,
            "raw_metrics": {key: value for key, (value, _) in raw.items()},
        })
    else:
        import layers
        with SpeedProbe() as probe:
            cpu, wall = process_time(), perf_counter()
            plain = measure(workload, seed_string, seconds / 2, clock, noop)
            cpu_per_wall = (process_time() - cpu) / (perf_counter() - wall)
            tracer = layers.Tracer()
            tracer.install()
            tracer.start()
            probe.on_sample = tracer.skip
            traced = measure(workload, seed_string, seconds / 2, clock,
                             tracer.harvest)
            traced_wall = tracer.stop()
        tracer.finish()
        units = plain + traced
        overhead = statistics.median(probe.duration(*u.span) for u in traced) \
            / statistics.median(probe.duration(*u.span) for u in plain) - 1
        metrics = per_layer(tracer, traced, cpu_per_wall, overhead)
        # self times, handoffs and the skipped probe samples must
        # partition the traced wall time
        accounted = sum(tracer.self_s.values()) + tracer.skipped
        report.update({"traced_units": len(traced),
                       "untraced_units": len(plain),
                       "traced_wall_s": traced_wall,
                       "accounted_s": accounted,
                       "probe_s": tracer.skipped,
                       "slowdown": probe.slowdown,
                       "missing_targets": tracer.missing})

    checks = verdicts(units)
    if trace:
        checks["spans-sum-to-wall"] = \
            abs(accounted / traced_wall - 1) < 0.01
    ops = sum(u.ops for u in units)
    failed_ops = sum(u.failed_ops for u in units)
    attempted = ops + len(checks)
    failed = failed_ops + sum(1 for ok in checks.values() if not ok)
    report.update({
        "units": len(units), "unit_wall_s": [end - begin for begin, end in
                                         (u.span for u in units)],
        "ops": ops, "failed_ops": failed_ops,
        "latency_samples": sum(len(u.latencies) for u in units),
        "fail_ratio": failed / attempted, "verdicts": checks,
        "virtual": units[0].virtual,
        "virtual_digest": cases.digest(units[0].virtual),
    })

    print(f"perfbench {name}  seed {seed} ({seed_string!r})  "
          f"trace {int(trace)}  python {report['python']}  "
          f"nproc {report['nproc']}  commit {report['commit']}")
    print(f"  {len(units)} units, {ops} operations, "
          f"{report['latency_samples']} timed")
    for key, (value, unit) in metrics.items():
        print(f"  {key:32s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':32s} {report['fail_ratio']:14.6g} ratio "
          f"({failed} of {attempted} attempted)")
    if trace:
        print(f"  traced wall {traced_wall:.3f} s, accounted "
              f"{accounted:.3f} s")
        for layer in EXPECTED_IDLE.get(name, ()):
            share = tracer.self_s[layer] / traced_wall
            print(f"  near zero here: {layer:14s} {share:8.2%} "
                  f"{'ok' if share < NEAR_ZERO else 'NOT near zero'}")
        for target in tracer.missing:
            print(f"  warning: timing target not found: {target}")
    print("  verdicts: " + ", ".join(
        f"{check} {'ok' if ok else 'FAILED'}" for check, ok in checks.items()))
    print(f"  virtual_digest {report['virtual_digest']}")
    print("report " + json.dumps(report, sort_keys=True, default=str))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, repeat: int) -> int:
    """Every workload in its own process, untraced and then traced; one
    table at the end."""
    from cases import WORKLOADS
    rows = []
    correct = True
    for name in WORKLOADS:
        for trace in (0, 1):
            results, digests = [], set()
            for _ in range(repeat):
                proc = subprocess.run(
                    [sys.executable, __file__, "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace)],
                    capture_output=True, text=True, check=False)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode or not lines:
                    sys.stderr.write(proc.stdout + proc.stderr)
                    return proc.returncode or 1
                print("\n".join(lines[:-2]))
                report = json.loads(lines[-2][len("report "):])
                results.append(json.loads(lines[-1]))
                digests.add(report["virtual_digest"])
            correct &= all(r["correct"] for r in results) \
                and len(digests) == 1
            for key in results[0]["metrics"]:
                values = [r["metrics"][key]["value"] for r in results]
                rows.append((name, trace, key, statistics.median(values),
                             min(values), max(values),
                             results[0]["metrics"][key]["unit"]))
            print(f"{name} trace {trace}: {repeat} run(s), virtual digests "
                  f"{'agree' if len(digests) == 1 else 'DIFFER'}")
    print(f"\n{'workload':14s} {'trace':5s} {'metric':32s} "
          f"{'median':>12s} {'min':>12s} {'max':>12s} unit")
    for name, trace, key, median, low, high, unit in rows:
        print(f"{name:14s} {trace:<5d} {key:32s} {median:12.6g} "
              f"{low:12.6g} {high:12.6g} {unit}")
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="serve-c1000, minx-smvx, sim-swarm, "
                             "record-replay, or all (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload with --workload all")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no simulator sources at {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from cases import WORKLOADS
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.repeat)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    # The simulator is host-serial by design: one thread runs at a time
    # and hands over through condition variables.  On one CPU a handover
    # is a local context switch instead of a cross-CPU wakeup, which is
    # both cheaper and far less variable.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
