"""Command-line front end for distributed sMVX.

::

    python -m repro.cluster demo --requests 4
    python -m repro.cluster attack
    python -m repro.cluster record /tmp/cluster --requests 3
    python -m repro.cluster replay --requests 3
    python -m repro.cluster battery
    python -m repro.cluster bench --requests 8

``attack`` exits non-zero if the distributed deployment localizes the
CVE-2013-2028 alarm differently from the in-process one (different
kind, libc call, or guest PC) — the CI cluster-smoke gate.  ``replay``
exits non-zero if a re-derived cluster run is not bit-identical to the
recorded one (per-host footer pins + merged causal order).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.cluster.scenarios import (
    compare_cve_alarms,
    replay_cluster,
    run_distributed_ab,
    run_link_battery,
)
from repro.trace.merge import merge_summary, merge_traces


def _cmd_demo(args) -> int:
    if args.app == "littled":
        from repro.cluster.scenarios import LITTLED_PROTECT
        from repro.deploy import Deployment, build

        run = build(Deployment(
            app="littled", seed=args.seed,
            kwargs={"protect": LITTLED_PROTECT, "workers": args.workers},
            workload={"requests": args.requests,
                      "concurrency": min(args.requests, 4)},
            cluster=True, latency_ns=args.latency_ns)).start().drive()
        run.shutdown()
        result = run.result
        session = {"result": result, "run": run,
                   "alarms": len(run.leader.alarms.alarms)}
        print(f"scheduled serving: {result.workers} workers, "
              f"concurrency {result.concurrency}, "
              f"sched {result.sched_status!r}")
    else:
        session = run_distributed_ab(seed=args.seed,
                                     latency_ns=args.latency_ns,
                                     requests=args.requests)
    result, run = session["result"], session["run"]
    cluster = run.cluster
    print(f"served {result.requests_completed}/{args.requests} requests "
          f"({result.status_counts}), {session['alarms']} alarms")
    monitor = run.dsmvx.monitor
    print(f"regions: {monitor.stats.regions_entered}, leader calls "
          f"shipped: {monitor.stats.leader_calls}")
    for (src, dst), link in sorted(cluster.links.items()):
        print(f"link h{src}->h{dst}: {link.frames_sent} frames, "
              f"{link.bytes_sent} bytes")
    print(f"host clocks: " + ", ".join(
        f"h{h.host_id}={h.clock.monotonic_ns:,.0f}ns"
        for h in cluster.hosts))
    return 0 if result.failures == 0 and session["alarms"] == 0 else 1


def _cmd_attack(args) -> int:
    comparison = compare_cve_alarms(seed=args.seed,
                                    latency_ns=args.latency_ns)
    print(json.dumps(comparison, indent=2, default=str))
    if not comparison["match"]:
        print("ALARM LOCATION MISMATCH between in-process and "
              "distributed runs", file=sys.stderr)
        return 1
    print("distributed monitor localized the attack identically "
          "(same kind, call, guest PC) and blocked it")
    return 0


def _cmd_record(args) -> int:
    traces = run_distributed_ab(seed=args.seed, latency_ns=args.latency_ns,
                                requests=args.requests,
                                record=True)["traces"]
    paths = []
    for trace in traces:
        path = f"{args.prefix}.host{trace.footer['host_id']}.json"
        trace.save(path)
        paths.append(path)
    merged = merge_traces(traces)
    summary = merge_summary(merged)
    merged_path = f"{args.prefix}.merged.json"
    with open(merged_path, "w") as fh:
        json.dump({"summary": summary, "events": merged}, fh, indent=1)
        fh.write("\n")
    print(f"recorded {len(traces)} host traces -> {', '.join(paths)}")
    print(f"merged {summary['events']} events "
          f"(lamport max {summary['lamport_max']}) -> {merged_path}")
    print(f"merged digest: {summary['digest']}")
    return 0


def _cmd_replay(args) -> int:
    outcome = replay_cluster(seed=args.seed, latency_ns=args.latency_ns,
                             requests=args.requests)
    if outcome["ok"]:
        print(f"replay bit-identical on every host; merged digest "
              f"{outcome['merged_digest'][:16]}...")
        return 0
    for problem in outcome["problems"]:
        print(f"MISMATCH: {problem}", file=sys.stderr)
    return 1


def _cmd_battery(args) -> int:
    rows = run_link_battery(seed=args.seed, latency_ns=args.latency_ns,
                            requests=args.requests)
    failed = False
    for row in rows:
        ok = row["alarms"] == 0 and row["completed"] == row["requested"]
        failed = failed or not ok
        print(f"{row['schedule']:<18} completed "
              f"{row['completed']}/{row['requested']}  alarms "
              f"{row['alarms']}  link faults {row['link_faults']}")
    if failed:
        print("battery produced spurious divergences or lost requests",
              file=sys.stderr)
        return 1
    print("link-fault battery: zero spurious divergences")
    return 0


def _cmd_bench(args) -> int:
    rows = []
    for latency_ns in (args.latency_ns, args.latency_ns * 10):
        session = run_distributed_ab(seed=args.seed,
                                     latency_ns=latency_ns,
                                     requests=args.requests)
        result = session["result"]
        rows.append({
            "latency_ns": latency_ns,
            "busy_per_request_ns": round(result.busy_per_request_ns, 1),
            "wall_per_request_ns": round(result.wall_per_request_ns, 1),
            "alarms": session["alarms"],
        })
    print(json.dumps(rows, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="drive distributed sMVX on the simulated cluster")
    parser.add_argument("--seed", default="smvx-cluster")
    parser.add_argument("--latency-ns", dest="latency_ns", type=float,
                        default=100_000,
                        help="base link latency in virtual ns")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("demo", help="serve benign traffic distributed")
    p.add_argument("--requests", type=int, default=4)
    p.add_argument("--app", choices=("minx", "littled"), default="minx",
                   help="littled = pre-forked workers under the "
                        "deterministic scheduler, mirrored per worker")
    p.add_argument("--workers", type=int, default=2,
                   help="worker count for --app littled")
    p.set_defaults(func=_cmd_demo)

    p = sub.add_parser("attack",
                       help="CVE-2013-2028 in-process vs distributed; "
                            "fail on alarm-location mismatch")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("record",
                       help="record a cluster run: one trace per host "
                            "plus the causal merge")
    p.add_argument("prefix", help="output path prefix")
    p.add_argument("--requests", type=int, default=3)
    p.set_defaults(func=_cmd_record)

    p = sub.add_parser("replay",
                       help="re-derive a recorded run from seeds; fail "
                            "unless bit-identical per host and merged")
    p.add_argument("--requests", type=int, default=3)
    p.set_defaults(func=_cmd_replay)

    p = sub.add_parser("battery",
                       help="link-fault battery; fail on any spurious "
                            "divergence")
    p.add_argument("--requests", type=int, default=3)
    p.set_defaults(func=_cmd_battery)

    p = sub.add_parser("bench", help="leader overhead at 2 latencies")
    p.add_argument("--requests", type=int, default=8)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
