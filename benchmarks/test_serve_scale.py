"""Production-scale serving: 1000 concurrent keep-alive clients.

The acceptance run for the serving control plane: ``ab -n 2000 -c 1000
-k`` (pipelined bursts of 2) against the pre-forked littled with 1 and 4
workers.  Three claims are asserted and exported to ``BENCH_serve.json``
for the CI serve-smoke job:

* *scaling* — wall-clock requests/sec grows >= 2x from 1 to 4 workers
  (each worker owns a virtual core; their local times overlap);
* *O(ready) epoll* — with ~1000 watched keep-alive connections per
  worker, a poll probes only the fds with traffic: the measured
  probes-per-poll must stay far below the interest-list size;
* *event-driven wakeups* — the scheduler re-evaluates a parked task's
  horizon only when its channel fires or its cached instant comes due,
  so horizon evaluations per driver decision stay at most 1 (a
  per-decision scan over ~1000 parked clients would cost hundreds);
* *supervised determinism* — a kill + graceful-reload run under the
  flight recorder replays bit-identically, control-plane history pinned
  in the footer.
"""

import json
import os

from repro.apps import LittledServer
from repro.kernel import Kernel
from repro.kernel.fds import EpollFD
from repro.workloads import ApacheBench

REQUESTS = 4000
CONCURRENCY = 1000
PIPELINE = 2
#: wrk-style think time: each client holds its keep-alive connection
#: open, idle, between bursts — so the fleet carries ~1000 *resident*
#: connections, the case the O(ready) epoll exists for.
THINK_NS = 100_000_000
#: ample patience for the C=1000 stampede: SYN retransmits while the
#: accept queue churns, and a request timeout that outlasts the backlog.
CONNECT_RETRIES = 200
TIMEOUT_NS = 2_000_000_000
RPS_FLOOR_4W = 4_000
BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_serve.json")


def _epoll_cost(kernel, server) -> dict:
    """Aggregate poll/probe counters over the fleet's epoll instances."""
    polls = probes = interest = 0
    for worker in server.workers:
        pcb = kernel.state_of(worker.process.pid)
        for description in pcb.fds.values():
            if isinstance(description, EpollFD):
                polls += description.instance.polls
                probes += description.instance.probes
                interest = max(interest,
                               description.instance.max_interest)
    return {"polls": polls, "probes": probes,
            "max_interest": interest,
            "probes_per_poll": round(probes / max(polls, 1), 2)}


def _sched_cost(sched) -> dict:
    return {"decisions": sched.decisions,
            "horizon_evals": sched.horizon_evals,
            "evals_per_decision": round(
                sched.horizon_evals / max(sched.decisions, 1), 3)}


def _serve(workers: int) -> dict:
    kernel = Kernel(seed="bench-serve")
    server = LittledServer(kernel, workers=workers)
    server.start()
    bench = ApacheBench(kernel, server, pipeline=PIPELINE,
                        timeout_ns=TIMEOUT_NS, think_ns=THINK_NS,
                        connect_retries=CONNECT_RETRIES)
    result = bench.run(REQUESTS, concurrency=CONCURRENCY)
    epoll = _epoll_cost(kernel, server)
    sched = _sched_cost(kernel.sched)
    row = {
        "workers": workers,
        "completed": result.requests_completed,
        "failures": result.failures,
        "wall_ms": round(result.wall_ns / 1e6, 3),
        "wall_rps": round(result.wall_throughput_rps, 1),
        "alarms": len(server.alarms.alarms),
        "per_worker": [w.served_snapshot for w in server.workers],
        "epoll": epoll,
        "sched": sched,
    }
    server.shutdown()
    return row


def _supervised_determinism() -> dict:
    """Record a supervised kill + reload run twice; the footer pins
    (scheduler digest, supervisor history) must match bit-for-bit."""
    from repro.trace import record_littled

    def one():
        kernel, server, recorder = record_littled(
            seed="bench-serve-ctl",
            workload={"requests": 60, "concurrency": 12,
                      "timeout_ns": TIMEOUT_NS},
            control={"restart_budget": 2, "reload_at_ns": 6_000_000,
                     "worker_kills": [{"slot": 1, "at_ns": 2_000_000}]},
            workers=2)
        trace = recorder.finish()
        server.shutdown()
        return trace

    first, second = one(), one()
    assert first.footer["sched_digest"] == second.footer["sched_digest"]
    assert first.footer["supervisor"] == second.footer["supervisor"]
    pin = first.footer["supervisor"]
    assert pin["restarts_total"] == 1 and pin["reloads"] == 1
    assert pin["served_total"] == 60
    return {"sched_digest": first.footer["sched_digest"],
            "restarts": pin["restarts_total"],
            "reloads": pin["reloads"]}


def test_serve_scale(table):
    rows = [_serve(1), _serve(4)]
    for row in rows:
        assert row["completed"] == REQUESTS, row
        assert row["failures"] == 0, row
        assert row["alarms"] == 0, row            # zero unexpected alarms
        # O(ready): ~CONCURRENCY watched fds per fleet, but each poll
        # probes only the few with traffic in flight
        epoll = row["epoll"]
        assert epoll["max_interest"] > 100, epoll
        assert epoll["probes_per_poll"] < epoll["max_interest"] / 10, \
            f"epoll scan is not O(ready): {epoll}"
        assert row["sched"]["evals_per_decision"] <= 1, \
            f"scheduler wakeups are not event-driven: {row['sched']}"

    scaling = rows[1]["wall_rps"] / rows[0]["wall_rps"]
    determinism = _supervised_determinism()

    payload = {
        "workload": f"ab -n {REQUESTS} -c {CONCURRENCY} -k "
                    f"(pipeline {PIPELINE}, think "
                    f"{THINK_NS / 1e6:.0f}ms) /index.html",
        "rows": rows,
        "scaling_1_to_4": round(scaling, 2),
        "supervised_determinism": determinism,
    }
    with open(BENCH_JSON, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    table(f"Keep-alive serving at C={CONCURRENCY} (virtual wall time)",
          ("workers", "wall ms", "wall rps", "probes/poll",
           "max interest", "evals/decision"),
          [(r["workers"], f"{r['wall_ms']:.1f}", f"{r['wall_rps']:,.0f}",
            r["epoll"]["probes_per_poll"], r["epoll"]["max_interest"],
            r["sched"]["evals_per_decision"])
           for r in rows])

    assert scaling >= 2.0, \
        f"1 -> 4 workers scaled wall throughput only {scaling:.2f}x " \
        f"(need >= 2x); see {BENCH_JSON}"
    assert rows[1]["wall_rps"] >= RPS_FLOOR_4W, \
        f"4-worker throughput {rows[1]['wall_rps']} rps below the " \
        f"{RPS_FLOOR_4W} floor; see {BENCH_JSON}"
