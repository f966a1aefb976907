"""No host thread outlives its run.

Scheduler tasks and sMVX followers are host threads that take turns on a
``Baton``: a handoff that is never answered strands a thread for good
(or hangs the run).  Each shape below exercises a different mix of
handoffs, from scheduler dispatch and park to lockstep rendezvous on
either host of a cluster, and must leave behind no thread it started.
"""

import threading

import pytest

from repro.apps.minx import MinxServer
from repro.attacks.cve_2013_2028 import run_exploit
from repro.cluster.scenarios import run_distributed_ab
from repro.kernel import Kernel
from repro.sim import OK_CLASSES
from repro.sim.runner import run_scenario
from repro.sim.scenario import generate_matrix
from repro.trace import record_littled, replay_trace
from repro.workloads.ab import ApacheBench


def supervised_littled_record_and_replay():
    """2 sMVX workers, a worker kill and a graceful reload, then the
    bit-identical replay."""
    kernel, server, recorder = record_littled(
        seed="threads-rr", workers=2, smvx=True, protect="server_main_loop",
        workload={"requests": 12, "concurrency": 3,
                  "timeout_ns": 2_000_000_000},
        control={"restart_budget": 2, "reload_at_ns": 6_000_000,
                 "worker_kills": [{"slot": 1, "at_ns": 2_000_000}]})
    trace = recorder.finish()
    server.shutdown()
    assert trace.footer["supervisor"]["restarts_total"] == 1
    replay = replay_trace(trace, keep_server=True)
    replay.server.shutdown()
    assert replay.ok, replay.summary()


def protected_minx_then_cve():
    kernel = Kernel()
    server = MinxServer(kernel, smvx=True,
                        protect="minx_http_process_request_line")
    server.start()
    assert ApacheBench(kernel, server).run(3).status_counts == {200: 3}
    assert run_exploit(server).attack_detected_and_blocked


def distributed_ab():
    assert run_distributed_ab()["alarms"] == 0


def bench_swarm_scenarios():
    """minx under faults, the distributed CVE, supervised littled with a
    kill, and supervised littled with a reload."""
    matrix = generate_matrix("bench-swarm", 12)
    for index in (0, 1, 2, 11):
        assert run_scenario(matrix[index]).klass in OK_CLASSES


SHAPES = [supervised_littled_record_and_replay, protected_minx_then_cve,
          distributed_ab, bench_swarm_scenarios]


@pytest.mark.parametrize("run", SHAPES, ids=[run.__name__ for run in SHAPES])
def test_no_host_thread_outlives_its_run(run):
    before = set(threading.enumerate())
    run()
    stranded = []
    for thread in set(threading.enumerate()) - before:
        thread.join(timeout=10)         # a finished task may still be exiting
        if thread.is_alive():
            stranded.append(thread.name)
    assert not stranded, f"{run.__name__} left {sorted(stranded)}"
