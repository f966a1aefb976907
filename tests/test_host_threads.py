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
from repro.cluster.scenarios import build_littled_cluster, run_distributed_ab
from repro.kernel import Kernel
from repro.sim import OK_CLASSES
from repro.sim.runner import run_scenario
from repro.sim.scenario import Scenario, generate_matrix
from repro.trace import record_littled, replay_trace
from repro.workloads.ab import ApacheBench


def record_supervised_littled():
    """2 sMVX workers, a worker kill and a graceful reload; returns the
    trace, with the recorded server shut down."""
    kernel, server, recorder = record_littled(
        seed="threads-rr", workers=2, smvx=True, protect="server_main_loop",
        workload={"requests": 12, "concurrency": 3,
                  "timeout_ns": 2_000_000_000},
        control={"restart_budget": 2, "reload_at_ns": 6_000_000,
                 "worker_kills": [{"slot": 1, "at_ns": 2_000_000}]})
    trace = recorder.finish()
    server.shutdown()
    assert trace.footer["supervisor"]["restarts_total"] == 1
    return trace


def supervised_littled_record_and_replay():
    """The supervised run, then the bit-identical replay with the rebuilt
    server kept and shut down by the caller."""
    replay = replay_trace(record_supervised_littled(), keep_server=True)
    replay.server.shutdown()
    assert replay.ok, replay.summary()


def supervised_littled_plain_replay():
    """The supervised run replayed without keeping the server:
    ``replay_trace`` shuts down what it rebuilt."""
    replay = replay_trace(record_supervised_littled())
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


def recorded_littled_cluster_finish():
    """A recorded scheduled cluster closed with ``finish()`` alone: the
    builder's teardown stops the leader's workers."""
    assert len(build_littled_cluster(seed="x", record=True).finish()) == 2


def bench_swarm_scenarios():
    """minx under faults, the distributed CVE, supervised littled with a
    kill, and supervised littled with a reload."""
    matrix = generate_matrix("bench-swarm", 12)
    for index in (0, 1, 2, 11):
        assert run_scenario(matrix[index]).klass in OK_CLASSES


def crashed_sim_run():
    """A scheduled littled whose client raises after the workers have
    started: the run is classified ``crash`` and still torn down."""
    outcome = run_scenario(Scenario(
        index=0, master_seed="leak", workload="littled", workers=2,
        smvx=False, protect=None, client_mode="bogus"))
    assert outcome.klass == "crash"
    assert outcome.raw.error_kind == "ValueError"


SHAPES = [supervised_littled_record_and_replay,
          supervised_littled_plain_replay, protected_minx_then_cve,
          distributed_ab, recorded_littled_cluster_finish,
          bench_swarm_scenarios, crashed_sim_run]


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
