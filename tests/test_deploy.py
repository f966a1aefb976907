"""The one deployment spec and builder (``repro.deploy``).

Every run — recorded, replayed, simulated or clustered — is built by
``build`` from a ``Deployment``: the dict form must stay the trace's
``meta["scenario"]``, the control plane must arm the same supervisor
and kill tasks for every caller, and the builder must own teardown.
"""

import pytest

from repro.cluster.scenarios import MINX_PROTECT, build_littled_cluster
from repro.deploy import Deployment, build
from repro.kernel.faults import FaultSchedule
from repro.sim import OK_CLASSES, generate_matrix
from repro.sim.runner import deployment, run_scenario

LITTLED = {"workers": 2, "smvx": True, "protect": "server_main_loop"}


def test_single_host_dict_form_is_the_trace_scenario():
    schedule = FaultSchedule(name="reads", short_read_p=0.2)
    spec = Deployment(app="littled", seed="s", kwargs=dict(LITTLED),
                      faults=schedule, workload={"requests": 4},
                      control={"restart_budget": 1})
    raw = spec.to_dict()
    assert raw == {"app": "littled", "seed": "s", "kwargs": LITTLED,
                   "workload": {"requests": 4},
                   "control": {"restart_budget": 1},
                   "faults": schedule.to_dict()}
    assert Deployment.from_dict(raw) == spec
    assert Deployment(kwargs={"smvx": True}).to_dict() == {
        "app": "minx", "seed": "smvx-repro", "kwargs": {"smvx": True}}


def test_cluster_dict_form_names_the_deployment():
    spec = Deployment(app="minx", seed="c", kwargs={"protect": MINX_PROTECT},
                      workload={"requests": 3}, cluster=True)
    assert spec.to_dict() == {"app": "minx-cluster", "seed": "c",
                              "latency_ns": 100_000,
                              "protect": MINX_PROTECT,
                              "fault_schedule": None}


def test_unknown_app_is_refused():
    with pytest.raises(ValueError, match="unknown app"):
        build(Deployment(app="nginx"))


def test_control_instants_count_from_the_arming():
    run = build(Deployment(
        app="littled", seed="armed", kwargs=dict(LITTLED),
        control={"reload_after_ns": 4_000_000,
                 "worker_kills": [{"slot": 1, "after_ns": 2_000_000}]}))
    run.start()
    armed = run.kernel.clock.monotonic_ns
    assert run.supervisor is run.leader.supervisor
    assert run.supervisor.reload_at_ns == armed + 4_000_000
    kill, = run.leader.chaos_kills
    assert kill.name == "littled-chaos-kill-w1" and not kill.done
    run.shutdown()
    run.shutdown()                      # the second call does nothing
    assert kill.done
    assert all(w.task.done for w in run.leader.workers)


def test_kills_without_a_supervisor():
    run = build(Deployment(
        app="littled", seed="unsupervised", kwargs=dict(LITTLED),
        control={"supervise": False,
                 "worker_kills": [{"slot": 0, "at_ns": 1_000_000}]}))
    run.start()
    assert run.supervisor is None and run.leader.supervisor is None
    assert [t.name for t in run.leader.chaos_kills] == \
        ["littled-chaos-kill-w0"]
    run.shutdown()


def test_sim_worker_kill_is_the_control_plane_kill():
    """A sim worker kill is ``spawn_worker_kill``'s task: victim slot
    ``index % workers``, 2 ms past the post-start clock."""
    scenario = next(s for s in generate_matrix("deploy-kill", 80)
                    if s.worker_kill and not s.recheck)
    control = deployment(scenario).control
    assert control["supervise"] == scenario.supervise
    slot = scenario.index % scenario.workers
    assert control["worker_kills"] == [{"slot": slot,
                                        "after_ns": 2_000_000}]
    run = build(deployment(scenario)).start()
    assert [t.name for t in run.leader.chaos_kills] == \
        [f"littled-chaos-kill-w{slot}"]
    run.shutdown()
    assert run_scenario(scenario).klass in OK_CLASSES


def test_cluster_finish_tears_down_the_leader():
    run = build_littled_cluster(seed="teardown", record=True)
    traces = run.finish()
    assert [t.footer["host_id"] for t in traces] == [0, 1]
    assert all(w.task.done for w in run.leader.workers)
    assert run.cluster.pending_frames() == 0
