"""Production serving control plane: supervisor, reload, admission.

The supervisor is one more deterministic scheduler task, so everything
here runs under virtual time with no harness pump: worker kills are
chaos tasks, reloads are scheduled instants, and the assertions read the
supervisor's own event log and metrics trail.
"""

import pytest

from repro.apps.control import Supervisor, spawn_worker_kill
from repro.apps.littled import LittledServer
from repro.kernel import Kernel
from repro.workloads import ApacheBench


@pytest.fixture
def kernel():
    return Kernel(seed="control-plane")


def _loaded_run(kernel, server, requests=40, concurrency=8):
    ab = ApacheBench(kernel, server, timeout_ns=2_000_000_000)
    return ab.run(requests, concurrency=concurrency)


def test_supervisor_requires_worker_mode(kernel):
    server = LittledServer(kernel)                 # classic pump mode
    with pytest.raises(ValueError, match="multi-worker"):
        Supervisor(server)


def test_supervisor_restarts_killed_worker_mid_load(kernel):
    server = LittledServer(kernel, workers=2)
    server.start()
    supervisor = Supervisor(server).start()
    spawn_worker_kill(server, 0, kernel.clock.monotonic_ns + 2_000_000)
    result = _loaded_run(kernel, server)
    assert result.failures == 0                    # no request dropped
    assert result.requests_completed == 40
    assert supervisor.restarts_total == 1
    assert supervisor.restart_counts == {0: 1}
    restart, = [e for e in supervisor.events if e["event"] == "restart"]
    assert restart["reason"] == "crash"
    assert restart["slot"] == 0
    # the replacement landed in the slot and is serving
    assert server.workers[0].process.pid == restart["pid"]
    assert not server.workers[0].task.done
    supervisor.stop()
    server.shutdown()


def test_cancelled_kill_leaves_its_victim_alone(kernel):
    server = LittledServer(kernel, workers=2)
    server.start()
    spawn_worker_kill(server, 0, kernel.clock.monotonic_ns + 2_000_000)
    kill, = server.chaos_kills
    kernel.sched.cancel(kill)
    assert kernel.sched.run_until(tasks=[kill]) == "done"
    assert not server.workers[0].task.cancelled
    _loaded_run(kernel, server, requests=8, concurrency=2)
    assert not server.workers[0].task.done     # past the kill instant
    server.shutdown()


def test_restart_budget_is_per_slot_and_final(kernel):
    server = LittledServer(kernel, workers=2)
    server.start()
    supervisor = Supervisor(server, restart_budget=1).start()
    spawn_worker_kill(server, 0, kernel.clock.monotonic_ns + 1_000_000)
    assert kernel.sched.run_until(
        lambda: supervisor.restarts_total >= 1) == "done"
    # kill the replacement too: slot 0's budget (1) is already spent
    spawn_worker_kill(server, 0, kernel.clock.monotonic_ns + 1_000_000)
    assert kernel.sched.run_until(
        lambda: any(e["event"] == "budget-exhausted"
                    for e in supervisor.events)) == "done"
    assert supervisor.restarts_total == 1          # no second restart
    assert server.workers[0].task.done             # slot stays down
    assert not server.workers[1].task.done         # sibling untouched
    # the exhaustion is logged once, not re-logged every tick
    deadline = kernel.clock.monotonic_ns + 20_000_000
    kernel.sched.run_until(
        lambda: kernel.clock.monotonic_ns >= deadline)
    exhausted = [e for e in supervisor.events
                 if e["event"] == "budget-exhausted"]
    assert len(exhausted) == 1
    supervisor.stop()
    server.shutdown()


@pytest.mark.parametrize("variant", [
    {},
    {"smvx": True, "protect": "server_main_loop"},
    {"smvx": True, "protect": "server_main_loop",
     "variant_strategy": "aligned"},
], ids=["vanilla", "smvx-shift", "smvx-aligned"])
def test_graceful_reload_drops_no_requests(kernel, variant):
    """The drain flag reaches every follower copy of the worker globals:
    the shifted copy in pages both views share and the aligned follower's
    private copy, so leader and follower take the drain branch together."""
    server = LittledServer(kernel, workers=2, **variant)
    server.start()
    supervisor = Supervisor(
        server,
        reload_at_ns=kernel.clock.monotonic_ns + 2_000_000).start()
    result = _loaded_run(kernel, server)
    assert result.failures == 0                    # zero dropped in-flight
    assert result.requests_completed == 40
    assert supervisor.reloads == 1
    assert supervisor.generation == 1
    reload_event, = [e for e in supervisor.events
                     if e["event"] == "reload"]
    assert len(reload_event["drained"]) == 2
    # the old generation drained and exited; the new one took the load
    assert len(server.retired) == 2
    for worker in server.retired:
        assert worker.task.done
    assert sum(w.served_snapshot for w in server.workers) > 0
    assert server.alarms.alarms == []
    supervisor.stop()
    server.shutdown()


def test_reload_keeps_shared_listener_open(kernel):
    """The listener must survive the old generation's exit sweep: worker
    fds hold references, and only the last drop closes it."""
    server = LittledServer(kernel, workers=2)
    server.start()
    supervisor = Supervisor(
        server,
        reload_at_ns=kernel.clock.monotonic_ns + 1_000_000).start()
    assert kernel.sched.run_until(
        lambda: supervisor.reloads >= 1
        and all(w.task.done for w in server.retired)) == "done"
    listener = kernel.network.listener_at(server.port)
    assert listener is not None and not listener.closed
    # and it still accepts: serve one request through the new generation
    result = _loaded_run(kernel, server, requests=4, concurrency=2)
    assert result.failures == 0
    supervisor.stop()
    server.shutdown()


def test_admission_control_gates_at_conn_cap(kernel):
    """With ``conn_cap`` set, a worker at capacity takes its listener out
    of the epoll set (G_GATED) instead of accepting; the queued clients
    are absorbed once connections free up — served, just later."""
    server = LittledServer(kernel, workers=2, conn_cap=2)
    server.start()
    result = _loaded_run(kernel, server, requests=24, concurrency=12)
    assert result.failures == 0
    assert result.requests_completed == 24
    # capacity was respected: no worker ever held more than its cap
    for worker in server.workers + server.retired:
        assert worker.active_connections <= 2
    server.shutdown()


def test_metrics_trail_counts_and_sums(kernel):
    server = LittledServer(kernel, workers=2)
    server.start()
    samples = []
    supervisor = Supervisor(server).start()
    supervisor.metrics_hook = samples.append
    result = _loaded_run(kernel, server, requests=20, concurrency=4)
    assert result.failures == 0
    supervisor.stop()
    assert supervisor.metric_samples == len(samples) > 0
    last = samples[-1]
    assert last["generation"] == 0
    assert last["restarts_total"] == 0
    assert sum(w["served"] for w in last["workers"]) == 20
    # deltas telescope back to the totals
    for slot in (0, 1):
        deltas = sum(s["workers"][slot]["served_delta"] for s in samples)
        assert deltas == last["workers"][slot]["served"]
    server.shutdown()


def test_snapshot_is_deterministic_across_runs():
    """The footer pin: two identical supervised runs (same seed, same
    kill schedule) produce byte-identical snapshots."""
    import json

    def one_run():
        kernel = Kernel(seed="control-pin")
        server = LittledServer(kernel, workers=2)
        server.start()
        supervisor = Supervisor(
            server,
            reload_at_ns=kernel.clock.monotonic_ns + 2_000_000).start()
        spawn_worker_kill(server, 1,
                          kernel.clock.monotonic_ns + 1_000_000)
        result = _loaded_run(kernel, server, requests=30, concurrency=6)
        assert result.failures == 0
        supervisor.stop()
        snap = json.dumps(supervisor.snapshot(), sort_keys=True)
        server.shutdown()
        return snap

    assert one_run() == one_run()
