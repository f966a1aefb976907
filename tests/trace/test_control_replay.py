"""Record/replay of supervised runs: the control plane is part of the
deterministic envelope.

The supervisor, its restarts, a graceful reload, and the chaos kill
schedule are all re-armed from the trace scenario; replay must rebuild
the identical scheduler stream, and the supervisor's own history
(restart counts, reload generation, final served totals) is pinned in
the footer and compared bit-for-bit.
"""

import json
import threading

import pytest

from repro.trace import EventKind, Trace, record_littled, replay_trace

CONTROL = {
    "restart_budget": 2,
    "reload_at_ns": 6_000_000,
    "worker_kills": [{"slot": 1, "at_ns": 2_000_000}],
}
WORKLOAD = {"requests": 30, "concurrency": 6,
            "timeout_ns": 2_000_000_000}


@pytest.fixture(scope="module")
def recorded():
    kernel, server, recorder = record_littled(
        seed="ctl-rr", workload=WORKLOAD, control=dict(CONTROL),
        workers=2, smvx=True, protect="server_main_loop")
    trace = recorder.finish()
    served = server.served
    server.shutdown()
    return trace, served


def test_supervised_run_serves_everything(recorded):
    trace, served = recorded
    assert served == 30                        # kill + reload dropped none


def test_footer_pins_control_plane_history(recorded):
    trace, _ = recorded
    pin = trace.footer["supervisor"]
    assert pin["restarts_total"] == 1
    assert pin["restart_counts"] == {"1": 1}
    assert pin["reloads"] == 1
    assert pin["generation"] == 1
    kinds = [e["event"] for e in pin["events"]]
    assert "restart" in kinds and "reload" in kinds
    assert pin["served_total"] == 30           # retired counts included


def test_metric_events_land_in_the_ring(recorded):
    trace, _ = recorded
    metrics = [e for e in trace.events
               if e["kind"] == EventKind.METRIC.value]
    assert metrics                             # the supervisor sampled
    last = metrics[-1]["data"]
    assert last["restarts_total"] == 1
    assert {w["slot"] for w in last["workers"]} == {0, 1}


def test_supervised_replay_is_bit_identical(recorded):
    trace, _ = recorded
    result = replay_trace(trace)
    assert result.ok, result.summary()
    assert result.replayed_footer["sched_digest"] == \
        trace.footer["sched_digest"]
    assert result.replayed_footer["supervisor"] == \
        trace.footer["supervisor"]


def test_tampered_supervisor_pin_is_detected(recorded):
    trace, _ = recorded
    raw = trace.to_dict()
    raw = json.loads(json.dumps(raw))          # deep copy
    raw["footer"]["supervisor"]["restarts_total"] = 99
    result = replay_trace(Trace.from_dict(raw))
    assert not result.ok
    assert any("supervisor" in m for m in result.mismatches)


def test_shutdown_cancels_a_kill_that_never_came():
    """A kill scheduled past the end of the run is cancelled by
    ``shutdown()``: no task stays parked and no host thread is left."""
    before = set(threading.enumerate())
    for _ in range(3):
        kernel, server, recorder = record_littled(
            workers=2, workload={"requests": 8, "concurrency": 2},
            control={"worker_kills": [{"slot": 0, "at_ns": 10**12}]})
        recorder.finish()
        server.shutdown()
        assert all(task.done for task in kernel.sched.tasks)
        assert server.supervisor.restarts_total == 0
    assert set(threading.enumerate()) <= before
