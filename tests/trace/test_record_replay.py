"""Record/replay round-trips: a recorded run must replay bit-for-bit.

The headline property (ISSUE acceptance): recording a protected-minx ab
run and replaying the trace reproduces identical virtual-cycle totals,
libc call counts, and HTTP responses.  Tampered traces must be *detected*
as divergent, not silently accepted.
"""

import pytest

from repro.attacks import run_exploit
from repro.kernel import Kernel
from repro.trace import (
    EventKind,
    Trace,
    record_littled,
    record_minx,
    replay_trace,
)
from repro.trace.replay import ReplayUrandom
from repro.workloads import ApacheBench

PROTECT = "minx_http_process_request_line"


@pytest.fixture(scope="module")
def recorded():
    """One protected-minx ab run, recorded (shared: recording is cheap,
    the guest run is not)."""
    kernel, server, recorder = record_minx(protect=PROTECT, smvx=True)
    result = ApacheBench(kernel, server).run(3)
    assert result.status_counts == {200: 3}
    trace = recorder.finish()
    return trace


def test_recorded_trace_shape(recorded):
    assert recorded.version == 1
    assert recorded.meta["scenario"] == {
        "app": "minx", "seed": "smvx-repro",
        "kwargs": {"protect": PROTECT, "smvx": True}}
    ops = [op["op"] for op in recorded.script]
    assert ops[0] == "start"
    assert "connect" in ops and "send" in ops and "recv" in ops
    # the run's ground truth landed in the footer
    footer = recorded.footer
    assert footer["counter_total_ns"] > 0
    assert footer["instructions_retired"] > 0
    assert footer["libc_calls_total"] > 0
    assert footer["libc_call_counts"]["recv"] >= 3
    assert footer["alarms"] == []
    # every recv of response bytes carries a digest replay must match
    recvs = [op for op in recorded.script
             if op["op"] == "recv" and "sha" in op]
    assert len(recvs) >= 3


def test_recorded_events_cover_the_stack(recorded):
    kinds = {e["kind"] for e in recorded.events}
    assert EventKind.SYSCALL.value in kinds
    assert EventKind.LIBC.value in kinds
    assert EventKind.RENDEZVOUS.value in kinds      # sMVX lockstep
    assert EventKind.NET_INGRESS.value in kinds
    assert EventKind.NET_ACCEPT.value in kinds
    assert EventKind.STIMULUS.value in kinds


def test_replay_is_bit_identical(recorded):
    result = replay_trace(recorded)
    assert result.ok, result.summary()
    assert result.mismatches == []
    # the acceptance criteria, spelled out
    assert result.replayed_footer["counter_total_ns"] == \
        recorded.footer["counter_total_ns"]
    assert result.replayed_footer["libc_call_counts"] == \
        recorded.footer["libc_call_counts"]
    recorded_shas = [op["sha"] for op in recorded.script
                     if op["op"] == "recv" and "sha" in op]
    replayed_shas = [op["sha"] for op in result.trace.script
                     if op["op"] == "recv" and "sha" in op]
    assert recorded_shas == replayed_shas       # identical HTTP responses
    assert "replay OK" in result.summary()


def test_serialization_roundtrip_replays(recorded, tmp_path):
    path = str(tmp_path / "trace.json")
    recorded.save(path)
    loaded = Trace.load(path)
    assert loaded.to_dict() == recorded.to_dict()
    assert replay_trace(loaded).ok


def test_unsupported_trace_version_rejected(recorded):
    raw = recorded.to_dict()
    raw["version"] = 99
    with pytest.raises(ValueError, match="version"):
        Trace.from_dict(raw)


def test_tampered_footer_is_detected(recorded):
    raw = recorded.to_dict()
    raw["footer"]["instructions_retired"] += 1
    result = replay_trace(Trace.from_dict(raw))
    assert not result.ok
    assert any("instructions_retired" in m for m in result.mismatches)
    assert "DIVERGED" in result.summary()


def test_tampered_request_changes_the_response(recorded):
    """Flipping a byte of a recorded request makes the replayed response
    digest disagree with the recorded one — replay notices."""
    raw = recorded.to_dict()
    send = next(op for op in raw["script"] if op["op"] == "send")
    data = bytearray(bytes.fromhex(send["data"]))
    data[4] ^= 0x01                      # GET /index.html -> another path
    send["data"] = bytes(data).hex()
    result = replay_trace(Trace.from_dict(raw))
    assert not result.ok
    assert any("sha" in m or "footer" in m for m in result.mismatches)


def test_detach_stops_recording():
    kernel, server, recorder = record_minx()
    before = list(recorder.script)
    emitted = recorder.ring.emitted
    recorder.detach()
    assert kernel.vfs.urandom.tap is None
    assert kernel.clock.read_hook is None
    assert kernel.tasks.spawn_hook is None
    assert kernel.network.ingress_hook is None
    assert recorder._on_syscall not in kernel.syscall_result_hooks
    # the server keeps serving; nothing further is recorded
    result = ApacheBench(kernel, server).run(1)
    assert result.status_counts == {200: 1}
    assert recorder.script == before
    assert recorder.ring.emitted == emitted


def test_detach_removes_the_alarm_and_rendezvous_taps():
    kernel, server, recorder = record_minx(protect=PROTECT, smvx=True)
    recorder.detach()
    assert run_exploit(server).attack_detected_and_blocked
    assert recorder._on_alarm not in server.alarms.listeners
    assert recorder._on_rendezvous not in server.monitor.call_taps
    assert recorder._pending_capsules == []


def test_detach_removes_the_supervisor_and_worker_taps():
    kernel, server, recorder = record_littled(
        workers=2, smvx=True, protect="server_main_loop",
        workload={"requests": 4, "concurrency": 2},
        control={"worker_kills": [{"slot": 1, "at_ns": 2_000_000}]})
    supervisor = server.supervisor
    assert supervisor.restarts_total == 1      # a provisioned worker
    recorder.detach()
    assert supervisor.metrics_hook is None
    assert supervisor.worker_hooks == []
    for worker in server.workers + server.retired:
        assert recorder._on_rendezvous not in worker.monitor.call_taps
        assert recorder._on_libc not in \
            worker.process.libc_call_observers
    server.shutdown()


def test_mark_annotations_land_in_the_ring():
    kernel, server, recorder = record_minx()
    recorder.mark("phase", step="warmup")
    marks = recorder.ring.events(EventKind.MARK)
    assert marks and marks[-1].name == "phase"
    assert marks[-1].data == {"step": "warmup"}


# -- recorded urandom stream --------------------------------------------------

class _Stream:
    def __init__(self):
        self.seed = b"s"
        self.tap = None
        self.reads = []

    def read(self, count):
        self.reads.append(count)
        return b"\xAA" * count


def test_replay_urandom_serves_recorded_chunks_in_order():
    fallback = _Stream()
    seen = []
    stream = ReplayUrandom([b"abc", b"defg"], fallback)
    stream.tap = seen.append
    assert stream.read(3) == b"abc"
    assert stream.read(4) == b"defg"
    assert stream.unconsumed == 0
    assert stream.fallback_reads == 0
    assert fallback.reads == []
    assert seen == [b"abc", b"defg"]
    assert stream.bytes_served == 7


def test_replay_urandom_falls_back_on_desync():
    fallback = _Stream()
    stream = ReplayUrandom([b"abc"], fallback)
    assert stream.read(5) == b"\xAA" * 5     # size mismatch -> fallback
    assert stream.fallback_reads == 1
    assert stream.unconsumed == 1            # recorded chunk still queued
    assert fallback.reads == [5]


def test_guest_urandom_reads_are_recorded():
    """A guest-side read of /dev/urandom flows through the recorder tap."""
    from repro.trace import Recorder
    kernel = Kernel(seed="tap-me")
    recorder = Recorder(kernel)
    chunk = kernel.vfs.urandom.read(16)
    assert recorder.urandom_chunks == [chunk]
    events = recorder.ring.events(EventKind.URANDOM)
    assert len(events) == 1 and events[0].data["nbytes"] == 16
