"""Replay mode: re-execute a recorded run and assert it is bit-identical.

Replay rebuilds the recorded scenario (same seed, same server
configuration), points ``/dev/urandom`` at the *recorded* byte stream (the
kernel consumes recorded nondeterminism rather than regenerating it), and
re-issues the stimulus script through a fresh :class:`~repro.trace.record.
Recorder`.  Because every remaining source of ordering in the simulation
is deterministic — the virtual clock only advances when work is charged,
and lockstep IPC strictly serializes the variants — the replay's script,
event stream, and footer must match the recording exactly: virtual-cycle
totals, instruction counts, the syscall retval/errno stream digest, libc
call counts, response digests, and any divergence alarms (down to the
guest PC).  Every discrepancy is reported as a mismatch, not an exception,
so a diverged replay is itself debuggable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.deploy import Deployment, build
from repro.trace.record import Trace

#: footer fields compared scalar-for-scalar.
_FOOTER_KEYS = (
    "clock_end_ns", "counter_total_ns", "total_cpu_ns",
    "instructions_retired", "cpu_tiers", "libc_calls_total",
    "libc_call_counts",
    "syscalls", "syscall_digest", "syscalls_of_process",
    "clock_reads", "clock_digest", "urandom_bytes",
    "task_spawns", "task_exits", "accept_order", "alarms",
    "faults", "faults_by_kind", "fault_digest",
    "sched_decisions", "sched_digest", "sched_stats",
    "worker_pids", "workers_busy_ns", "supervisor",
    "host_id", "wire_frames", "wire_bytes", "wire_digest", "lamport_max",
)


class ReplayUrandom:
    """Serves the recorded /dev/urandom stream back to the kernel.

    Chunk boundaries must line up with the recorded reads; if the replay
    asks for something the recording never produced, we fall back to the
    seeded generator and note the drift (the footer comparison will show
    where it mattered).
    """

    def __init__(self, chunks: List[bytes], fallback):
        self._chunks = deque(chunks)
        self._fallback = fallback
        self.seed = fallback.seed
        self.tap = None
        self.bytes_served = 0
        self.fallback_reads = 0

    def read(self, count: int) -> bytes:
        if self._chunks and len(self._chunks[0]) == count:
            chunk = self._chunks.popleft()
        else:
            self.fallback_reads += 1
            chunk = self._fallback.read(count)
        self.bytes_served += len(chunk)
        if self.tap is not None:
            self.tap(chunk)
        return chunk

    @property
    def unconsumed(self) -> int:
        return len(self._chunks)


@dataclass
class ReplayResult:
    ok: bool
    mismatches: List[str] = field(default_factory=list)
    recorded_footer: Dict = field(default_factory=dict)
    replayed_footer: Dict = field(default_factory=dict)
    trace: Optional[Trace] = None        # the re-recording of the replay
    server = None

    def summary(self) -> str:
        if self.ok:
            return ("replay OK: bit-identical "
                    f"(cycles={self.replayed_footer.get('counter_total_ns')}"
                    f", instructions="
                    f"{self.replayed_footer.get('instructions_retired')})")
        lines = [f"replay DIVERGED: {len(self.mismatches)} mismatch(es)"]
        lines += [f"  - {m}" for m in self.mismatches[:20]]
        return "\n".join(lines)


def _rebuild(trace: Trace):
    """Rebuild the recorded deployment (same seed, same config, a
    recorder attached at the same point in the lifecycle), then point
    ``/dev/urandom`` at the recorded stream."""
    scenario = trace.meta.get("scenario", {})
    app = scenario.get("app", "minx")
    if app.endswith("-cluster"):
        raise ValueError(
            f"{app!r} is a per-host trace of a cluster run; replay the "
            f"whole cluster with `python -m repro.cluster replay` (a "
            f"single host's stimulus depends on its peers' wire frames)")
    run = build(Deployment.from_dict(scenario), record={
        "capacity": trace.meta.get("ring", {}).get("capacity", 4096),
        "trace_instructions": trace.meta.get("trace_instructions", False)})
    # from here on the kernel consumes the *recorded* nondeterminism
    kernel = run.kernel
    replay_urandom = ReplayUrandom(
        [bytes.fromhex(c) for c in trace.inputs.get("urandom", [])],
        kernel.vfs.urandom)
    replay_urandom.tap = run.recorders[0]._on_urandom
    kernel.vfs.urandom.tap = None
    kernel.vfs.urandom = replay_urandom
    return run, replay_urandom


def _run_script(trace: Trace, kernel, server) -> List[str]:
    """Re-issue the recorded host stimuli in order."""
    problems: List[str] = []
    conns: Dict[int, object] = {}
    for index, op in enumerate(trace.script):
        kind = op["op"]
        if kind == "start":
            server.start()
        elif kind == "pump":
            try:
                server.pump()
            except Exception as exc:
                if op.get("error") != type(exc).__name__:
                    problems.append(
                        f"script[{index}]: pump raised "
                        f"{type(exc).__name__}, recorded "
                        f"{op.get('error', 'no error')}")
        elif kind == "connect":
            sock = kernel.network.connect(op["port"])
            if isinstance(sock, int):
                problems.append(
                    f"script[{index}]: connect({op['port']}) failed "
                    f"with {sock}")
                continue
            if sock.conn_id != op["conn"]:
                problems.append(
                    f"script[{index}]: connect produced conn "
                    f"{sock.conn_id}, recorded {op['conn']}")
            conns[op["conn"]] = sock
        elif kind in ("send", "recv", "close"):
            sock = conns.get(op["conn"])
            if sock is None:
                problems.append(
                    f"script[{index}]: {kind} on unknown conn "
                    f"{op['conn']}")
                continue
            if kind == "send":
                sock.send(bytes.fromhex(op["data"]),
                          op.get("delay_ns", 0))
            elif kind == "recv":
                sock.recv_wait(op["count"])
            else:
                sock.close()
        else:
            problems.append(f"script[{index}]: unknown op {kind!r}")
    return problems


def _diff_scripts(recorded: List[Dict], replayed: List[Dict]) -> List[str]:
    problems: List[str] = []
    if len(recorded) != len(replayed):
        problems.append(
            f"script length: recorded {len(recorded)} ops, "
            f"replayed {len(replayed)}")
    for index, (want, got) in enumerate(zip(recorded, replayed)):
        if want != got:
            problems.append(
                f"script[{index}] ({want.get('op')}): recorded {want} "
                f"!= replayed {got}")
            if len(problems) >= 10:
                problems.append("... further script diffs suppressed")
                break
    return problems


def _diff_footers(recorded: Dict, replayed: Dict) -> List[str]:
    problems = []
    for key in _FOOTER_KEYS:
        want, got = recorded.get(key), replayed.get(key)
        if want != got:
            problems.append(f"footer.{key}: recorded {want!r} "
                            f"!= replayed {got!r}")
    return problems


def _diff_events(recorded: List[Dict], replayed: List[Dict]) -> List[str]:
    """Event-stream comparison for workload-driven replays: the ring
    must be *identical*, event for event (both sides record with the
    same capacity, so bounded-drop behaviour matches too)."""
    problems: List[str] = []
    if len(recorded) != len(replayed):
        problems.append(
            f"events: recorded {len(recorded)}, replayed {len(replayed)}")
    for index, (want, got) in enumerate(zip(recorded, replayed)):
        if want != got:
            problems.append(
                f"events[{index}]: recorded {want} != replayed {got}")
            if len(problems) >= 10:
                problems.append("... further event diffs suppressed")
                break
    return problems


def replay_trace(trace: Trace, keep_server: bool = False) -> ReplayResult:
    """Replay ``trace`` from scratch; returns the comparison verdict.

    Scenarios that carry a ``workload`` (littled + ApacheBench, possibly
    scheduled multi-worker) are replayed *by reproduction*: the same
    workload is re-driven and must regenerate the identical stimulus
    script, event stream, and footer.  Script-only scenarios re-issue
    the recorded host stimuli one by one.

    With ``keep_server=True`` the rebuilt server is left on the result
    (``result.server``) for post-mortem poking, and the caller shuts it
    down.  Otherwise it is shut down once the comparison is made, so a
    replayed scheduled run leaves no task's host thread behind.
    """
    run, replay_urandom = _rebuild(trace)
    workload = run.spec.workload
    if workload is not None:
        # re-arm the recorded control plane and re-drive the workload
        # exactly as the record side did: the supervisor's restarts and
        # reload are replayed by reproduction, and its snapshot must
        # re-pin
        run.start().drive()
        mismatches = []
    else:
        mismatches = _run_script(trace, run.kernel, run.leader)
    replay_trace_out = run.recorders[0].finish()
    mismatches += _diff_scripts(trace.script, replay_trace_out.script)
    if workload is not None:
        mismatches += _diff_events(trace.events, replay_trace_out.events)
    mismatches += _diff_footers(trace.footer, replay_trace_out.footer)
    if replay_urandom.unconsumed:
        mismatches.append(
            f"urandom: {replay_urandom.unconsumed} recorded chunk(s) "
            "never consumed")
    if replay_urandom.fallback_reads:
        mismatches.append(
            f"urandom: {replay_urandom.fallback_reads} read(s) missed "
            "the recorded stream and fell back to the seeded generator")
    result = ReplayResult(ok=not mismatches, mismatches=mismatches,
                          recorded_footer=dict(trace.footer),
                          replayed_footer=dict(replay_trace_out.footer),
                          trace=replay_trace_out)
    if keep_server:
        result.server = run.leader
    else:
        run.shutdown()
    return result
