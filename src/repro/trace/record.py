"""Record mode: capture a guest run's nondeterminism at the OS boundary.

Following rr's core observation, everything a deterministic interpreter
needs in order to re-execute a run bit-for-bit is the stream of inputs
that crossed into it: here the virtual-clock reads, ``/dev/urandom``
bytes, socket ingress (payloads, pacing, and accept order), and
task-creation decisions — all owned by ``repro.kernel`` — plus the *host
stimulus script*: the ordered connect/send/recv/pump calls the workload
generator issued against the machine.  The :class:`Recorder` taps each of
those points (none of the taps charges virtual time), appends structured
events to a bounded ring, and serializes everything into a versioned
:class:`Trace`.

While a recorder is attached, drive the server only through the network
and ``pump()`` — host-side guest calls that bypass the taps (for example
the ``MinxServer.served`` property) would execute unrecorded guest work
and the replay would no longer line up.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.deploy import Deployment, build
from repro.machine.isa import Op
from repro.trace.events import EventKind, MetricsRegistry, RingRecorder

TRACE_VERSION = 1

#: how many trailing ring events a divergence capsule snapshots.
CAPSULE_WINDOW = 256


def _stream_digest() -> "hashlib._Hash":
    return hashlib.sha256()


@dataclass
class Trace:
    """A serialized recording: header, stimulus script, inputs, events.

    ``inputs`` holds the recorded nondeterminism (urandom chunks, clock
    digest, task spawns, accept order); ``footer`` the end-of-run ground
    truth replay must reproduce (virtual-cycle totals, instruction count,
    syscall retval/errno stream digest, libc call counts, alarms).
    """

    version: int = TRACE_VERSION
    meta: Dict = field(default_factory=dict)
    script: List[Dict] = field(default_factory=list)
    inputs: Dict = field(default_factory=dict)
    events: List[Dict] = field(default_factory=list)
    footer: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {"version": self.version, "meta": self.meta,
                "script": self.script, "inputs": self.inputs,
                "events": self.events, "footer": self.footer}

    @staticmethod
    def from_dict(raw: Dict) -> "Trace":
        version = raw.get("version")
        if version != TRACE_VERSION:
            raise ValueError(
                f"unsupported trace version {version!r} "
                f"(this build reads version {TRACE_VERSION})")
        return Trace(version, raw.get("meta", {}), raw.get("script", []),
                     raw.get("inputs", {}), raw.get("events", []),
                     raw.get("footer", {}))

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def loads(text: str) -> "Trace":
        return Trace.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @staticmethod
    def load(path: str) -> "Trace":
        with open(path, "r", encoding="utf-8") as fh:
            return Trace.loads(fh.read())


class Recorder:
    """Attach to a kernel (and then a server) and capture a run.

    Lifecycle::

        kernel = Kernel(seed="...")
        server = MinxServer(kernel, ...)
        recorder = Recorder(kernel, scenario={...})
        recorder.attach_server(server)
        server.start()                       # recorded
        ... drive traffic / attacks ...      # recorded
        trace = recorder.finish()

    ``trace_instructions=True`` additionally streams per-instruction
    events (and PKRU flips) into the ring — expensive, but the ring stays
    bounded.
    """

    def __init__(self, kernel, scenario: Optional[Dict] = None,
                 capacity: int = 4096, trace_instructions: bool = False):
        self.kernel = kernel
        self.scenario = dict(scenario or {})
        self.ring = RingRecorder(capacity)
        self.metrics: MetricsRegistry = self.ring.metrics
        self.trace_instructions = trace_instructions
        self.server = None
        self.process = None
        self.supervisor = None

        self.script: List[Dict] = []
        self.urandom_chunks: List[bytes] = []
        self.spawns: List[List] = []
        self.task_exits: List[List] = []
        self.accept_order: List[int] = []
        self.capsules: List = []
        self._pending_capsules: List = []
        self._clock_digest = _stream_digest()
        self._clock_reads = 0
        self._syscall_digest = _stream_digest()
        self._syscall_count = 0
        self._wire_digest = _stream_digest()
        self._wire_frames = 0
        self._wire_bytes = 0
        self._lamport_max = 0
        self._extra_procs: List = []
        #: every monitor whose call_taps carry ``_on_rendezvous``
        self._monitors: List = []

        self._install_kernel_taps()

    # ------------------------------------------------------------------
    # tap installation
    # ------------------------------------------------------------------

    def _install_kernel_taps(self) -> None:
        kernel = self.kernel
        kernel.vfs.urandom.tap = self._on_urandom
        kernel.clock.read_hook = self._on_clock_read
        kernel.tasks.spawn_hook = self._on_spawn
        kernel.tasks.exit_hook = self._on_task_exit
        kernel.syscall_result_hooks.append(self._on_syscall)
        kernel.faults.fault_hook = self._on_fault
        network = kernel.network
        network.connect_hook = self._on_connect
        network.ingress_hook = self._on_ingress
        network.accept_hook = self._on_accept
        if hasattr(kernel, "wire_hooks"):
            kernel.wire_hooks.append(self._on_wire)
        self._tap_scheduler()

    def _tap_scheduler(self) -> None:
        """Tap the deterministic scheduler's decision stream (the
        scheduler may be installed after the recorder, so this is also
        re-checked at ``attach_server`` time)."""
        sched = getattr(self.kernel, "sched", None)
        if sched is not None and sched.decision_hook is None:
            sched.decision_hook = self._on_sched_decision

    def attach_server(self, server) -> None:
        """Hook a MinxServer-shaped harness: process, monitor, alarms,
        and the ``start``/``pump`` entry points (the stimulus script).
        A multi-worker ``LittledServer`` additionally gets every
        worker's process and monitor tapped."""
        self.server = server
        self.attach_process(server.process)
        for worker in getattr(server, "workers", []) or []:
            if worker.process is not self.process:
                worker.process.libc_call_observers.append(self._on_libc)
                self._extra_procs.append(worker.process)
            self._tap_monitor(worker.monitor)
        self._tap_monitor(getattr(server, "monitor", None))
        alarms = getattr(server, "alarms", None)
        if alarms is not None:
            alarms.listeners.append(self._on_alarm)
        self._wrap_entry(server, "start")
        self._wrap_entry(server, "pump")
        self._tap_scheduler()

    def attach_supervisor(self, supervisor) -> None:
        """Tap the production control plane: every metrics sample the
        supervisor takes becomes a METRIC event, and every worker it
        provisions (crash restart, alarm restart, reload generation) is
        tapped exactly like the original fleet — libc observers on the
        new process, the rendezvous stream of its monitor."""
        self.supervisor = supervisor
        supervisor.metrics_hook = self._on_metric_sample
        supervisor.worker_hooks.append(self._on_worker)

    def _on_metric_sample(self, sample: Dict) -> None:
        self.ring.emit(EventKind.METRIC, self._now, "control-plane",
                       **sample)

    def _on_worker(self, worker) -> None:
        process = worker.process
        if process is not self.process \
                and process not in self._extra_procs:
            process.libc_call_observers.append(self._on_libc)
            self._extra_procs.append(process)
        self._tap_monitor(worker.monitor)

    def _tap_monitor(self, monitor) -> None:
        if monitor is not None and monitor not in self._monitors:
            monitor.call_taps.append(self._on_rendezvous)
            self._monitors.append(monitor)

    def attach_process(self, process) -> None:
        self.process = process
        process.libc_call_observers.append(self._on_libc)
        if self.trace_instructions:
            process.cpu.trace_hook = self._on_instruction

    def detach(self) -> None:
        """Remove every tap this recorder installed (instance-level
        wrappers on the server/sockets stay, but become pass-through
        once the ring is disabled)."""
        kernel = self.kernel
        # NB: bound methods compare by ==, never by identity
        if kernel.vfs.urandom.tap == self._on_urandom:
            kernel.vfs.urandom.tap = None
        if kernel.clock.read_hook == self._on_clock_read:
            kernel.clock.read_hook = None
        if kernel.tasks.spawn_hook == self._on_spawn:
            kernel.tasks.spawn_hook = None
        if kernel.tasks.exit_hook == self._on_task_exit:
            kernel.tasks.exit_hook = None
        sched = getattr(kernel, "sched", None)
        if sched is not None \
                and sched.decision_hook == self._on_sched_decision:
            sched.decision_hook = None
        if self._on_syscall in kernel.syscall_result_hooks:
            kernel.syscall_result_hooks.remove(self._on_syscall)
        if kernel.faults.fault_hook == self._on_fault:
            kernel.faults.fault_hook = None
        network = kernel.network
        if network.connect_hook == self._on_connect:
            network.connect_hook = None
        if network.ingress_hook == self._on_ingress:
            network.ingress_hook = None
        if network.accept_hook == self._on_accept:
            network.accept_hook = None
        if self._on_wire in getattr(kernel, "wire_hooks", []):
            kernel.wire_hooks.remove(self._on_wire)
        if self.process is not None:
            if self._on_libc in self.process.libc_call_observers:
                self.process.libc_call_observers.remove(self._on_libc)
            if self.process.cpu.trace_hook == self._on_instruction:
                self.process.cpu.trace_hook = None
        for proc in self._extra_procs:
            if self._on_libc in proc.libc_call_observers:
                proc.libc_call_observers.remove(self._on_libc)
        for monitor in self._monitors:
            if self._on_rendezvous in monitor.call_taps:
                monitor.call_taps.remove(self._on_rendezvous)
        alarms = getattr(self.server, "alarms", None)
        if alarms is not None and self._on_alarm in alarms.listeners:
            alarms.listeners.remove(self._on_alarm)
        supervisor = self.supervisor
        if supervisor is not None:
            if supervisor.metrics_hook == self._on_metric_sample:
                supervisor.metrics_hook = None
            if self._on_worker in supervisor.worker_hooks:
                supervisor.worker_hooks.remove(self._on_worker)
        self.ring.enabled = False

    # ------------------------------------------------------------------
    # kernel-side taps
    # ------------------------------------------------------------------

    @property
    def _now(self) -> float:
        return self.kernel.clock.monotonic_ns

    def _on_urandom(self, chunk: bytes) -> None:
        self.urandom_chunks.append(chunk)
        self.ring.emit(EventKind.URANDOM, self._now, "urandom",
                       nbytes=len(chunk))

    def _on_wire(self, direction: str, link: str, meta: Dict) -> None:
        """Cluster wire traffic as seen from this host (send and recv).
        The Lamport stamp logged here is what makes the cross-host merge
        (:mod:`repro.trace.merge`) causally consistent."""
        self._wire_frames += 1
        self._wire_bytes += meta.get("bytes", 0)
        self._lamport_max = max(self._lamport_max, meta.get("lamport", 0))
        self._wire_digest.update(
            f"{direction}:{link}:{meta.get('frame')}:"
            f"{meta.get('lamport')}:{meta.get('bytes')}".encode())
        self.ring.emit(EventKind.WIRE, self._now, f"{direction}:{link}",
                       lamport=meta.get("lamport", 0),
                       frame=meta.get("frame", 0),
                       chan=meta.get("chan", 0),
                       nbytes=meta.get("bytes", 0),
                       msgs=list(meta.get("msgs", [])))

    def _on_clock_read(self, kind: str, value) -> None:
        self._clock_reads += 1
        self._clock_digest.update(f"{kind}:{value}".encode())
        self.ring.emit(EventKind.CLOCK_READ, self._now, kind,
                       value=list(value) if isinstance(value, tuple)
                       else value)

    def _on_spawn(self, pid: int, name: str, parent) -> None:
        self.spawns.append([pid, name, parent])
        self.ring.emit(EventKind.TASK_SWITCH, self._now, "spawn",
                       pid=pid, task=name, parent=parent)

    def _on_task_exit(self, pid: int, code: int) -> None:
        self.task_exits.append([pid, code])
        self.ring.emit(EventKind.TASK_SWITCH, self._now, "exit",
                       pid=pid, code=code)

    def _on_sched_decision(self, kind: str, task: str, detail: Dict) -> None:
        self.ring.emit(EventKind.TASK_SWITCH, self._now, kind,
                       task=task, **detail)

    def _on_syscall(self, proc, name: str, result: int) -> None:
        self._syscall_count += 1
        pid = getattr(proc, "pid", -1)
        # the pid is part of the digest: under the scheduler the same
        # retval stream interleaved across different workers is a
        # *different* execution
        self._syscall_digest.update(f"{name}:{pid}:{int(result)}".encode())
        self.ring.emit(EventKind.SYSCALL, self._now, name,
                       pid=pid, ret=int(result))

    def _on_fault(self, kind: str, target: str, detail: Dict) -> None:
        self.ring.emit(EventKind.FAULT, self._now, f"{kind}:{target}",
                       **detail)

    def _on_connect(self, sock, port: int) -> None:
        self._append_op({"op": "connect", "port": port,
                         "conn": sock.conn_id})
        self._wrap_client(sock)

    def _on_ingress(self, sock, data: bytes, ready_at: float) -> None:
        self.ring.emit(EventKind.NET_INGRESS, self._now, sock.label,
                       conn=sock.conn_id, nbytes=len(data),
                       ready_at_ns=ready_at)

    def _on_accept(self, listener, sock) -> None:
        self.accept_order.append(sock.conn_id)
        self.ring.emit(EventKind.NET_ACCEPT, self._now,
                       f"port:{listener.port}", conn=sock.conn_id)

    # ------------------------------------------------------------------
    # process / monitor taps
    # ------------------------------------------------------------------

    def _on_libc(self, thread, name: str) -> None:
        self.ring.emit(EventKind.LIBC, self._now, name,
                       task=thread.tid, variant=thread.variant)

    def _on_rendezvous(self, variant: str, record) -> None:
        self.ring.emit(EventKind.RENDEZVOUS, self._now, record.name,
                       variant=variant, call_seq=record.seq)

    def _on_alarm(self, report) -> None:
        self.ring.emit(
            EventKind.ALARM, self._now, report.kind.name,
            libc_name=report.libc_name, call_seq=report.seq,
            task=report.task_id, guest_pc=report.guest_pc,
            detail=report.detail)
        self._pending_capsules.append(
            (report, self.ring.tail(CAPSULE_WINDOW)))

    def _on_instruction(self, state, addr: int, instr) -> None:
        self.ring.emit(EventKind.INSTRUCTION, self._now, instr.op.name,
                       addr=addr)
        if instr.op is Op.WRPKRU:
            self.ring.emit(EventKind.PKRU_FLIP, self._now, "wrpkru",
                           addr=addr, pkru=state.regs.get("rax"))

    def mark(self, label: str, **data) -> None:
        """Free-form annotation from the harness."""
        self.ring.emit(EventKind.MARK, self._now, label, **data)

    # ------------------------------------------------------------------
    # the stimulus script
    # ------------------------------------------------------------------

    def _append_op(self, op: Dict) -> None:
        if not self.ring.enabled:      # detached: wrappers pass through
            return
        self.script.append(op)
        self.ring.emit(EventKind.STIMULUS, self._now, op["op"],
                       **{k: v for k, v in op.items()
                          if k not in ("op", "data")})
        self._finalize_capsules()

    def _wrap_entry(self, server, method: str) -> None:
        original = getattr(server, method)

        def wrapper(*args, **kwargs):
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                self._append_op({"op": method,
                                 "error": type(exc).__name__,
                                 "detail": str(exc)[:200]})
                raise
            self._append_op({"op": method, "ret": int(result)})
            return result

        setattr(server, method, wrapper)

    def _wrap_client(self, sock) -> None:
        """Record the host side of one connection: sends (verbatim —
        they are inputs), receives (digested — they are outputs replay
        must match), and the close."""
        orig_send = sock.send
        orig_recv_wait = sock.recv_wait
        orig_close = sock.close

        def send(data: bytes, extra_delay_ns: float = 0):
            ret = orig_send(data, extra_delay_ns)
            self._append_op({"op": "send", "conn": sock.conn_id,
                             "data": bytes(data).hex(),
                             "delay_ns": extra_delay_ns, "ret": int(ret)})
            return ret

        def recv_wait(count: int):
            result = orig_recv_wait(count)
            op = {"op": "recv", "conn": sock.conn_id, "count": count}
            if isinstance(result, (bytes, bytearray)):
                op["len"] = len(result)
                op["sha"] = hashlib.sha256(bytes(result)).hexdigest()
            else:
                op["ret"] = int(result)
            self._append_op(op)
            return result

        def close():
            orig_close()
            self._append_op({"op": "close", "conn": sock.conn_id})

        sock.send = send
        sock.recv_wait = recv_wait
        sock.close = close

    # ------------------------------------------------------------------
    # capsules and serialization
    # ------------------------------------------------------------------

    def _finalize_capsules(self) -> None:
        """Turn pending alarm snapshots into capsules.  Deferred until
        the stimulus op that triggered the alarm has been recorded, so a
        capsule's embedded script reaches through its own trigger."""
        if not self._pending_capsules:
            return
        from repro.trace.capsule import DivergenceCapsule
        pending, self._pending_capsules = self._pending_capsules, []
        for report, window in pending:
            self.capsules.append(
                DivergenceCapsule.from_recording(self, report, window))

    def snapshot_footer(self) -> Dict:
        """The ground truth a replay must reproduce, read straight off
        the machine."""
        kernel = self.kernel
        footer: Dict = {
            "clock_end_ns": kernel.clock.monotonic_ns,
            "urandom_bytes": sum(len(c) for c in self.urandom_chunks),
            "clock_reads": self._clock_reads,
            "clock_digest": self._clock_digest.hexdigest(),
            "syscalls": self._syscall_count,
            "syscall_digest": self._syscall_digest.hexdigest(),
            "task_spawns": list(self.spawns),
            "task_exits": list(self.task_exits),
            "accept_order": list(self.accept_order),
            "faults": kernel.faults.injected_total,
            "faults_by_kind": dict(kernel.faults.injected_by_kind),
            "fault_digest": kernel.faults.digest,
            "host_id": getattr(kernel, "host_id", 0),
            "wire_frames": self._wire_frames,
            "wire_bytes": self._wire_bytes,
            "wire_digest": self._wire_digest.hexdigest(),
            "lamport_max": self._lamport_max,
        }
        sched = getattr(kernel, "sched", None)
        if sched is not None:
            footer.update({
                "sched_decisions": sched.decisions,
                "sched_digest": sched.digest,
                "sched_stats": sched.stats.as_dict(),
            })
        process = self.process
        if process is not None:
            footer.update({
                "counter_total_ns": process.counter.total_ns,
                "total_cpu_ns": process.total_cpu_ns(),
                "instructions_retired": process.cpu.instructions_retired,
                "cpu_tiers": process.cpu.stats(),
                "libc_calls_total": process.libc_calls_total,
                "libc_call_counts": dict(process.libc_call_counts),
                "syscalls_of_process":
                    kernel.syscall_count(process.pid),
            })
        server = self.server
        if server is not None and getattr(server, "workers_n", 0):
            footer["worker_pids"] = [w.process.pid for w in server.workers]
            footer["workers_busy_ns"] = sum(
                w.process.counter.total_ns for w in server.workers)
        if self.supervisor is not None:
            footer["supervisor"] = self.supervisor.snapshot()
        if server is not None and getattr(server, "alarms", None):
            footer["alarms"] = [
                {"kind": report.kind.name, "seq": report.seq,
                 "libc_name": report.libc_name, "task_id": report.task_id,
                 "pid": report.pid,
                 "guest_pc": report.guest_pc, "detail": report.detail}
                for report in server.alarms.alarms]
        return footer

    def build_trace(self) -> Trace:
        meta = {"scenario": self.scenario,
                "ring": {"capacity": self.ring.capacity,
                         "emitted": self.ring.emitted,
                         "dropped": self.ring.dropped},
                "metrics": self.metrics.as_dict(),
                "trace_instructions": self.trace_instructions}
        inputs = {"urandom": [c.hex() for c in self.urandom_chunks],
                  "task_spawns": list(self.spawns),
                  "accept_order": list(self.accept_order)}
        return Trace(TRACE_VERSION, meta, list(self.script), inputs,
                     self.ring.to_dicts(), self.snapshot_footer())

    def finish(self) -> Trace:
        self._finalize_capsules()
        return self.build_trace()


def record_minx(seed: str = "smvx-repro", capacity: int = 4096,
                trace_instructions: bool = False,
                fault_schedule=None,
                **minx_kwargs):
    """Build a freshly seeded kernel + MinxServer with a recorder
    attached and the server started.  Returns (kernel, server, recorder).

    ``minx_kwargs`` (port, protect, smvx, …) are stored in the trace so
    :func:`repro.trace.replay.replay_trace` can rebuild the scenario.
    ``fault_schedule`` (a :class:`repro.kernel.faults.FaultSchedule`)
    arms the kernel's fault plane *after* server setup and is stored in
    the scenario: replay re-derives the identical fault stream from the
    seed + schedule rather than replaying individual faults (rr's
    record-the-perturbation-source principle).
    """
    return _record(Deployment(app="minx", seed=seed, kwargs=minx_kwargs,
                              faults=fault_schedule),
                   capacity, trace_instructions)


def record_littled(seed: str = "smvx-repro", capacity: int = 4096,
                   workload: Optional[Dict] = None,
                   control: Optional[Dict] = None,
                   trace_instructions: bool = False,
                   fault_schedule=None,
                   **littled_kwargs):
    """Like :func:`record_minx` but for littled, including the scheduled
    multi-worker mode (pass ``workers=N``).  Returns (kernel, server,
    recorder); the server is started and, if ``workload`` is given (ab
    parameters: requests / concurrency / path / ...), the workload has
    already been driven — call ``recorder.finish()`` *before*
    ``server.shutdown()`` so the footer matches what replay rebuilds.

    ``control`` arms the production control plane before the workload
    (see :meth:`repro.deploy.Run.arm_control_plane`): ``{"restart_budget":
    2, "restart_on_alarm": bool, "reload_at_ns": t, "worker_kills":
    [{"slot": s, "at_ns": t}, ...]}``.  It is stored in the scenario so
    replay re-arms the identical supervisor.
    """
    return _record(Deployment(app="littled", seed=seed,
                              kwargs=littled_kwargs, faults=fault_schedule,
                              control=control, workload=workload),
                   capacity, trace_instructions)


def _record(spec, capacity: int, trace_instructions: bool):
    run = build(spec, record={"capacity": capacity,
                              "trace_instructions": trace_instructions})
    run.start().drive()
    return run.kernel, run.leader, run.recorders[0]
