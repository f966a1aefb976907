"""Per-layer host-time accounting, attached to the program from outside.

Only one host thread runs at a time: the scheduler baton and the sMVX
lockstep baton each hand control over through ``threading.Condition``.
So a single clock partitions wall time:

* every call into a timed public function is a boundary crossing, and the
  interval since the previous crossing is charged to the layer on top of
  the running thread's span stack (``host.unattributed`` if it is empty);
* a thread entering ``Condition.wait`` charges its interval the same way,
  and the gap until the next thread resumes is charged to ``host.handoff``.

Self times therefore sum to the traced wall time.  Spans and counters are
aggregated in memory and read once, at the end.  Nothing here charges
virtual time: a traced unit must produce the same virtual digest as an
untraced one.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List

UNATTRIBUTED = "host.unattributed"
HANDOFF = "host.handoff"

LAYERS = ("kernel.sched", "core.variant", "core.relocate", "core.monitor",
          "core.ipc", "loader", "machine", "process", "apps", "libc",
          "kernel", "kernel.epoll", "kernel.net", "trace", "cluster", "boot",
          "sim", "workloads")

#: image name -> layer of the HL (Python-implemented guest) functions it
#: carries; application images are ``apps``.
IMAGE_LAYERS = {"libc.so": "libc", "smvx_monitor.so": "core.monitor",
                "libsmvx.so": "core.monitor"}

#: module prefix -> layer of a scheduler task body spawned from it.
TASK_LAYERS = (("repro.workloads", "workloads"), ("repro.apps", "apps"),
               ("repro.sim", "sim"), ("repro.cluster", "cluster"),
               ("repro.trace", "trace"))

_IPC = ("leader_announce", "leader_publish", "leader_finish", "leader_abort",
        "follower_wait_turn", "follower_announce", "follower_abort",
        "follower_finish")

#: (module, function or Class.method, layer): where each layer is timed.
TARGETS = [
    ("repro.kernel.sched", "Scheduler.__init__", "boot"),
    ("repro.kernel.sched", "Scheduler.run_until", "kernel.sched"),
    ("repro.kernel.sched", "Scheduler.spawn", "kernel.sched"),
    ("repro.kernel.sched", "Scheduler.park", "kernel.sched"),
    ("repro.core.variant", "create_follower", "core.variant"),
    ("repro.core.aligned", "create_aligned_follower", "core.variant"),
    ("repro.core.reuse", "refresh_variant", "core.variant"),
    ("repro.core.variant", "FollowerVariant.destroy", "core.variant"),
    ("repro.core.relocate", "PointerRelocator.scan_region", "core.relocate"),
    ("repro.core.monitor", "SmvxMonitor.region_start", "core.monitor"),
    ("repro.core.monitor", "SmvxMonitor.region_end", "core.monitor"),
    *(("repro.core.ipc", f"LockstepChannel.{name}", "core.ipc")
      for name in _IPC),
    ("repro.loader.loader", "Loader.image_at", "loader"),
    ("repro.machine.cpu", "CPU.run", "machine"),
    ("repro.process.process", "GuestProcess.guest_call", "process"),
    ("repro.kernel.kernel", "Kernel.syscall", "kernel"),
    ("repro.kernel.epoll_impl", "EpollInstance.__init__", "kernel.epoll"),
    ("repro.kernel.epoll_impl", "EpollInstance.poll", "kernel.epoll"),
    *(("repro.kernel.net", f"Socket.{name}", "kernel.net")
      for name in ("send", "recv", "recv_wait", "shutdown_write", "close")),
    *(("repro.kernel.net", f"Listener.{name}", "kernel.net")
      for name in ("enqueue", "accept", "close")),
    ("repro.kernel.net", "Network.connect", "kernel.net"),
    ("repro.kernel.net", "Network.listen", "kernel.net"),
    ("repro.trace.replay", "replay_trace", "trace"),
    ("repro.cluster.host", "Cluster.pump_one", "cluster"),
    ("repro.cluster.host", "WireEndpoint.flush", "cluster"),
    ("repro.cluster.remote", "RemoteRegionRunner.handle", "cluster"),
    ("repro.kernel.kernel", "Kernel.__init__", "boot"),
    ("repro.libc.libc", "build_libc_image", "boot"),
    ("repro.core.api", "build_smvx_stub_image", "boot"),
    ("repro.core.trampoline", "build_monitor_image", "boot"),
    ("repro.apps.minx", "build_minx_image", "boot"),
    ("repro.apps.littled", "build_littled_image", "boot"),
    ("repro.loader.loader", "Loader.load", "boot"),
    ("repro.core.api", "attach_smvx", "boot"),
    ("repro.apps.minx", "MinxServer.__init__", "boot"),
    ("repro.apps.minx", "MinxServer.start", "boot"),
    ("repro.apps.littled", "LittledServer.__init__", "boot"),
    ("repro.apps.littled", "LittledServer.start", "boot"),
    ("repro.apps.littled", "LittledServer.boot_worker", "boot"),
    ("repro.apps.littled", "LittledWorker.__init__", "boot"),
    ("repro.cluster.scenarios", "build_minx_cluster", "boot"),
    ("repro.sim.runner", "run_scenario", "sim"),
    ("repro.sim.scenario", "generate_matrix", "sim"),
    ("repro.workloads.ab", "ApacheBench.run", "workloads"),
]


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[str] = []
        self.cpus: set = set()


class Tracer:
    """Span stacks per thread, self time and calls per layer, counters."""

    def __init__(self) -> None:
        self.local = _ThreadState()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.horizon_evals = [0]
        self.threads_peak = 0
        self.missing: List[str] = []
        self.last = 0.0
        self.began = 0.0
        self.skipped = 0.0
        self._schedulers: list = []
        self._epolls: list = []
        self._traces: list = []

    # -- the clock ----------------------------------------------------------

    def span(self, layer: str, fn: Callable) -> Callable:
        local, self_s, calls = self.local, self.self_s, self.calls
        tracer = self

        def timed(*args, **kwargs):
            stack = local.stack
            now = perf_counter()
            self_s[stack[-1] if stack else UNATTRIBUTED] += now - tracer.last
            tracer.last = now
            calls[layer] += 1
            stack.append(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                now = perf_counter()
                self_s[layer] += now - tracer.last
                tracer.last = now
                stack.pop()

        timed.span_layer = layer
        return timed

    def _block(self) -> None:
        stack = self.local.stack
        now = perf_counter()
        self.self_s[stack[-1] if stack else UNATTRIBUTED] += now - self.last
        self.last = now

    def _resume(self) -> None:
        now = perf_counter()
        self.self_s[HANDOFF] += now - self.last
        self.last = now

    def skip(self, seconds: float) -> None:
        """Leave ``seconds`` just spent outside the program (a speed-probe
        sample in a signal handler) out of every layer."""
        self.last += seconds
        self.skipped += seconds

    def start(self) -> None:
        self.began = self.last = perf_counter()

    def stop(self) -> float:
        """Charge the final interval; returns the traced wall time."""
        self._block()
        return self.last - self.began

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        replacements: Dict[int, Callable] = {}
        adapters = self._adapters()
        for module_name, target, layer in TARGETS:
            module = importlib.import_module(module_name)
            adapt = adapters.get(target)
            owner_name, _, attr = target.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or attr not in vars(owner):
                    self.missing.append(f"{module_name}.{target}")
                    continue
                for cls in [owner] + _subclasses(owner):
                    if attr in vars(cls):
                        fn = vars(cls)[attr]
                        setattr(cls, attr, self.span(
                            layer, adapt(fn) if adapt else fn))
            else:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{target}")
                    continue
                replacements[id(fn)] = self.span(
                    layer, adapt(fn) if adapt else fn)
        self._wrap_recorder()
        self._wrap_libc()
        _rebind(replacements)
        self._patch_threading()

    def _adapters(self) -> Dict[str, Callable]:
        """Counting shims, wrapped inside the span of their target."""
        counts, local = self.counts, self.local
        horizon_evals = self.horizon_evals

        def register(store):
            def adapt(init):
                def init_and_register(obj, *args, **kwargs):
                    init(obj, *args, **kwargs)
                    store.append(obj)
                return init_and_register
            return adapt

        def count_horizons(park):
            def counted(horizon):
                def evaluate():
                    horizon_evals[0] += 1
                    return horizon()
                return evaluate

            def park_counted(sched, *args, **kwargs):
                if args and args[0] is not None:
                    args = (counted(args[0]),) + args[1:]
                elif kwargs.get("horizon") is not None:
                    kwargs["horizon"] = counted(kwargs["horizon"])
                return park(sched, *args, **kwargs)
            return park_counted

        def task_layer(spawn):
            def spawn_in_layer(sched, name, fn, *args, **kwargs):
                module = getattr(fn, "__module__", "") or ""
                for prefix, layer in TASK_LAYERS:
                    if module.startswith(prefix):
                        fn = self.span(layer, fn)
                        break
                return spawn(sched, name, fn, *args, **kwargs)
            return spawn_in_layer

        def count_insns(run):
            def run_counted(cpu, *args, **kwargs):
                active = local.cpus
                if cpu in active:
                    return run(cpu, *args, **kwargs)
                active.add(cpu)
                insns, jit = cpu.instructions_retired, cpu.jit_insns
                try:
                    return run(cpu, *args, **kwargs)
                finally:
                    active.discard(cpu)
                    counts["machine.insns"] += \
                        cpu.instructions_retired - insns
                    counts["machine.jit_insns"] += cpu.jit_insns - jit
            return run_counted

        def count_scan(scan):
            def scan_counted(*args, **kwargs):
                stats = scan(*args, **kwargs)
                counts["core.relocate.slots_scanned"] += stats.slots_scanned
                counts["core.relocate.pointers_found"] += \
                    stats.pointers_found
                return stats
            return scan_counted

        def count_calls(key):
            def adapt(fn):
                def fn_counted(*args, **kwargs):
                    counts[key] += 1
                    return fn(*args, **kwargs)
                return fn_counted
            return adapt

        def count_refused(connect):
            def connect_counted(network, *args, **kwargs):
                sock = connect(network, *args, **kwargs)
                if isinstance(sock, int):
                    counts["kernel.net.connects_refused"] += 1
                return sock
            return connect_counted

        def count_frames(flush):
            def flush_counted(*args, **kwargs):
                frame = flush(*args, **kwargs)
                if frame is not None:
                    counts["cluster.wire_frames"] += 1
                    counts["cluster.wire_bytes"] += len(frame.payload)
                return frame
            return flush_counted

        def span_hl_functions(load):
            def load_spanned(loader, image, *args, **kwargs):
                first = len(loader.hl_table)
                loaded = load(loader, image, *args, **kwargs)
                layer = IMAGE_LAYERS.get(image.name, "apps")
                table = loader.hl_table
                for index in range(first, len(table)):
                    hl, home = table[index]
                    if not hasattr(hl.fn, "span_layer"):
                        table[index] = (dataclasses.replace(
                            hl, fn=self.span(layer, hl.fn)), home)
                return loaded
            return load_spanned

        return {
            "Scheduler.__init__": register(self._schedulers),
            "Scheduler.park": count_horizons,
            "Scheduler.spawn": task_layer,
            "EpollInstance.__init__": register(self._epolls),
            "CPU.run": count_insns,
            "PointerRelocator.scan_region": count_scan,
            "create_follower": count_calls("core.variant.created"),
            "create_aligned_follower": count_calls("core.variant.created"),
            "LockstepChannel.leader_announce":
                count_calls("core.ipc.rendezvous"),
            "Network.connect": count_refused,
            "WireEndpoint.flush": count_frames,
            "Loader.load": span_hl_functions,
        }

    def _wrap_recorder(self) -> None:
        """Every Recorder method (tap callbacks, script ops, finish) is
        ``trace``; finished traces are kept for the size counters."""
        from repro.trace.record import Recorder
        traces = self._traces
        for name, fn in list(vars(Recorder).items()):
            if not callable(fn) or isinstance(fn, type) or \
                    (name.startswith("__") and name != "__init__"):
                continue
            if name == "finish":
                fn = _keep_result(fn, traces)
            setattr(Recorder, name, self.span("trace", fn))

    def _wrap_libc(self) -> None:
        """libc run directly by the monitor (``LIBC_FUNCTIONS``) is libc;
        images built from the table afterwards inherit the spans."""
        from repro.libc.libc import LIBC_FUNCTIONS
        for name, (fn, arity) in list(LIBC_FUNCTIONS.items()):
            LIBC_FUNCTIONS[name] = (self.span("libc", fn), arity)

    def _patch_threading(self) -> None:
        tracer = self
        wait = threading.Condition.wait
        start = threading.Thread.start

        def traced_wait(cond, timeout=None):
            tracer._block()
            try:
                return wait(cond, timeout)
            finally:
                tracer._resume()

        def counted_start(thread):
            start(thread)
            tracer.threads_peak = max(tracer.threads_peak,
                                      threading.active_count())

        threading.Condition.wait = traced_wait
        threading.Thread.start = counted_start

    # -- counters -----------------------------------------------------------

    def harvest(self) -> None:
        """Fold the counters of finished kernels in and drop them."""
        for sched in self._schedulers:
            self.counts["kernel.sched.decisions"] += sched.decisions
            self.counts["kernel.sched.wakeups"] += sched.stats.wakeups
        for epoll in self._epolls:
            self.counts["kernel.epoll.polls"] += epoll.polls
            self.counts["kernel.epoll.probes"] += epoll.probes
        self._schedulers.clear()
        self._epolls.clear()

    def finish(self) -> None:
        """Size the recorded traces (outside the traced clock)."""
        self.harvest()
        for trace in self._traces:
            self.counts["trace.events"] += trace.meta["ring"]["emitted"]
            self.counts["trace.script_ops"] += len(trace.script)
            self.counts["trace.bytes"] += len(trace.dumps())
        self._traces.clear()
        self.counts["kernel.sched.horizon_evals"] += self.horizon_evals[0]
        self.horizon_evals[0] = 0


def _keep_result(fn: Callable, store: list) -> Callable:
    def keep(*args, **kwargs):
        result = fn(*args, **kwargs)
        store.append(result)
        return result
    return keep


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def _rebind(replacements: Dict[int, Callable]) -> None:
    """Point every module-level name bound to a replaced function (the
    defining module and every ``from x import f``) at its span."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        hits = [(name, replacements[id(value)])
                for name, value in list(namespace.items())
                if id(value) in replacements]
        for name, wrapper in hits:
            setattr(module, name, wrapper)
