"""Whole-program MVX baseline monitors.

These model the *cost structure* of the systems the paper compares
against (they do not need their own divergence machinery — the paper's
Figure 7 compares performance, and §4.1's CPU/RSS comparisons use the
"two full variants" resource model):

* every intercepted **syscall** pays the monitor's interception cost on
  the wall clock (both variants wait at the rendezvous);
* the follower variant re-executes all application work on another core:
  CPU doubles, wall time does not (mirroring how sMVX's follower is
  accounted);
* memory doubles (two full processes), measured via
  :func:`spawn_duplicate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Set

from repro.machine.costs import CostModel, CycleCounter
from repro.process.process import GuestProcess

#: syscalls ReMon's policy treats as security-sensitive (routed to the
#: slow cross-process monitor); the rest take the in-process fast path.
REMON_SENSITIVE_SYSCALLS: Set[str] = {
    "open", "listen_on", "accept4", "mkdir", "unlink", "fork", "clone",
    "exit",
}

#: bytes of one syscall frame on the wire (whole-program remote MVX)
FRAME_BYTES = 160


@dataclass
class BaselineStats:
    intercepted: int = 0
    fast_path: int = 0
    slow_path: int = 0
    overhead_charged_ns: float = 0.0


class MvxBaseline:
    """Base class: attach to a process's kernel, charge per syscall."""

    name = "baseline"

    def __init__(self, process: GuestProcess,
                 costs: Optional[CostModel] = None):
        self.process = process
        self.costs = costs or process.costs
        self.stats = BaselineStats()
        #: the follower's CPU burn (off the wall clock, another core)
        self.follower_counter = CycleCounter()
        #: every process this monitor intercepts (pre-forked servers add
        #: their workers via :meth:`also_monitor`); list, not set, so
        #: listener installation order is deterministic.
        self._procs = [process]
        self._attached = False
        self._baseline_total_ns = 0.0

    # -- interception ------------------------------------------------------------

    def also_monitor(self, process: GuestProcess) -> "MvxBaseline":
        """Extend interception to another process of the same kernel —
        a pre-forked worker.  One monitor then models N leader/follower
        pairs: each worker's syscalls pay the interception cost on that
        worker's counter and its compute is mirrored to the follower
        pool (whole-program MVX replicates every process)."""
        if process not in self._procs:
            self._procs.append(process)
            if self._attached:
                process.counter.add_listener(self._mirror_work)
        return self

    def attach(self) -> "MvxBaseline":
        if not self._attached:
            self.process.kernel.syscall_hooks.append(self._on_syscall)
            for proc in self._procs:
                proc.counter.add_listener(self._mirror_work)
            self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.process.kernel.syscall_hooks.remove(self._on_syscall)
            for proc in self._procs:
                proc.counter.remove_listener(self._mirror_work)
            self._attached = False

    def __enter__(self) -> "MvxBaseline":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    def _mirror_work(self, ns: float, category: str) -> None:
        # whole-program replication: the follower re-executes everything
        # the leader does, on its own core
        self.follower_counter.total_ns += ns

    def _on_syscall(self, proc, name: str) -> None:
        if proc not in self._procs:
            return
        self.stats.intercepted += 1
        cost = self._interception_cost(name)
        proc.counter.charge(cost, f"mvx-{self.name}")
        self.stats.overhead_charged_ns += cost

    def _interception_cost(self, name: str) -> float:  # pragma: no cover
        raise NotImplementedError

    # -- resource accounting ---------------------------------------------------------

    def total_cpu_ns(self) -> float:
        """Leader + follower CPU (the 200% of §4.1), summed over every
        monitored process."""
        return sum(proc.counter.total_ns for proc in self._procs) \
            + self.follower_counter.total_ns


class ReMonMvx(MvxBaseline):
    """ReMon: in-process fast path, cross-process path for sensitive
    syscalls (the paper's performance yardstick)."""

    name = "remon"

    def __init__(self, process: GuestProcess,
                 costs: Optional[CostModel] = None,
                 sensitive: Optional[Set[str]] = None):
        super().__init__(process, costs)
        self.sensitive = (REMON_SENSITIVE_SYSCALLS if sensitive is None
                          else sensitive)

    def _interception_cost(self, name: str) -> float:
        if name in self.sensitive:
            self.stats.slow_path += 1
            return self.costs.remon_crossprocess_ns
        self.stats.fast_path += 1
        return self.costs.remon_inprocess_ns


class PtraceMvx(MvxBaseline):
    """Orchestra-style: every interception costs four context switches
    (two user/kernel transitions each for the target and the monitor)."""

    name = "ptrace"

    def _interception_cost(self, name: str) -> float:
        self.stats.slow_path += 1
        return self.costs.ptrace_intercept_ns


class RemoteMvx(MvxBaseline):
    """Whole-program *distributed* MVX (dMVX/DMON without selection):
    every syscall is shipped to a remote monitor, so each interception
    pays frame serialization, and the sensitive subset additionally
    blocks for a verdict round trip at the link latency.  This is the
    cost structure ``repro.cluster`` escapes by replicating only
    selected regions."""

    name = "remote"

    def __init__(self, process: GuestProcess,
                 costs: Optional[CostModel] = None,
                 latency_ns: float = 100_000,
                 sensitive: Optional[Set[str]] = None):
        super().__init__(process, costs)
        self.latency_ns = latency_ns
        self.sensitive = (REMON_SENSITIVE_SYSCALLS if sensitive is None
                          else sensitive)

    def _interception_cost(self, name: str) -> float:
        wire = self.costs.wire_frame_ns \
            + FRAME_BYTES * self.costs.wire_byte_ns
        if name in self.sensitive:
            self.stats.slow_path += 1
            return wire + 2 * self.latency_ns
        self.stats.fast_path += 1
        return wire


def spawn_duplicate(server_factory, kernel, **kwargs):
    """Create a second vanilla instance — the traditional-MVX memory model
    ('we replicated the vanilla applications to simulate the memory usage
    of a traditional MVX system', §4.1)."""
    return server_factory(kernel, **kwargs)
