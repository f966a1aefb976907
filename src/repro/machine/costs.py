"""Virtual-time cost model.

All performance results in this reproduction are reported in deterministic
*virtual nanoseconds* rather than wall-clock time (DESIGN.md §1): the
authors' absolute numbers come from a Xeon Silver 4110 testbed we do not
have, but every comparison in the paper is relative, so a single consistent
cost model preserves the shapes.

The constants were calibrated once against the paper's own micro numbers
(Table 2 latencies, footnote 1's four context switches, §4.1 overheads) and
are then frozen; benchmarks print paper-vs-measured so drift is visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict


@dataclass(frozen=True)
class CostModel:
    """Every virtual-time constant used by the simulation, in nanoseconds."""

    # -- CPU ----------------------------------------------------------------
    #: one ISA instruction (1 GHz single-issue machine: 1 cycle == 1 ns).
    instruction_ns: int = 1
    #: charged by high-level guest code per unit of abstract compute work.
    compute_unit_ns: int = 1
    #: one MMU data access issued by high-level guest code.
    memory_access_ns: int = 4

    # -- kernel -------------------------------------------------------------
    #: one user/kernel crossing (syscall entry *or* exit).
    kernel_crossing_ns: int = 150
    #: a full context switch to another task (ptrace monitors pay 4 of
    #: these per interception; paper §2.1 footnote 1).
    context_switch_ns: int = 1200
    #: base cost of a syscall's in-kernel work.
    syscall_work_ns: int = 300
    #: thread creation via clone() with shared VM (paper Tab. 2: 9.5 us).
    clone_thread_ns: int = 9_500
    #: fork() of an empty main() (paper Tab. 2: 640 us).
    fork_base_ns: int = 640_000
    #: extra fork cost per mapped page (COW setup); calibrated so a fork
    #: during lighttpd-like init lands near the paper's 697 us.
    fork_per_page_ns: int = 160

    # -- sMVX monitor -------------------------------------------------------
    #: trampoline entry/exit: two wrpkru, stack pivot, PLT index decode.
    trampoline_ns: int = 60
    #: monitor bookkeeping per intercepted libc call (ring-buffer post,
    #: argument classification).
    monitor_call_ns: int = 180
    #: one lockstep rendezvous between leader and follower (futex-style
    #: wake + compare).
    rendezvous_ns: int = 450
    #: copying emulated results to the follower, per byte.
    ipc_copy_byte_ns: float = 0.25

    # -- variant creation (paper Tab. 2) -------------------------------------
    #: copying+moving one page during shift-and-clone duplication;
    #: calibrated so a lighttpd-sized image (~90 pages) costs ~14.7 us.
    page_copy_ns: int = 160
    #: relocating one heap page: remap/CoW setup rather than an eager
    #: copy (the paper's 14.7 us "copy+move" stays flat as the heap
    #: grows; its cost lives in the scan, not the move).
    heap_remap_page_ns: int = 12
    #: scanning one 8-byte-aligned slot in .data/.bss (cheap: bounded
    #: regions, warm cache).  ~8k slots -> ~0.3 ms, matching Tab. 2.
    data_scan_slot_ns: int = 39
    #: scanning one heap slot, including region-list pointer verification
    #: (the paper's dominant cost: 131.6 ms for the lighttpd heap).
    heap_scan_slot_ns: int = 550
    #: rewriting one identified pointer.
    pointer_fixup_ns: int = 12

    # -- cluster wire protocol (repro.cluster) --------------------------------
    #: serializing + posting one wire frame onto an inter-host link
    #: (length prefix, batch header, NIC doorbell).
    wire_frame_ns: int = 2_000
    #: marshalling one payload byte into a wire frame.
    wire_byte_ns: float = 0.05

    # -- whole-program MVX baselines ------------------------------------------
    # Effective per-interception costs in the paper's measurement regime
    # (saturated server, lockstep variants contending for the machine):
    # they fold the rendezvous wait and replication contention into one
    # constant, calibrated once against Figure 7's ReMon bars.
    #: ReMon in-process syscall interception (fast path).
    remon_inprocess_ns: int = 30_000
    #: ReMon cross-process path for security-sensitive syscalls.
    remon_crossprocess_ns: int = 180_000
    #: fraction of syscalls ReMon routes to the cross-process monitor
    #: (informational; the sensitive-call set decides in practice).
    remon_crossprocess_fraction: float = 0.08
    #: Orchestra-style ptrace monitor: four context switches per
    #: interception plus monitor work, in the same saturated regime.
    ptrace_intercept_ns: int = 100_000

    def scaled(self, **overrides: float) -> "CostModel":
        """Return a copy with selected constants replaced (for ablations)."""
        return replace(self, **overrides)

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name)
                for name in self.__dataclass_fields__}


DEFAULT_COSTS = CostModel()


@dataclass
class CycleCounter:
    """Mutable accumulator of virtual time for one process.

    ``charge`` also advances the attached machine clock (virtual time is
    global) and fans out to registered listeners, which is how the perf
    profiler attributes cycles to the function currently on top of the
    call stack.
    """

    total_ns: float = 0.0
    listeners: list = field(default_factory=list)
    clock: object = None
    by_category: dict = field(default_factory=dict)

    def charge(self, ns: float, category: str = "cpu") -> None:
        if ns < 0:
            raise ValueError("cannot charge negative time")
        self.total_ns += ns
        by_category = self.by_category
        by_category[category] = by_category.get(category, 0.0) + ns
        clock = self.clock
        if clock is not None:
            clock.advance_ns(ns)
        if self.listeners:
            for listener in self.listeners:
                listener(ns, category)

    def add_listener(self, listener) -> None:
        self.listeners.append(listener)

    def remove_listener(self, listener) -> None:
        self.listeners.remove(listener)
