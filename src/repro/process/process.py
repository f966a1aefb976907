"""Guest processes and threads.

A :class:`GuestProcess` ties together one address space, a loader, a CPU,
a heap, and any number of threads.  It implements the two CPU escape
hatches (HL dispatch and raw syscalls) and the host<->guest call protocol.

Threads model ``clone()`` with a shared VM: each has its own stack region,
registers, PKRU, errno, and TLS — the properties sMVX duplicates when it
creates the follower variant (paper §3.4).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.errors import InvalidInstruction
from repro.kernel.kernel import Kernel
from repro.loader.image import ProgramImage
from repro.loader.loader import LoadedImage, Loader
from repro.machine.costs import CostModel, CycleCounter, DEFAULT_COSTS
from repro.machine.cpu import CPU, ExecState, HOST_RETURN_ADDRESS
from repro.machine.isa import INSTR_SIZE
from repro.machine.memory import AddressSpace, PAGE_SIZE, PROT_RW, WORD_SIZE
from repro.machine.registers import ARG_REGISTERS, RegisterFile
from repro.process.context import GuestContext
from repro.process.heap import Heap

_MASK64 = (1 << 64) - 1

DEFAULT_STACK_PAGES = 16
DEFAULT_HEAP_PAGES = 512

#: Stacks live well away from images so shift-and-clone can't collide.
STACK_AREA_TOP = 0x0000_7FFE_0000_0000


class GuestThread:
    """One thread: architectural state + stack + thread-locals."""

    def __init__(self, process: "GuestProcess", name: str,
                 stack_base: int, stack_size: int):
        self.process = process
        self.name = name
        #: per-process task id (main thread is 1); divergence reports and
        #: trace events carry it.
        process._next_tid += 1
        self.tid = process._next_tid
        self.state = ExecState(RegisterFile())
        self.state.thread = self          # back-pointer for CPU hooks
        self.errno = 0
        self.tls: Dict[str, int] = {}
        #: the address-space view this thread executes against.  Normally
        #: the process space; the sMVX follower gets a view that shares
        #: libc/monitor pages but lacks the leader's image and heap.
        self.space = process.space
        self.cpu = process.cpu
        #: where this thread's work is charged.  The sMVX follower gets a
        #: counter that is *not* attached to the wall clock: it executes
        #: concurrently on another core, so its compute burns CPU cycles
        #: without extending wall time (lockstep waits, charged by the
        #: monitor to the process counter, are the wall-time cost).
        self.counter = process.counter
        self.stack_base = stack_base
        self.stack_size = stack_size
        #: "main", "leader" or "follower" — set by the sMVX runtime.
        self.variant = "main"
        #: names of guest functions currently on this thread's call stack
        #: (HL functions only; maintained by the dispatcher).
        self.func_stack: List[str] = []
        self.reset_stack_pointer()

    @property
    def stack_top(self) -> int:
        return self.stack_base + self.stack_size

    def reset_stack_pointer(self) -> None:
        # leave one word of headroom so an aligned frame fits exactly
        self.state.regs.set("rsp", self.stack_top - WORD_SIZE * 2)


class GuestProcess:
    """A guest program instance on the simulated machine."""

    def __init__(self, kernel: Kernel, name: str = "guest",
                 costs: CostModel = DEFAULT_COSTS,
                 heap_pages: int = DEFAULT_HEAP_PAGES,
                 parent_pid: Optional[int] = None):
        self.kernel = kernel
        self.name = name
        self.costs = costs
        self.space = AddressSpace(name)
        self.counter = CycleCounter()
        kernel.attach_counter(self.counter)
        self.pid = kernel.register_process(self, name, parent_pid)
        self.loader = Loader(self.space)
        self.cpu = CPU(self.space, counter=self.counter, costs=costs,
                       syscall_handler=self._syscall_from_isa,
                       hl_dispatch=self._hl_dispatch)
        heap_base = self.space.mmap(None, heap_pages * PAGE_SIZE,
                                    prot=PROT_RW, tag="heap")
        self.heap = Heap(self.space, heap_base, heap_pages * PAGE_SIZE)
        #: per-thread heap override: the sMVX follower allocates from its
        #: own (shifted) heap copy after variant creation (paper §3.4).
        self.thread_heaps: Dict[GuestThread, Heap] = {}
        self.threads: List[GuestThread] = []
        self.main_image: Optional[LoadedImage] = None
        self._next_stack_top = STACK_AREA_TOP
        self._next_tid = 0
        self._sentinel_seq = 0
        self.active_thread: Optional[GuestThread] = None
        #: PKRU applied to new threads; the sMVX monitor sets this to its
        #: "closed" value so app code can never touch monitor pages.
        self.default_pkru = 0
        #: set by the sMVX runtime when a monitor is preloaded.
        self.smvx_monitor = None
        #: CPU burned by already-destroyed follower threads (kept so
        #: total_cpu_ns survives region teardown).
        self._retired_follower_ns = 0.0

        # -- libc-call statistics (Figures 7 and 8) --
        self.libc_call_counts: Dict[str, int] = {}
        self.libc_calls_total = 0
        #: optional interposer: fn(thread, libc_name) -> None
        self.libc_call_observers: list = []
        #: when a list, every HL function entry name is appended — the
        #: execution-trace log the auth-diff discovery diffs (§3.2).
        self.function_trace: Optional[List[str]] = None

    # -- image management -----------------------------------------------------------

    def load_image(self, image: ProgramImage, base: Optional[int] = None,
                   tag: Optional[str] = None, pkey: int = 0,
                   main: bool = False) -> LoadedImage:
        loaded = self.loader.load(image, base=base, tag=tag, pkey=pkey)
        if main or self.main_image is None:
            self.main_image = loaded
        return loaded

    def resolve(self, name: str) -> int:
        return self.loader.resolve(name)

    # -- threads ----------------------------------------------------------------------

    def create_thread(self, name: str) -> GuestThread:
        size = DEFAULT_STACK_PAGES * PAGE_SIZE
        top = self._next_stack_top
        base = top - size
        # one unmapped guard page between stacks catches runaway growth
        self._next_stack_top = base - PAGE_SIZE
        self.space.mmap(base, size, prot=PROT_RW, tag=f"stack:{name}")
        thread = GuestThread(self, name, base, size)
        thread.state.pkru = self.default_pkru
        self.threads.append(thread)
        return thread

    def main_thread(self) -> GuestThread:
        if not self.threads:
            return self.create_thread("main")
        return self.threads[0]

    # -- accounting -------------------------------------------------------------------

    def charge(self, ns: float, category: str) -> None:
        self.counter.charge(ns, category)

    def heap_for(self, thread: GuestThread) -> Heap:
        return self.thread_heaps.get(thread, self.heap)

    @property
    def current_counter(self) -> CycleCounter:
        """The counter work should land on right now: the active thread's
        (the kernel charges syscall work here so a follower's local calls
        don't extend wall time)."""
        if self.active_thread is not None:
            return self.active_thread.counter
        return self.counter

    def total_cpu_ns(self) -> float:
        """Total CPU consumed across all cores: the process counter plus
        every thread-private counter (sMVX followers)."""
        total = self.counter.total_ns
        for thread in self.threads:
            if thread.counter is not self.counter:
                total += thread.counter.total_ns
        total += self._retired_follower_ns
        return total

    def note_libc_call(self, thread: GuestThread, name: str) -> None:
        self.libc_call_counts[name] = self.libc_call_counts.get(name, 0) + 1
        self.libc_calls_total += 1
        for observer in self.libc_call_observers:
            observer(thread, name)

    def libc_syscall_ratio(self) -> float:
        syscalls = self.kernel.syscall_count(self.pid)
        return self.libc_calls_total / syscalls if syscalls else 0.0

    # -- host -> guest calls --------------------------------------------------------------

    def guest_call(self, thread: GuestThread, target: Union[int, str],
                   *args: int) -> int:
        """Call a guest function and return its ``rax`` (as unsigned).

        Implements the SysV convention: first six integer args in
        registers, the rest pushed right-to-left, ``rax`` = arg count (for
        variadic callees), return address pushed by CALL semantics.  The
        caller's registers and ``active_thread`` are restored however the
        call ends, a fault while pushing the arguments included.
        """
        if isinstance(target, str):
            address = self.resolve(target)
        else:
            address = target
        state = thread.state
        regs = state.regs
        regs_d = regs._regs
        # register values are always stored masked, so a plain copy is
        # a complete snapshot
        saved = regs_d.copy()
        saved_rip = regs.rip
        saved_flags = regs.flags
        previous_active = self.active_thread
        self.active_thread = thread
        try:
            for name, value in zip(ARG_REGISTERS, args):
                regs_d[name] = int(value) & _MASK64
            for value in reversed(args[6:]):
                self._push(state, int(value))
            regs_d["rax"] = len(args)

            self._sentinel_seq += 1
            sentinel = HOST_RETURN_ADDRESS + INSTR_SIZE * (
                self._sentinel_seq & 0xFFFFFF)
            self._push(state, sentinel)
            regs.rip = address
            thread.cpu.run(state, until_rip=sentinel)
            return regs_d["rax"]
        finally:
            regs_d.update(saved)
            regs.rip = saved_rip
            regs.flags = saved_flags
            self.active_thread = previous_active

    def _push(self, state: ExecState, value: int) -> None:
        regs_d = state.regs._regs
        rsp = (regs_d["rsp"] - WORD_SIZE) & _MASK64
        regs_d["rsp"] = rsp
        state.thread.space.write_word(rsp, value & _MASK64, pkru=state.pkru)

    def call_function(self, name: str, *args: int,
                      thread: Optional[GuestThread] = None) -> int:
        """Convenience entry point for tests/examples: call by name on the
        main thread."""
        return self.guest_call(thread or self.main_thread(), name, *args)

    # -- CPU escape hatches ------------------------------------------------------------------

    def _hl_dispatch(self, state: ExecState, global_index: int) -> None:
        regs_d = state.regs._regs
        entry_addr = state.regs.rip - INSTR_SIZE   # rip is past the HLCALL
        table = self.loader.hl_table
        if not 0 <= global_index < len(table):
            raise InvalidInstruction(
                f"HLCALL index {global_index} outside the HL table",
                entry_addr)
        hl, home = table[global_index]
        # loaded ranges are disjoint, so only a follower's shifted copy
        # of the home image needs the scan
        if home.base <= entry_addr < home.end:
            loaded = home
        else:
            loaded = self.loader.image_at(entry_addr) or home
        thread: GuestThread = state.thread
        entry_rsp = regs_d["rsp"]

        args = [regs_d[name] for name in ARG_REGISTERS[:hl.arity]]
        for index in range(len(ARG_REGISTERS), hl.arity):
            offset = WORD_SIZE * (index - len(ARG_REGISTERS) + 1)
            args.append(thread.space.read_word(entry_rsp + offset,
                                               pkru=state.pkru))

        ctx = GuestContext(self, thread, loaded, hl.name)
        if self.function_trace is not None:
            # (stack depth, name): depth lets the auth-diff analysis find
            # the frame *enclosing* the first divergent call
            self.function_trace.append((len(thread.func_stack), hl.name))
        thread.func_stack.append(hl.name)
        previous_active = self.active_thread
        self.active_thread = thread
        try:
            result = hl.fn(ctx, *args)
        finally:
            thread.func_stack.pop()
            self.active_thread = previous_active
            # discard locals; the (possibly corrupted) return-address slot
            # is back on top for the RET that follows the HLCALL.
            regs_d["rsp"] = entry_rsp
        regs_d["rax"] = int(result or 0) & _MASK64

    def _syscall_from_isa(self, state: ExecState) -> None:
        regs = state.regs
        number = regs.get("rax")
        args = [regs.get(r) for r in ARG_REGISTERS]
        result = self.kernel.syscall_by_number(self, number, *args)
        regs.set("rax", int(result) & _MASK64)

    # -- introspection ---------------------------------------------------------------------------

    def function_at(self, addr: int):
        return self.loader.function_at(addr)

    def resident_kb(self) -> float:
        """pmap-style RSS in KiB."""
        return self.space.resident_bytes() / 1024.0
