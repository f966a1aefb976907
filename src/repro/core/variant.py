"""Follower-variant creation: shift-and-clone (paper §3.4, Figure 5).

On ``mvx_start()`` the monitor:

1. computes the protected function set — the call-graph subtree of the
   root function the user annotated;
2. picks a ``shift`` so the follower's copies of the image region and the
   heap land in *unmapped* space (non-overlapping address spaces are the
   diversification);
3. copies, page by page: the ``.text`` pages covering the protected
   functions, the support sections (``.plt``, ``.rodata``, ``.got.plt``,
   ``.data``), ``.bss``, and the used heap prefix — charging the
   copy+move cost of Table 2;
4. issues a ``clone()`` (thread with shared VM) for the follower and gives
   it a fresh stack and TLS;
5. runs the pointer relocator over the follower's ``.data``/``.bss``/heap
   and over the protected function's arguments.

Unprotected functions' text is deliberately *not* copied: a follower that
strays outside the protected subtree — or a ROP chain aimed at leader
addresses — hits unmapped memory and faults, which is the detection
signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import build_callgraph
from repro.errors import MvxSetupError
from repro.loader.loader import LoadedImage
from repro.machine.costs import CostModel
from repro.machine.cpu import CPU
from repro.machine.memory import (
    AddressSpace,
    PAGE_SIZE,
    PROT_RW,
    page_align_down,
    page_align_up,
)
from repro.process.heap import Heap
from repro.process.process import GuestProcess, GuestThread
from repro.core.relocate import (
    OldRange,
    PointerRelocator,
    RelocationReport,
)

#: candidate shifts tried in order; all keep 47-bit canonical addresses
#: for the regions our processes use.
_CANDIDATE_SHIFTS = (0x0000_0040_0000_0000, 0x0000_0020_0000_0000,
                     0x0000_0010_0000_0000, 0x0000_0008_0000_0000)


@dataclass
class VariantReport:
    """Everything Table 2 and the RSS experiment need to know."""

    shift: int
    protected_functions: Set[str] = field(default_factory=set)
    text_pages_copied: int = 0
    support_pages_copied: int = 0
    heap_pages_copied: int = 0
    duplication_ns: float = 0.0
    clone_ns: float = 0.0
    relocation: Optional[RelocationReport] = None

    @property
    def pages_copied(self) -> int:
        return (self.text_pages_copied + self.support_pages_copied
                + self.heap_pages_copied)


@dataclass
class FollowerVariant:
    """A live follower: its image view, heap, thread, and entry point."""

    loaded: LoadedImage
    thread: GuestThread
    heap: Heap
    entry: int
    report: VariantReport
    image_region: Tuple[int, int]        # (start, size) of the copy
    heap_region: Tuple[int, int]
    #: False when `loaded` is the leader's own view (aligned strategy):
    #: destroy() must not unregister it.
    owns_loaded_view: bool = True

    def destroy(self, process: GuestProcess) -> None:
        """Unmap the follower's private memory (region teardown at
        mvx_end; the thread object is simply dropped)."""
        start, size = self.image_region
        if size:
            process.space.munmap(start, size)
        start, size = self.heap_region
        if size:
            process.space.munmap(start, size)
        process.space.munmap(self.thread.stack_base, self.thread.stack_size)
        process.thread_heaps.pop(self.thread, None)
        if self.owns_loaded_view:
            process.loader.unregister(self.loaded)
        if self.thread.counter is not process.counter:
            process._retired_follower_ns += self.thread.counter.total_ns
        if self.thread in process.threads:
            process.threads.remove(self.thread)


def _region_is_free(process: GuestProcess, start: int, size: int) -> bool:
    for addr in range(page_align_down(start),
                      page_align_up(start + size), PAGE_SIZE):
        if process.space.is_mapped(addr):
            return False
    return True


def choose_shift(process: GuestProcess, target: LoadedImage) -> int:
    heap = process.heap
    image_size = page_align_up(target.image.load_size)
    for shift in _CANDIDATE_SHIFTS:
        if (_region_is_free(process, target.base + shift, image_size)
                and _region_is_free(process, heap.base + shift, heap.size)):
            return shift
    raise MvxSetupError("no non-overlapping shift available")


def _copy_pages(process: GuestProcess, src: int, dst: int, size: int,
                prot: int, pkey: int, tag: str) -> int:
    """Map ``dst`` and copy ``size`` (page-rounded) bytes; returns pages."""
    size = page_align_up(max(size, 1))
    process.space.mmap(dst, size, prot=prot, pkey=pkey, tag=tag)
    for offset in range(0, size, PAGE_SIZE):
        src_page = process.space.page_at(src + offset)
        dst_page = process.space.page_at(dst + offset)
        dst_page.data[:] = src_page.data
        dst_page.invalidate_decode()
    return size // PAGE_SIZE


def create_follower(process: GuestProcess, target: LoadedImage,
                    root_function: str, args: Sequence[int],
                    costs: CostModel,
                    alias_info=None,
                    stack_pages: int = 16) -> Tuple[FollowerVariant, List[int]]:
    """Build the follower variant; returns it plus the relocated args."""
    report = VariantReport(shift=0)
    graph = build_callgraph(target.image)
    protected = graph.subtree(root_function)
    report.protected_functions = protected

    shift = choose_shift(process, target)
    report.shift = shift

    # ---- old ranges: the leader's image region and used heap ----
    heap = process.heap
    heap_used_start, heap_brk = heap.used_range()
    old_ranges = [
        OldRange(target.base, target.base + target.image.load_size,
                 "image"),
        OldRange(heap.base, heap.base + heap.size, "heap"),
    ]

    # ---- copy protected .text pages ----
    text_start, text_size = target.section_range(".text")
    wanted_pages: Set[int] = set()
    for name in protected:
        sym = target.image.symbol(name)
        if sym.section != ".text":
            continue
        start = target.symbol_address(name)
        for addr in range(page_align_down(start),
                          page_align_up(start + sym.size), PAGE_SIZE):
            wanted_pages.add(addr)
    # the text region is mapped in full (so intra-image displacements stay
    # meaningful) but only protected pages get content; the rest stays
    # zero — executing it faults on the invalid opcode, same signal as
    # unmapped memory, while keeping the copy bookkeeping page-exact.
    src_text_page = process.space.page_at(text_start)
    process.space.mmap(text_start + shift, page_align_up(max(text_size, 1)),
                       prot=src_text_page.prot, pkey=src_text_page.pkey,
                       tag=f"variant:{target.tag}:.text")
    for addr in sorted(wanted_pages):
        dst_page = process.space.page_at(addr + shift)
        dst_page.data[:] = process.space.page_at(addr).data
        dst_page.invalidate_decode()
        report.text_pages_copied += 1

    # ---- copy support sections ----
    for section in (".plt", ".rodata", ".got.plt", ".data", ".bss"):
        start, size = target.section_range(section)
        src_page = process.space.page_at(start)
        report.support_pages_copied += _copy_pages(
            process, start, start + shift, size,
            src_page.prot, src_page.pkey,
            f"variant:{target.tag}:{section}")

    # ---- the follower heap arena: map in full (the follower may allocate
    # fresh memory after creation, §3.4), copy only the used prefix ----
    heap_used = heap_brk - heap.base
    process.space.mmap(heap.base + shift, heap.size, prot=PROT_RW,
                       tag=f"variant:{target.tag}:heap")
    heap_pages = 0
    if heap_used > 0:
        for offset in range(0, page_align_up(heap_used), PAGE_SIZE):
            src_page = process.space.page_at(heap.base + offset)
            dst_page = process.space.page_at(heap.base + shift + offset)
            dst_page.data[:] = src_page.data
            dst_page.invalidate_decode()
            heap_pages += 1
    report.heap_pages_copied = heap_pages

    report.duplication_ns = (
        (report.text_pages_copied + report.support_pages_copied)
        * costs.page_copy_ns
        + heap_pages * costs.heap_remap_page_ns)
    process.charge(report.duplication_ns, "variant-copy")

    # ---- clone(): the follower thread ----
    before = process.counter.total_ns
    process.kernel.syscall(process, "clone", 0)
    thread = process.create_thread(f"follower:{root_function}",
                                   stack_pages=stack_pages)
    thread.variant = "follower"
    report.clone_ns = process.counter.total_ns - before

    # ---- the follower's address-space view (paper §3.1/Figure 5) ----
    # Shared pages for everything except the leader's image region and
    # heap: those are absent from the follower's view, so a pointer or
    # ROP gadget aimed at leader addresses faults in the follower.  The
    # copies made above are shared pages visible through both views
    # (the variants live in one process; the monitor writes emulated
    # buffers through either).
    follower_space = AddressSpace(f"{process.name}:follower")
    process.space.share_into(follower_space, exclude=[
        (target.base, target.base + page_align_up(target.image.load_size)),
        (heap.base, heap.base + heap.size),
    ])
    thread.space = follower_space
    # The follower computes on its own core: a private counter, not
    # attached to the wall clock.  Wall time only advances through the
    # leader and the lockstep waits the monitor charges.
    from repro.machine.costs import CycleCounter
    thread.counter = CycleCounter()
    thread.cpu = CPU(follower_space, counter=thread.counter,
                     costs=costs, syscall_handler=process._syscall_from_isa,
                     hl_dispatch=process._hl_dispatch)
    thread.cpu.trace_hook = process.cpu.trace_hook

    # ---- follower heap bookkeeping over the copied region ----
    follower_heap = Heap(process.space, heap.base + shift, heap.size)
    follower_heap.adopt_bookkeeping(heap.clone_bookkeeping(shift))
    process.thread_heaps[thread] = follower_heap

    # ---- pointer relocation ----
    relocator = PointerRelocator(process.space, old_ranges, shift, costs,
                                 charge=process.charge)
    relocation = RelocationReport(shift)
    for section in (".data", ".bss"):
        start, size = target.section_range(section)
        slots = None
        if alias_info is not None and section == ".data":
            slots = alias_info.data_pointer_offsets
        relocation.scans.append(relocator.scan_data_region(
            start + shift, size, section, slot_offsets=slots))
    if heap_used > 0:
        relocation.scans.append(relocator.scan_heap_region(
            heap.base + shift, heap_used))
    # .got.plt in the copy points at libc/monitor stubs, which are shared
    # (not part of the old ranges) — verified rather than assumed:
    got_start, got_size = target.section_range(".got.plt")
    relocation.scans.append(relocator.scan_data_region(
        got_start + shift, got_size, ".got.plt"))
    report.relocation = relocation

    relocated_args = [relocator.relocate_value(int(a)) for a in args]

    copy_view = process.loader.register_shifted_copy(
        target, shift, tag=f"variant:{target.tag}")
    entry = copy_view.symbol_address(root_function)

    image_region_size = page_align_up(target.image.load_size)
    variant = FollowerVariant(
        loaded=copy_view,
        thread=thread,
        heap=follower_heap,
        entry=entry,
        report=report,
        image_region=(target.base + shift, image_region_size),
        heap_region=(heap.base + shift, heap.size),
    )
    return variant, relocated_args
