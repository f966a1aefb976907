"""Follower-variant creation: shift-and-clone (paper §3.4, Figure 5).

Every follower is built by the same steps, whatever its strategy:

1. :func:`leader_ranges` names the leader's image region and heap arena.
   They are absent from the follower's view, watched for writes while a
   reusable follower is parked, and the old ranges its relocator moves
   pointers out of (and a shift moves into unmapped space);
2. :func:`map_copy` maps each copy, then copies leader pages into it
   (:func:`copy_pages`, which a parked follower's refresh also uses);
3. :func:`spawn_follower` charges the copies, issues a ``clone()``
   (thread with shared VM), and gives the thread its view (shared once,
   after its fresh stack exists), its own core, CPU and ``trace_hook``,
   an allocator over the heap copy, and a :class:`PointerRelocator` over
   the leader ranges, which the :class:`FollowerVariant` carries.

The strategies differ only in layout, relocation and diversification.
The shift strategy built here (the paper's prototype):

* picks a ``shift`` so the follower's copies of the image region and the
  heap land in *unmapped* space (non-overlapping address spaces are the
  diversification);
* copies, page by page: the ``.text`` pages covering the protected
  functions (the call-graph subtree of the root function the user
  annotated), the support sections (``.plt``, ``.rodata``, ``.got.plt``,
  ``.data``), ``.bss``, and the used heap prefix — charging the copy+move
  cost of Table 2;
* runs the pointer relocator over the follower's ``.data``/``.bss``/heap
  and over the protected function's arguments.

Unprotected functions' text is deliberately *not* copied: a follower that
strays outside the protected subtree — or a ROP chain aimed at leader
addresses — hits unmapped memory and faults, which is the detection
signal.  ``repro.core.aligned`` builds the §5 alternative (same addresses,
diversified text, nothing relocated) and ``repro.core.reuse`` refreshes a
parked follower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import build_callgraph
from repro.errors import MvxSetupError
from repro.loader.loader import LoadedImage
from repro.machine.costs import CostModel, CycleCounter
from repro.machine.cpu import CPU
from repro.machine.memory import (
    AddressSpace,
    PAGE_SIZE,
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

#: the sections a shifted follower copies in full
SUPPORT_SECTIONS = (".plt", ".rodata", ".got.plt", ".data", ".bss")


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
    """A live follower: its image view, heap, thread, and entry point.

    Where its copies live follows from its layout: a shifted follower's
    are mapped in the process space, where its view shares them, and its
    ``loaded`` is a view of its own; an aligned follower's (shift 0) are
    private pages of its view, and ``loaded`` is the leader's."""

    loaded: LoadedImage
    thread: GuestThread
    heap: Heap
    entry: int
    report: VariantReport
    #: moves leader pointers into this follower's layout: its scans at
    #: creation and refresh, its arguments, and pointer results and
    #: epoll data the monitor hands it
    relocator: PointerRelocator

    def destroy(self, process: GuestProcess) -> None:
        """Unmap the follower's private memory (region teardown at
        mvx_end; the thread object and its view are simply dropped)."""
        shift = self.relocator.shift
        if shift:
            for old in self.relocator.old_ranges:
                process.space.munmap(old.start + shift, old.end - old.start)
            process.loader.unregister(self.loaded)
        process.space.munmap(self.thread.stack_base, self.thread.stack_size)
        process.thread_heaps.pop(self.thread, None)
        if self.thread.counter is not process.counter:
            process._retired_follower_ns += self.thread.counter.total_ns
        if self.thread in process.threads:
            process.threads.remove(self.thread)


def leader_ranges(process: GuestProcess,
                  target: LoadedImage) -> List[Tuple[int, int]]:
    """``(start, end)`` of the leader's image region, then of its heap
    arena: what no follower view holds, what a parked follower watches,
    what a shift must move into unmapped space, and what a relocator
    moves pointers out of."""
    heap = process.heap
    return [(target.base, target.end), (heap.base, heap.base + heap.size)]


def copy_pages(process: GuestProcess, space: AddressSpace,
               pages: Sequence[int], shift: int) -> int:
    """Copy each leader page in ``pages`` onto the page ``shift`` bytes
    away in ``space``; returns the number copied."""
    leader = process.space
    for addr in pages:
        dst = space.page_at(addr + shift)
        dst.data[:] = leader.page_at(addr).data
        dst.invalidate_decode()
    return len(pages)


def map_copy(process: GuestProcess, space: AddressSpace, start: int,
             size: int, shift: int, tag: str,
             pages: Optional[Sequence[int]] = None) -> int:
    """Map the leader's ``[start, start+size)`` (whole pages, at least
    one) ``shift`` bytes away in ``space``, with the protection and key
    of the leader's first page, then copy ``pages`` into it: every page
    of the range unless told which.  Returns the pages copied."""
    first = process.space.page_at(start)
    size = page_align_up(max(size, 1))
    space.mmap(start + shift, size, prot=first.prot, pkey=first.pkey,
               tag=tag)
    if pages is None:
        pages = range(start, start + size, PAGE_SIZE)
    return copy_pages(process, space, pages, shift)


def sync_heap(process: GuestProcess, thread: GuestThread, heap: Heap,
              shift: int) -> None:
    """Make ``heap`` the allocator of ``thread``, in the leader heap's
    current state moved ``shift`` bytes."""
    heap.adopt_bookkeeping(process.heap.clone_bookkeeping(shift))
    process.thread_heaps[thread] = heap


def spawn_follower(process: GuestProcess, target: LoadedImage,
                   costs: CostModel, report: VariantReport, name: str,
                   view: AddressSpace
                   ) -> Tuple[GuestThread, Heap, PointerRelocator]:
    """The steps every follower takes once its pages are copied,
    ``report.shift`` bytes from the leader's: charge the copies, clone()
    the thread, and give it ``view``, its own core and CPU, an allocator
    over the heap copy and a relocator."""
    report.duplication_ns = (
        (report.text_pages_copied + report.support_pages_copied)
        * costs.page_copy_ns
        + report.heap_pages_copied * costs.heap_remap_page_ns)
    process.charge(report.duplication_ns, "variant-copy")

    before = process.counter.total_ns
    process.kernel.syscall(process, "clone", 0)
    thread = process.create_thread(name)
    thread.variant = "follower"
    report.clone_ns = process.counter.total_ns - before

    # The follower's address-space view (paper §3.1/Figure 5): shared
    # pages for everything, its fresh stack included, except the leader's
    # image region and heap.  Those are absent, so a pointer or ROP gadget
    # aimed at leader addresses faults in the follower.  Copies mapped in
    # the process space are shared pages visible through both views (the
    # variants live in one process; the monitor writes emulated buffers
    # through either).
    ranges = leader_ranges(process, target)
    process.space.share_into(view, exclude=ranges)
    thread.space = view
    # The follower computes on its own core: a private counter, not
    # attached to the wall clock.  Wall time only advances through the
    # leader and the lockstep waits the monitor charges.
    thread.counter = CycleCounter()
    thread.cpu = CPU(view, counter=thread.counter, costs=costs,
                     syscall_handler=process._syscall_from_isa,
                     hl_dispatch=process._hl_dispatch)
    thread.cpu.trace_hook = process.cpu.trace_hook

    heap = process.heap
    follower_heap = Heap(process.space if report.shift else view,
                         heap.base + report.shift, heap.size)
    sync_heap(process, thread, follower_heap, report.shift)
    relocator = PointerRelocator(
        process.space,
        [OldRange(start, end, label)
         for (start, end), label in zip(ranges, ("image", "heap"))],
        report.shift, costs, charge=process.charge)
    return thread, follower_heap, relocator


def _region_is_free(process: GuestProcess, start: int, end: int) -> bool:
    for addr in range(page_align_down(start), page_align_up(end),
                      PAGE_SIZE):
        if process.space.is_mapped(addr):
            return False
    return True


def choose_shift(process: GuestProcess, target: LoadedImage) -> int:
    """The first candidate shift that moves every leader range into
    unmapped space."""
    ranges = leader_ranges(process, target)
    for shift in _CANDIDATE_SHIFTS:
        if all(_region_is_free(process, start + shift, end + shift)
               for start, end in ranges):
            return shift
    raise MvxSetupError("no non-overlapping shift available")


def create_follower(process: GuestProcess, target: LoadedImage,
                    root_function: str, args: Sequence[int],
                    costs: CostModel,
                    alias_info=None) -> Tuple[FollowerVariant, List[int]]:
    """Build the follower variant; returns it plus the relocated args."""
    protected = build_callgraph(target.image).subtree(root_function)
    report = VariantReport(choose_shift(process, target), protected)
    shift = report.shift
    space = process.space
    tag = f"variant:{target.tag}"

    # ---- .text: the region is mapped in full (so intra-image
    # displacements stay meaningful) but only protected pages get
    # content; the rest stays zero — executing it faults on the invalid
    # opcode, same signal as unmapped memory, while keeping the copy
    # bookkeeping page-exact.
    wanted_pages: Set[int] = set()
    for name in protected:
        sym = target.image.symbol(name)
        if sym.section != ".text":
            continue
        start = target.symbol_address(name)
        wanted_pages.update(range(page_align_down(start),
                                  page_align_up(start + sym.size),
                                  PAGE_SIZE))
    text_start, text_size = target.section_range(".text")
    report.text_pages_copied = map_copy(
        process, space, text_start, text_size, shift, f"{tag}:.text",
        pages=sorted(wanted_pages))

    # ---- the support sections, in full ----
    for section in SUPPORT_SECTIONS:
        start, size = target.section_range(section)
        report.support_pages_copied += map_copy(
            process, space, start, size, shift, f"{tag}:{section}")

    # ---- the follower heap arena: map in full (the follower may allocate
    # fresh memory after creation, §3.4), copy only the used prefix ----
    heap = process.heap
    heap_used = heap.used_range()[1] - heap.base
    report.heap_pages_copied = map_copy(
        process, space, heap.base, heap.size, shift, f"{tag}:heap",
        pages=range(heap.base, heap.base + page_align_up(heap_used),
                    PAGE_SIZE))

    thread, follower_heap, relocator = spawn_follower(
        process, target, costs, report, f"follower:{root_function}",
        AddressSpace(f"{process.name}:follower"))

    # ---- pointer relocation ----
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

    copy_view = process.loader.register_shifted_copy(target, shift, tag=tag)
    variant = FollowerVariant(copy_view, thread, follower_heap,
                              copy_view.symbol_address(root_function),
                              report, relocator)
    return variant, [relocator.relocate_value(int(a)) for a in args]
