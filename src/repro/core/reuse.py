"""Variant reuse: the paper's §5 / Table 2 "pre-scanning and pre-updating"
optimization, implemented.

The paper observes that creating the follower *inside* a control loop
repeatedly pays duplication + pointer-scan costs, and points at
RuntimeASLR's fix: pre-scan and pre-update the variant.  This module
implements the incremental form:

* at ``mvx_end`` the follower's memory is **kept**, and a write observer
  starts recording which leader pages (image region + heap) get dirtied;
* at the next ``mvx_start`` with the same root, only the dirty pages are
  re-copied into the follower and re-scanned for pointers — everything
  clean since the last region is already correct.

Because the follower replays the leader's execution, any page the
follower dirtied in the previous region corresponds to a leader-dirtied
page, so refreshing the leader-dirty set restores full leader/follower
agreement.  (A leader that maps *new* regions mid-run defeats the cache;
``SmvxMonitor`` falls back to a full rebuild if the heap arena moved.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

from repro.core.variant import (
    SUPPORT_SECTIONS,
    FollowerVariant,
    copy_pages,
    leader_ranges,
    sync_heap,
)
from repro.machine.costs import CostModel
from repro.machine.memory import PAGE_SIZE, page_align_down, page_align_up
from repro.process.process import GuestProcess


class DirtyTracker:
    """Records which pages of the watched ranges are written."""

    def __init__(self, space, ranges: Sequence[Tuple[int, int]]):
        self.space = space
        self.ranges = list(ranges)          # (start, end)
        self.dirty_pages: Set[int] = set()
        self._attached = False

    def _observe(self, op: str, addr: int, size: int, value) -> None:
        if op != "write":
            return
        for start, end in self.ranges:
            if addr + size <= start or addr >= end:
                continue
            first = max(addr, start)
            last = min(addr + size, end)
            for page in range(page_align_down(first),
                              page_align_up(last), PAGE_SIZE):
                self.dirty_pages.add(page)

    def attach(self) -> "DirtyTracker":
        if not self._attached:
            self.space.add_observer(self._observe)
            self._attached = True
        return self

    def detach(self) -> None:
        if self._attached:
            self.space.remove_observer(self._observe)
            self._attached = False


@dataclass
class CachedVariant:
    """A parked follower plus the tracker watching for staleness."""

    variant: FollowerVariant
    tracker: DirtyTracker
    heap_brk: int                      # leader brk at park time
    refresh_count: int = 0


@dataclass
class RefreshStats:
    dirty_pages: int = 0
    data_pages_rescanned: int = 0
    heap_pages_rescanned: int = 0
    pointers_fixed: int = 0
    time_ns: float = 0.0


def park_variant(process: GuestProcess, variant: FollowerVariant,
                 target) -> CachedVariant:
    """Keep the follower alive after mvx_end and start dirty tracking."""
    tracker = DirtyTracker(process.space,
                           leader_ranges(process, target)).attach()
    return CachedVariant(variant=variant, tracker=tracker,
                         heap_brk=process.heap.used_range()[1])


def refresh_variant(process: GuestProcess, cached: CachedVariant,
                    target, args: Sequence[int],
                    costs: CostModel) -> Tuple[FollowerVariant, List[int],
                                               RefreshStats]:
    """Bring a parked follower back in sync by touching only dirty pages."""
    cached.tracker.detach()
    variant = cached.variant
    relocator = variant.relocator
    shift = relocator.shift
    space = process.space
    heap = process.heap
    stats = RefreshStats()

    # pages dirtied since parking, plus any heap growth
    dirty = set(cached.tracker.dirty_pages)
    dirty.update(range(page_align_down(cached.heap_brk),
                       page_align_up(heap.used_range()[1]), PAGE_SIZE))
    stats.dirty_pages = len(dirty)
    pages = [page for page in sorted(dirty)
             if space.is_mapped(page) and space.is_mapped(page + shift)]
    copy_pages(process, space, pages, shift)

    # rescan the refreshed copy pages for pointers; text is immutable, so
    # its copy was enough
    data_ranges = [target.section_range(s) for s in SUPPORT_SECTIONS]
    for page in pages:
        if heap.base <= page < heap.base + heap.size:
            scan = relocator.scan_heap_region(page + shift, PAGE_SIZE,
                                              region="heap-dirty")
            stats.heap_pages_rescanned += 1
        elif any(start <= page < start + page_align_up(max(size, 1))
                 for start, size in data_ranges):
            scan = relocator.scan_data_region(page + shift, PAGE_SIZE,
                                              "data-dirty")
            stats.data_pages_rescanned += 1
        else:
            continue
        stats.pointers_fixed += scan.pointers_found
    stats.time_ns = len(pages) * float(costs.page_copy_ns)
    process.charge(stats.time_ns, "variant-refresh-copy")

    # re-sync the follower allocator to the leader's current heap state
    sync_heap(process, variant.thread, variant.heap, shift)
    variant.thread.reset_stack_pointer()
    variant.thread.errno = 0

    cached.refresh_count += 1
    return (variant, [relocator.relocate_value(int(a)) for a in args],
            stats)
