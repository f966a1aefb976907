"""Runtime pointer scanning and relocation (paper §3.4).

After the follower's memory has been copied ``shift`` bytes away, pointers
stored *inside* the copied data still reference the leader's (old)
locations — function pointers into the old ``.text``, data pointers into
the old ``.data``/``.bss``/heap.  The relocator walks every 8-byte-aligned
slot of the follower's ``.data``, ``.bss`` and heap, verifies candidate
values against the known old ranges (the RuntimeASLR-style false-positive
filter), and rewrites hits by ``+shift``.

The paper is explicit that this is a strawman with a real cost (Table 2:
the lighttpd heap scan alone is ~131 ms) and a real inaccuracy (an integer
that *looks* like a pointer gets relocated).  Both behaviours are
reproduced: costs are charged per slot, and the misidentification hazard
is demonstrated in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.machine.costs import CostModel
from repro.machine.memory import (
    PAGE_SIZE,
    WORD_SIZE,
    AddressSpace,
    page_align_down,
)


@dataclass(frozen=True)
class OldRange:
    """One leader-side range whose pointers must be relocated."""

    start: int
    end: int
    label: str

    def contains(self, value: int) -> bool:
        return self.start <= value < self.end


@dataclass
class ScanStats:
    """Accounting for one region scan (feeds Table 2)."""

    region: str
    slots_scanned: int = 0
    pointers_found: int = 0
    time_ns: float = 0.0


@dataclass
class RelocationReport:
    shift: int
    scans: List[ScanStats] = field(default_factory=list)

    @property
    def total_pointers(self) -> int:
        return sum(scan.pointers_found for scan in self.scans)

    def scan_named(self, region: str) -> Optional[ScanStats]:
        for scan in self.scans:
            if scan.region == region:
                return scan
        return None


def _page_chunks(start: int, end: int) -> Iterator[Tuple[int, int]]:
    """``(address, slots)`` runs covering ``[start, end)`` that stop at
    page boundaries (an unaligned ``start`` faults on its first run)."""
    address = start
    while address < end:
        chunk_end = min(end, page_align_down(address) + PAGE_SIZE)
        yield address, (chunk_end - address) // WORD_SIZE
        address = chunk_end


class PointerRelocator:
    """Scans follower regions and rewrites old-range pointers."""

    def __init__(self, space: AddressSpace, old_ranges: Iterable[OldRange],
                 shift: int, costs: CostModel, charge=None):
        self.space = space
        self.old_ranges = list(old_ranges)
        self.shift = shift
        self.costs = costs
        #: charge(ns, category) — wired to the process counter; optional
        #: so the relocator is unit-testable standalone.
        self._charge = charge or (lambda ns, category: None)

    # -- classification -------------------------------------------------------

    def classify(self, value: int) -> Optional[OldRange]:
        """The verification step: a slot value is a pointer candidate only
        if it falls inside a known old range."""
        for old_range in self.old_ranges:
            if old_range.contains(value):
                return old_range
        return None

    # -- scanning ----------------------------------------------------------------

    def scan_region(self, start: int, size: int, region: str,
                    slot_cost_ns: float,
                    slot_offsets: Optional[Iterable[int]] = None) -> ScanStats:
        """Scan ``[start, start+size)`` in the follower copy.

        ``slot_offsets`` restricts the walk to statically known pointer
        slots (the alias-analysis fast path); otherwise every aligned slot
        is visited.

        Slots are read a chunk at a time: the rest of the page on a full
        walk of a space no memory observer watches, one slot otherwise
        (an observer sees each slot's 8-byte read, then its rewrite, as
        a slot-by-slot walk would issue them).  Zero words are dropped
        at C speed when zero is no pointer, and only words inside the old
        ranges' envelope reach :meth:`classify`.  The accesses counted,
        the words rewritten, the faults raised and the time charged are
        those of the slot-by-slot walk.
        """
        stats = ScanStats(region)
        space = self.space
        length = size - size % WORD_SIZE
        if slot_offsets is None and not space._observers:
            chunks = _page_chunks(start, start + length)
        else:
            if slot_offsets is None:
                offsets = range(0, length, WORD_SIZE)
            else:
                offsets = sorted(o for o in slot_offsets
                                 if o + WORD_SIZE <= size)
            chunks = ((start + offset, 1) for offset in offsets)
        low = min((r.start for r in self.old_ranges), default=0)
        high = max((r.end for r in self.old_ranges), default=0)
        skip_zero = self.classify(0) is None
        for address, count in chunks:
            words = space.read_words(address, count, privileged=True)
            stats.slots_scanned += count
            indices = compress(range(count), words) if skip_zero \
                else range(count)
            for index in indices:
                value = words[index]
                if low <= value < high and self.classify(value) is not None:
                    space.write_word(address + WORD_SIZE * index,
                                     value + self.shift, privileged=True)
                    stats.pointers_found += 1
        stats.time_ns = (stats.slots_scanned * slot_cost_ns
                         + stats.pointers_found * self.costs.pointer_fixup_ns)
        self._charge(stats.time_ns, f"pointer-scan:{region}")
        return stats

    def scan_data_region(self, start: int, size: int, region: str,
                         slot_offsets=None) -> ScanStats:
        return self.scan_region(start, size, region,
                                self.costs.data_scan_slot_ns, slot_offsets)

    def scan_heap_region(self, start: int, size: int,
                         region: str = "heap") -> ScanStats:
        return self.scan_region(start, size, region,
                                self.costs.heap_scan_slot_ns)

    # -- scalar helpers --------------------------------------------------------------

    def relocate_value(self, value: int) -> int:
        """Relocate one scalar if it points into an old range (used for
        protected-function arguments and epoll_data unions)."""
        return value + self.shift if self.classify(value) else value
