"""Paged virtual memory with permission and protection-key checks.

An :class:`AddressSpace` is a sparse mapping from page index to
:class:`Page`.  All guest data lives in these pages; the MMU front end
(:meth:`AddressSpace.read` / :meth:`AddressSpace.write` /
:meth:`AddressSpace.fetch_check`) enforces:

* the page must be mapped (else :class:`SegmentationFault`),
* classic R/W/X page permissions,
* MPK: the accessing thread's PKRU must allow the page's protection key
  for *data* accesses (fetch ignores PKRU — that is what enables XoM).

Observers can hook every access; the taint engine and the perf profiler
attach here.  When no observer is attached the MMU takes fast paths: a
small software TLB memoizes ``(page_index, pkru) -> Page`` per access
direction (flushed whenever any mapping, permission, or protection key
changes — :attr:`AddressSpace.mapping_epoch` counts those changes), and
``read_word``/``write_word``/``read_words`` unpack directly from the
page's backing ``bytearray`` without intermediate copies.  TLB hits
re-validate the cached page's ``prot``/``pkey`` so pages *shared*
between address spaces (``share_into``) stay correct even when another
space's ``pkey_mprotect`` mutates the shared :class:`Page` object.

Each page also carries the interpreter's decoded-instruction cache
(:attr:`Page.decode_cache`, owned by :mod:`repro.machine.cpu`); every
write path here invalidates it so self-modifying code is re-decoded.
Host code that mutates ``page.data`` directly (variant creation,
dirty-page refresh) must call :meth:`Page.invalidate_decode`.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    AlignmentFault,
    ExecuteFault,
    ProtectionKeyFault,
    SegmentationFault,
)
from repro.machine.mpk import (
    NUM_PKEYS,
    PKEY_DEFAULT,
    PKRU_ALLOW_ALL,
    pkru_allows_read,
    pkru_allows_write,
)

PAGE_SIZE = 4096
WORD_SIZE = 8

PROT_NONE = 0
PROT_READ = 1
PROT_WRITE = 2
PROT_EXEC = 4
PROT_RW = PROT_READ | PROT_WRITE
PROT_RX = PROT_READ | PROT_EXEC
PROT_RWX = PROT_READ | PROT_WRITE | PROT_EXEC

#: Canonical user address ceiling (47-bit, like x86-64 user space).
ADDRESS_LIMIT = 1 << 47

_WORD_STRUCT = struct.Struct("<Q")
_MASK64 = (1 << 64) - 1


def page_align_down(addr: int) -> int:
    return addr & ~(PAGE_SIZE - 1)


def page_align_up(addr: int) -> int:
    return (addr + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)


class Page:
    """One 4 KiB page: backing bytes, R/W/X permissions, protection key."""

    __slots__ = ("data", "prot", "pkey", "tag", "decode_cache")

    def __init__(self, prot: int = PROT_RW, pkey: int = PKEY_DEFAULT,
                 tag: str = ""):
        self.data = bytearray(PAGE_SIZE)
        self.prot = prot
        self.pkey = pkey
        #: free-form label ("text", "heap", "monitor", ...) used by pmap.
        self.tag = tag
        #: per-page decoded-instruction cache, lazily populated by the CPU
        #: (offset -> decoded entry).  ``None`` means "nothing cached".
        #: Every MMU write path drops it; because the cache lives on the
        #: Page itself, pages aliased into other spaces (share_into) are
        #: invalidated through whichever space performs the write.  The
        #: CPU also keeps an sMVX trampoline's one-step plan here, under
        #: the negative key ``~offset``, so it is dropped with the page's
        #: decoded instructions.
        self.decode_cache: Optional[dict] = None

    def invalidate_decode(self) -> None:
        """Drop the decoded-instruction cache.  Must be called by host
        code that mutates ``data`` directly instead of going through
        ``AddressSpace.write`` (e.g. variant page refresh)."""
        self.decode_cache = None

    def clone(self) -> "Page":
        page = Page(self.prot, self.pkey, self.tag)
        page.data[:] = self.data
        return page


# Observer signature: (op, address, size, value_bytes_or_None)
MemoryObserver = Callable[[str, int, int, Optional[bytes]], None]


class AddressSpace:
    """A sparse, paged, 47-bit virtual address space.

    ``pkru`` for checks is supplied per call because PKRU is a *thread*
    register, not a property of the address space.  Passing
    ``privileged=True`` models a kernel-mode access, which bypasses both
    page permissions and protection keys (the simulated kernel copies user
    buffers this way, as real kernels do via the direct map).
    """

    def __init__(self, name: str = "as"):
        self.name = name
        self._pages: Dict[int, Page] = {}
        self._observers: List[MemoryObserver] = []
        #: monotonically increasing hint for mmap(NULL) placement.
        self._mmap_hint = 0x7F00_0000_0000
        self.access_count = 0
        #: TLB fill count (misses on the memoized check paths); together
        #: with ``access_count`` this gives an approximate TLB hit rate
        #: for ``CPU.stats()``.
        self.tlb_fills = 0
        #: bumped on every mapping/permission/pkey change; the CPU's
        #: fast path re-validates its cached text page when this moves.
        self.mapping_epoch = 0
        # software TLB: (page_index, pkru) -> (page, prot, pkey) per
        # access direction.  Entries memoize a passed permission check;
        # the stored prot/pkey are re-validated on hit so mutations of
        # shared Page objects through *other* spaces cannot go stale.
        self._tlb_read: Dict[Tuple[int, int], Tuple[Page, int, int]] = {}
        self._tlb_write: Dict[Tuple[int, int], Tuple[Page, int, int]] = {}

    def _mapping_changed(self) -> None:
        """Flush the TLB and advance the epoch after any change to the
        page table, permissions, or protection keys."""
        self.mapping_epoch += 1
        if self._tlb_read:
            self._tlb_read.clear()
        if self._tlb_write:
            self._tlb_write.clear()

    # -- observation --------------------------------------------------------

    def add_observer(self, observer: MemoryObserver) -> None:
        self._observers.append(observer)

    def remove_observer(self, observer: MemoryObserver) -> None:
        self._observers.remove(observer)

    def _notify(self, op: str, addr: int, size: int,
                value: Optional[bytes]) -> None:
        for observer in self._observers:
            observer(op, addr, size, value)

    # -- mapping ------------------------------------------------------------

    def is_mapped(self, addr: int) -> bool:
        return page_align_down(addr) // PAGE_SIZE in self._pages

    def page_at(self, addr: int) -> Optional[Page]:
        return self._pages.get(addr // PAGE_SIZE)

    def mapped_pages(self) -> Iterator[Tuple[int, Page]]:
        """Yield ``(page_base_address, page)`` in address order."""
        for index in sorted(self._pages):
            yield index * PAGE_SIZE, self._pages[index]

    def mapped_regions(self) -> List[Tuple[int, int, int, str]]:
        """Coalesce pages into ``(start, length, prot, tag)`` regions."""
        regions: List[Tuple[int, int, int, str]] = []
        for base, page in self.mapped_pages():
            if regions:
                start, length, prot, tag = regions[-1]
                if (start + length == base and prot == page.prot
                        and tag == page.tag):
                    regions[-1] = (start, length + PAGE_SIZE, prot, tag)
                    continue
            regions.append((base, PAGE_SIZE, page.prot, page.tag))
        return regions

    def resident_bytes(self) -> int:
        """Total bytes of mapped pages — the RSS analogue used by pmap."""
        return len(self._pages) * PAGE_SIZE

    def mmap(self, addr: Optional[int], length: int, prot: int = PROT_RW,
             pkey: int = PKEY_DEFAULT, tag: str = "",
             fixed: bool = False) -> int:
        """Map ``length`` (rounded up) bytes; returns the base address.

        With ``addr=None`` a free region is chosen from a moving hint, like
        ``mmap(NULL, ...)``.  ``fixed=True`` replaces existing mappings
        (``MAP_FIXED``); otherwise overlapping an existing page is an error
        so bugs surface instead of silently aliasing.
        """
        if length <= 0:
            raise ValueError("mmap length must be positive")
        length = page_align_up(length)
        if addr is None:
            addr = self._find_free(length)
        if addr % PAGE_SIZE:
            raise ValueError(f"mmap address not page aligned: {addr:#x}")
        if addr + length > ADDRESS_LIMIT:
            raise SegmentationFault(
                f"mmap beyond canonical limit: {addr:#x}", addr)
        first = addr // PAGE_SIZE
        count = length // PAGE_SIZE
        if not fixed:
            for index in range(first, first + count):
                if index in self._pages:
                    raise SegmentationFault(
                        f"mmap overlaps mapping at {index * PAGE_SIZE:#x}",
                        index * PAGE_SIZE)
        for index in range(first, first + count):
            self._pages[index] = Page(prot, pkey, tag)
        self._mapping_changed()
        return addr

    def munmap(self, addr: int, length: int) -> None:
        if addr % PAGE_SIZE:
            raise ValueError(f"munmap address not page aligned: {addr:#x}")
        length = page_align_up(length)
        first = addr // PAGE_SIZE
        for index in range(first, first + length // PAGE_SIZE):
            page = self._pages.pop(index, None)
            if page is not None:
                page.invalidate_decode()
        self._mapping_changed()

    def mprotect(self, addr: int, length: int, prot: int) -> None:
        for index in self._page_range(addr, length):
            page = self._pages[index]
            page.prot = prot
            page.invalidate_decode()
        self._mapping_changed()

    def pkey_mprotect(self, addr: int, length: int, prot: int,
                      pkey: int) -> None:
        if not 0 <= pkey < NUM_PKEYS:
            raise ValueError(f"bad protection key {pkey}")
        for index in self._page_range(addr, length):
            page = self._pages[index]
            page.prot = prot
            page.pkey = pkey
            page.invalidate_decode()
        self._mapping_changed()

    def set_tag(self, addr: int, length: int, tag: str) -> None:
        for index in self._page_range(addr, length):
            self._pages[index].tag = tag

    def _page_range(self, addr: int, length: int) -> Iterator[int]:
        if addr % PAGE_SIZE:
            raise ValueError(f"address not page aligned: {addr:#x}")
        length = page_align_up(length)
        first = addr // PAGE_SIZE
        for index in range(first, first + length // PAGE_SIZE):
            if index not in self._pages:
                raise SegmentationFault(
                    f"unmapped page at {index * PAGE_SIZE:#x}",
                    index * PAGE_SIZE)
            yield index

    def _find_free(self, length: int) -> int:
        """Find ``length`` bytes of unmapped pages at/after the hint.

        A single forward cursor counts the current free run and restarts
        it just past any occupied page, so the search is linear in the
        pages visited rather than re-probing ``count`` pages at every
        candidate base (which made large mappings quadratic).
        """
        count = length // PAGE_SIZE
        pages = self._pages
        first = self._mmap_hint // PAGE_SIZE
        index = first
        run = 0
        while True:
            if index in pages:
                first = index + 1
                run = 0
            else:
                run += 1
                if run == count:
                    self._mmap_hint = (first + count) * PAGE_SIZE
                    return first * PAGE_SIZE
            index += 1

    # -- access checks ------------------------------------------------------

    def _page_for_access(self, addr: int, op: str) -> Page:
        page = self._pages.get(addr // PAGE_SIZE)
        if page is None:
            raise SegmentationFault(
                f"{op} of unmapped address {addr:#x} in {self.name}", addr)
        return page

    def check_read(self, addr: int, pkru: int = PKRU_ALLOW_ALL,
                   privileged: bool = False) -> Page:
        page = self._page_for_access(addr, "read")
        if privileged:
            return page
        if not page.prot & PROT_READ:
            raise SegmentationFault(
                f"read of non-readable page at {addr:#x}", addr)
        if not pkru_allows_read(pkru, page.pkey):
            raise ProtectionKeyFault(
                f"pkey {page.pkey} denies read at {addr:#x} "
                f"(PKRU={pkru:#x})", addr)
        return page

    def check_write(self, addr: int, pkru: int = PKRU_ALLOW_ALL,
                    privileged: bool = False) -> Page:
        page = self._page_for_access(addr, "write")
        if privileged:
            return page
        if not page.prot & PROT_WRITE:
            raise SegmentationFault(
                f"write to non-writable page at {addr:#x}", addr)
        if not pkru_allows_write(pkru, page.pkey):
            raise ProtectionKeyFault(
                f"pkey {page.pkey} denies write at {addr:#x} "
                f"(PKRU={pkru:#x})", addr)
        return page

    def fetch_check(self, addr: int) -> Page:
        """Instruction-fetch permission check.

        Note: protection keys are *not* consulted — MPK only gates data
        accesses, which is exactly the property XoM exploits.
        """
        page = self._pages.get(addr // PAGE_SIZE)
        if page is None:
            raise ExecuteFault(
                f"fetch from unmapped address {addr:#x} in {self.name}",
                addr)
        if not page.prot & PROT_EXEC:
            raise ExecuteFault(
                f"fetch from non-executable page at {addr:#x}", addr)
        return page

    # -- software TLB -------------------------------------------------------

    def _lookup_read(self, addr: int, pkru: int, privileged: bool) -> Page:
        """check_read memoized through the read TLB (unprivileged only)."""
        if privileged:
            return self.check_read(addr, pkru, True)
        key = (addr // PAGE_SIZE, pkru)
        entry = self._tlb_read.get(key)
        if entry is not None:
            page, prot, pkey = entry
            if page.prot == prot and page.pkey == pkey:
                return page
        page = self.check_read(addr, pkru, False)
        self.tlb_fills += 1
        self._tlb_read[key] = (page, page.prot, page.pkey)
        return page

    def _lookup_write(self, addr: int, pkru: int, privileged: bool) -> Page:
        """check_write memoized through the write TLB (unprivileged only)."""
        if privileged:
            return self.check_write(addr, pkru, True)
        key = (addr // PAGE_SIZE, pkru)
        entry = self._tlb_write.get(key)
        if entry is not None:
            page, prot, pkey = entry
            if page.prot == prot and page.pkey == pkey:
                return page
        page = self.check_write(addr, pkru, False)
        self.tlb_fills += 1
        self._tlb_write[key] = (page, page.prot, page.pkey)
        return page

    # -- data access --------------------------------------------------------

    def read(self, addr: int, size: int, pkru: int = PKRU_ALLOW_ALL,
             privileged: bool = False) -> bytes:
        if size < 0:
            raise ValueError("negative read size")
        self.access_count += 1
        if not self._observers:
            offset = addr % PAGE_SIZE
            if 0 < size <= PAGE_SIZE - offset:
                page = self._lookup_read(addr, pkru, privileged)
                return bytes(page.data[offset:offset + size])
        out = bytearray()
        remaining = size
        cursor = addr
        while remaining > 0:
            page = self._lookup_read(cursor, pkru, privileged)
            offset = cursor % PAGE_SIZE
            chunk = min(remaining, PAGE_SIZE - offset)
            out += page.data[offset:offset + chunk]
            cursor += chunk
            remaining -= chunk
        value = bytes(out)
        if self._observers:
            self._notify("read", addr, size, value)
        return value

    def write(self, addr: int, data: bytes, pkru: int = PKRU_ALLOW_ALL,
              privileged: bool = False) -> None:
        self.access_count += 1
        cursor = addr
        view = memoryview(data)
        while view:
            page = self._lookup_write(cursor, pkru, privileged)
            offset = cursor % PAGE_SIZE
            chunk = min(len(view), PAGE_SIZE - offset)
            page.data[offset:offset + chunk] = view[:chunk]
            if page.decode_cache is not None:
                page.invalidate_decode()
            cursor += chunk
            view = view[chunk:]
        if self._observers:
            self._notify("write", addr, len(data), bytes(data))

    def read_word(self, addr: int, pkru: int = PKRU_ALLOW_ALL,
                  privileged: bool = False, aligned: bool = True) -> int:
        if addr % WORD_SIZE:
            if aligned:
                raise AlignmentFault(
                    f"unaligned word read at {addr:#x}", addr)
            # unaligned words may straddle pages: take the general path
            return _WORD_STRUCT.unpack(self.read(addr, WORD_SIZE, pkru,
                                                 privileged))[0]
        if self._observers:
            return _WORD_STRUCT.unpack(self.read(addr, WORD_SIZE, pkru,
                                                 privileged))[0]
        # fast path: an aligned word never crosses a page; unpack straight
        # from the backing bytearray without an intermediate copy.  A TLB
        # hit is served here with _lookup_read's revalidation.
        self.access_count += 1
        if not privileged:
            entry = self._tlb_read.get((addr // PAGE_SIZE, pkru))
            if entry is not None:
                page = entry[0]
                if page.prot == entry[1] and page.pkey == entry[2]:
                    return _WORD_STRUCT.unpack_from(page.data,
                                                    addr % PAGE_SIZE)[0]
        page = self._lookup_read(addr, pkru, privileged)
        return _WORD_STRUCT.unpack_from(page.data, addr % PAGE_SIZE)[0]

    def read_words(self, addr: int, count: int, pkru: int = PKRU_ALLOW_ALL,
                   privileged: bool = False) -> Tuple[int, ...]:
        """Read ``count`` aligned words from ``addr`` on, all in one page.

        The accesses are those of ``count`` :meth:`read_word` calls: one
        counted per word (only the first, if the page faults).  With an
        observer attached it *is* those calls, so each word reaches the
        observer as its own 8-byte read; otherwise one unpack serves all.
        """
        if addr % WORD_SIZE:
            raise AlignmentFault(f"unaligned word read at {addr:#x}", addr)
        offset = addr % PAGE_SIZE
        if not 0 < count <= (PAGE_SIZE - offset) // WORD_SIZE:
            raise ValueError(f"{count} words at {addr:#x} do not fit "
                             f"one page")
        if self._observers:
            return tuple(self.read_word(addr + WORD_SIZE * i, pkru,
                                        privileged) for i in range(count))
        self.access_count += 1
        page = self._lookup_read(addr, pkru, privileged)
        self.access_count += count - 1
        return struct.unpack_from(f"<{count}Q", page.data, offset)

    def write_word(self, addr: int, value: int, pkru: int = PKRU_ALLOW_ALL,
                   privileged: bool = False, aligned: bool = True) -> None:
        if addr % WORD_SIZE:
            if aligned:
                raise AlignmentFault(
                    f"unaligned word write at {addr:#x}", addr)
            self.write(addr, _WORD_STRUCT.pack(value & _MASK64), pkru,
                       privileged)
            return
        if self._observers:
            self.write(addr, _WORD_STRUCT.pack(value & _MASK64), pkru,
                       privileged)
            return
        self.access_count += 1
        page = None
        if not privileged:
            entry = self._tlb_write.get((addr // PAGE_SIZE, pkru))
            if (entry is not None and entry[0].prot == entry[1]
                    and entry[0].pkey == entry[2]):
                page = entry[0]
        if page is None:
            page = self._lookup_write(addr, pkru, privileged)
        _WORD_STRUCT.pack_into(page.data, addr % PAGE_SIZE, value & _MASK64)
        if page.decode_cache is not None:
            page.invalidate_decode()

    def read_cstring(self, addr: int, pkru: int = PKRU_ALLOW_ALL,
                     privileged: bool = False, limit: int = 1 << 16) -> bytes:
        """Read a NUL-terminated byte string (used by guest string args)."""
        if self._observers:
            # precise path: byte-granular reads (and notifies) so taint
            # propagation sees exactly the accesses the guest performed
            out = bytearray()
            cursor = addr
            while len(out) < limit:
                byte = self.read(cursor, 1, pkru, privileged)
                if byte == b"\x00":
                    return bytes(out)
                out += byte
                cursor += 1
            raise SegmentationFault(
                f"unterminated string at {addr:#x}", addr)
        # fast path: scan page-sized chunks with bytearray.find; the limit
        # and faulting behavior match the byte loop exactly (check each
        # page only when the scan actually reaches it, stop at `limit`
        # bytes without a terminator)
        out = bytearray()
        cursor = addr
        while len(out) < limit:
            page = self._lookup_read(cursor, pkru, privileged)
            offset = cursor % PAGE_SIZE
            end = min(PAGE_SIZE, offset + (limit - len(out)))
            pos = page.data.find(0, offset, end)
            if pos >= 0:
                out += page.data[offset:pos]
                return bytes(out)
            out += page.data[offset:end]
            cursor += end - offset
        raise SegmentationFault(
            f"unterminated string at {addr:#x}", addr)

    # -- cloning (used by variant creation) ---------------------------------

    def fork_into(self, other: "AddressSpace") -> None:
        """Deep-copy every mapping into ``other`` at identical addresses."""
        for index, page in self._pages.items():
            other._pages[index] = page.clone()
        other._mmap_hint = self._mmap_hint
        other._mapping_changed()

    def share_into(self, other: "AddressSpace",
                   exclude: "Optional[List[Tuple[int, int]]]" = None) -> int:
        """Install this space's pages into ``other`` as *shared* pages.

        Page objects are aliased, not copied — a write through either
        space is visible in both, like a shared-memory mapping.  Pages
        whose base address falls in an ``exclude`` range ``(start, end)``
        are not installed in ``other`` (pages ``other`` already holds
        there stay); accessing an unmapped one faults.  This is how the
        sMVX follower gets a view without the leader's image and heap
        (non-overlapping address spaces, paper §3.1).  Returns the number
        of pages shared.
        """
        indices = sorted(self._pages)
        for start, end in exclude or ():
            # the page indices whose base lies in [start, end)
            del indices[bisect_left(indices, -(-start // PAGE_SIZE)):
                        bisect_left(indices, -(-end // PAGE_SIZE))]
        pages = self._pages
        other._pages.update((index, pages[index]) for index in indices)
        other._mmap_hint = max(other._mmap_hint, self._mmap_hint)
        other._mapping_changed()
        return len(indices)
