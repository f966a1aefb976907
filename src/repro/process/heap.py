"""Guest heap allocator.

A segregated-free-list ``malloc`` operating entirely inside a guest memory
region.  Two properties matter for the reproduction:

* ``malloc``/``free`` are **pure user-space** operations (they never enter
  the kernel once the arena is mapped) — this is footnote 2 of the paper,
  and it is what makes the libc:syscall ratio of Figure 7 exceed 1.
* every allocation has a header and an 8-byte-aligned payload, so the
  heap is exactly the kind of memory the sMVX pointer scanner walks
  slot-by-slot (§3.4).

Layout: ``[size u64][payload ...]``; payloads rounded to 16 bytes.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ReproError
from repro.machine.memory import AddressSpace

HEADER_SIZE = 8
MIN_CHUNK = 16


class OutOfGuestMemory(ReproError):
    pass


class HeapCorruption(ReproError):
    pass


class Heap:
    """One arena inside a guest address space."""

    def __init__(self, space: AddressSpace, base: int, size: int):
        self.space = space
        self.base = base
        self.size = size
        self._brk = base                       # bump pointer
        self._free: Dict[int, List[int]] = {}  # chunk size -> payload addrs
        self._allocated: Dict[int, int] = {}   # payload addr -> chunk size
        self.allocated_bytes = 0
        self.high_water = 0
        self.malloc_calls = 0
        self.free_calls = 0

    # -- allocation -----------------------------------------------------------

    @staticmethod
    def _round(nbytes: int) -> int:
        nbytes = max(nbytes, 1)
        return (nbytes + MIN_CHUNK - 1) & ~(MIN_CHUNK - 1)

    def malloc(self, nbytes: int) -> int:
        """Allocate; returns payload address (never 0 — raises instead)."""
        self.malloc_calls += 1
        chunk = self._round(nbytes)
        bucket = self._free.get(chunk)
        if bucket:
            addr = bucket.pop()
        else:
            addr = self._brk + HEADER_SIZE
            new_brk = addr + chunk
            if new_brk > self.base + self.size:
                raise OutOfGuestMemory(
                    f"heap exhausted: need {chunk} bytes, "
                    f"{self.base + self.size - self._brk} left")
            self._brk = new_brk
            self.space.write_word(addr - HEADER_SIZE, chunk,
                                  privileged=True)
        self._allocated[addr] = chunk
        self.allocated_bytes += chunk
        self.high_water = max(self.high_water, self._brk - self.base)
        return addr

    def calloc(self, count: int, size: int) -> int:
        total = count * size
        addr = self.malloc(total)
        self.space.write(addr, b"\x00" * self._round(total),
                         privileged=True)
        return addr

    def free(self, addr: int) -> None:
        self.free_calls += 1
        if addr == 0:
            return
        chunk = self._allocated.pop(addr, None)
        if chunk is None:
            raise HeapCorruption(f"free() of non-allocated {addr:#x}")
        header = self.space.read_word(addr - HEADER_SIZE, privileged=True)
        if header != chunk:
            raise HeapCorruption(
                f"heap header smashed at {addr - HEADER_SIZE:#x}: "
                f"{header} != {chunk}")
        self._free.setdefault(chunk, []).append(addr)
        self.allocated_bytes -= chunk

    def realloc(self, addr: int, nbytes: int) -> int:
        if addr == 0:
            return self.malloc(nbytes)
        old_chunk = self._allocated.get(addr)
        if old_chunk is None:
            raise HeapCorruption(f"realloc() of non-allocated {addr:#x}")
        if self._round(nbytes) <= old_chunk:
            return addr
        new_addr = self.malloc(nbytes)
        data = self.space.read(addr, old_chunk, privileged=True)
        self.space.write(new_addr, data, privileged=True)
        self.free(addr)
        return new_addr

    # -- introspection (used by the pointer scanner and pmap) -------------------

    def used_range(self):
        """``(base, brk)`` — the slice the sMVX heap scan must walk."""
        return self.base, self._brk

    def owns(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size

    def clone_bookkeeping(self, shift: int) -> "dict":
        """Allocator metadata for a shifted copy of this heap region."""
        return {
            "brk": self._brk + shift,
            "free": {size: [a + shift for a in addrs]
                     for size, addrs in self._free.items()},
            "allocated": {a + shift: size
                          for a, size in self._allocated.items()},
        }

    def adopt_bookkeeping(self, book: dict) -> None:
        self._brk = book["brk"]
        self._free = {size: list(addrs)
                      for size, addrs in book["free"].items()}
        self._allocated = dict(book["allocated"])
        self.allocated_bytes = sum(self._allocated.values())
