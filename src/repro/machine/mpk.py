"""Intel Memory Protection Keys (MPK/PKU) semantics.

MPK associates each page-table entry with one of 16 protection keys (bits
62:59 of the PTE on real hardware; a plain integer on ours).  A per-thread
32-bit PKRU register holds two bits per key:

* bit ``2k``   — AD, *access disable*: all data accesses are denied.
* bit ``2k+1`` — WD, *write disable*: data writes are denied.

The unprivileged ``wrpkru`` instruction updates PKRU instantly, with no TLB
shootdown.  Crucially, the keys only gate **data** accesses: instruction
fetch ignores PKRU, which is what gives execute-only memory (XoM) when a
page is executable, carries an access-disabled key, and has no read
permission.  sMVX leans on exactly this to hide its trampoline and monitor
code (paper §2.1, §3.4).
"""

from __future__ import annotations

NUM_PKEYS = 16

#: Key 0 is the default key assigned to every mapping unless changed with
#: ``pkey_mprotect``; on Linux PKRU resets leave key 0 fully accessible.
PKEY_DEFAULT = 0

#: PKRU value granting read+write on every key.
PKRU_ALLOW_ALL = 0

PKRU_MASK = (1 << (2 * NUM_PKEYS)) - 1


def _check_key(pkey: int) -> None:
    if not 0 <= pkey < NUM_PKEYS:
        raise ValueError(f"protection key out of range: {pkey}")


def pkru_disable_access(pkru: int, pkey: int) -> int:
    """Return ``pkru`` with the AD (access-disable) bit set for ``pkey``."""
    _check_key(pkey)
    return (pkru | (1 << (2 * pkey))) & PKRU_MASK


def pkru_disable_write(pkru: int, pkey: int) -> int:
    """Return ``pkru`` with the WD (write-disable) bit set for ``pkey``."""
    _check_key(pkey)
    return (pkru | (1 << (2 * pkey + 1))) & PKRU_MASK


def pkru_enable_all(pkru: int, pkey: int) -> int:
    """Return ``pkru`` with both AD and WD cleared for ``pkey``."""
    _check_key(pkey)
    return pkru & ~(0b11 << (2 * pkey)) & PKRU_MASK


def pkru_allows_read(pkru: int, pkey: int) -> bool:
    """True if a data *read* of a page tagged ``pkey`` is permitted."""
    _check_key(pkey)
    return not pkru & (1 << (2 * pkey))


def pkru_allows_write(pkru: int, pkey: int) -> bool:
    """True if a data *write* of a page tagged ``pkey`` is permitted."""
    _check_key(pkey)
    ad = pkru & (1 << (2 * pkey))
    wd = pkru & (1 << (2 * pkey + 1))
    return not ad and not wd


class PkeyAllocator:
    """Tracks which protection keys are allocated, like ``pkey_alloc(2)``.

    Key 0 is permanently reserved as the default key.
    """

    def __init__(self) -> None:
        self._allocated = {PKEY_DEFAULT}

    def alloc(self) -> int:
        """Allocate the lowest free key; raises OSError-ish when exhausted."""
        for key in range(1, NUM_PKEYS):
            if key not in self._allocated:
                self._allocated.add(key)
                return key
        raise RuntimeError("ENOSPC: all protection keys allocated")

    def free(self, pkey: int) -> None:
        _check_key(pkey)
        if pkey == PKEY_DEFAULT:
            raise ValueError("cannot free the default protection key")
        if pkey not in self._allocated:
            raise ValueError(f"protection key {pkey} is not allocated")
        self._allocated.discard(pkey)

    @property
    def allocated(self) -> frozenset:
        return frozenset(self._allocated)
