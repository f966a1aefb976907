"""Unit tests for the paged address space and MMU checks."""

import struct
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import (
    AlignmentFault,
    ExecuteFault,
    MachineFault,
    ProtectionKeyFault,
    SegmentationFault,
)
from repro.machine import (
    PAGE_SIZE,
    PROT_EXEC,
    PROT_NONE,
    PROT_READ,
    PROT_RW,
    AddressSpace,
    page_align_down,
    page_align_up,
)
from repro.machine.memory import WORD_SIZE
from repro.machine.mpk import (
    PKRU_ALLOW_ALL,
    pkru_disable_access,
    pkru_disable_write,
)


def test_page_alignment_helpers():
    assert page_align_down(0) == 0
    assert page_align_down(PAGE_SIZE - 1) == 0
    assert page_align_down(PAGE_SIZE) == PAGE_SIZE
    assert page_align_up(1) == PAGE_SIZE
    assert page_align_up(PAGE_SIZE) == PAGE_SIZE
    assert page_align_up(PAGE_SIZE + 1) == 2 * PAGE_SIZE


def test_mmap_and_rw_roundtrip():
    space = AddressSpace()
    base = space.mmap(None, 100)  # rounded up to one page
    space.write(base + 10, b"hello")
    assert space.read(base + 10, 5) == b"hello"


def test_mmap_fixed_address():
    space = AddressSpace()
    base = space.mmap(0x40_0000, PAGE_SIZE)
    assert base == 0x40_0000
    assert space.is_mapped(0x40_0000)
    assert not space.is_mapped(0x40_0000 + PAGE_SIZE)


def test_mmap_rejects_overlap_without_fixed():
    space = AddressSpace()
    space.mmap(0x40_0000, PAGE_SIZE)
    with pytest.raises(SegmentationFault):
        space.mmap(0x40_0000, PAGE_SIZE)


def test_mmap_fixed_replaces_mapping():
    space = AddressSpace()
    base = space.mmap(0x40_0000, PAGE_SIZE)
    space.write(base, b"x")
    space.mmap(0x40_0000, PAGE_SIZE, fixed=True)
    assert space.read(base, 1) == b"\x00"


def test_read_unmapped_faults():
    space = AddressSpace()
    with pytest.raises(SegmentationFault):
        space.read(0xDEAD_0000, 1)


def test_write_crossing_page_boundary():
    space = AddressSpace()
    base = space.mmap(None, 2 * PAGE_SIZE)
    data = bytes(range(64))
    space.write(base + PAGE_SIZE - 32, data)
    assert space.read(base + PAGE_SIZE - 32, 64) == data


def test_write_to_readonly_page_faults():
    space = AddressSpace()
    base = space.mmap(None, PAGE_SIZE, prot=PROT_READ)
    with pytest.raises(SegmentationFault):
        space.write(base, b"x")


def test_privileged_access_bypasses_permissions():
    space = AddressSpace()
    base = space.mmap(None, PAGE_SIZE, prot=PROT_NONE)
    space.write(base, b"k", privileged=True)
    assert space.read(base, 1, privileged=True) == b"k"


def test_mprotect_changes_permissions():
    space = AddressSpace()
    base = space.mmap(None, PAGE_SIZE, prot=PROT_RW)
    space.mprotect(base, PAGE_SIZE, PROT_READ)
    with pytest.raises(SegmentationFault):
        space.write(base, b"x")
    assert space.read(base, 1) == b"\x00"


def test_pkey_denies_read_and_write():
    space = AddressSpace()
    base = space.mmap(None, PAGE_SIZE)
    space.pkey_mprotect(base, PAGE_SIZE, PROT_RW, pkey=3)

    blocked = pkru_disable_access(0, 3)
    with pytest.raises(ProtectionKeyFault):
        space.read(base, 1, pkru=blocked)
    with pytest.raises(ProtectionKeyFault):
        space.write(base, b"x", pkru=blocked)
    # a PKRU that only write-disables still allows reads
    wd_only = pkru_disable_write(0, 3)
    assert space.read(base, 1, pkru=wd_only) == b"\x00"
    with pytest.raises(ProtectionKeyFault):
        space.write(base, b"x", pkru=wd_only)


def test_pkey_does_not_gate_instruction_fetch():
    """XoM: exec-only page with access-disabled key is fetchable only."""
    space = AddressSpace()
    base = space.mmap(None, PAGE_SIZE, prot=PROT_EXEC)
    space.pkey_mprotect(base, PAGE_SIZE, PROT_EXEC, pkey=5)
    blocked = pkru_disable_access(0, 5)
    space.fetch_check(base)  # must not raise
    with pytest.raises(SegmentationFault):
        space.read(base, 1, pkru=blocked)


def test_fetch_from_non_exec_page_faults():
    space = AddressSpace()
    base = space.mmap(None, PAGE_SIZE, prot=PROT_RW)
    with pytest.raises(ExecuteFault):
        space.fetch_check(base)


def test_word_alignment_enforced():
    space = AddressSpace()
    base = space.mmap(None, PAGE_SIZE)
    space.write_word(base + 8, 0x1122334455667788)
    assert space.read_word(base + 8) == 0x1122334455667788
    with pytest.raises(AlignmentFault):
        space.read_word(base + 4)
    with pytest.raises(AlignmentFault):
        space.write_word(base + 1, 1)


def test_read_cstring():
    space = AddressSpace()
    base = space.mmap(None, PAGE_SIZE)
    space.write(base, b"GET /index.html\x00garbage")
    assert space.read_cstring(base) == b"GET /index.html"


def test_munmap_removes_pages():
    space = AddressSpace()
    base = space.mmap(None, 2 * PAGE_SIZE)
    space.munmap(base, PAGE_SIZE)
    with pytest.raises(SegmentationFault):
        space.read(base, 1)
    assert space.read(base + PAGE_SIZE, 1) == b"\x00"


def test_mapped_regions_coalesce():
    space = AddressSpace()
    space.mmap(0x10_0000, 2 * PAGE_SIZE, prot=PROT_READ, tag="text")
    space.mmap(0x10_0000 + 2 * PAGE_SIZE, PAGE_SIZE, prot=PROT_RW, tag="data")
    regions = space.mapped_regions()
    assert regions == [
        (0x10_0000, 2 * PAGE_SIZE, PROT_READ, "text"),
        (0x10_0000 + 2 * PAGE_SIZE, PAGE_SIZE, PROT_RW, "data"),
    ]


def test_resident_bytes_counts_pages():
    space = AddressSpace()
    space.mmap(None, 3 * PAGE_SIZE)
    assert space.resident_bytes() == 3 * PAGE_SIZE


def test_fork_into_deep_copies():
    parent = AddressSpace("parent")
    child = AddressSpace("child")
    base = parent.mmap(None, PAGE_SIZE, tag="heap")
    parent.write(base, b"orig")
    parent.fork_into(child)
    child.write(base, b"chld")
    assert parent.read(base, 4) == b"orig"
    assert child.read(base, 4) == b"chld"
    assert child.page_at(base).tag == "heap"


def test_observers_see_accesses():
    space = AddressSpace()
    base = space.mmap(None, PAGE_SIZE)
    events = []
    space.add_observer(lambda op, a, n, v: events.append((op, a, n)))
    space.write(base, b"ab")
    space.read(base, 2)
    assert events == [("write", base, 2), ("read", base, 2)]
    space.remove_observer(space._observers[0])
    space.read(base, 2)
    assert len(events) == 2


def test_share_into_excludes_by_page_base_and_keeps_other_pages():
    """A page is excluded when its *base* lies in ``[start, end)``, so
    unaligned ends round up; pages ``other`` already holds are kept at
    excluded indices and replaced at shared ones."""
    leader = AddressSpace("leader")
    follower = AddressSpace("follower")
    base = leader.mmap(0x100000, 6 * PAGE_SIZE)
    page = [base + i * PAGE_SIZE for i in range(6)]
    follower.mmap(page[1], PAGE_SIZE, tag="private")
    follower.mmap(page[5], PAGE_SIZE, tag="stale")
    held = follower.page_at(page[1])
    shared = leader.share_into(follower, exclude=[
        (page[0] + 1, page[2] - 1),      # bases page[1] only
        (page[3], page[4] + 1),          # bases page[3] and page[4]
    ])
    assert shared == 3                   # page[0], page[2], page[5]
    for index in (0, 2, 5):
        assert follower.page_at(page[index]) is leader.page_at(page[index])
    assert follower.page_at(page[1]) is held
    assert not follower.is_mapped(page[3])
    assert not follower.is_mapped(page[4])
    assert leader.share_into(AddressSpace(), exclude=[(page[2], page[0])]) \
        == 6                             # an empty range excludes nothing


def test_read_words_counts_one_access_per_word():
    space = AddressSpace()
    base = space.mmap(None, 2 * PAGE_SIZE)
    for i in range(4):
        space.write_word(base + PAGE_SIZE - 32 + 8 * i, i + 1)
    before = space.access_count
    assert space.read_words(base + PAGE_SIZE - 32, 4) == (1, 2, 3, 4)
    assert space.access_count == before + 4
    with pytest.raises(AlignmentFault):
        space.read_words(base + 4, 1)
    with pytest.raises(ValueError):
        space.read_words(base + PAGE_SIZE - 32, 5)   # crosses a page
    events = []
    space.add_observer(lambda op, a, n, v: events.append((op, a, n)))
    space.read_words(base + PAGE_SIZE - 16, 2)
    assert events == [("read", base + PAGE_SIZE - 16, 8),
                      ("read", base + PAGE_SIZE - 8, 8)]


# -- word accesses against a TLB lookup per access ----------------------------

_WORD_STRUCT = struct.Struct("<Q")
_MASK64 = (1 << 64) - 1


def reference_read_word(self, addr: int, pkru: int = PKRU_ALLOW_ALL,
                        privileged: bool = False, aligned: bool = True) -> int:
    """``read_word`` before TLB hits were served inline."""
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
    # from the backing bytearray without an intermediate copy
    self.access_count += 1
    page = self._lookup_read(addr, pkru, privileged)
    return _WORD_STRUCT.unpack_from(page.data, addr % PAGE_SIZE)[0]


def reference_write_word(self, addr: int, value: int,
                         pkru: int = PKRU_ALLOW_ALL,
                         privileged: bool = False,
                         aligned: bool = True) -> None:
    """``write_word`` before TLB hits were served inline."""
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
    page = self._lookup_write(addr, pkru, privileged)
    _WORD_STRUCT.pack_into(page.data, addr % PAGE_SIZE, value & _MASK64)
    if page.decode_cache is not None:
        page.invalidate_decode()


WORLD_BASE = 0x60_0000
WORLD_PKRUS = (0, pkru_disable_access(0, 3), pkru_disable_write(0, 3),
               pkru_disable_write(0, 0))


def word_world_outcome(ops, reference, observe):
    """Run ``ops`` on a leader space and a follower sharing its pages
    (page 4 is unmapped); return everything the accesses can change."""
    leader, follower = AddressSpace("leader"), AddressSpace("follower")
    leader.mmap(WORLD_BASE, 4 * PAGE_SIZE)
    leader.pkey_mprotect(WORLD_BASE + PAGE_SIZE, PAGE_SIZE, PROT_RW, pkey=3)
    leader.mprotect(WORLD_BASE + 2 * PAGE_SIZE, PAGE_SIZE, PROT_READ)
    leader.share_into(follower)
    spaces = (leader, follower)
    events = []
    for space in spaces:
        if reference:
            space.read_word = types.MethodType(reference_read_word, space)
            space.write_word = types.MethodType(reference_write_word, space)
        if observe:
            space.add_observer(lambda *event: events.append(event))
    results = []
    for op in ops:
        space = spaces[op[1]]
        try:
            if op[0] == "protect":
                _, _, page, prot, pkey = op
                space.pkey_mprotect(WORLD_BASE + page * PAGE_SIZE, PAGE_SIZE,
                                    prot, pkey)
                results.append(None)
                continue
            kind, _, page, slot, skew, pkru, privileged, aligned, value = op
            addr = WORLD_BASE + page * PAGE_SIZE + slot * WORD_SIZE + skew
            if kind == "read":
                results.append(space.read_word(addr, pkru, privileged,
                                               aligned))
            else:
                results.append(space.write_word(addr, value, pkru=pkru,
                                                privileged=privileged,
                                                aligned=aligned))
        except MachineFault as fault:
            results.append((type(fault), str(fault), fault.address))
    return (results, events,
            [(space.access_count, space.tlb_fills) for space in spaces],
            [bytes(page.data) for _, page in leader.mapped_pages()])


word_accesses = st.tuples(
    st.sampled_from(["read", "write"]), st.integers(0, 1), st.integers(0, 4),
    st.sampled_from([0, 1, PAGE_SIZE // WORD_SIZE - 1]),
    st.sampled_from([0, 0, 4]), st.sampled_from(WORLD_PKRUS), st.booleans(),
    st.booleans(), st.integers(0, _MASK64))
protections = st.tuples(
    st.just("protect"), st.integers(0, 1), st.integers(0, 3),
    st.sampled_from([PROT_NONE, PROT_READ, PROT_RW]), st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(st.one_of(word_accesses, word_accesses, protections),
                    max_size=40),
       observe=st.booleans())
def test_word_accesses_match_a_tlb_lookup_per_access(ops, observe):
    """``read_word``/``write_word`` serve a TLB hit inline; values,
    faults, access and TLB-fill counts, observer events and memory match
    a lookup through ``_lookup_read``/``_lookup_write`` on every access,
    with protections changed through either of two spaces sharing the
    pages."""
    assert word_world_outcome(ops, False, observe) == \
        word_world_outcome(ops, True, observe)


def test_write_hit_revalidates_a_page_changed_through_another_space():
    leader, follower = AddressSpace("leader"), AddressSpace("follower")
    base = leader.mmap(None, PAGE_SIZE)
    leader.share_into(follower)
    follower.write_word(base, 1, pkru=pkru_disable_write(0, 3))
    fills = follower.tlb_fills
    follower.write_word(base, 2, pkru=pkru_disable_write(0, 3))
    assert follower.tlb_fills == fills                  # an inline hit
    leader.pkey_mprotect(base, PAGE_SIZE, PROT_RW, pkey=3)
    with pytest.raises(ProtectionKeyFault):
        follower.write_word(base, 3, pkru=pkru_disable_write(0, 3))
    assert leader.read_word(base) == 2
