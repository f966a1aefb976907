"""Unit tests: the pointer relocator and the lockstep IPC channel."""

import threading
import time
import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ipc
from repro.core.divergence import CallRecord, DivergenceKind, \
    DivergenceReport
from repro.core.ipc import (
    FOLLOWER,
    LEADER,
    LibcResult,
    LockstepChannel,
    LockstepTimeout,
)
from repro.core.relocate import OldRange, PointerRelocator, ScanStats
from repro.errors import AlignmentFault, MvxDivergence, SegmentationFault
from repro.machine import AddressSpace, PAGE_SIZE
from repro.machine.memory import WORD_SIZE
from repro.machine.costs import DEFAULT_COSTS

SHIFT = 0x1000_0000


def make_relocator(old_start=0x10_0000, old_size=0x10000):
    space = AddressSpace()
    space.mmap(old_start, old_size)
    space.mmap(old_start + SHIFT, old_size)
    ranges = [OldRange(old_start, old_start + old_size, "image")]
    return space, PointerRelocator(space, ranges, SHIFT, DEFAULT_COSTS)


# -- relocator --------------------------------------------------------------------

def test_relocates_pointer_into_old_range():
    space, relocator = make_relocator()
    target = 0x10_0000 + 0x500
    copy_base = 0x10_0000 + SHIFT
    space.write_word(copy_base + 0x100, target, privileged=True)
    stats = relocator.scan_data_region(copy_base, 0x1000, "data")
    assert stats.pointers_found == 1
    assert space.read_word(copy_base + 0x100, privileged=True) == \
        target + SHIFT


def test_leaves_non_pointers_alone():
    space, relocator = make_relocator()
    copy_base = 0x10_0000 + SHIFT
    values = [0, 42, 0xFFFF_FFFF_FFFF_FFFF, 0x20_0000]   # outside ranges
    for i, value in enumerate(values):
        space.write_word(copy_base + 8 * i, value, privileged=True)
    stats = relocator.scan_data_region(copy_base, 8 * len(values), "data")
    assert stats.pointers_found == 0
    for i, value in enumerate(values):
        assert space.read_word(copy_base + 8 * i,
                               privileged=True) == value


def test_false_positive_integer_that_looks_like_pointer():
    """The paper's acknowledged strawman hazard: an integer whose value
    happens to fall inside an old range IS relocated (§3.4: 'There might
    be integer values that look like pointers')."""
    space, relocator = make_relocator()
    copy_base = 0x10_0000 + SHIFT
    innocent_integer = 0x10_0008          # not a pointer, but in-range
    space.write_word(copy_base, innocent_integer, privileged=True)
    stats = relocator.scan_data_region(copy_base, 8, "data")
    assert stats.pointers_found == 1      # misidentified, by design
    assert space.read_word(copy_base, privileged=True) == \
        innocent_integer + SHIFT


def test_alias_narrowed_scan_visits_only_known_slots():
    space, relocator = make_relocator()
    copy_base = 0x10_0000 + SHIFT
    space.write_word(copy_base + 0, 0x10_0100, privileged=True)   # slot 0
    space.write_word(copy_base + 8, 0x10_0200, privileged=True)   # slot 1
    stats = relocator.scan_data_region(copy_base, 16, "data",
                                       slot_offsets=[0])
    assert stats.slots_scanned == 1
    assert stats.pointers_found == 1
    # the unlisted slot kept its stale value (the risk alias info takes)
    assert space.read_word(copy_base + 8, privileged=True) == 0x10_0200


def test_scan_charges_proportional_time():
    space, relocator = make_relocator()
    copy_base = 0x10_0000 + SHIFT
    small = relocator.scan_data_region(copy_base, 64, "a")
    large = relocator.scan_data_region(copy_base, 6400, "b")
    assert large.time_ns > 10 * small.time_ns
    heap = relocator.scan_heap_region(copy_base, 6400)
    assert heap.time_ns > large.time_ns      # heap slots cost more


def test_relocate_value_scalar():
    _, relocator = make_relocator()
    assert relocator.relocate_value(0x10_0010) == 0x10_0010 + SHIFT
    assert relocator.relocate_value(12345) == 12345
    assert relocator.relocate_value(0) == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=(1 << 47) - 8),
                min_size=1, max_size=32))
def test_relocation_idempotent_on_out_of_range(values):
    """Values outside every old range survive any scan bit-identically."""
    space = AddressSpace()
    base = space.mmap(None, PAGE_SIZE)
    ranges = [OldRange(1 << 45, (1 << 45) + 0x1000, "image")]
    relocator = PointerRelocator(space, ranges, SHIFT, DEFAULT_COSTS)
    safe = [v for v in values if not (1 << 45) <= v < (1 << 45) + 0x1000]
    for i, value in enumerate(safe[:32]):
        space.write_word(base + 8 * i, value, privileged=True)
    relocator.scan_data_region(base, 8 * len(safe[:32]), "fuzz")
    for i, value in enumerate(safe[:32]):
        assert space.read_word(base + 8 * i, privileged=True) == value


# -- the page-chunk scan against the slot-at-a-time walk ---------------------------

def reference_scan_region(relocator, start, size, region, slot_cost_ns,
                          slot_offsets=None):
    """``scan_region`` as a slot-at-a-time walk: one word read, one
    classify and, on a hit, one rewrite per slot.  The page-chunk scan
    must match it in every observable."""
    stats = ScanStats(region)
    if slot_offsets is None:
        offsets = range(0, size - size % WORD_SIZE, WORD_SIZE)
    else:
        offsets = sorted(o for o in slot_offsets if o + WORD_SIZE <= size)
    for offset in offsets:
        address = start + offset
        value = relocator.space.read_word(address, privileged=True)
        stats.slots_scanned += 1
        if relocator.classify(value) is not None:
            relocator.space.write_word(address, value + relocator.shift,
                                       privileged=True)
            stats.pointers_found += 1
    stats.time_ns = (stats.slots_scanned * slot_cost_ns
                     + stats.pointers_found
                     * relocator.costs.pointer_fixup_ns)
    relocator._charge(stats.time_ns, f"pointer-scan:{region}")
    return stats


SCAN_BASE = 0x40_0000
SCAN_PAGES = 4
MASK64 = (1 << 64) - 1


def scan_outcome(scan, ranges, words, start, size, slot_offsets=None,
                 mapped=range(SCAN_PAGES), observe=False):
    """Run ``scan`` on a fresh space; return everything it can change."""
    space = AddressSpace("scan")
    for page in mapped:
        space.mmap(SCAN_BASE + page * PAGE_SIZE, PAGE_SIZE)
    for slot, value in words.items():
        if (slot * WORD_SIZE) // PAGE_SIZE in mapped:
            space.write_word(SCAN_BASE + slot * WORD_SIZE, value,
                             privileged=True)
    events = []
    if observe:
        space.add_observer(
            lambda op, addr, n, value: events.append((op, addr, n, value)))
    charges = []
    relocator = PointerRelocator(
        space, [OldRange(s, e, f"r{i}") for i, (s, e) in enumerate(ranges)],
        SHIFT, DEFAULT_COSTS,
        charge=lambda ns, category: charges.append((ns, category)))
    before = space.access_count
    try:
        result = scan(relocator, start, size, "region",
                      DEFAULT_COSTS.data_scan_slot_ns, slot_offsets)
    except (AlignmentFault, SegmentationFault) as fault:
        result = (type(fault), str(fault), fault.address)
    memory = {base: bytes(page.data) for base, page in space.mapped_pages()}
    return result, memory, space.access_count - before, charges, events


def scan_both(*args, **kwargs):
    def real(relocator, *scan_args):
        return relocator.scan_region(*scan_args)
    expected = scan_outcome(reference_scan_region, *args, **kwargs)
    assert scan_outcome(real, *args, **kwargs) == expected
    return expected


@st.composite
def scan_cases(draw):
    ranges = [(start, start + draw(st.integers(0, 1 << 20)))
              for start in (draw(st.integers(0, 1 << 47)),
                            draw(st.integers(0, 1 << 47)))]
    edges = [edge + delta & MASK64 for start, end in ranges
             for edge, delta in ((start, -1), (start, 0), (end, -1),
                                 (end, 0))]
    word = st.one_of(st.just(0), st.sampled_from(edges),
                     st.integers(0, MASK64))
    slots = SCAN_PAGES * PAGE_SIZE // WORD_SIZE
    words = draw(st.dictionaries(st.integers(0, slots - 1), word,
                                 max_size=300))
    offset = draw(st.integers(0, PAGE_SIZE // WORD_SIZE - 1)) * WORD_SIZE
    pages = draw(st.integers(1, 3))
    size = draw(st.integers(0, pages * PAGE_SIZE - offset))
    size = size - size % WORD_SIZE + draw(st.integers(0, WORD_SIZE - 1))
    slot_offsets = draw(st.none() | st.lists(
        st.integers(0, size // WORD_SIZE).map(lambda s: s * WORD_SIZE)))
    return ranges, words, SCAN_BASE + offset, size, slot_offsets


@settings(max_examples=150, deadline=None)
@given(scan_cases())
def test_page_chunk_scan_matches_slot_walk(case):
    """Stats, memory bytes, accesses counted and charges all equal the
    slot-at-a-time walk's, on words biased to zero and to both ranges'
    edges, from any aligned start across one to three pages."""
    ranges, words, start, size, slot_offsets = case
    scan_both(ranges, words, start, size, slot_offsets)


SCAN_RANGES = [(0x10_0000, 0x11_0000), (0x7F00_0000_0000, 0x7F00_0010_0000)]
SCAN_WORDS = {0: 0x10_0008, 3: 42, 511: 0x7F00_0000_0040,
              512: 0x10_FFFF, 700: 0x11_0000, 1100: 0x10_0010}


def test_scan_unaligned_start_faults_like_slot_walk():
    result, _, accesses, charges, _ = scan_both(
        SCAN_RANGES, SCAN_WORDS, SCAN_BASE + 4, 64)
    assert result == (AlignmentFault, "unaligned word read at 0x400004",
                      SCAN_BASE + 4)
    assert accesses == 0 and charges == []


def test_scan_unmapped_middle_page_faults_after_earlier_rewrites():
    result, memory, accesses, charges, _ = scan_both(
        SCAN_RANGES, SCAN_WORDS, SCAN_BASE + 8, 3 * PAGE_SIZE,
        mapped=(0, 2, 3))
    hole = SCAN_BASE + PAGE_SIZE
    assert result[0] is SegmentationFault and result[2] == hole
    assert charges == []
    assert accesses == 511 + 1 + 1   # page 0's reads, a rewrite, the fault
    first = memory[SCAN_BASE]
    assert int.from_bytes(first[511 * 8:512 * 8], "little") == \
        0x7F00_0000_0040 + SHIFT                  # rewritten before it
    assert int.from_bytes(first[:8], "little") == 0x10_0008  # not scanned


def test_scan_under_an_observer_issues_the_slot_walks_events():
    _, _, _, _, events = scan_both(
        SCAN_RANGES, SCAN_WORDS, SCAN_BASE, 2 * PAGE_SIZE, observe=True)
    assert len(events) == 2 * PAGE_SIZE // WORD_SIZE + 3   # 3 rewrites
    assert events[:2] == [
        ("read", SCAN_BASE, 8, (0x10_0008).to_bytes(8, "little")),
        ("write", SCAN_BASE, 8, (0x10_0008 + SHIFT).to_bytes(8, "little"))]


# -- the lockstep channel -----------------------------------------------------------

def run_follower(channel, script):
    """Run `script(channel)` on a follower thread; returns the thread."""
    thread = threading.Thread(target=script, args=(channel,), daemon=True)
    thread.start()
    return thread


def test_happy_path_one_call():
    channel = LockstepChannel()
    result_seen = {}

    def follower(ch):
        ch.follower_wait_turn()
        result = ch.follower_announce(
            CallRecord(1, "read", (3, 100, 64), FOLLOWER))
        result_seen["result"] = result
        ch.follower_finish()

    thread = run_follower(channel, follower)
    record = channel.leader_announce(CallRecord(1, "read", (3, 200, 64),
                                                LEADER))
    assert record.name == "read"
    channel.leader_publish(LibcResult(1, 64, 0))
    status = channel.leader_finish()
    thread.join(timeout=10)
    assert status.done and status.fault is None
    assert result_seen["result"].retval == 64
    assert channel.rendezvous_count == 1


def test_follower_missing_call_flags_divergence():
    channel = LockstepChannel()

    def follower(ch):
        ch.follower_wait_turn()
        ch.follower_finish()              # returns without any libc call

    thread = run_follower(channel, follower)
    with pytest.raises(MvxDivergence) as info:
        channel.leader_announce(CallRecord(1, "write", (1,), LEADER))
    thread.join(timeout=10)
    assert info.value.report.kind is DivergenceKind.CALL_COUNT


def test_follower_extra_call_flags_divergence():
    channel = LockstepChannel()
    errors = {}

    def follower(ch):
        ch.follower_wait_turn()
        try:
            ch.follower_announce(CallRecord(1, "getpid", (), FOLLOWER))
        except MvxDivergence as exc:
            errors["exc"] = exc

    thread = run_follower(channel, follower)
    with pytest.raises(MvxDivergence) as info:
        channel.leader_finish()          # leader done without any call
    thread.join(timeout=10)
    assert info.value.report.kind is DivergenceKind.CALL_COUNT
    assert isinstance(errors.get("exc"), MvxDivergence)
    assert channel.divergence is not None


def test_leader_abort_wakes_follower():
    channel = LockstepChannel()
    woken = {}

    def follower(ch):
        try:
            ch.follower_wait_turn()
        except MvxDivergence as exc:
            woken["exc"] = exc

    thread = run_follower(channel, follower)
    channel.leader_abort(DivergenceReport(DivergenceKind.ARGUMENT,
                                          1, "read", "test"))
    thread.join(timeout=10)
    assert isinstance(woken.get("exc"), MvxDivergence)


def test_strict_serialization_sequence():
    """The baton never lets both sides run at once: events interleave in
    the documented order."""
    channel = LockstepChannel()
    events = []

    def follower(ch):
        ch.follower_wait_turn()
        events.append("follower-running")
        result = ch.follower_announce(CallRecord(1, "time", (0,), FOLLOWER))
        events.append(f"follower-got-{result.retval}")
        ch.follower_finish()

    thread = run_follower(channel, follower)
    events.append("leader-call")
    follower_record = channel.leader_announce(
        CallRecord(1, "time", (0,), LEADER))
    events.append("leader-matched")
    channel.leader_publish(LibcResult(1, 777, 0))
    events.append("leader-continues")
    channel.leader_finish()
    thread.join(timeout=10)
    assert events[0] == "leader-call"
    assert events[1] == "follower-running"
    assert events[2] == "leader-matched"
    assert "follower-got-777" in events


def test_multiple_sequential_calls():
    channel = LockstepChannel()

    def follower(ch):
        ch.follower_wait_turn()
        for seq in range(1, 6):
            result = ch.follower_announce(
                CallRecord(seq, "getpid", (), FOLLOWER))
            assert result.retval == 100 + seq
        ch.follower_finish()

    thread = run_follower(channel, follower)
    for seq in range(1, 6):
        channel.leader_announce(CallRecord(seq, "getpid", (), LEADER))
        channel.leader_publish(LibcResult(seq, 100 + seq, 0))
    channel.leader_finish()
    thread.join(timeout=10)
    assert channel.rendezvous_count == 5


# -- the lockstep watchdog: peer progress, not host speed -----------------------------

@pytest.fixture
def short_wait(monkeypatch):
    monkeypatch.setattr(ipc, "_WAIT_TIMEOUT_S", 0.05)


def test_slow_leader_does_not_trip_follower_wait(short_wait):
    """A leader that is merely slow (parked in the scheduler, traced)
    between announcing and publishing is still making progress."""
    channel = LockstepChannel()
    seen = {}

    def follower(ch):
        try:
            ch.follower_wait_turn()
            seen["result"] = ch.follower_announce(
                CallRecord(1, "read", (3, 100, 64), FOLLOWER))
            ch.follower_finish()
        except Exception as exc:          # surfaced by the assert below
            seen["error"] = exc

    thread = run_follower(channel, follower)
    channel.leader_announce(CallRecord(1, "read", (3, 200, 64), LEADER))
    time.sleep(0.2)                       # four watchdog slices
    channel.leader_publish(LibcResult(1, 64, 0))
    status = channel.leader_finish()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert "error" not in seen, seen
    assert seen["result"].retval == 64
    assert status.done and status.fault is None


def test_deadlocked_channel_still_times_out(short_wait):
    """A follower that announces before its first turn hands off out of
    turn: its announce raises ``LockstepTimeout`` ("protocol stall") at
    once, before any wait, and drops the baton, so the leader's next
    handoff (``leader_finish``) raises the same way."""
    channel = LockstepChannel()
    seen = {}

    def follower(ch):
        try:
            ch.follower_announce(CallRecord(1, "read", (3,), FOLLOWER))
        except LockstepTimeout as exc:
            seen["timeout"] = exc

    thread = run_follower(channel, follower)
    while not channel.status[FOLLOWER].calls_made:
        time.sleep(0.001)
    with pytest.raises(LockstepTimeout, match="protocol stall"):
        channel.leader_finish()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert "protocol stall" in str(seen.get("timeout"))


def test_dead_follower_thread_trips_the_leader_wait(short_wait):
    channel = LockstepChannel()

    def follower(ch):
        ch.follower_wait_turn()           # then dies without finishing

    run_follower(channel, follower)
    with pytest.raises(LockstepTimeout, match="follower thread died"):
        channel.leader_announce(CallRecord(1, "write", (1,), LEADER))


def test_follower_crash_of_any_kind_finishes_with_a_fault():
    """An unexpected exception in the follower thread is reported as a
    follower fault instead of leaving the leader waiting."""
    from repro.core.monitor import SmvxMonitor

    class Crashing:
        def guest_call(self, *args):
            raise KeyError("follower bug")

    monitor = SmvxMonitor.__new__(SmvxMonitor)
    monitor.process = Crashing()
    channel = LockstepChannel()
    variant = types.SimpleNamespace(thread=None, entry=0)
    thread = threading.Thread(target=monitor._follower_main,
                              args=(variant, (), channel), daemon=True)
    channel.threads[FOLLOWER] = thread
    thread.start()
    with pytest.raises(MvxDivergence) as info:
        channel.leader_announce(CallRecord(1, "write", (1,), LEADER))
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert info.value.report.kind is DivergenceKind.FOLLOWER_FAULT
    assert "KeyError" in channel.status[FOLLOWER].fault


# -- call-record comparison -----------------------------------------------------------

def test_compare_calls_ignores_pointer_args():
    from repro.core.divergence import compare_calls
    leader = CallRecord(1, "read", (3, 0xAAAA_0000, 64), LEADER)
    follower = CallRecord(1, "read", (3, 0xBBBB_0000, 64), FOLLOWER)
    assert compare_calls(leader, follower, pointer_indexes=(1,)) is None
    report = compare_calls(leader, follower, pointer_indexes=())
    assert report is not None
    assert report.kind is DivergenceKind.ARGUMENT


def test_compare_calls_name_mismatch():
    from repro.core.divergence import compare_calls
    report = compare_calls(CallRecord(1, "read", (), LEADER),
                           CallRecord(1, "write", (), FOLLOWER), ())
    assert report.kind is DivergenceKind.CALL_NAME
