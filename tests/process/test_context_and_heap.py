"""Tests for the guest context, guest calls, the heap, and libc."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtectionKeyFault
from repro.kernel.vfs import O_CREAT, O_RDONLY, O_WRONLY
from repro.loader import ImageBuilder
from repro.machine import PAGE_SIZE, PROT_RW, AddressSpace
from repro.machine.mpk import pkru_disable_access
from repro.process import GuestProcess, Heap, HeapCorruption, to_signed
from repro.process.heap import OutOfGuestMemory


def load_app(process, *hl_functions, imports=(), rodata=(), bss=()):
    builder = ImageBuilder("app")
    if imports:
        builder.import_libc(*imports)
    for name, fn, arity in hl_functions:
        builder.add_hl_function(name, fn, arity)
    for name, content in rodata:
        builder.add_rodata(name, content)
    for name, size in bss:
        builder.add_bss(name, size)
    return process.load_image(builder.build(), main=True)


# -- guest calls ------------------------------------------------------------------

def test_arguments_flow_through_registers(process):
    def add3(ctx, a, b, c):
        return a + b + c
    load_app(process, ("add3", add3, 3))
    assert process.call_function("add3", 10, 20, 30) == 60


def test_more_than_six_arguments_go_on_the_stack(process):
    def add8(ctx, *args):
        assert len(args) == 8
        return sum(args)
    load_app(process, ("add8", add8, 8))
    assert process.call_function("add8", 1, 2, 3, 4, 5, 6, 7, 8) == 36


def test_nested_guest_calls(process):
    def inner(ctx, x):
        return x * 2

    def outer(ctx, x):
        return ctx.call("inner", x + 1) + 100
    load_app(process, ("inner", inner, 1), ("outer", outer, 1))
    assert process.call_function("outer", 5) == 112


def test_negative_return_values_wrap_as_unsigned(process):
    def fail(ctx):
        return -1
    load_app(process, ("fail", fail, 0))
    result = process.call_function("fail")
    assert result == (1 << 64) - 1
    assert to_signed(result) == -1


def test_stack_alloc_below_return_address(process):
    captured = {}

    def framey(ctx):
        rsp_before = ctx.regs.get("rsp")
        buf = ctx.stack_alloc(64)
        captured["buf"] = buf
        captured["ret_slot"] = rsp_before
        ctx.write(buf, b"A" * 64)
        return ctx.read_byte(buf + 63)
    load_app(process, ("framey", framey, 0))
    assert process.call_function("framey") == ord("A")
    assert captured["buf"] + 64 == captured["ret_slot"]


def test_guest_memory_respects_pkru(process):
    region = process.space.mmap(None, PAGE_SIZE, prot=PROT_RW)
    process.space.pkey_mprotect(region, PAGE_SIZE, PROT_RW, pkey=4)

    def toucher(ctx, addr):
        return ctx.read_word(addr)
    load_app(process, ("toucher", toucher, 1))
    thread = process.main_thread()
    thread.state.pkru = pkru_disable_access(0, 4)
    with pytest.raises(ProtectionKeyFault):
        process.call_function("toucher", region)
    thread.state.pkru = 0
    assert process.call_function("toucher", region) == 0


def test_cstring_roundtrip_and_words(process):
    def roundtrip(ctx):
        buf = ctx.stack_alloc(64)
        ctx.write_cstring(buf, b"smvx")
        assert ctx.read_cstring(buf) == b"smvx"
        ctx.write_words(buf, [1, 2, 3])
        assert ctx.read_words(buf, 3) == [1, 2, 3]
        return 1
    load_app(process, ("roundtrip", roundtrip, 0))
    assert process.call_function("roundtrip") == 1


def test_compute_charges_advance_time(process):
    def burner(ctx):
        ctx.charge(1000)
        return 0
    load_app(process, ("burner", burner, 0))
    before = process.counter.total_ns
    clock_before = process.kernel.clock.monotonic_ns
    process.call_function("burner")
    assert process.counter.total_ns - before >= 1000
    assert process.kernel.clock.monotonic_ns > clock_before


def test_func_stack_tracked(process):
    depths = []

    def inner(ctx):
        depths.append(list(ctx.thread.func_stack))
        return 0

    def outer(ctx):
        return ctx.call("inner")
    load_app(process, ("inner", inner, 0), ("outer", outer, 0))
    process.call_function("outer")
    assert depths == [["outer", "inner"]]


# -- libc through the PLT ----------------------------------------------------------

def test_libc_file_io(process):
    def writer(ctx):
        path = ctx.stack_alloc(32)
        ctx.write_cstring(path, b"/tmp/out.txt")
        fd = to_signed(ctx.libc("open", path, O_WRONLY | O_CREAT))
        assert fd >= 0
        buf = ctx.stack_alloc(16)
        ctx.write(buf, b"payload!")
        n = to_signed(ctx.libc("write", fd, buf, 8))
        ctx.libc("close", fd)
        return n
    load_app(process, ("writer", writer, 0),
             imports=("open", "write", "close"))
    assert process.call_function("writer") == 8
    assert process.kernel.vfs.read_file("/tmp/out.txt") == b"payload!"


def test_libc_errno_on_failure(process):
    from repro.kernel.errno_codes import Errno

    def opener(ctx):
        path = ctx.stack_alloc(32)
        ctx.write_cstring(path, b"/missing")
        result = to_signed(ctx.libc("open", path, O_RDONLY))
        assert result == -1
        return ctx.errno
    load_app(process, ("opener", opener, 0), imports=("open",))
    assert process.call_function("opener") == Errno.ENOENT


def test_libc_malloc_free_does_not_syscall(process):
    def churner(ctx):
        ptr = ctx.libc("malloc", 100)
        ctx.libc("free", ptr)
        return ptr
    load_app(process, ("churner", churner, 0), imports=("malloc", "free"))
    syscalls_before = process.kernel.syscall_count(process.pid)
    assert process.call_function("churner") != 0
    assert process.kernel.syscall_count(process.pid) == syscalls_before
    assert process.libc_calls_total == 2


def test_libc_string_functions(process):
    def stringy(ctx):
        buf = ctx.stack_alloc(64)
        ctx.write_cstring(buf, b"Content-Length: 42")
        n = ctx.libc("strlen", buf)
        assert n == 18
        colon = ctx.libc("strchr", buf, ord(":"))
        assert colon == buf + 14
        value = ctx.libc("atoi", colon + 1)
        return value
    load_app(process, ("stringy", stringy, 0),
             imports=("strlen", "strchr", "atoi"))
    assert process.call_function("stringy") == 42


def test_libc_atoi_negative(process):
    def neg(ctx):
        buf = ctx.stack_alloc(16)
        ctx.write_cstring(buf, b"-123")
        return ctx.libc("atoi", buf)
    load_app(process, ("neg", neg, 0), imports=("atoi",))
    assert to_signed(process.call_function("neg")) == -123


def test_libc_localtime_r_packs_struct(process):
    from repro.kernel.clock import TmStruct

    def timer(ctx):
        timep = ctx.stack_alloc(8)
        result = ctx.stack_alloc(72)
        ctx.write_word(timep, 1733097600)   # 2024-12-02 00:00:00 UTC
        returned = ctx.libc("localtime_r", timep, result)
        assert returned == result
        tm = TmStruct.unpack(ctx.read(result, 72))
        assert (tm.tm_year, tm.tm_mon, tm.tm_mday) == (124, 11, 2)
        return tm.tm_wday
    load_app(process, ("timer", timer, 0), imports=("localtime_r",))
    assert process.call_function("timer") == 1  # Monday (C-style)


def test_libc_call_statistics(process):
    def chatty(ctx):
        ctx.libc("getpid")
        ctx.libc("getpid")
        ctx.libc("time", 0)
        return 0
    load_app(process, ("chatty", chatty, 0), imports=("getpid", "time"))
    process.call_function("chatty")
    assert process.libc_call_counts["getpid"] == 2
    assert process.libc_call_counts["time"] == 1
    # getpid syscalls twice; time is vDSO-style (no kernel entry)
    assert process.kernel.syscall_breakdown(process.pid) == {"getpid": 2}
    assert process.libc_syscall_ratio() == pytest.approx(1.5)


# -- heap ---------------------------------------------------------------------------

@pytest.fixture
def heap():
    space = AddressSpace()
    base = space.mmap(None, 64 * PAGE_SIZE)
    return Heap(space, base, 64 * PAGE_SIZE)


def test_heap_allocations_are_aligned_and_disjoint(heap):
    addresses = [heap.malloc(n) for n in (1, 8, 24, 100, 4096)]
    assert all(addr % 8 == 0 for addr in addresses)
    assert len(set(addresses)) == len(addresses)


def test_heap_free_and_reuse(heap):
    a = heap.malloc(64)
    heap.free(a)
    assert heap.malloc(64) == a


def test_heap_double_free_detected(heap):
    a = heap.malloc(16)
    heap.free(a)
    with pytest.raises(HeapCorruption):
        heap.free(a)


def test_heap_header_smash_detected(heap):
    a = heap.malloc(16)
    heap.space.write_word(a - 8, 0xBAD, privileged=True)
    with pytest.raises(HeapCorruption):
        heap.free(a)


def test_heap_realloc_preserves_content(heap):
    a = heap.malloc(16)
    heap.space.write(a, b"0123456789abcdef", privileged=True)
    b = heap.realloc(a, 256)
    assert heap.space.read(b, 16, privileged=True) == b"0123456789abcdef"


def test_heap_exhaustion(heap):
    with pytest.raises(OutOfGuestMemory):
        heap.malloc(65 * PAGE_SIZE)


def test_heap_calloc_zeroes(heap):
    a = heap.malloc(32)
    heap.space.write(a, b"\xFF" * 32, privileged=True)
    heap.free(a)
    b = heap.calloc(4, 8)
    assert heap.space.read(b, 32, privileged=True) == b"\x00" * 32


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=2048), min_size=1,
                max_size=60))
def test_heap_property_no_overlap(sizes):
    """Live allocations never overlap, whatever the malloc/free pattern."""
    space = AddressSpace()
    base = space.mmap(None, 1024 * PAGE_SIZE)
    heap = Heap(space, base, 1024 * PAGE_SIZE)
    live = {}
    for index, size in enumerate(sizes):
        addr = heap.malloc(size)
        live[addr] = size
        if index % 3 == 2:                 # free every third allocation
            victim = next(iter(live))
            heap.free(victim)
            del live[victim]
    spans = sorted((addr, addr + size) for addr, size in live.items())
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2, "allocations overlap"


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=10_000))
def test_heap_property_accounting(nbytes):
    space = AddressSpace()
    base = space.mmap(None, 128 * PAGE_SIZE)
    heap = Heap(space, base, 128 * PAGE_SIZE)
    addr = heap.malloc(nbytes)
    assert heap.allocated_bytes >= nbytes
    heap.free(addr)
    assert heap.allocated_bytes == 0
