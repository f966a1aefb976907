"""Unit tests for the interpreter fast path: the per-page decoded
instruction cache, the software TLB, the observer-free MMU fast paths,
and the precise/fast interpreter contract — including a differential
section that runs edge-case and randomized programs on both paths and
compares every observable end state."""

import random

import pytest

from repro.errors import (
    AlignmentFault,
    ExecuteFault,
    MachineFault,
    ProtectionKeyFault,
    SegmentationFault,
)
from repro.machine import (
    INSTR_SIZE,
    PAGE_SIZE,
    PROT_RW,
    PROT_RX,
    PROT_RWX,
    AddressSpace,
    Assembler,
    CPU,
    Instruction,
    Op,
)
from repro.machine.cpu import CpuExit, ExecState, HOST_RETURN_ADDRESS
from repro.machine.mpk import pkru_disable_access
from repro.machine.registers import RegisterFile

CODE_BASE = 0x40_0000
DATA_BASE = 0x50_0000
STACK_TOP = 0x7000_0000


def make_machine(assembler, code_prot=PROT_RX, stack_pages=4, data_pages=2):
    space = AddressSpace()
    code = assembler.assemble(CODE_BASE)
    space.mmap(CODE_BASE, max(len(code), 1), prot=code_prot, tag="text")
    for offset in range(0, len(code), PAGE_SIZE):
        page = space.page_at(CODE_BASE + offset)
        chunk = code[offset:offset + PAGE_SIZE]
        page.data[:len(chunk)] = chunk
    space.mmap(STACK_TOP - stack_pages * PAGE_SIZE, stack_pages * PAGE_SIZE,
               prot=PROT_RW, tag="stack")
    data_base = space.mmap(DATA_BASE, data_pages * PAGE_SIZE, tag="data")
    cpu = CPU(space)
    state = ExecState(RegisterFile())
    state.regs.rip = CODE_BASE
    state.regs.set("rsp", STACK_TOP - 64)
    return cpu, state, data_base


def run_to_host(cpu, state, max_steps=100_000):
    cpu._push(state, HOST_RETURN_ADDRESS)
    reason = cpu.run(state, max_steps=max_steps)
    assert reason == "host-return"
    return state.regs.get("rax")


def counting_loop(n=50):
    a = Assembler()
    a.mov_ri("rax", 0)
    a.mov_ri("rcx", 0)
    a.label("loop")
    a.add_rr("rax", "rcx")
    a.add_ri("rcx", 1)
    a.cmp_ri("rcx", n)
    a.jne("loop")
    a.ret()
    return a


def observables(cpu, state):
    return {
        "registers": state.regs.snapshot(),
        "virtual_ns": cpu.counter.total_ns,
        "instructions": cpu.instructions_retired,
        "data": bytes(cpu.space.page_at(DATA_BASE).data),
    }


def differential(assembler, handler=None, until_rip=HOST_RETURN_ADDRESS,
                 fault=None, **machine_kwargs):
    """Run the program on the fast path, then on the precise path (which
    defines the machine's semantics), and assert both end states match
    bit for bit.  ``handler(cpu)`` builds the SYSCALL handler; ``fault``
    is the exception the run must raise (``None``: it must reach
    ``until_rip``).  Returns the fast CPU and its end state."""
    results = []
    for precise in (False, True):
        cpu, state, _ = make_machine(assembler, **machine_kwargs)
        cpu.force_slow_path = precise
        if handler is not None:
            cpu.syscall_handler = handler(cpu)
        cpu._push(state, HOST_RETURN_ADDRESS)
        if fault is None:
            assert cpu.run(state, until_rip=until_rip) == "host-return"
        else:
            with pytest.raises(fault):
                cpu.run(state, until_rip=until_rip)
        results.append((cpu, observables(cpu, state)))
    (fast_cpu, fast_obs), (precise_cpu, precise_obs) = results
    assert fast_obs == precise_obs
    assert fast_cpu.fast_insns > 0
    assert precise_cpu.fast_insns == 0
    return fast_cpu, fast_obs


# -- decoded-instruction cache -----------------------------------------------


def test_decode_cache_populates_on_run():
    cpu, state, _ = make_machine(counting_loop())
    run_to_host(cpu, state)
    page = cpu.space.page_at(CODE_BASE)
    assert page.decode_cache
    # every instruction slot of the loop got decoded exactly once
    assert set(page.decode_cache) == {i * INSTR_SIZE for i in range(7)}
    entry = page.decode_cache[0]
    assert entry[4] == Instruction(Op.MOV_RI, "rax", imm=0)


def test_host_write_invalidates_decode_cache():
    cpu, state, _ = make_machine(counting_loop())
    run_to_host(cpu, state)
    page = cpu.space.page_at(CODE_BASE)
    assert page.decode_cache
    cpu.space.write(CODE_BASE, Instruction(Op.MOV_RI, "rax", imm=7).encode(),
                    privileged=True)
    assert page.decode_cache is None
    # rerun from scratch: the patched first instruction must be seen
    state.regs.rip = CODE_BASE
    state.regs.set("rsp", STACK_TOP - 64)
    run_to_host(cpu, state)
    assert page.decode_cache[0][4] == Instruction(Op.MOV_RI, "rax", imm=7)


def test_guest_store_invalidates_decode_cache():
    """Self-modifying code: the guest patches an instruction it already
    executed (and so already cached), then loops back into it."""
    patched = Instruction(Op.MOV_RI, "rax", imm=999).encode()
    lo, hi = (int.from_bytes(patched[:8], "little"),
              int.from_bytes(patched[8:], "little"))
    a = Assembler()
    a.label("target")
    a.mov_ri("rax", 1)             # will be overwritten with mov rax, 999
    a.cmp_ri("rax", 999)
    a.je("done")
    a.lea("rdi", "target")         # patch our own text through the MMU
    a.mov_ri("rsi", lo)
    a.store("rdi", "rsi", 0)
    a.mov_ri("rsi", hi)
    a.store("rdi", "rsi", 8)
    a.jmp("target")
    a.label("done")
    a.ret()
    _, end = differential(a, code_prot=PROT_RWX)
    assert end["registers"]["rax"] == 999


def test_syscall_mprotect_wx_flip_faults_fetch():
    """A mid-run W^X flip (via the host-callback boundary) must be seen
    by the fast path's cached text page immediately."""
    a = Assembler()
    a.syscall()                    # handler flips the code page to RW
    a.mov_ri("rax", 1)             # fetch of this must now fault
    a.ret()
    cpu, state, _ = make_machine(a)

    def handler(st):
        cpu.space.mprotect(CODE_BASE, PAGE_SIZE, PROT_RW)

    cpu.syscall_handler = handler
    cpu._push(state, HOST_RETURN_ADDRESS)
    with pytest.raises(ExecuteFault):
        cpu.run(state)


def test_straddling_instruction_not_cached():
    """An instruction crossing a page boundary decodes correctly and is
    never cached (single-page invalidation could not cover it)."""
    space = AddressSpace()
    space.mmap(CODE_BASE, 2 * PAGE_SIZE, prot=PROT_RX, tag="text")
    misaligned = PAGE_SIZE - 8
    raw = Instruction(Op.MOV_RI, "rax", imm=42).encode()
    page0 = space.page_at(CODE_BASE)
    page1 = space.page_at(CODE_BASE + PAGE_SIZE)
    page0.data[misaligned:] = raw[:8]
    page1.data[:8] = raw[8:]
    page1.data[8:24] = Instruction(Op.HLT).encode()
    cpu = CPU(space)
    state = ExecState(RegisterFile())
    state.regs.rip = CODE_BASE + misaligned
    with pytest.raises(CpuExit):
        cpu.run(state)
    assert state.regs.get("rax") == 42
    assert (page0.decode_cache or {}).get(misaligned) is None


# -- software TLB ------------------------------------------------------------


def test_tlb_flush_on_pkey_mprotect():
    space = AddressSpace()
    base = space.mmap(None, PAGE_SIZE)
    space.write_word(base, 0x1234)
    pkru = pkru_disable_access(0, pkey=5)
    assert space.read_word(base, pkru) == 0x1234      # TLB entry installed
    space.pkey_mprotect(base, PAGE_SIZE, PROT_RW, pkey=5)
    with pytest.raises(ProtectionKeyFault):
        space.read_word(base, pkru)
    with pytest.raises(ProtectionKeyFault):
        space.write_word(base, 1, pkru)


def test_tlb_flush_on_munmap_and_mprotect():
    space = AddressSpace()
    base = space.mmap(None, PAGE_SIZE)
    space.write_word(base, 7)
    assert space.read_word(base) == 7
    space.mprotect(base, PAGE_SIZE, 0)
    with pytest.raises(SegmentationFault):
        space.read_word(base)
    space.mprotect(base, PAGE_SIZE, PROT_RW)
    assert space.read_word(base) == 7
    space.munmap(base, PAGE_SIZE)
    with pytest.raises(SegmentationFault):
        space.read_word(base)


def test_shared_page_mutation_via_other_space_not_stale():
    """share_into aliases Page objects; a pkey change performed through
    the *other* space must not leave this space's TLB hit stale."""
    leader = AddressSpace("leader")
    follower = AddressSpace("follower")
    base = leader.mmap(None, PAGE_SIZE)
    leader.write_word(base, 99)
    leader.share_into(follower)
    pkru = pkru_disable_access(0, pkey=3)
    assert follower.read_word(base, pkru) == 99       # follower TLB warm
    leader.pkey_mprotect(base, PAGE_SIZE, PROT_RW, pkey=3)
    # follower's page table was not touched — only the shared Page —
    # so the hit-revalidation must catch the new pkey
    with pytest.raises(ProtectionKeyFault):
        follower.read_word(base, pkru)


def test_word_fastpath_matches_general_path():
    space = AddressSpace()
    base = space.mmap(None, 2 * PAGE_SIZE)
    space.write_word(base + 8, 0xDEAD_BEEF_CAFE_F00D)
    assert space.read_word(base + 8) == 0xDEAD_BEEF_CAFE_F00D
    assert space.read(base + 8, 8) == (0xDEAD_BEEF_CAFE_F00D)\
        .to_bytes(8, "little")
    with pytest.raises(AlignmentFault):
        space.read_word(base + 4)
    with pytest.raises(AlignmentFault):
        space.write_word(base + 4, 1)
    # unaligned straddling access via aligned=False still works
    straddle = base + PAGE_SIZE - 4
    space.write_word(straddle, 0x1122334455667788, aligned=False)
    assert space.read_word(straddle, aligned=False) == 0x1122334455667788


# -- observer skip / precise parity ------------------------------------------


def test_observer_gets_same_notifications_as_before():
    space = AddressSpace()
    base = space.mmap(None, PAGE_SIZE)
    space.write(base, b"ab")                 # unobserved: no notification
    events = []
    space.add_observer(lambda *ev: events.append(ev))
    space.write(base, b"xy")
    space.read(base, 2)
    space.write_word(base + 16, 5)
    space.read_word(base + 16)
    assert events == [
        ("write", base, 2, b"xy"),
        ("read", base, 2, b"xy"),
        ("write", base + 16, 8, (5).to_bytes(8, "little")),
        ("read", base + 16, 8, (5).to_bytes(8, "little")),
    ]
    space.remove_observer(space._observers[0])
    space.write(base, b"zz")
    assert len(events) == 4


def test_read_cstring_fast_and_precise_agree():
    space = AddressSpace()
    base = space.mmap(None, 2 * PAGE_SIZE)
    # string crossing the page boundary
    payload = b"A" * (PAGE_SIZE - 3) + b"BCDE"
    space.write(base, payload + b"\x00tail")
    fast = space.read_cstring(base)
    events = []
    space.add_observer(lambda *ev: events.append(ev))
    precise = space.read_cstring(base)
    assert fast == precise == payload
    # precise path reads byte-at-a-time (taint granularity): one event
    # per content byte plus the terminator
    assert len(events) == len(payload) + 1


def test_read_cstring_limit_and_unterminated():
    space = AddressSpace()
    base = space.mmap(None, PAGE_SIZE)
    space.write(base, b"x" * 10)             # page is zero-filled after
    assert space.read_cstring(base) == b"x" * 10
    with pytest.raises(SegmentationFault):
        space.read_cstring(base, limit=10)   # NUL lies beyond the limit
    assert space.read_cstring(base, limit=11) == b"x" * 10
    # scanning off the end of the mapping faults at the unmapped page
    space.write(base + PAGE_SIZE - 16, b"y" * 16)
    with pytest.raises(SegmentationFault):
        space.read_cstring(base + PAGE_SIZE - 16)


def test_find_free_skips_occupied_runs():
    space = AddressSpace()
    a = space.mmap(None, 4 * PAGE_SIZE)
    b = space.mmap(None, 4 * PAGE_SIZE)
    assert b >= a + 4 * PAGE_SIZE
    # force the cursor to walk over an occupied run
    space._mmap_hint = a
    c = space.mmap(None, 2 * PAGE_SIZE)
    for off in range(0, 2 * PAGE_SIZE, PAGE_SIZE):
        assert space.page_at(c + off) is not None
    regions = {base for base, _ in space.mapped_pages()}
    assert len(regions) == 10


# -- fast/slow interpreter contract ------------------------------------------


def test_forced_slow_path_matches_fast_path():
    differential(counting_loop(200))


def test_trace_hook_forces_precise_and_sees_every_instruction():
    cpu, state, _ = make_machine(counting_loop(30))
    seen = []
    cpu.trace_hook = lambda st, addr, instr: seen.append((addr, instr.op))
    run_to_host(cpu, state)
    assert len(seen) == cpu.instructions_retired
    assert seen[0] == (CODE_BASE, Op.MOV_RI)


def test_observer_attach_forces_precise_memory_behavior():
    a = Assembler()
    a.mov_ri("rax", 0x42)
    a.store("rdi", "rax", 0)
    a.load("rbx", "rdi", 0)
    a.ret()
    cpu, state, data_base = make_machine(a)
    state.regs.set("rdi", data_base)
    events = []
    cpu.space.add_observer(lambda *ev: events.append(ev))
    run_to_host(cpu, state)
    assert ("write", data_base, 8, (0x42).to_bytes(8, "little")) in events
    assert ("read", data_base, 8, (0x42).to_bytes(8, "little")) in events


def test_hook_attached_during_syscall_takes_effect_immediately():
    """A host callback may attach a precision consumer; the fast block
    must end there so the very next instruction is traced."""
    a = Assembler()
    a.mov_ri("rax", 1)
    a.syscall()
    a.mov_ri("rbx", 2)
    a.mov_ri("rcx", 3)
    a.ret()
    cpu, state, _ = make_machine(a)
    seen = []

    def handler(st):
        cpu.trace_hook = lambda s, addr, instr: seen.append(instr.op)

    cpu.syscall_handler = handler
    run_to_host(cpu, state)
    assert seen == [Op.MOV_RI, Op.MOV_RI, Op.RET]


def test_batched_charging_flushed_before_syscall_handler():
    """The kernel must observe the same virtual-cycle total at the trap
    boundary as under per-instruction charging."""
    a = Assembler()
    a.mov_ri("rax", 1)
    a.mov_ri("rbx", 2)
    a.syscall()
    a.ret()
    observed = []
    differential(a, handler=lambda cpu: lambda state: observed.append(
        (cpu.counter.total_ns, cpu.instructions_retired)))
    assert observed[0] == observed[1]


def test_fault_still_charges_pending_instructions():
    """An execution fault must leave identical charge totals on both
    paths (pending charges flush before the fault propagates)."""
    a = Assembler()
    a.mov_ri("rax", 1)
    a.mov_ri("rdi", 0xDEAD_0000)
    a.load("rbx", "rdi", 0)        # faults: unmapped
    differential(a, fault=SegmentationFault)


def test_max_steps_exact_on_fast_path():
    cpu, state, _ = make_machine(counting_loop(1000))
    reason = cpu.run(state, max_steps=37)
    assert reason == "max-steps"
    assert cpu.instructions_retired == 37
    slow_cpu, slow_state, _ = make_machine(counting_loop(1000))
    slow_cpu.force_slow_path = True
    slow_cpu.run(slow_state, max_steps=37)
    assert state.regs.snapshot() == slow_state.regs.snapshot()
    assert cpu.counter.total_ns == slow_cpu.counter.total_ns


# -- fast ≡ precise on loops -------------------------------------------------


def test_memory_loop_matches_precise():
    a = Assembler()
    a.mov_ri("r9", DATA_BASE)
    a.mov_ri("rax", 0x1234_5678)
    a.mov_ri("rbx", 0)
    a.mov_ri("rcx", 0)
    a.label("loop")
    a.mov_rr("rsi", "rcx")
    a.and_ri("rsi", 255)
    a.shl_ri("rsi", 3)
    a.add_rr("rsi", "r9")
    a.store("rsi", "rax", 0)
    a.load("rdx", "rsi", 0)
    a.store8("rsi", "rcx", 7)
    a.load8("rdi", "rsi", 7)
    a.xor_rr("rbx", "rdx")
    a.add_rr("rbx", "rdi")
    a.mul_rr("rax", "rbx")
    a.add_ri("rax", 99991)
    a.add_ri("rcx", 1)
    a.cmp_ri("rcx", 150)
    a.jne("loop")
    a.mov_rr("rax", "rbx")
    a.ret()
    differential(a)


def test_call_ret_loop_matches_precise():
    a = Assembler()
    a.mov_ri("rax", 0)
    a.mov_ri("rcx", 0)
    a.label("outer")
    a.call("func")
    a.add_ri("rcx", 1)
    a.cmp_ri("rcx", 40)
    a.jne("outer")
    a.ret()
    a.label("func")
    a.mov_ri("r9", 0)
    a.label("inner")
    a.add_ri("rax", 7)
    a.add_ri("r9", 1)
    a.cmp_ri("r9", 10)
    a.jne("inner")
    a.ret()
    _, end = differential(a)
    assert end["registers"]["rax"] == 7 * 10 * 40


def test_hlt_exits_identically():
    a = Assembler()
    a.mov_ri("rax", 0)
    a.mov_ri("rcx", 0)
    a.label("loop")
    a.add_ri("rax", 3)
    a.add_ri("rcx", 1)
    a.cmp_ri("rcx", 80)
    a.jne("loop")
    a.hlt()
    differential(a, fault=CpuExit)


def test_fault_mid_loop_restores_precise_state():
    """A store that walks off the mapped data region faults mid-loop;
    registers, rip, charges and retired counts must match the precise
    path exactly."""
    a = Assembler()
    a.mov_ri("rsi", DATA_BASE)
    a.mov_ri("rcx", 0)
    a.label("loop")
    a.store("rsi", "rcx", 0)
    a.add_ri("rsi", 8)
    a.add_ri("rcx", 1)
    a.cmp_ri("rcx", 5000)
    a.jne("loop")
    a.ret()
    _, end = differential(a, fault=SegmentationFault, data_pages=1)
    assert end["registers"]["rcx"] == PAGE_SIZE // 8


def test_until_rip_inside_loop_is_exact():
    """The stop address is a loop-body instruction first reached on
    iteration 70: both paths stop there with identical state."""
    a = Assembler()
    a.mov_ri("rax", 0)
    a.mov_ri("rcx", 0)
    a.label("loop")
    a.add_rr("rax", "rcx")
    a.add_ri("rcx", 1)
    a.cmp_ri("rcx", 70)
    a.jne("next")
    a.label("stop")
    a.add_ri("rax", 1)
    a.label("next")
    a.cmp_ri("rcx", 90)
    a.jne("loop")
    a.ret()
    _, end = differential(a, until_rip=a.labels(CODE_BASE)["stop"])
    assert end["registers"]["rcx"] == 70


def test_self_modifying_code_inside_loop():
    """A store in the body of a hot loop patches an instruction of the
    same body on every iteration: the decoded copy cached on the first
    pass must not survive the write, and the patched semantics must
    match the precise path."""
    old = Instruction(Op.ADD_RI, "rbx", imm=1).encode()
    new = Instruction(Op.ADD_RI, "rbx", imm=3).encode()
    assert old != new, "patch must change the encoding"
    words = [int.from_bytes(new[i:i + 8], "little")
             for i in range(0, INSTR_SIZE, 8)]

    a = Assembler()
    a.mov_ri("rbx", 0)
    a.mov_ri("rcx", 0)
    a.lea("r9", "patch")
    for reg, word in zip(("r10", "r11"), words):
        a.mov_ri(reg, word)
    a.label("loop")
    a.label("patch")
    a.add_ri("rbx", 1)              # becomes add_ri rbx, 3 on iteration 1
    for i, reg in enumerate(("r10", "r11")):
        a.store("r9", reg, i * 8)
    a.add_ri("rcx", 1)
    a.cmp_ri("rcx", 60)
    a.jne("loop")
    a.mov_rr("rax", "rbx")
    a.ret()
    _, end = differential(a, code_prot=PROT_RWX)
    # iteration 1 ran the old instruction, the rest the patched one
    assert end["registers"]["rax"] == 1 + 3 * 59


@pytest.mark.parametrize("kind, fault, rax", [
    ("mprotect", ExecuteFault, None),
    ("pkey_mprotect", None, 60),
    ("munmap", ExecuteFault, None),
    ("privileged_write", None, 10 + 3 * 50),
], ids=["mprotect", "pkey_mprotect", "munmap", "privileged_write"])
def test_code_change_from_syscall_mid_loop(kind, fault, rax):
    """On iteration 10 of 60, a syscall remaps, reprotects or rewrites
    the running code page; the fast path's cached text page and decoded
    instructions must not outlive the change."""
    a = Assembler()
    a.mov_ri("rbx", 0)
    a.mov_ri("rcx", 0)
    a.label("loop")
    a.label("patch")
    a.add_ri("rbx", 1)
    a.add_ri("rcx", 1)
    a.cmp_ri("rcx", 10)
    a.jne("next")
    a.syscall()
    a.label("next")
    a.cmp_ri("rcx", 60)
    a.jne("loop")
    a.mov_rr("rax", "rbx")
    a.ret()
    labels = a.labels(CODE_BASE)
    patched = Instruction(Op.ADD_RI, "rbx", imm=3).encode()

    def handler(cpu):
        space = cpu.space

        def on_syscall(state):
            if kind == "mprotect":          # W^X flip: fetch must fault
                space.mprotect(CODE_BASE, PAGE_SIZE, PROT_RW)
            elif kind == "pkey_mprotect":   # XoM: pkeys never gate fetch
                space.pkey_mprotect(CODE_BASE, PAGE_SIZE, PROT_RX, 1)
                state.pkru = pkru_disable_access(0, pkey=1)
            elif kind == "munmap":
                space.munmap(CODE_BASE, PAGE_SIZE)
            else:                           # kernel-mode code patch
                space.write(labels["patch"], patched, privileged=True)
        return on_syscall

    _, end = differential(a, handler=handler, fault=fault)
    if fault is None:
        assert end["registers"]["rax"] == rax
    else:
        assert end["registers"]["rip"] == labels["next"]


def test_observer_attached_from_syscall_mid_run():
    """A syscall handler that attaches a memory observer demotes the
    rest of the run to the precise path; the architectural end state and
    the observed access stream are unchanged."""
    a = Assembler()
    a.mov_ri("r9", DATA_BASE)
    a.mov_ri("rax", 0)
    a.mov_ri("rcx", 0)
    a.label("loop1")
    a.store("r9", "rcx", 0)
    a.add_ri("rax", 5)
    a.add_ri("rcx", 1)
    a.cmp_ri("rcx", 80)
    a.jne("loop1")
    a.syscall()
    a.mov_ri("rcx", 0)
    a.label("loop2")
    a.store("r9", "rax", 8)
    a.add_ri("rax", 1)
    a.add_ri("rcx", 1)
    a.cmp_ri("rcx", 80)
    a.jne("loop2")
    a.ret()
    streams, fast_at_syscall = [], []

    def handler(cpu):
        events = []
        streams.append(events)

        def attach(state):
            fast_at_syscall.append(cpu.fast_insns)
            cpu.space.add_observer(
                lambda op, addr, size, value: events.append((op, addr, size)))
        return attach

    fast_cpu, _ = differential(a, handler=handler)
    assert streams[0] == streams[1]
    assert streams[0]                       # loop2 stores were observed
    # before the syscall the fast path ran; after it, nothing more did
    assert fast_at_syscall[0] == fast_cpu.fast_insns > 0
    assert fast_cpu.precise_insns > 0


@pytest.mark.parametrize("consumer", ["hook", "observer", "listener"])
def test_consumer_attached_from_hlcall_takes_effect_immediately(consumer):
    """An HLCALL handler may attach any precision consumer; the fast
    block ends there and the next instruction already runs precisely."""
    a = Assembler()
    a.mov_ri("rax", 1)
    a.hlcall(0)
    a.mov_ri("rbx", 2)
    a.mov_ri("rcx", 3)
    a.ret()
    cpu, state, _ = make_machine(a)
    seen = []

    def attach(st, index):
        if consumer == "hook":
            cpu.trace_hook = lambda s, addr, instr: seen.append(instr.op)
        elif consumer == "observer":
            cpu.space.add_observer(lambda *event: seen.append(event[0]))
        else:
            cpu.counter.add_listener(lambda ns, category: seen.append(ns))

    cpu.hl_dispatch = attach
    run_to_host(cpu, state)
    assert (cpu.fast_insns, cpu.precise_insns) == (2, 3)
    assert seen == {"hook": [Op.MOV_RI, Op.MOV_RI, Op.RET],
                    "observer": ["read"],          # the RET's pop
                    "listener": [1, 1, 1]}[consumer]


#: case -> (the second call's outcome, the call numbers at which the
#: one-step run entered the fast loop).  The first call decodes.
ONE_STEP_CASES = {
    "return": ("host-return", [0]),
    # the .got.plt read, or the RET's, is denied by the thread's PKRU
    "got-pkey": (("ProtectionKeyFault", DATA_BASE), [0]),
    "ret-pkey": (("ProtectionKeyFault", STACK_TOP - 72), [0]),
    # the handler makes the stub's page non-executable: the RET faults
    "stub-noexec": (("ExecuteFault", CODE_BASE + 2 * INSTR_SIZE), [0, 2]),
    # the handler rewrites its HLCALL in place, or its RET with a NOP
    "rewrite": ("host-return", [0]),
    "ret-nop": ("host-return", [0, 2]),
    # until_rip is the stub, or its RET
    "until-stub": ("host-return", [0, 1]),
    "until-ret": ("host-return", [0]),
    # an unaligned slot at a page's end
    "unaligned": (("AlignmentFault", DATA_BASE + PAGE_SIZE - 4), [0, 0]),
}


@pytest.mark.parametrize("case", list(ONE_STEP_CASES))
def test_one_step_call_matches_the_fast_loop_and_the_precise_path(case):
    """``CPU.run`` retires a decoded ``JMP_M`` → ``HLCALL`` → ``RET`` in
    one step, and otherwise hands the call to the fast loop.  Either way
    the end state, faults included, is the fast loop's (a run given
    ``max_steps`` skips the one-step) and the precise path's."""
    slot = DATA_BASE + (PAGE_SIZE - 4 if case == "unaligned" else 0)
    a = Assembler()
    a.jmp_m(slot)
    a.label("stub")
    a.hlcall(0)
    a.ret()
    a.mov_ri("rax", 9)                    # reached once the RET is a NOP
    a.ret()
    stub = a.labels(CODE_BASE)["stub"]
    until = {"until-stub": stub, "until-ret": stub + INSTR_SIZE}.get(
        case, HOST_RETURN_ADDRESS)
    ends = {}
    for mode in ("one-step", "fast loop", "precise"):
        cpu, state, _ = make_machine(a)
        cpu.force_slow_path = mode == "precise"
        space = cpu.space
        space.write_word(DATA_BASE, stub)
        calls, entered = [], []

        def spy(*args, _run_fast=cpu._run_fast, _entered=entered,
                _calls=calls):
            _entered.append(len(_calls))
            return _run_fast(*args)

        def handler(st, index, _calls=calls, _space=space):
            _calls.append(index)
            st.regs.set("rax", 7)
            if len(_calls) < 2:
                return
            if case == "ret-pkey":
                st.pkru = pkru_disable_access(0, pkey=0)
            elif case == "stub-noexec":
                _space.mprotect(CODE_BASE, PAGE_SIZE, PROT_RW)
            elif case in ("rewrite", "ret-nop"):
                at = stub if case == "rewrite" else stub + INSTR_SIZE
                code = (_space.read(at, INSTR_SIZE, privileged=True)
                        if case == "rewrite"
                        else Instruction(Op.NOP).encode())
                _space.write(at, code, privileged=True)

        cpu._run_fast = spy
        cpu.hl_dispatch = handler
        for call in range(2):
            state.regs.rip = CODE_BASE
            cpu._push(state, HOST_RETURN_ADDRESS)
            if call and case == "got-pkey":
                state.pkru = pkru_disable_access(0, pkey=0)
            try:
                outcome = cpu.run(
                    state, until_rip=until if call else HOST_RETURN_ADDRESS,
                    max_steps=100 if mode == "fast loop" else None)
            except (AlignmentFault, ExecuteFault,
                    ProtectionKeyFault) as exc:
                outcome = (type(exc).__name__, exc.address)
        expected, one_step_entered = ONE_STEP_CASES[case]
        assert outcome == expected
        assert entered == {"one-step": one_step_entered,
                           "fast loop": [0, 0 if case == "unaligned" else 1],
                           "precise": []}[mode]
        ends[mode] = {
            "registers": state.regs.snapshot(),
            "pkru": state.pkru,
            "calls": calls,
            "virtual_ns": cpu.counter.total_ns,
            "instructions": cpu.instructions_retired,
            "accesses": (space.access_count, space.tlb_fills),
            "tiers": (cpu.fast_insns, cpu.precise_insns),
        }
    assert ends["one-step"] == ends["fast loop"]
    assert ends["precise"]["tiers"] == (0, ends["precise"]["instructions"])
    ends["precise"]["tiers"] = ends["one-step"]["tiers"]
    assert ends["one-step"] == ends["precise"]


#: case -> the labels at which each of four one-step calls entered the
#: fast loop.  The first call decodes.
INTERPOSED_CASES = {
    "plain": [["plt"], [], [], []],
    # a stub, or the trampoline, on a writable page, where a push could
    # rewrite the path
    "stub-writable": [["plt"]] * 4,
    "trampoline-writable": [["plt"]] * 4,
    # a stub that CALLs the trampoline instead of jumping to it
    "stub-call": [["plt"]] * 4,
    # calls that start at the stub, not at a PLT entry
    "enter-at-stub": [["stub"]] * 4,
    # the gate's HLCALL, on the path's third page, rewritten between
    # calls: the plan's guard fails, and once the page is decoded again
    # the path is planned again
    "gate-rewritten": [["plt"], [], ["plt"], []],
    # the handler makes the gate's RET a NOP: the guard fails after it
    "gate-ret-nop": [["plt"], ["gate-ret"], ["plt"], ["plt"]],
    # the handler moves rip past the gate's RET
    "handler-jumps": [["plt"], ["gate-alt"], [], []],
    # no dispatcher: the fast loop raises at the HLCALL
    "no-dispatcher": [["plt"]] * 4,
}


def _pad_to_page(a):
    while len(a) * INSTR_SIZE % PAGE_SIZE:
        a.nop()


@pytest.mark.parametrize("case", list(INTERPOSED_CASES))
def test_interposed_call_on_a_hand_built_path(case):
    """The interposition one-step recognises its path from the decoded
    instructions alone: here a PLT entry, a stub, a trampoline of another
    shape than the monitor's and a gate, with the trampoline and the gate
    on pages of their own.  The one-step, the fast loop and the precise
    path leave the same state after each of four calls."""
    a = Assembler()
    a.jmp_m(DATA_BASE)
    a.label("stub")
    a.push_i(5)
    if case == "stub-call":
        a.call("tramp")
    else:
        a.jmp("tramp")
    _pad_to_page(a)
    a.label("tramp")
    a.push_r("rax")
    a.mov_ri("rcx", 0)
    a.mov_ri("rdx", 0)
    a.mov_ri("r11", -1)
    a.mov_ri("rax", 0)
    a.wrpkru()
    a.call("gate")
    a.mov_rr("r10", "rax")
    a.add_ri("rsp", 16)                   # the pushed rax and index
    a.mov_rr("rax", "r10")
    a.ret()
    _pad_to_page(a)
    a.label("gate")
    a.hlcall(0)
    a.ret()
    a.label("gate-alt")                   # reached once the RET is a NOP
    a.mov_ri("rax", 9)
    a.ret()
    labels = a.labels(CODE_BASE)
    gate = labels["gate"]
    names = {CODE_BASE: "plt", labels["stub"]: "stub",
             gate + INSTR_SIZE: "gate-ret", labels["gate-alt"]: "gate-alt"}
    ends = {}
    for mode in ("one-step", "fast loop", "precise"):
        cpu, state, _ = make_machine(a)
        cpu.force_slow_path = mode == "precise"
        space = cpu.space
        space.write_word(DATA_BASE, labels["stub"])
        if case in ("stub-writable", "trampoline-writable"):
            space.mprotect(CODE_BASE if case == "stub-writable"
                           else labels["tramp"], PAGE_SIZE, PROT_RWX)
        calls, entered, outcomes = [], [], []

        def spy(st, *args, _run_fast=cpu._run_fast, _entered=entered):
            _entered[-1].append(names.get(st.regs.rip, hex(st.regs.rip)))
            return _run_fast(st, *args)

        def handler(st, index, _calls=calls, _space=space):
            _calls.append(index)
            st.regs.set("rax", 7)
            if len(_calls) != 2:
                return
            if case == "gate-ret-nop":
                _space.write(gate + INSTR_SIZE, Instruction(Op.NOP).encode(),
                             privileged=True)
            elif case == "handler-jumps":
                st.regs.rip = labels["gate-alt"]

        cpu._run_fast = spy
        cpu.hl_dispatch = handler
        for call in range(4):
            if call == 2 and case == "gate-rewritten":
                space.write(gate, Instruction(Op.HLCALL, imm=1).encode(),
                            privileged=True)
            if call == 1 and case == "no-dispatcher":
                cpu.hl_dispatch = None
            entered.append([])
            state.regs.rip = (labels["stub"] if case == "enter-at-stub"
                              else CODE_BASE)
            cpu._push(state, HOST_RETURN_ADDRESS)
            try:
                outcomes.append(cpu.run(
                    state, max_steps=100 if mode == "fast loop" else None))
            except MachineFault as exc:
                outcomes.append((type(exc).__name__, exc.address))
        first = "stub" if case == "enter-at-stub" else "plt"
        assert entered == {"one-step": INTERPOSED_CASES[case],
                           "fast loop": [[first]] * 4,
                           "precise": [[]] * 4}[mode]
        ends[mode] = {
            "outcomes": outcomes,
            "registers": state.regs.snapshot(),
            "pkru": state.pkru,
            "calls": calls,
            "virtual_ns": cpu.counter.total_ns,
            "instructions": cpu.instructions_retired,
            "accesses": (space.access_count, space.tlb_fills),
            "tiers": (cpu.fast_insns, cpu.precise_insns),
        }
    assert ends["one-step"] == ends["fast loop"]
    assert ends["precise"]["tiers"] == (0, ends["precise"]["instructions"])
    ends["precise"]["tiers"] = ends["one-step"]["tiers"]
    assert ends["one-step"] == ends["precise"]
    assert ends["one-step"]["outcomes"] == {
        "stub-call": [("ExecuteFault", 5)] * 4,
        "no-dispatcher": ["host-return"] + [("MachineFault", gate)] * 3,
    }.get(case, ["host-return"] * 4)
    assert ends["one-step"]["calls"] == {
        "gate-rewritten": [0, 0, 1, 1], "no-dispatcher": [0]}.get(
            case, [0] * 4)
    assert ends["one-step"]["registers"]["r11"] == (1 << 64) - 1


def test_every_register_write_stores_a_masked_value():
    """Both paths store register values already masked to 64 bits, so a
    register snapshot is a plain copy: every opcode that writes a
    register, fed operands that carry out of bit 63 or go below zero."""
    a = Assembler()
    a.mov_ri("r9", DATA_BASE)
    a.mov_ri("rax", -1)
    a.mov_ri("rbx", -(1 << 63))
    a.add_ri("rax", 5)
    a.add_rr("rbx", "rbx")
    a.sub_ri("rcx", 1)
    a.sub_rr("rdx", "rax")
    a.and_ri("rcx", -2)
    a.or_ri("rsi", -3)
    a.xor_ri("rdi", -4)
    a.and_rr("rsi", "rdi")
    a.or_rr("rdi", "rcx")
    a.xor_rr("rdx", "rsi")
    a.shl_ri("rcx", 63)
    a.shr_ri("rdi", 1)
    a.mul_rr("rcx", "rdi")
    a.not_r("r8")
    a.mov_rr("r10", "r8")
    a.lea("r11", -16)
    a.store("r9", "r11", 0)
    a.load("r12", "r9", 0)
    a.load8("r13", "r9", 0)
    a.push_i(-5)
    a.pop_r("r14")
    a.rdpkru()
    a.ret()
    for precise in (False, True):
        cpu, state, _ = make_machine(a)
        cpu.force_slow_path = precise
        stored = []
        if precise:
            cpu.trace_hook = lambda st, addr, instr: \
                stored.extend(st.regs._regs.values())
        run_to_host(cpu, state)
        stored.extend(state.regs._regs.values())
        assert state.regs.get("r14") == (1 << 64) - 5
        assert all(0 <= value < 1 << 64 for value in stored)
        assert len(stored) == 16 * (cpu.precise_insns + 1)


# -- randomized differential fuzz --------------------------------------------

_BODY_REGS = ("rax", "rbx", "rdx", "rsi", "rdi", "r8", "r10", "r11")


def _random_program(rng):
    a = Assembler()
    a.mov_ri("r9", DATA_BASE)
    for reg in _BODY_REGS:
        a.mov_ri(reg, rng.getrandbits(63))
    a.mov_ri("rcx", 0)
    a.label("loop")
    skip = 0
    for _ in range(rng.randrange(6, 15)):
        pick = rng.random()
        dst = rng.choice(_BODY_REGS)
        src = rng.choice(_BODY_REGS)
        if pick < 0.30:
            getattr(a, rng.choice(
                ("add_rr", "sub_rr", "and_rr", "or_rr", "xor_rr",
                 "mul_rr")))(dst, src)
        elif pick < 0.50:
            getattr(a, rng.choice(
                ("add_ri", "sub_ri", "and_ri", "or_ri", "xor_ri")))(
                    dst, rng.getrandbits(rng.choice((8, 32, 63))))
        elif pick < 0.60:
            getattr(a, rng.choice(("shl_ri", "shr_ri")))(
                dst, rng.randrange(1, 64))
        elif pick < 0.65:
            a.not_r(dst)
        elif pick < 0.75:
            offset = rng.randrange(0, PAGE_SIZE - 8)
            if rng.random() < 0.5:
                a.store8("r9", src, offset)
                a.load8(dst, "r9", offset)
            else:
                aligned = offset & ~7
                a.store("r9", src, aligned)
                a.load(dst, "r9", aligned)
        elif pick < 0.85:
            if rng.random() < 0.5:
                a.cmp_rr(dst, src)
            else:
                a.cmp_ri(dst, rng.getrandbits(16))
        elif pick < 0.92:
            a.push_r(src)
            a.pop_r(dst)
        else:
            label = f"skip{skip}"
            skip += 1
            a.test_rr(dst, src)
            a.je(label)
            a.add_ri(dst, 1)
            a.label(label)
    a.add_ri("rcx", 1)
    a.cmp_ri("rcx", 40)
    a.jne("loop")
    a.ret()
    return a


@pytest.mark.parametrize("seed", range(12))
def test_randomized_programs_match_precise(seed):
    rng = random.Random(f"interp-fuzz-{seed}")
    differential(_random_program(rng))
