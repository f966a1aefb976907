"""Unit tests for the CPU interpreter, assembler, and disassembler."""

import pytest

from repro.errors import (
    ExecuteFault,
    InvalidInstruction,
    ProtectionKeyFault,
    SegmentationFault,
)
from repro.machine import (
    INSTR_SIZE,
    PAGE_SIZE,
    PROT_EXEC,
    PROT_RW,
    PROT_RX,
    AddressSpace,
    Assembler,
    CPU,
    Instruction,
    Op,
)
from repro.machine.cpu import CpuExit, ExecState, HOST_RETURN_ADDRESS
from repro.machine.disasm import (
    disassemble_bytes,
    executable_words,
    try_decode_at,
)
from repro.machine.mpk import pkru_disable_access
from repro.machine.registers import RegisterFile

CODE_BASE = 0x40_0000
STACK_TOP = 0x7000_0000


def make_machine(assembler, stack_pages=4, data_pages=2):
    space = AddressSpace()
    code = assembler.assemble(CODE_BASE)
    space.mmap(CODE_BASE, max(len(code), 1), prot=PROT_RX, tag="text")
    for offset in range(0, len(code), PAGE_SIZE):
        page = space.page_at(CODE_BASE + offset)
        chunk = code[offset:offset + PAGE_SIZE]
        page.data[:len(chunk)] = chunk
    space.mmap(STACK_TOP - stack_pages * PAGE_SIZE, stack_pages * PAGE_SIZE,
               prot=PROT_RW, tag="stack")
    data_base = space.mmap(None, data_pages * PAGE_SIZE, tag="data")
    cpu = CPU(space)
    state = ExecState(RegisterFile())
    state.regs.rip = CODE_BASE
    state.regs.set("rsp", STACK_TOP - 64)
    return cpu, state, data_base


def run_to_host(cpu, state, max_steps=10_000):
    # simulate a host call frame: return lands at the sentinel
    cpu._push(state, HOST_RETURN_ADDRESS)
    reason = cpu.run(state, max_steps=max_steps)
    assert reason == "host-return"
    return state.regs.get("rax")


def test_arithmetic_loop():
    a = Assembler()
    a.mov_ri("rax", 0)
    a.mov_ri("rcx", 0)
    a.label("loop")
    a.add_rr("rax", "rcx")
    a.add_ri("rcx", 1)
    a.cmp_ri("rcx", 10)
    a.jne("loop")
    a.ret()
    cpu, state, _ = make_machine(a)
    assert run_to_host(cpu, state) == sum(range(10))


def test_memory_load_store():
    a = Assembler()
    a.store("rdi", "rsi", 8)       # mem[rdi+8] = rsi
    a.load("rax", "rdi", 8)        # rax = mem[rdi+8]
    a.add_ri("rax", 5)
    a.ret()
    cpu, state, data = make_machine(a)
    state.regs.set("rdi", data)
    state.regs.set("rsi", 100)
    assert run_to_host(cpu, state) == 105


def test_byte_load_store_zero_extends():
    a = Assembler()
    a.store8("rdi", "rsi")
    a.load8("rax", "rdi")
    a.ret()
    cpu, state, data = make_machine(a)
    state.regs.set("rdi", data)
    state.regs.set("rsi", 0x1FF)   # only low byte stored
    assert run_to_host(cpu, state) == 0xFF


def test_call_and_ret():
    a = Assembler()
    a.call("double_it")
    a.add_ri("rax", 1)
    a.ret()
    a.label("double_it")
    a.add_rr("rdi", "rdi")
    a.mov_rr("rax", "rdi")
    a.ret()
    cpu, state, _ = make_machine(a)
    state.regs.set("rdi", 21)
    assert run_to_host(cpu, state) == 43


def test_push_pop():
    a = Assembler()
    a.push_i(7)
    a.push_r("rdi")
    a.pop_r("rax")
    a.pop_r("rbx")
    a.add_rr("rax", "rbx")
    a.ret()
    cpu, state, _ = make_machine(a)
    state.regs.set("rdi", 3)
    assert run_to_host(cpu, state) == 10


def test_unsigned_and_signed_branches():
    # rax = 1 if rdi <u rsi else 0  (JB)
    a = Assembler()
    a.mov_ri("rax", 0)
    a.cmp_rr("rdi", "rsi")
    a.jae("done")
    a.mov_ri("rax", 1)
    a.label("done")
    a.ret()
    cpu, state, _ = make_machine(a)
    state.regs.set("rdi", (1 << 64) - 5)   # huge unsigned (i.e. -5 signed)
    state.regs.set("rsi", 10)
    assert run_to_host(cpu, state) == 0    # not below, unsigned-wise


def test_lea_is_position_independent():
    a = Assembler()
    a.lea("rax", "here")
    a.label("here")
    a.ret()
    cpu, state, _ = make_machine(a)
    expected = CODE_BASE + INSTR_SIZE  # "here" is after the single LEA
    assert run_to_host(cpu, state) == expected


def test_undefined_label_rejected():
    from repro.errors import ImageError
    a = Assembler()
    a.jmp_m("slot")            # label never defined
    with pytest.raises(ImageError):
        a.assemble(CODE_BASE)


def test_jmp_m_via_manual_slot():
    space = AddressSpace()
    a = Assembler()
    a.jmp_m("slot")
    a.hlt()
    a.label("target")
    a.mov_ri("rax", 42)
    a.hlt()
    a.label("slot")  # the slot lives right after code, in the same page
    code = a.assemble(CODE_BASE)
    labels = a.labels(CODE_BASE)
    space.mmap(CODE_BASE, PAGE_SIZE, prot=PROT_RX | 2, tag="text")
    page = space.page_at(CODE_BASE)
    page.data[:len(code)] = code
    space.write_word(labels["slot"], labels["target"])
    cpu = CPU(space)
    state = ExecState(RegisterFile())
    state.regs.rip = CODE_BASE
    state.regs.set("rsp", CODE_BASE + PAGE_SIZE)  # scratch, unused
    with pytest.raises(CpuExit) as exc_info:
        cpu.run(state, max_steps=10)
    assert exc_info.value.reason == "hlt"
    assert state.regs.get("rax") == 42


def test_indirect_jump_to_unmapped_address_faults():
    """The core sMVX divergence signal: a gadget address valid in one
    variant is unmapped in the other and must fault."""
    a = Assembler()
    a.jmp_r("rdi")
    cpu, state, _ = make_machine(a)
    state.regs.set("rdi", 0xBAD_0000)
    with pytest.raises(ExecuteFault):
        cpu.run(state, max_steps=10)


def test_fetch_from_data_page_faults():
    a = Assembler()
    a.jmp_r("rdi")
    cpu, state, data = make_machine(a)
    state.regs.set("rdi", data)      # points at RW data page
    with pytest.raises(ExecuteFault):
        cpu.run(state, max_steps=10)


def test_wrpkru_updates_thread_pkru_and_gates_loads():
    a = Assembler()
    a.mov_ri("rcx", 0)
    a.mov_ri("rdx", 0)
    a.wrpkru()                 # pkru <- rax
    a.load("rax", "rdi")       # should fault if pkey blocked
    a.ret()
    cpu, state, data = make_machine(a)
    cpu.space.pkey_mprotect(data, PAGE_SIZE, PROT_RW, pkey=2)
    state.regs.set("rax", pkru_disable_access(0, 2))
    state.regs.set("rdi", data)
    cpu._push(state, HOST_RETURN_ADDRESS)
    with pytest.raises(ProtectionKeyFault):
        cpu.run(state, max_steps=10)
    assert state.pkru == pkru_disable_access(0, 2)


def test_wrpkru_requires_zero_rcx_rdx():
    a = Assembler()
    a.wrpkru()
    cpu, state, _ = make_machine(a)
    state.regs.set("rcx", 1)
    with pytest.raises(InvalidInstruction):
        cpu.run(state, max_steps=5)


def test_rdpkru_reads_back():
    a = Assembler()
    a.rdpkru()
    a.ret()
    cpu, state, _ = make_machine(a)
    state.pkru = 0b1100
    assert run_to_host(cpu, state) == 0b1100


def test_invalid_opcode_faults():
    space = AddressSpace()
    space.mmap(CODE_BASE, PAGE_SIZE, prot=PROT_EXEC | PROT_RW)
    space.write(CODE_BASE, b"\xEE" * INSTR_SIZE)
    cpu = CPU(space)
    state = ExecState(RegisterFile())
    state.regs.rip = CODE_BASE
    with pytest.raises(InvalidInstruction):
        cpu.step(state)


@pytest.mark.parametrize("precise", [False, True])
def test_missing_register_operand_faults_on_both_tiers(precise):
    """``mov $5`` without its destination register is no instruction:
    each tier faults at it rather than store 5 under no register."""
    space = AddressSpace()
    space.mmap(CODE_BASE, PAGE_SIZE, prot=PROT_RX)
    space.write(CODE_BASE, Instruction(Op.NOP).encode()
                + Instruction(Op.MOV_RI, None, imm=5).encode(),
                privileged=True)
    cpu = CPU(space)
    cpu.force_slow_path = precise
    state = ExecState(RegisterFile())
    state.regs.rip = CODE_BASE
    registers = set(state.regs.snapshot())
    with pytest.raises(InvalidInstruction) as fault:
        cpu.run(state, max_steps=10)
    assert fault.value.address == CODE_BASE + INSTR_SIZE
    assert set(state.regs.snapshot()) == registers


def test_stack_overflow_into_unmapped_guard_faults():
    a = Assembler()
    a.label("spin")
    a.push_i(0)
    a.jmp("spin")
    cpu, state, _ = make_machine(a, stack_pages=1)
    with pytest.raises(SegmentationFault):
        cpu.run(state, max_steps=10_000)


def test_cycle_accounting_charges_per_instruction():
    a = Assembler()
    for _ in range(5):
        a.nop()
    a.ret()
    cpu, state, _ = make_machine(a)
    before = cpu.counter.total_ns
    run_to_host(cpu, state)
    assert cpu.counter.total_ns - before == 6 * cpu.costs.instruction_ns
    assert cpu.instructions_retired == 6


def test_trace_hook_sees_every_instruction():
    a = Assembler()
    a.nop()
    a.mov_ri("rax", 1)
    a.ret()
    cpu, state, _ = make_machine(a)
    seen = []
    cpu.trace_hook = lambda st, addr, instr: seen.append((addr, instr.op))
    run_to_host(cpu, state)
    assert [op for _, op in seen] == [Op.NOP, Op.MOV_RI, Op.RET]
    assert seen[0][0] == CODE_BASE


# -- encoder / disassembler ---------------------------------------------------

def test_instruction_roundtrip():
    instr = Instruction(Op.LOAD, "rax", "rdi", -8)
    assert Instruction.decode(instr.encode()) == instr


def test_instruction_encoding_is_16_bytes():
    assert len(Instruction(Op.NOP).encode()) == INSTR_SIZE


def test_disassemble_bytes_stops_at_padding():
    a = Assembler()
    a.mov_ri("rax", 1)
    a.ret()
    raw = a.assemble(0) + b"\x00" * INSTR_SIZE
    pairs = disassemble_bytes(raw, base=0x1000)
    assert [p[1].op for p in pairs] == [Op.MOV_RI, Op.RET]
    assert pairs[1][0] == 0x1000 + INSTR_SIZE


def test_try_decode_at_respects_exec_permission():
    space = AddressSpace()
    base = space.mmap(None, PAGE_SIZE, prot=PROT_RW)
    space.write(base, Instruction(Op.RET).encode())
    assert try_decode_at(space, base) is None
    space.mprotect(base, PAGE_SIZE, PROT_RX)
    assert try_decode_at(space, base).op == Op.RET


def test_executable_words_scans_only_exec_pages():
    space = AddressSpace()
    text = space.mmap(None, PAGE_SIZE, prot=PROT_RX)
    data = space.mmap(None, PAGE_SIZE, prot=PROT_RW)
    page = space.page_at(text)
    page.data[:INSTR_SIZE] = Instruction(Op.RET).encode()
    space.write(data, Instruction(Op.RET).encode())
    found = list(executable_words(space))
    assert (text, Instruction(Op.RET)) in [(a, i) for a, i in found]
    assert all(addr < data or addr >= data + PAGE_SIZE for addr, _ in found)


def test_instruction_text_rendering():
    assert Instruction(Op.MOV_RI, "rax", None, 16).text() == "mov_ri %rax, $0x10"
    assert "ret" in Instruction(Op.RET).text()
