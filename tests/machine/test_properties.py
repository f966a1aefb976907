"""Property-based tests (hypothesis) over the machine substrate."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidInstruction
from repro.machine import (
    AddressSpace,
    Assembler,
    Instruction,
    Op,
    PAGE_SIZE,
)
from repro.machine.isa import INSTR_SIZE
from repro.machine.mpk import (
    NUM_PKEYS,
    pkru_allows_read,
    pkru_allows_write,
    pkru_disable_access,
    pkru_disable_write,
    pkru_enable_all,
)
from repro.machine.registers import GP_REGISTERS, RegisterFile

registers = st.sampled_from(GP_REGISTERS)
maybe_register = st.one_of(st.none(), registers)
immediates = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
opcodes = st.sampled_from(list(Op))


# -- instruction encoding ---------------------------------------------------------

def registers_named(op):
    """How many register operands ``op`` names, read off the opcode
    names: ``*_RR`` and the memory moves name two, ``*_RI``, ``*_R`` and
    ``LEA`` one."""
    name = op.name
    if name.endswith("_RR") or name in ("LOAD", "STORE", "LOAD8", "STORE8"):
        return 2
    if name.endswith(("_RI", "_R")) or name == "LEA":
        return 1
    return 0


@settings(max_examples=300, deadline=None)
@given(opcodes, maybe_register, maybe_register, immediates)
def test_instruction_encode_decode_roundtrip(op, reg1, reg2, imm):
    """A well-formed instruction round-trips through its encoding; one
    missing a register operand its opcode names does not decode."""
    instr = Instruction(op, reg1, reg2, imm)
    raw = instr.encode()
    assert len(raw) == INSTR_SIZE
    named = registers_named(op)
    if reg1 is None and named >= 1 or reg2 is None and named == 2:
        with pytest.raises(InvalidInstruction):
            Instruction.decode(raw)
    else:
        assert Instruction.decode(raw) == instr


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=INSTR_SIZE, max_size=INSTR_SIZE))
def test_decode_never_misbehaves_on_random_bytes(raw):
    """Random bytes either decode to a well-formed instruction or raise
    InvalidInstruction — never crash, never return garbage registers."""
    try:
        instr = Instruction.decode(raw)
    except InvalidInstruction:
        return
    assert isinstance(instr.op, Op)
    for reg in (instr.reg1, instr.reg2):
        assert reg is None or reg in GP_REGISTERS
    instr.text()                      # rendering never crashes either


# -- register file --------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(registers, st.integers(min_value=-(2 ** 70), max_value=2 ** 70))
def test_register_values_wrap_to_64_bits(name, value):
    regs = RegisterFile()
    regs.set(name, value)
    assert 0 <= regs.get(name) < 2 ** 64
    assert regs.get(name) == value & (2 ** 64 - 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_compare_flags_consistent(left, right):
    regs = RegisterFile()
    regs.set_compare_flags(left, right)
    assert regs.zf == (left == right)
    assert regs.cf == (left < right)          # unsigned below


# -- PKRU ---------------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 32) - 1),
       st.integers(min_value=0, max_value=NUM_PKEYS - 1))
def test_pkru_write_implies_read(pkru, key):
    """Write permission is strictly stronger than read permission."""
    if pkru_allows_write(pkru, key):
        assert pkru_allows_read(pkru, key)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 32) - 1),
       st.integers(min_value=0, max_value=NUM_PKEYS - 1))
def test_pkru_disable_enable_roundtrip(pkru, key):
    blocked = pkru_disable_access(pkru_disable_write(pkru, key), key)
    assert not pkru_allows_read(blocked, key)
    restored = pkru_enable_all(blocked, key)
    assert pkru_allows_read(restored, key)
    assert pkru_allows_write(restored, key)
    # other keys untouched throughout
    for other in range(NUM_PKEYS):
        if other != key:
            assert pkru_allows_read(blocked, other) == \
                pkru_allows_read(pkru, other)


# -- address space ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=PAGE_SIZE * 4 - 1),
                          st.binary(min_size=1, max_size=128)),
                min_size=1, max_size=24))
def test_write_read_consistency(writes):
    """The last write to each byte wins, across arbitrary overlaps."""
    space = AddressSpace()
    base = space.mmap(None, 5 * PAGE_SIZE)
    shadow = bytearray(5 * PAGE_SIZE)
    for offset, data in writes:
        space.write(base + offset, data)
        shadow[offset:offset + len(data)] = data
    for offset, data in writes:
        got = space.read(base + offset, len(data))
        assert got == bytes(shadow[offset:offset + len(data)])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=64))
def test_share_into_aliases_pages(n_shared, n_private):
    """Writes through either view of a shared page are seen by both."""
    parent = AddressSpace("p")
    child = AddressSpace("c")
    shared_base = parent.mmap(0x100000, PAGE_SIZE)
    private_base = parent.mmap(0x200000, PAGE_SIZE)
    parent.share_into(child, exclude=[(0x200000, 0x200000 + PAGE_SIZE)])
    child.write(shared_base, bytes([n_shared]))
    assert parent.read(shared_base, 1) == bytes([n_shared])
    assert not child.is_mapped(private_base)


# -- assembler -------------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=60),
       st.integers(min_value=0, max_value=2 ** 40).map(lambda x: x * 16))
def test_assembled_code_is_base_independent(pad, base):
    """PIE property: intra-unit control flow assembles to identical bytes
    at any base (everything is RIP-relative)."""
    def build():
        a = Assembler()
        a.mov_ri("rax", 0)
        for _ in range(pad):
            a.nop()
        a.label("target")
        a.add_ri("rax", 1)
        a.cmp_ri("rax", 3)
        a.jne("target")
        a.ret()
        return a
    assert build().assemble(0) == build().assemble(base)
