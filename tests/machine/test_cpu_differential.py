"""Differential testing of the CPU: random programs are executed by the
interpreter, on both tiers, and by an independent Python model of the
ISA's semantics; the architectural state must agree exactly.

Both tiers run the same per-opcode handlers, so comparing them checks
fetch and charging only.  This model is what checks each handler: the
ALU, the compare flags, the conditional jumps (as skip-next branches),
``LEA``, loads and stores on a data page, pushes and pops with ``rsp``
among the operands, ``RDPKRU``, and ``WRPKRU`` with its ``rcx``/``rdx``
fault."""

import random

from hypothesis import given, settings, strategies as st

from repro.errors import InvalidInstruction
from repro.machine import (
    AddressSpace,
    CPU,
    GP_REGISTERS,
    INSTR_SIZE,
    Instruction,
    Op,
    PAGE_SIZE,
    PROT_RW,
    PROT_RX,
)
from repro.machine.cpu import ExecState
from repro.machine.registers import RegisterFile

_WORD = 1 << 64
_MASK = _WORD - 1

CODE_BASE = 0x40_0000
DATA_BASE = 0x50_0000
#: ``rbp`` holds the data page's middle: the base of every load and store
DATA_MID = DATA_BASE + PAGE_SIZE // 2
#: three stack pages; ``rsp`` starts in the middle one, and no program
#: is long enough to push or pop its way out of the other two
STACK_BASE = 0x60_0000
STACK_PAGES = 3
STACK_MID = STACK_BASE + PAGE_SIZE + PAGE_SIZE // 2

REGS = ("rax", "rbx", "rcx", "rdx", "rsi", "rdi", "r8", "r9")

#: the flag word's layout (registers.FLAG_*)
ZF, SF, CF = 1, 2, 4

_RR_OPS = (Op.MOV_RR, Op.ADD_RR, Op.SUB_RR, Op.AND_RR, Op.OR_RR,
           Op.XOR_RR, Op.MUL_RR, Op.CMP_RR, Op.TEST_RR)
_RI_OPS = (Op.MOV_RI, Op.ADD_RI, Op.SUB_RI, Op.AND_RI, Op.OR_RI,
           Op.XOR_RI, Op.SHL_RI, Op.SHR_RI, Op.CMP_RI)
_JCC_OPS = (Op.JE, Op.JNE, Op.JL, Op.JGE, Op.JB, Op.JAE)

reg = st.sampled_from(REGS)
imm32 = st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)
imm64 = st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1)
value64 = st.one_of(st.integers(min_value=0, max_value=_MASK),
                    st.sampled_from((0, 1, _MASK, 1 << 63, (1 << 63) - 1)))


def _instr(op, reg1=None, reg2=None, imm=0):
    return [Instruction(op, reg1, reg2, imm)]


_WORD_DISP = st.integers(min_value=-256, max_value=255).map(lambda k: 8 * k)
_BYTE_DISP = st.integers(min_value=-PAGE_SIZE // 2,
                         max_value=PAGE_SIZE // 2 - 1)


def _operands(op):
    """One ``op`` instruction, with operands that keep every access in
    this test's memory: loads and stores address the data page off
    ``rbp``, and only a push may read ``rsp``."""
    if op in _RR_OPS:
        return st.builds(_instr, st.just(op), reg, reg)
    if op in _RI_OPS:
        return st.builds(lambda r, imm: _instr(op, r, imm=imm), reg,
                         st.one_of(imm32, imm64))
    if op in (Op.LOAD, Op.LOAD8):
        disp = _WORD_DISP if op is Op.LOAD else _BYTE_DISP
        return st.builds(lambda r, d: _instr(op, r, "rbp", d), reg, disp)
    if op in (Op.STORE, Op.STORE8):
        disp = _WORD_DISP if op is Op.STORE else _BYTE_DISP
        return st.builds(lambda r, d: _instr(op, "rbp", r, d), reg, disp)
    if op is Op.LEA:
        return st.builds(lambda r, imm: _instr(op, r, imm=imm), reg, imm32)
    if op is Op.PUSH_R:
        return st.builds(_instr, st.just(op), st.sampled_from(REGS + ("rsp",)))
    if op is Op.PUSH_I:
        return st.builds(lambda imm: _instr(op, imm=imm),
                         st.one_of(imm32, imm64))
    if op in (Op.NOT_R, Op.POP_R):
        return st.builds(_instr, st.just(op), reg)
    return st.just(_instr(op))                              # RDPKRU


_STRAIGHT_OPS = _RR_OPS + _RI_OPS + (
    Op.NOT_R, Op.LEA, Op.LOAD, Op.STORE, Op.LOAD8, Op.STORE8, Op.PUSH_R,
    Op.PUSH_I, Op.POP_R, Op.RDPKRU)

#: exactly one instruction, which runs straight on
single = st.one_of([_operands(op) for op in _STRAIGHT_OPS])


def _step(op):
    """One step of a program, led by ``op``: a conditional jump over the
    next instruction, a ``WRPKRU`` after its operands are set, one
    straight-line instruction, or for ``PUSH_R``/``POP_R`` also a push
    of ``rsp`` and a pop into ``rsp`` of an address in the middle stack
    page."""
    if op in _JCC_OPS:
        return st.builds(lambda then: _instr(op, imm=INSTR_SIZE) + then,
                         single)
    if op is Op.WRPKRU:
        # faults unless both rcx and rdx are cleared; key 0, every page's
        # here, stays accessible
        return st.builds(
            lambda value, cleared: (
                _instr(Op.MOV_RI, "rax", imm=value & ~3)
                + [Instruction(Op.XOR_RR, r, r) for r in cleared]
                + _instr(op)),
            imm64,
            st.sampled_from((("rcx", "rdx"), ("rdx", "rcx"), ("rcx", "rdx"),
                             ("rdx", "rcx"), ("rcx",), ("rdx",), ())))
    if op is Op.PUSH_R:
        return st.one_of(_operands(op), st.just(_instr(op, "rsp")))
    if op is Op.POP_R:
        return st.one_of(_operands(op), st.builds(
            lambda k: (_instr(Op.PUSH_I, imm=STACK_BASE + PAGE_SIZE + 8 * k)
                       + _instr(op, "rsp")),
            st.integers(min_value=0, max_value=PAGE_SIZE // 8 - 1)))
    return _operands(op)


program = st.lists(
    st.one_of([_step(op) for op in _STRAIGHT_OPS + _JCC_OPS + (Op.WRPKRU,)]),
    min_size=8, max_size=48).map(
        lambda steps: [instr for step in steps for instr in step])


class _ModelFault(Exception):
    pass


class Model:
    """Reference semantics, written independently of the CPU."""

    def __init__(self, regs, flags, pkru, memory):
        self.regs = dict(regs)
        self.flags = flags
        self.pkru = pkru
        #: region base -> bytearray
        self.memory = {base: bytearray(data) for base, data in memory.items()}

    def _locate(self, addr, size):
        for base, data in self.memory.items():
            if base <= addr and addr + size <= base + len(data):
                return data, addr - base
        raise AssertionError(f"the model left its memory at {addr:#x}")

    def read(self, addr, size):
        data, offset = self._locate(addr, size)
        return int.from_bytes(data[offset:offset + size], "little")

    def write(self, addr, size, value):
        data, offset = self._locate(addr, size)
        data[offset:offset + size] = value.to_bytes(size, "little")

    def compare(self, left, right):
        diff = (left - right) % _WORD
        self.flags = ((ZF if diff == 0 else 0)
                      | (SF if diff >= 1 << 63 else 0)
                      | (CF if left < right else 0))

    def step(self, instr, addr):
        """Execute ``instr`` at ``addr``; True when it skips the next one."""
        regs = self.regs
        op, a, b, imm = instr.op, instr.reg1, instr.reg2, instr.imm
        rip_next = addr + INSTR_SIZE
        if op is Op.MOV_RR:
            regs[a] = regs[b]
        elif op is Op.MOV_RI:
            regs[a] = imm % _WORD
        elif op is Op.ADD_RR:
            regs[a] = (regs[a] + regs[b]) % _WORD
        elif op is Op.ADD_RI:
            regs[a] = (regs[a] + imm) % _WORD
        elif op is Op.SUB_RR:
            regs[a] = (regs[a] - regs[b]) % _WORD
        elif op is Op.SUB_RI:
            regs[a] = (regs[a] - imm) % _WORD
        elif op is Op.AND_RR:
            regs[a] = regs[a] & regs[b]
        elif op is Op.AND_RI:
            regs[a] = regs[a] & (imm % _WORD)
        elif op is Op.OR_RR:
            regs[a] = regs[a] | regs[b]
        elif op is Op.OR_RI:
            regs[a] = regs[a] | (imm % _WORD)
        elif op is Op.XOR_RR:
            regs[a] = regs[a] ^ regs[b]
        elif op is Op.XOR_RI:
            regs[a] = regs[a] ^ (imm % _WORD)
        elif op is Op.SHL_RI:
            regs[a] = (regs[a] << (imm % 64)) % _WORD
        elif op is Op.SHR_RI:
            regs[a] = regs[a] >> (imm % 64)
        elif op is Op.MUL_RR:
            regs[a] = (regs[a] * regs[b]) % _WORD
        elif op is Op.NOT_R:
            regs[a] = _MASK - regs[a]
        elif op is Op.CMP_RR:
            self.compare(regs[a], regs[b])
        elif op is Op.CMP_RI:
            self.compare(regs[a], imm % _WORD)
        elif op is Op.TEST_RR:
            self.compare(regs[a] & regs[b], 0)
        elif op in _JCC_OPS:
            flag, when_set = {
                Op.JE: (ZF, True), Op.JNE: (ZF, False),
                Op.JL: (SF, True), Op.JGE: (SF, False),
                Op.JB: (CF, True), Op.JAE: (CF, False)}[op]
            assert imm == INSTR_SIZE
            return bool(self.flags & flag) == when_set
        elif op is Op.LEA:
            regs[a] = (rip_next + imm) % _WORD
        elif op is Op.LOAD:
            regs[a] = self.read(regs[b] + imm, 8)
        elif op is Op.STORE:
            self.write(regs[a] + imm, 8, regs[b])
        elif op is Op.LOAD8:
            regs[a] = self.read(regs[b] + imm, 1)
        elif op is Op.STORE8:
            self.write(regs[a] + imm, 1, regs[b] % 256)
        elif op in (Op.PUSH_R, Op.PUSH_I):
            value = regs[a] if op is Op.PUSH_R else imm % _WORD
            regs["rsp"] -= 8
            self.write(regs["rsp"], 8, value)
        elif op is Op.POP_R:
            value = self.read(regs["rsp"], 8)
            regs["rsp"] += 8
            regs[a] = value
        elif op is Op.RDPKRU:
            regs["rax"] = self.pkru
        elif op is Op.WRPKRU:
            if regs["rcx"] != 0 or regs["rdx"] != 0:
                raise _ModelFault()
            self.pkru = regs["rax"] % (1 << 32)
        else:
            raise AssertionError(f"no model for {op!r}")
        return False

    def run(self, program):
        """Run ``program`` from CODE_BASE until it falls off its end or
        faults; returns (final rip, instructions retired, fault address
        or None)."""
        pc = retired = 0
        while pc < len(program):
            addr = CODE_BASE + INSTR_SIZE * pc
            retired += 1
            try:
                skip = self.step(program[pc], addr)
            except _ModelFault:
                return addr + INSTR_SIZE, retired, addr
            pc += 2 if skip else 1
        return CODE_BASE + INSTR_SIZE * len(program), retired, None


def run_cpu(program, regs, flags, pkru, memory, precise):
    """Run ``program`` on a CPU pinned to one tier; return what the model
    returns plus the final registers, flags, PKRU and memory."""
    space = AddressSpace()
    code = b"".join(instr.encode() for instr in program)
    for base, data in ((CODE_BASE, code), *memory.items()):
        space.mmap(base, len(data),
                   prot=PROT_RX if base == CODE_BASE else PROT_RW)
        for offset in range(0, len(data), PAGE_SIZE):
            chunk = data[offset:offset + PAGE_SIZE]
            space.page_at(base + offset).data[:len(chunk)] = chunk
    cpu = CPU(space)
    cpu.force_slow_path = precise
    state = ExecState(RegisterFile(), pkru)
    for name, value in regs.items():
        state.regs.set(name, value)
    state.regs.flags = flags
    state.regs.rip = CODE_BASE
    fault = None
    try:
        cpu.run(state, until_rip=CODE_BASE + len(code),
                max_steps=len(program))
    except InvalidInstruction as exc:
        fault = exc.address
    final = {base: b"".join(space.page_at(base + offset).data
                            for offset in range(0, len(data), PAGE_SIZE))
             for base, data in memory.items()}
    return ((state.regs.rip, cpu.instructions_retired, fault),
            state.regs.snapshot(), state.pkru, final)


@settings(max_examples=300, deadline=None)
@given(program,
       st.lists(value64, min_size=len(REGS), max_size=len(REGS)),
       st.integers(min_value=0, max_value=7),
       st.integers(min_value=0, max_value=(1 << 32) - 1),
       st.integers(min_value=0, max_value=2 ** 32))
def test_cpu_matches_reference_model(program, initial, flags, pkru, seed):
    regs = dict.fromkeys(GP_REGISTERS, 0)
    regs.update(zip(REGS, initial), rbp=DATA_MID, rsp=STACK_MID)
    rng = random.Random(seed)
    memory = {base: rng.getrandbits(8 * size).to_bytes(size, "little")
              for base, size in ((DATA_BASE, PAGE_SIZE),
                                 (STACK_BASE, STACK_PAGES * PAGE_SIZE))}
    pkru &= ~3                      # key 0, every page's, stays open

    model = Model(regs, flags, pkru, memory)
    ending = model.run(program)
    expected_regs = dict(model.regs, rip=ending[0], flags=model.flags)
    expected_memory = {base: bytes(data)
                       for base, data in model.memory.items()}
    for precise in (False, True):
        got = run_cpu(program, regs, flags, pkru, memory, precise)
        assert got[0] == ending, (precise, program)
        assert got[1] == expected_regs, (precise, program)
        assert got[2] == model.pkru, (precise, program)
        assert got[3] == expected_memory, (precise, program)
