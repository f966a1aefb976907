"""Instruction set of the simulated machine.

A deliberately small, fixed-width (16-byte) load/store ISA with x86-64
flavoured register names and calling convention.  Fixed-width encoding
means every instruction boundary is knowable, which keeps the disassembler
and the ROP-gadget scanner honest (gadgets are instruction-aligned suffixes
ending in ``RET``; DESIGN.md notes this divergence from variable-width
x86).

Encoding (little-endian), 16 bytes per instruction::

    byte  0      opcode
    byte  1      reg1 index (0xFF if unused)
    byte  2      reg2 index (0xFF if unused)
    bytes 3-10   64-bit signed immediate / displacement
    bytes 11-15  zero padding (reserved)

Control-flow immediates are *relative* to the address of the next
instruction, so assembled code is position independent (PIE) exactly the
way the paper relies on for ASLR-style relocation of the follower variant.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Optional

from repro.errors import InvalidInstruction
from repro.machine.registers import GP_REGISTERS

INSTR_SIZE = 16

_ENC = struct.Struct("<BBBq5x")

_REG_INDEX = {name: i for i, name in enumerate(GP_REGISTERS)}
_NO_REG = 0xFF


class Op(enum.IntEnum):
    """Opcodes.  Values are part of the encoded format; do not renumber."""

    NOP = 0x01
    HLT = 0x02

    MOV_RR = 0x10          # reg1 <- reg2
    MOV_RI = 0x11          # reg1 <- imm
    LEA = 0x12             # reg1 <- rip_next + imm   (RIP-relative address)
    LOAD = 0x13            # reg1 <- mem64[reg2 + imm]
    STORE = 0x14           # mem64[reg1 + imm] <- reg2
    LOAD8 = 0x15           # reg1 <- zero-extended mem8[reg2 + imm]
    STORE8 = 0x16          # mem8[reg1 + imm] <- low byte of reg2

    ADD_RR = 0x20
    ADD_RI = 0x21
    SUB_RR = 0x22
    SUB_RI = 0x23
    AND_RR = 0x24
    AND_RI = 0x25
    OR_RR = 0x26
    OR_RI = 0x27
    XOR_RR = 0x28
    XOR_RI = 0x29
    SHL_RI = 0x2A
    SHR_RI = 0x2B
    MUL_RR = 0x2C
    NOT_R = 0x2D

    CMP_RR = 0x30
    CMP_RI = 0x31
    TEST_RR = 0x32

    JMP = 0x40             # rip <- rip_next + imm
    JMP_R = 0x41           # rip <- reg1            (indirect jump)
    JMP_M = 0x42           # rip <- mem64[rip_next + imm]  (jump via GOT)
    JE = 0x43
    JNE = 0x44
    JL = 0x45              # signed less (SF set)
    JGE = 0x46
    JB = 0x47              # unsigned below (CF set)
    JAE = 0x48

    CALL = 0x50            # push return addr; rip <- rip_next + imm
    CALL_R = 0x51          # push return addr; rip <- reg1  (callq *%reg)
    RET = 0x52             # rip <- pop()
    PUSH_R = 0x53
    POP_R = 0x54
    PUSH_I = 0x55

    WRPKRU = 0x60          # PKRU <- eax (rax low 32 bits); requires rcx=rdx=0
    RDPKRU = 0x61          # rax <- PKRU
    SYSCALL = 0x62         # kernel trap; number in rax, args rdi..r9

    HLCALL = 0x70          # invoke high-level guest function #imm
    BRK = 0x71             # debugger/trace breakpoint (no-op with hook)


#: Opcodes that terminate a basic block; used by the gadget scanner.
CONTROL_FLOW_OPS = frozenset({
    Op.JMP, Op.JMP_R, Op.JMP_M, Op.JE, Op.JNE, Op.JL, Op.JGE, Op.JB,
    Op.JAE, Op.CALL, Op.CALL_R, Op.RET, Op.HLT, Op.SYSCALL,
})

#: opcodes that read or write ``reg1``, and those that also name ``reg2``:
#: an encoding without them is not an instruction.
_REG1_OPS = frozenset({
    Op.MOV_RR, Op.MOV_RI, Op.LEA, Op.LOAD, Op.STORE, Op.LOAD8, Op.STORE8,
    Op.ADD_RR, Op.ADD_RI, Op.SUB_RR, Op.SUB_RI, Op.AND_RR, Op.AND_RI,
    Op.OR_RR, Op.OR_RI, Op.XOR_RR, Op.XOR_RI, Op.SHL_RI, Op.SHR_RI,
    Op.MUL_RR, Op.NOT_R, Op.CMP_RR, Op.CMP_RI, Op.TEST_RR, Op.JMP_R,
    Op.CALL_R, Op.PUSH_R, Op.POP_R,
})
_REG2_OPS = frozenset({
    Op.MOV_RR, Op.LOAD, Op.STORE, Op.LOAD8, Op.STORE8, Op.ADD_RR,
    Op.SUB_RR, Op.AND_RR, Op.OR_RR, Op.XOR_RR, Op.MUL_RR, Op.CMP_RR,
    Op.TEST_RR,
})

#: opcode byte -> Op member; a plain dict lookup is several times faster
#: than ``Op(opcode)`` (which routes through EnumMeta.__call__) and
#: decode is on the interpreter's fetch path.
_OP_BY_CODE = {int(op): op for op in Op}


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction."""

    op: Op
    reg1: Optional[str] = None
    reg2: Optional[str] = None
    imm: int = 0

    def encode(self) -> bytes:
        r1 = _REG_INDEX[self.reg1] if self.reg1 is not None else _NO_REG
        r2 = _REG_INDEX[self.reg2] if self.reg2 is not None else _NO_REG
        return _ENC.pack(int(self.op), r1, r2, self.imm)

    @staticmethod
    def decode(raw: bytes) -> "Instruction":
        if len(raw) != INSTR_SIZE:
            raise InvalidInstruction(
                f"instruction must be {INSTR_SIZE} bytes, got {len(raw)}")
        opcode, r1, r2, imm = _ENC.unpack(raw)
        op = _OP_BY_CODE.get(opcode)
        if op is None:
            raise InvalidInstruction(f"invalid opcode {opcode:#x}")
        for index in (r1, r2):
            if index != _NO_REG and index >= len(GP_REGISTERS):
                raise InvalidInstruction(f"bad register index {index}")
        if (r1 == _NO_REG and op in _REG1_OPS
                or r2 == _NO_REG and op in _REG2_OPS):
            raise InvalidInstruction(
                f"{op.name} is missing a register operand")
        reg1 = GP_REGISTERS[r1] if r1 != _NO_REG else None
        reg2 = GP_REGISTERS[r2] if r2 != _NO_REG else None
        return Instruction(op, reg1, reg2, imm)

    def text(self) -> str:
        """AT&T-ish rendering used by the disassembler and flame graphs."""
        name = self.op.name.lower()
        parts = []
        if self.reg1 is not None:
            parts.append(f"%{self.reg1}")
        if self.reg2 is not None:
            parts.append(f"%{self.reg2}")
        if self.op in (Op.MOV_RI, Op.ADD_RI, Op.SUB_RI, Op.AND_RI, Op.OR_RI,
                       Op.XOR_RI, Op.SHL_RI, Op.SHR_RI, Op.CMP_RI, Op.PUSH_I,
                       Op.HLCALL, Op.LEA, Op.LOAD, Op.STORE, Op.LOAD8,
                       Op.STORE8, Op.JMP, Op.JE, Op.JNE, Op.JL, Op.JGE,
                       Op.JB, Op.JAE, Op.CALL, Op.JMP_M):
            parts.append(f"${self.imm:#x}" if self.imm >= 0
                         else f"$-{-self.imm:#x}")
        return f"{name} {', '.join(parts)}".strip()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Instruction {self.text()}>"
