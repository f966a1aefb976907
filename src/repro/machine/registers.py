"""General-purpose register file for the simulated CPU.

The register set mirrors x86-64's sixteen GPRs plus ``rip`` and a tiny
flags word, because the paper's mechanisms talk about concrete registers:
the SysV calling convention passes arguments 1-6 in ``rdi, rsi, rdx, rcx,
r8, r9``; variadic calls carry a count in ``rax``; the sMVX trampoline must
preserve ``rbx`` across its ``callq *%rbx`` (paper §3.4).
"""

from __future__ import annotations

from typing import Dict

GP_REGISTERS = (
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
)

#: SysV AMD64 integer argument registers, in order.
ARG_REGISTERS = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")

#: Registers a callee must preserve (SysV AMD64 ABI).
CALLEE_SAVED = ("rbx", "rbp", "r12", "r13", "r14", "r15")

FLAG_ZF = 1 << 0
FLAG_SF = 1 << 1
FLAG_CF = 1 << 2

_MASK64 = (1 << 64) - 1


class RegisterFile:
    """Sixteen 64-bit GPRs, an instruction pointer, and flags."""

    __slots__ = ("_regs", "rip", "flags")

    def __init__(self) -> None:
        self._regs: Dict[str, int] = {name: 0 for name in GP_REGISTERS}
        self.rip = 0
        self.flags = 0

    def get(self, name: str) -> int:
        try:
            return self._regs[name]
        except KeyError:
            raise KeyError(f"unknown register {name!r}") from None

    def set(self, name: str, value: int) -> None:
        if name not in self._regs:
            raise KeyError(f"unknown register {name!r}")
        self._regs[name] = value & _MASK64

    def snapshot(self) -> Dict[str, int]:
        state = dict(self._regs)
        state["rip"] = self.rip
        state["flags"] = self.flags
        return state

    def load_snapshot(self, state: Dict[str, int]) -> None:
        for name in GP_REGISTERS:
            self._regs[name] = state[name] & _MASK64
        self.rip = state["rip"]
        self.flags = state["flags"]

    # flag helpers -----------------------------------------------------------

    def set_compare_flags(self, left: int, right: int) -> None:
        """Set ZF/SF/CF as a 64-bit ``cmp left, right`` would; ``test a,
        b`` sets them as ``cmp a & b, 0`` does.  The CPU's ``CMP_RR``,
        ``CMP_RI`` and ``TEST_RR`` handlers all compute flags here."""
        diff = (left - right) & _MASK64
        flags = FLAG_ZF if diff == 0 else FLAG_SF if diff >> 63 else 0
        if (left & _MASK64) < (right & _MASK64):
            flags |= FLAG_CF
        self.flags = flags

    @property
    def zf(self) -> bool:
        return bool(self.flags & FLAG_ZF)

    @property
    def cf(self) -> bool:
        return bool(self.flags & FLAG_CF)
