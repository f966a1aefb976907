"""ERIM-style PKRU-gate dataflow verification (paper §3.2/§3.4).

The sMVX security argument hinges on three statically checkable facts
about ``wrpkru``:

1. **Placement** — every PKRU-writing instruction lives inside the
   blessed trampoline (the monitor's call gates).  A ``wrpkru`` anywhere
   app-reachable is a gadget that opens the monitor's pkey.
2. **Entry pairing** — while the monitor key is *open*, the only code
   that may run is the reference-monitor gate, whose first action is the
   safe-stack pivot.  Statically: every call executed in the open state
   must target a registered gate symbol; indirect control flow in the
   open state is forbidden outright.
3. **Exit discipline** — every path out of the trampoline (``ret`` back
   to the application, or a jump leaving the function) must have
   restored PKRU to the closed value first.

This module proves those properties by abstract interpretation over the
recovered CFG, run to its fixpoint by :func:`repro.analysis.cfg.solve`.
The abstract state tracks PKRU plus the three registers ``wrpkru``
consumes (``rax`` carries the new value; ``rcx``/``rdx`` must be zero,
mirroring the hardware check the CPU model enforces) through constant
propagation; any join of unequal values widens to ⊤ (unknown), which the
checks treat pessimistically.

Finding codes:

* ``PKRU001`` — stray ``wrpkru`` outside the blessed trampoline
* ``PKRU002`` — ``wrpkru`` reachable with non-zero ``rcx``/``rdx``
* ``PKRU003`` — ``wrpkru`` writes a non-constant or unexpected value
* ``PKRU004`` — exit path reachable with PKRU not closed
* ``PKRU005`` — open-state control transfer to a non-gate target
* ``PKRU006`` — open/close pair that never enters the gate (warning)
* ``PKRU007`` — gate symbol is not a high-level (stack-pivoting) entry
* ``PKRU008`` — interposition stub does not funnel into the trampoline
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.analysis.cfg import (
    TOP,
    FunctionCFG,
    image_cfgs,
    solve,
    symbol_resolver,
)
from repro.analysis.findings import Finding, Severity
from repro.loader.image import ProgramImage
from repro.machine.disasm import disassemble_bytes
from repro.machine.isa import INSTR_SIZE, Instruction, Op
from repro.machine.memory import PROT_EXEC


@dataclass(frozen=True)
class GatePolicy:
    """What the verifier must know about a correct monitor gate."""

    pkru_open: int
    pkru_closed: int
    #: symbols callable while the monitor key is open (the reference
    #: monitor entry; its first action is the safe-stack pivot)
    gate_symbols: FrozenSet[str] = frozenset({"smvx_gate"})
    trampoline_symbol: str = "smvx_trampoline"


_TRACKED = ("rax", "rcx", "rdx")

_ARITH_RI = {
    Op.ADD_RI: lambda v, imm: v + imm,
    Op.SUB_RI: lambda v, imm: v - imm,
    Op.AND_RI: lambda v, imm: v & imm,
    Op.OR_RI: lambda v, imm: v | imm,
    Op.XOR_RI: lambda v, imm: v ^ imm,
    Op.SHL_RI: lambda v, imm: (v << (imm & 63)),
    Op.SHR_RI: lambda v, imm: (v & (1 << 64) - 1) >> (imm & 63),
}

#: ops whose reg1 operand is a destination write
_REG1_WRITES = frozenset({
    Op.MOV_RR, Op.MOV_RI, Op.LEA, Op.LOAD, Op.LOAD8, Op.POP_R,
    Op.ADD_RR, Op.ADD_RI, Op.SUB_RR, Op.SUB_RI, Op.AND_RR, Op.AND_RI,
    Op.OR_RR, Op.OR_RI, Op.XOR_RR, Op.XOR_RI, Op.SHL_RI, Op.SHR_RI,
    Op.MUL_RR, Op.NOT_R,
})


#: the abstract state at a program point: ``pkru`` and each of
#: ``_TRACKED`` hold an int constant or TOP; ``gate_called`` says a gate
#: entry happened since the last open
_GateState = Dict[str, object]


def _join(old: _GateState, new: _GateState) -> _GateState:
    """Unequal constants widen to TOP; a gate entry counts only when
    every path made one."""
    joined = {key: old[key] if old[key] == new[key] else TOP
              for key in old}
    joined["gate_called"] = old["gate_called"] and new["gate_called"]
    return joined


class _GateAnalysis:
    """Abstract interpretation of one function."""

    def __init__(self, cfg: FunctionCFG, policy: GatePolicy,
                 resolve: Callable[[int], Optional[str]],
                 image_name: str = ""):
        self.cfg = cfg
        self.policy = policy
        self.resolve = resolve
        self.image_name = image_name
        self._escapes = dict(cfg.escapes)
        self._findings: Dict[Tuple[str, int, str], Finding] = {}

    # -- findings (deduplicated: transfer re-runs to fixpoint) --------------

    def _flag(self, code: str, severity: Severity, address: int,
              message: str) -> None:
        key = (code, address, message)
        if key not in self._findings:
            self._findings[key] = Finding(
                code, severity, message, image=self.image_name,
                symbol=self.cfg.name, address=address)

    # -- transfer -----------------------------------------------------------

    def _transfer(self, state: _GateState, addr: int,
                  instr: Instruction) -> None:
        op = instr.op
        policy = self.policy

        if op is Op.WRPKRU:
            for reg in ("rcx", "rdx"):
                if state[reg] is TOP or state[reg] != 0:
                    self._flag("PKRU002", Severity.ERROR, addr,
                               f"wrpkru reachable with {reg} not proven "
                               f"zero (hardware would fault, but the "
                               f"path exists)")
            value = state["rax"]
            if value is TOP:
                self._flag("PKRU003", Severity.ERROR, addr,
                           "wrpkru writes a non-constant PKRU value")
                state["pkru"] = TOP
            elif value == policy.pkru_open:
                state["pkru"] = policy.pkru_open
                state["gate_called"] = False
            elif value == policy.pkru_closed:
                if state["pkru"] == policy.pkru_open \
                        and not state["gate_called"]:
                    self._flag("PKRU006", Severity.WARNING, addr,
                               "monitor key opened and closed without "
                               "entering the gate")
                state["pkru"] = policy.pkru_closed
            else:
                self._flag("PKRU003", Severity.ERROR, addr,
                           f"wrpkru writes unexpected constant "
                           f"{value:#x} (neither the open nor the "
                           f"closed PKRU)")
                state["pkru"] = value
            return

        if op is Op.RDPKRU:
            state["rax"] = state["pkru"]
            return

        if op in (Op.CALL, Op.HLCALL, Op.CALL_R):
            if state["pkru"] is TOP:
                self._flag("PKRU005", Severity.ERROR, addr,
                           "call executed with indeterminate PKRU")
            elif state["pkru"] == self.policy.pkru_open:
                target_name = None
                if op is Op.CALL:
                    target_name = self.resolve(addr + INSTR_SIZE
                                               + instr.imm)
                if op is Op.CALL_R:
                    self._flag("PKRU005", Severity.ERROR, addr,
                               "indirect call while the monitor key is "
                               "open")
                elif target_name not in self.policy.gate_symbols:
                    self._flag("PKRU005", Severity.ERROR, addr,
                               f"open-state call targets "
                               f"{target_name or 'unknown code'!r}, not "
                               f"a registered gate entry")
                else:
                    state["gate_called"] = True
            for reg in _TRACKED:      # caller-saved: callee clobbers
                state[reg] = TOP
            return

        if op in (Op.JMP_R, Op.JMP_M) and (
                state["pkru"] is TOP
                or state["pkru"] == self.policy.pkru_open):
            self._flag("PKRU005", Severity.ERROR, addr,
                       "indirect jump while the monitor key is open or "
                       "indeterminate")
            return

        if op is Op.RET:
            self._check_exit(state, addr, "returns to application code")
            return

        if addr in self._escapes:
            # direct jump out of the function: the monitor key must be
            # closed before control leaves
            self._check_exit(state, addr, "jumps out of the function")
            return

        # ---- plain constant propagation ----
        if op in _REG1_WRITES and instr.reg1 in _TRACKED:
            state[instr.reg1] = self._value_of(state, instr)

    def _value_of(self, state: _GateState, instr: Instruction):
        op = instr.op
        if op is Op.MOV_RI:
            return instr.imm
        if op is Op.MOV_RR:
            return state[instr.reg2] if instr.reg2 in _TRACKED else TOP
        if op is Op.XOR_RR and instr.reg1 == instr.reg2:
            return 0
        if op in _ARITH_RI:
            current = state[instr.reg1]
            if current is not TOP:
                return _ARITH_RI[op](current, instr.imm)
        return TOP

    def _check_exit(self, state: _GateState, addr: int, how: str) -> None:
        pkru = state["pkru"]
        if pkru is TOP or pkru != self.policy.pkru_closed:
            shown = "indeterminate" if pkru is TOP else f"{pkru:#x}"
            self._flag("PKRU004", Severity.ERROR, addr,
                       f"exit path {how} with PKRU {shown} instead of "
                       f"the closed value {self.policy.pkru_closed:#x}")

    def run(self) -> List[Finding]:
        entry = dict.fromkeys(_TRACKED, TOP)
        entry.update(pkru=self.policy.pkru_closed, gate_called=True)
        solve(self.cfg, entry, self._transfer, _join)
        return list(self._findings.values())


def analyze_gate(cfg: FunctionCFG, policy: GatePolicy,
                 resolve: Callable[[int], Optional[str]],
                 image_name: str = "") -> List[Finding]:
    """Prove the gate invariants over one function's CFG."""
    return _GateAnalysis(cfg, policy, resolve, image_name).run()


# ---------------------------------------------------------------------------
# wrpkru placement scans
# ---------------------------------------------------------------------------

def wrpkru_sites_in_image(image: ProgramImage
                          ) -> List[Tuple[str, int]]:
    """``(symbol, .text-relative address)`` of every WRPKRU in an image."""
    sites: List[Tuple[str, int]] = []
    for sym in image.function_symbols():
        if sym.section != ".text":
            continue
        body = image.sections[".text"][sym.offset:sym.offset + sym.size]
        for addr, instr in disassemble_bytes(body, base=sym.offset,
                                             skip_invalid=True):
            if instr.op is Op.WRPKRU:
                sites.append((sym.name, addr))
    return sites


def wrpkru_sites_in_space(space) -> Iterator[Tuple[int, str]]:
    """``(absolute address, page tag)`` of every WRPKRU slot in any
    executable page of a live address space (host-side page walk; XoM
    pages are readable to the verifier, exactly like offline analysis of
    the on-disk image would be)."""
    for base, page in space.mapped_pages():
        if not page.prot & PROT_EXEC:
            continue
        for addr, instr in disassemble_bytes(bytes(page.data), base=base,
                                             skip_invalid=True):
            if instr.op is Op.WRPKRU:
                yield addr, page.tag


# ---------------------------------------------------------------------------
# whole-monitor-image verification
# ---------------------------------------------------------------------------

def verify_monitor_image(image: ProgramImage,
                         policy: GatePolicy) -> List[Finding]:
    """Check the monitor image's gate discipline end to end:

    * the trampoline passes the dataflow proof;
    * no function other than the trampoline contains ``wrpkru``;
    * every interposition stub is exactly ``PUSH_I idx; JMP trampoline``;
    * every gate symbol is a high-level entry (``HLCALL``), i.e. the
      stack-pivoting reference monitor, not arbitrary ISA code.
    """
    findings: List[Finding] = []
    resolve = symbol_resolver(image)
    cfgs = image_cfgs(image)

    for sym_name, addr in wrpkru_sites_in_image(image):
        if sym_name != policy.trampoline_symbol:
            findings.append(Finding(
                "PKRU001", Severity.ERROR,
                f"wrpkru outside the blessed trampoline "
                f"(in {sym_name!r})", image=image.name,
                symbol=sym_name, address=addr))

    trampoline = cfgs.get(policy.trampoline_symbol)
    if trampoline is None:
        findings.append(Finding(
            "PKRU004", Severity.ERROR,
            f"monitor image has no trampoline symbol "
            f"{policy.trampoline_symbol!r}", image=image.name))
    else:
        findings.extend(analyze_gate(trampoline, policy,
                                     resolve, image.name))

    trampoline_sym = (image.symbol(policy.trampoline_symbol)
                      if image.has_symbol(policy.trampoline_symbol)
                      else None)
    for name, cfg in cfgs.items():
        if not name.startswith("smvx_stub_"):
            continue
        instrs = [instr for block in cfg.blocks.values()
                  for instr in block.instructions]
        ok = (len(instrs) >= 2
              and instrs[0][1].op is Op.PUSH_I
              and instrs[1][1].op is Op.JMP
              and trampoline_sym is not None
              and instrs[1][0] + INSTR_SIZE + instrs[1][1].imm
              == trampoline_sym.offset)
        if not ok:
            findings.append(Finding(
                "PKRU008", Severity.ERROR,
                "interposition stub does not funnel into the gate "
                "trampoline", image=image.name, symbol=name,
                address=cfg.entry))

    hl_names = {hl.name for hl in image.hl_functions}
    for gate in sorted(policy.gate_symbols):
        if not image.has_symbol(gate):
            continue   # stray-call check already covers unknown targets
        if gate not in hl_names:
            findings.append(Finding(
                "PKRU007", Severity.ERROR,
                f"gate symbol {gate!r} is not a high-level "
                f"(safe-stack-pivoting) monitor entry",
                image=image.name, symbol=gate))
    return findings
