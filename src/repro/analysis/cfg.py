"""Per-function basic-block CFG recovery over the fixed-width ISA.

The verifier (``repro.analysis.verify``) needs more than the call graph's
"who calls whom": the PKRU-gate dataflow pass must walk every *path*
through the monitor trampoline, and the coverage checker must know when a
function contains a branch whose target cannot be resolved statically.
This module recovers, per function:

* **basic blocks** — maximal straight-line instruction runs, split at
  branch targets and after control transfers;
* **intra-function edges** — direct jump/branch targets and fall-through
  successors, by address;
* **explicit indirect markers** — ``CALL_R``/``JMP_R``/``JMP_M`` sites
  are listed in :attr:`FunctionCFG.indirect_sites` and flagged on their
  block, never silently dropped (the fixed-width ISA makes everything
  *else* exact, so an indirect marker is the only source of
  conservatism);
* **call sites** — ``CALL``/``HLCALL`` instructions with their resolved
  target address (``None`` for register calls), used by the gate pass to
  check what runs while the monitor's pkey is open;
* **escapes** — direct jumps whose target lies outside the function body
  (tail calls; the interposition stubs end in exactly such a jump);
* **invalid slots** — instruction slots inside the body that do not
  decode (embedded data, or a corrupted image).  Recovery uses the
  windowed ``skip_invalid`` disassembly mode and reports the holes.

Decoding happens on raw section bytes, so CFGs can be recovered from an
unloaded :class:`~repro.loader.image.ProgramImage` (offline verification)
or from privileged reads of a live address space (bring-up audit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.loader.image import ProgramImage, Symbol
from repro.machine.disasm import disassemble_bytes
from repro.machine.isa import INSTR_SIZE, Instruction, Op

#: conditional branches: taken target + fall-through successor
COND_BRANCH_OPS = frozenset({Op.JE, Op.JNE, Op.JL, Op.JGE, Op.JB, Op.JAE})

#: instructions that end a basic block
_TERMINATORS = frozenset({
    Op.JMP, Op.JMP_R, Op.JMP_M, Op.RET, Op.HLT,
    Op.CALL, Op.CALL_R, Op.HLCALL, Op.SYSCALL,
}) | COND_BRANCH_OPS

#: statically unresolvable control transfers
INDIRECT_OPS = frozenset({Op.CALL_R, Op.JMP_R, Op.JMP_M})


@dataclass
class BasicBlock:
    """One maximal straight-line run of instructions."""

    start: int
    instructions: List[Tuple[int, Instruction]]
    #: addresses of intra-function successor blocks
    successors: Tuple[int, ...] = ()
    #: True when the block ends in a branch whose target is unknown
    has_indirect_successor: bool = False

    @property
    def end(self) -> int:
        """Address one past the last instruction slot."""
        return self.instructions[-1][0] + INSTR_SIZE if self.instructions \
            else self.start

    @property
    def terminator(self) -> Optional[Instruction]:
        if not self.instructions:
            return None
        last = self.instructions[-1][1]
        return last if last.op in _TERMINATORS else None


@dataclass
class FunctionCFG:
    """The recovered control-flow graph of one function."""

    name: str
    entry: int
    blocks: Dict[int, BasicBlock] = field(default_factory=dict)
    #: (site address, resolved absolute target or None) per CALL/HLCALL
    call_sites: List[Tuple[int, Optional[int]]] = field(default_factory=list)
    #: addresses of CALL_R / JMP_R / JMP_M instructions
    indirect_sites: List[int] = field(default_factory=list)
    #: (site address, target address) of direct jumps leaving the body
    escapes: List[Tuple[int, int]] = field(default_factory=list)
    #: slot addresses inside the body that did not decode
    invalid_slots: List[int] = field(default_factory=list)

    def block_at(self, addr: int) -> Optional[BasicBlock]:
        for block in self.blocks.values():
            if block.start <= addr < block.end:
                return block
        return None

    def reachable_blocks(self) -> Set[int]:
        """Block starts reachable from the entry along recovered edges."""
        seen: Set[int] = set()
        stack = [self.entry]
        while stack:
            start = stack.pop()
            if start in seen or start not in self.blocks:
                continue
            seen.add(start)
            stack.extend(self.blocks[start].successors)
        return seen

    @property
    def instruction_count(self) -> int:
        return sum(len(b.instructions) for b in self.blocks.values())


def _branch_target(addr: int, instr: Instruction) -> int:
    """Absolute target of a direct control transfer (RIP-relative imm)."""
    return addr + INSTR_SIZE + instr.imm


def recover_cfg(code: bytes, base: int = 0, name: str = "?") -> FunctionCFG:
    """Recover the CFG of one function body laid out at ``base``."""
    decoded = dict(disassemble_bytes(code, base=base, skip_invalid=True))
    end = base + len(code) - len(code) % INSTR_SIZE
    cfg = FunctionCFG(name=name, entry=base)
    cfg.invalid_slots = [addr for addr in range(base, end, INSTR_SIZE)
                         if addr not in decoded]

    # ---- find leaders ----
    leaders: Set[int] = {base}
    for addr, instr in decoded.items():
        op = instr.op
        if op in _TERMINATORS:
            nxt = addr + INSTR_SIZE
            if nxt in decoded:
                leaders.add(nxt)
        if op is Op.JMP or op in COND_BRANCH_OPS:
            target = _branch_target(addr, instr)
            if base <= target < end:
                leaders.add(target)
    # a decode hole also starts a fresh leader right after it
    for hole in cfg.invalid_slots:
        nxt = hole + INSTR_SIZE
        if nxt in decoded:
            leaders.add(nxt)

    # ---- carve blocks ----
    ordered = sorted(leaders)
    for index, start in enumerate(ordered):
        if start not in decoded:
            continue
        limit = ordered[index + 1] if index + 1 < len(ordered) else end
        instrs: List[Tuple[int, Instruction]] = []
        addr = start
        while addr < limit and addr in decoded:
            instrs.append((addr, decoded[addr]))
            if decoded[addr].op in _TERMINATORS:
                addr += INSTR_SIZE
                break
            addr += INSTR_SIZE
        block = BasicBlock(start, instrs)
        cfg.blocks[start] = block
        _wire_block(cfg, block, base, end, decoded)
    return cfg


def _wire_block(cfg: FunctionCFG, block: BasicBlock, base: int, end: int,
                decoded: Dict[int, Instruction]) -> None:
    last_addr, last = block.instructions[-1]
    op = last.op
    succs: List[int] = []
    fallthrough = last_addr + INSTR_SIZE

    if op is Op.JMP:
        target = _branch_target(last_addr, last)
        if base <= target < end:
            succs.append(target)
        else:
            cfg.escapes.append((last_addr, target))
    elif op in COND_BRANCH_OPS:
        target = _branch_target(last_addr, last)
        if base <= target < end:
            succs.append(target)
        else:
            cfg.escapes.append((last_addr, target))
        if fallthrough in decoded:
            succs.append(fallthrough)
    elif op in (Op.CALL, Op.HLCALL):
        target = (_branch_target(last_addr, last) if op is Op.CALL
                  else None)
        cfg.call_sites.append((last_addr, target))
        if fallthrough in decoded:
            succs.append(fallthrough)
    elif op is Op.CALL_R:
        cfg.indirect_sites.append(last_addr)
        block.has_indirect_successor = True
        cfg.call_sites.append((last_addr, None))
        if fallthrough in decoded:
            succs.append(fallthrough)
    elif op in (Op.JMP_R, Op.JMP_M):
        cfg.indirect_sites.append(last_addr)
        block.has_indirect_successor = True
    elif op in (Op.RET, Op.HLT):
        pass
    elif op is Op.SYSCALL:
        if fallthrough in decoded:
            succs.append(fallthrough)
    else:
        # block split by a leader, not by a terminator: plain fall-through
        if fallthrough in decoded:
            succs.append(fallthrough)
    block.successors = tuple(dict.fromkeys(succs))


def symbol_resolver(image: ProgramImage) -> Callable[[int], Optional[str]]:
    """Map a ``.text``-relative offset to the name of the function (or
    PLT entry) containing it, using the image's section layout — the same
    displacement convention the call-graph builder uses."""
    layout = {name: (off, size) for name, off, size
              in image.section_layout()}

    def resolve(offset: int) -> Optional[str]:
        for sym in image.symbols:
            if sym.kind != "func":
                continue
            if sym.section == ".text":
                start = sym.offset
            elif sym.section == ".plt" and ".plt" in layout:
                start = (layout[".plt"][0] - layout[".text"][0]) + sym.offset
            else:
                continue
            if start <= offset < start + sym.size:
                return sym.name
        return None

    return resolve


def function_cfg(image: ProgramImage, sym: Symbol) -> FunctionCFG:
    """Recover the CFG of one ``.text`` function of an image.

    Addresses are ``.text``-relative (the function's own section offset),
    matching the displacement base the assembler emitted against.
    """
    text = image.sections[".text"]
    body = text[sym.offset:sym.offset + sym.size]
    return recover_cfg(body, base=sym.offset, name=sym.name)


def image_cfgs(image: ProgramImage) -> Dict[str, FunctionCFG]:
    """CFGs for every ``.text`` function of an image."""
    return {sym.name: function_cfg(image, sym)
            for sym in image.function_symbols()
            if sym.section == ".text"}
