"""Static pointer (alias) analysis over program images.

Paper §3.4: "we combine the static pointer analysis and runtime pointer
scanning ... use the pointer analysis (i.e., alias analysis) to narrow
down the pointer locations".  Our images make the static part exact for
link-time pointers: every ``DataRelocation`` is by construction a slot
holding an address, and pointer tables declare their element count.  The
runtime scanner can then visit only those ``.data`` slots, while ``.bss``
and the heap — whose pointer population is runtime-created — still require
the full 8-byte-aligned scan (which is why Table 2's heap scan dominates).

Beyond narrowing the relocator's scan set, the same relocation facts
answer a control-flow question: *which functions can an indirect call
reach?*  Every function whose address is stored in a static pointer slot
is **address-taken**; a ``CALL_R`` whose register provably holds a value
loaded from a specific pointer table can only target that table's
entries.  :func:`resolve_indirect_sites` proves the second, stronger fact
per call site by constant-propagating table addresses (``LEA``) through
register moves, table-offset arithmetic, and ``LOAD``s over the recovered
CFG (run to its fixpoint by :func:`repro.analysis.cfg.solve`) — the
classic "function-pointer table" narrowing that lets the call graph
replace ``<indirect>`` edges with concrete ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

from repro.analysis.cfg import TOP, FunctionCFG, function_cfg, solve
from repro.loader.image import ProgramImage, Symbol
from repro.machine.isa import INSTR_SIZE, Instruction, Op


@dataclass(frozen=True)
class PointerTable:
    """One statically initialized array of code pointers in ``.data``."""

    name: str
    #: function names per 8-byte slot, in table order
    targets: Tuple[str, ...]
    #: ``.data``-relative offset of slot 0
    data_offset: int
    #: True when *every* slot's relocation target is a defined function
    #: (a table mixing in data pointers can still be partially resolved)
    all_functions: bool = True

    def target_at(self, slot_offset: int) -> Optional[str]:
        """Function stored at byte offset ``slot_offset`` into the table."""
        index, rem = divmod(slot_offset, 8)
        if rem or not 0 <= index < len(self.targets):
            return None
        return self.targets[index] or None


@dataclass(frozen=True)
class AliasAnalysis:
    """Result of the static pass for one image."""

    image_name: str
    #: section-relative offsets of ``.data`` slots statically known to
    #: hold pointers.
    data_pointer_offsets: FrozenSet[int]
    #: True when the analysis proved it saw *every* static pointer slot
    #: (always true for our images; a C front end would be conservative).
    exhaustive_for_data: bool = True
    #: statically initialized code-pointer tables, by table symbol
    pointer_tables: Mapping[str, PointerTable] = field(default_factory=dict)
    #: every function whose address escapes into a static pointer slot —
    #: the sound target set for an indirect call nothing else narrows
    address_taken: FrozenSet[str] = frozenset()
    #: per-function, per-site resolved indirect-call targets:
    #: ``{function: {site_addr: (callee, ...)}}`` — only sites the
    #: table-propagation proof actually pinned down appear here.
    indirect_targets: Mapping[str, Mapping[int, Tuple[str, ...]]] = \
        field(default_factory=dict)

    @property
    def narrowed_slot_count(self) -> int:
        return len(self.data_pointer_offsets)


# ---------------------------------------------------------------------------
# pointer-table fact extraction
# ---------------------------------------------------------------------------

def _data_objects(image: ProgramImage) -> List[Symbol]:
    return [sym for sym in image.symbols
            if sym.section == ".data" and sym.kind == "object"]


def _collect_pointer_tables(image: ProgramImage) -> Dict[str, PointerTable]:
    """Group ``.data`` relocations under their containing object symbol."""
    func_names = {sym.name for sym in image.function_symbols()}
    objects = _data_objects(image)
    by_object: Dict[Symbol, Dict[int, str]] = {}
    for relocation in image.relocations:
        if relocation.section != ".data":
            continue
        for sym in objects:
            if sym.offset <= relocation.offset < sym.offset + max(sym.size, 1):
                slots = by_object.setdefault(sym, {})
                slots[relocation.offset - sym.offset] = relocation.target
                break
    tables: Dict[str, PointerTable] = {}
    for sym, slots in by_object.items():
        count = max(sym.size // 8, 1)
        targets = []
        all_functions = True
        for index in range(count):
            target = slots.get(8 * index, "")
            if target and target not in func_names:
                all_functions = False
                target = ""          # data pointer: not a call target
            elif not target:
                all_functions = False
            targets.append(target)
        tables[sym.name] = PointerTable(sym.name, tuple(targets),
                                        sym.offset, all_functions)
    return tables


# ---------------------------------------------------------------------------
# per-site CALL_R / JMP_R resolution (constant propagation over the CFG)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _TablePtr:
    """Register holds ``&table + delta`` (delta None = unknown slot)."""

    table: str
    delta: Optional[int]


@dataclass(frozen=True)
class _FuncSet:
    """Register holds the address of one of these functions."""

    names: FrozenSet[str]


def _section_bases(image: ProgramImage) -> Dict[str, int]:
    return {name: off for name, off, _size in image.section_layout()}


def _table_at(tables: Mapping[str, PointerTable], bases: Dict[str, int],
              absolute: int) -> Optional[Tuple[PointerTable, int]]:
    """Map a base-0 image address into (table, byte offset into it)."""
    data_base = bases.get(".data")
    if data_base is None or absolute < data_base:
        return None
    data_offset = absolute - data_base
    for table in tables.values():
        span = max(8 * len(table.targets), 8)
        if table.data_offset <= data_offset < table.data_offset + span:
            return table, data_offset - table.data_offset
    return None


def _resolve_function_sites(cfg: FunctionCFG,
                            tables: Mapping[str, PointerTable],
                            bases: Dict[str, int]
                            ) -> Dict[int, Tuple[str, ...]]:
    """Constant-propagate table pointers to each indirect site of one CFG.

    Lattice per register: ⊤ | _TablePtr | _FuncSet, with a register
    missing from the state read as ⊤.  A join of unequal values widens to
    ⊤, so a resolution survives only when *every* path to the site agrees.
    """
    if not cfg.indirect_sites:
        return {}
    resolved: Dict[int, object] = {}      # site -> frozenset | TOP

    def transfer(regs: Dict[str, object], addr: int,
                 instr: Instruction) -> None:
        op = instr.op
        if op is Op.LEA:
            hit = _table_at(tables, bases, addr + INSTR_SIZE + instr.imm)
            regs[instr.reg1] = (_TablePtr(hit[0].name, hit[1])
                                if hit else TOP)
        elif op is Op.MOV_RR:
            regs[instr.reg1] = regs.get(instr.reg2, TOP)
        elif op in (Op.ADD_RI, Op.SUB_RI):
            value = regs.get(instr.reg1, TOP)
            if isinstance(value, _TablePtr) and value.delta is not None:
                sign = 1 if op is Op.ADD_RI else -1
                regs[instr.reg1] = _TablePtr(value.table,
                                             value.delta + sign * instr.imm)
            else:
                regs[instr.reg1] = TOP
        elif op is Op.ADD_RR:
            # runtime-indexed table walk: &table + i*8 with i unknown —
            # the register still points *somewhere into that table*
            left = regs.get(instr.reg1, TOP)
            if isinstance(left, _TablePtr):
                regs[instr.reg1] = _TablePtr(left.table, None)
            else:
                regs[instr.reg1] = TOP
        elif op is Op.LOAD:
            base = regs.get(instr.reg2, TOP)
            value: object = TOP
            if isinstance(base, _TablePtr):
                table = tables[base.table]
                if base.delta is None:
                    names = frozenset(t for t in table.targets if t)
                    if names and table.all_functions:
                        value = _FuncSet(names)
                else:
                    target = table.target_at(base.delta + instr.imm)
                    if target:
                        value = _FuncSet(frozenset((target,)))
            regs[instr.reg1] = value
        elif op in (Op.CALL, Op.HLCALL):
            regs.clear()              # caller-saved: callee clobbers all
        elif op in (Op.CALL_R, Op.JMP_R):
            value = regs.get(instr.reg1, TOP)
            found = (value.names if isinstance(value, _FuncSet) else TOP)
            prior = resolved.get(addr)
            if prior is None:
                resolved[addr] = found
            elif prior is not TOP and found is not TOP:
                resolved[addr] = prior | found
            else:
                resolved[addr] = TOP
            if op is Op.CALL_R:
                regs.clear()
        elif instr.reg1 is not None and op is not Op.STORE \
                and op is not Op.STORE8:
            # any other reg1-writing op produces an unknown value
            regs[instr.reg1] = TOP

    def join(left: Dict[str, object],
             right: Dict[str, object]) -> Dict[str, object]:
        return {reg: left[reg] for reg in left
                if reg in right and left[reg] == right[reg]}

    solve(cfg, {}, transfer, join)
    return {site: tuple(sorted(names))
            for site, names in resolved.items()
            if names is not TOP and names}


def _resolve_sites(image: ProgramImage,
                   tables: Mapping[str, PointerTable]
                   ) -> Dict[str, Dict[int, Tuple[str, ...]]]:
    if not tables:
        return {}
    bases = _section_bases(image)
    hl_names = {hl.name for hl in image.hl_functions}
    result: Dict[str, Dict[int, Tuple[str, ...]]] = {}
    for sym in image.function_symbols():
        if sym.section != ".text" or sym.name in hl_names:
            continue
        sites = _resolve_function_sites(function_cfg(image, sym),
                                        tables, bases)
        if sites:
            result[sym.name] = sites
    return result


def resolve_indirect_sites(image: ProgramImage
                           ) -> Dict[str, Dict[int, Tuple[str, ...]]]:
    """Per-function resolved targets of every provable indirect site."""
    return _resolve_sites(image, _collect_pointer_tables(image))


def analyze_image_pointers(image: ProgramImage) -> AliasAnalysis:
    """Collect the statically known pointer slots of ``.data``, the
    code-pointer tables they form, and per-site indirect resolutions."""
    offsets: Set[int] = set()
    for relocation in image.relocations:
        if relocation.section == ".data":
            offsets.add(relocation.offset)
    tables = _collect_pointer_tables(image)
    func_names = {sym.name for sym in image.function_symbols()}
    taken = frozenset(
        relocation.target for relocation in image.relocations
        if relocation.target in func_names)
    return AliasAnalysis(image.name, frozenset(offsets),
                         pointer_tables=tables,
                         address_taken=taken,
                         indirect_targets=_resolve_sites(image, tables))
