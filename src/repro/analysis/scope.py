"""``repro.analysis.scope`` — automatic selected-code-path derivation.

The paper's defining idea is running MVX on *selected* code paths, and
its selection pipeline is a taint analysis: network input is the source,
every function the input can reach is sensitive, and the protected root
is the annotated region entry whose call subtree covers the sensitive
set.  The dynamic engine (:mod:`repro.taint`) reproduces the libdft leg
of that pipeline; this module is the *static* leg that predicts the set
ahead of any execution.

Pipeline
--------

1. **Sources** — walk every function's call edges (recovered by CFG
   disassembly for ISA functions, declared at image build for HL
   functions) and seed the functions that invoke a network-input libc
   entry (``recv``/``recvfrom`` — exactly the calls the kernel's
   ``io_taint_hook`` fires on, so the static and dynamic source sets
   coincide by construction).
2. **Interprocedural propagation** — forward closure over
   :mod:`repro.analysis.callgraph` edges: a callee of a tainted function
   receives (pointers to) tainted data and is tainted, carrying a
   source-to-function evidence path.  Indirect sites are narrowed through
   :mod:`repro.analysis.alias` pointer-table facts; a site the proof
   cannot pin down widens conservatively to every address-taken function
   (soundness over precision — the differential harness checks the
   direction).
3. **ISA refinement** — for real machine-code functions, an
   abstract-interpretation dataflow (run to its fixpoint by
   :func:`repro.analysis.cfg.solve`) tracks a taint bit and a constant
   address per register.  It can *prove a callee clean* (pure register
   computation: no memory read can observe tainted bytes) and it carries
   taint through **statically known memory slots**: a tainted register
   stored to a ``LEA``-derived ``.data``/``.bss`` address taints that
   slot image-wide, and any function loading from it becomes tainted even
   without a call-graph edge.  The slot set iterates to an image-level
   fixpoint.
4. **Classification** — TAINTED (selected), UNKNOWN (cannot be proven
   clean: transitive callers of tainted functions, which may observe
   tainted return values or shared structures, and functions with
   unresolved indirect calls), CLEAN (provably unreachable by any modeled
   flow).
5. **Root derivation** — candidates are the callees of functions that
   statically invoke ``mvx_start`` (the Listing-1 annotation is visible
   in the call graph); the derived root is the candidate with the
   smallest subtree that still covers the selected set.

Soundness limits (cross-checked by the differential gate in
:mod:`repro.analysis.differential`): taint is modeled as flowing along
call edges and statically known slots — a caller stashing a tainted
return value and passing it to a *later, otherwise-clean* callee
("post-return laundering"), and arithmetic laundering through int
conversions (the dynamic engine's own documented gap, DESIGN.md), are
outside the model.
"""

from __future__ import annotations

import enum
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.alias import AliasAnalysis, analyze_image_pointers
from repro.analysis.callgraph import INDIRECT, CallGraph, build_callgraph
from repro.analysis.cfg import FunctionCFG, function_cfg, solve
from repro.loader.image import ProgramImage
from repro.machine.isa import INSTR_SIZE, Instruction, Op

#: libc entries that introduce network input — the taint sources.  This
#: matches the dynamic engine exactly: the kernel's ``io_taint_hook``
#: fires on socket reads, which the bundled libc routes through
#: ``recvfrom`` (``recv`` is sugar for it).
NETWORK_INPUT_LIBC = frozenset({"recv", "recvfrom"})

_PLT = "@plt"


class TaintClass(enum.Enum):
    """Three-valued verdict per function."""

    TAINTED = "tainted"      # selected: network input statically reaches it
    UNKNOWN = "unknown"      # cannot be proven clean
    CLEAN = "clean"          # provably outside every modeled flow


@dataclass(frozen=True)
class FunctionScope:
    """One function's verdict with its source-to-function evidence."""

    name: str
    classification: TaintClass
    #: evidence path from a source to this function (empty for CLEAN)
    evidence: Tuple[str, ...] = ()
    reason: str = ""

    def to_dict(self) -> Dict:
        return {"name": self.name,
                "classification": self.classification.value,
                "evidence": list(self.evidence),
                "reason": self.reason}


@dataclass
class ScopeReport:
    """The derived selected-code-path set of one image."""

    image: str
    functions: Dict[str, FunctionScope] = field(default_factory=dict)
    #: ``(function, libc_name)`` source seeds
    sources: Tuple[Tuple[str, str], ...] = ()
    #: annotated region-entry candidates (callees of mvx_start callers)
    root_candidates: Tuple[str, ...] = ()
    #: smallest covering candidate, or None (empty selection / no cover)
    derived_root: Optional[str] = None
    #: tainted functions containing an indirect site the alias proof
    #: could not resolve (selection was widened conservatively there)
    conservative_sites: Tuple[Tuple[str, str], ...] = ()
    #: base-0 image addresses of statically tainted memory slots
    tainted_slots: FrozenSet[int] = frozenset()

    def classification(self, name: str) -> TaintClass:
        scope = self.functions.get(name)
        return scope.classification if scope else TaintClass.CLEAN

    @property
    def selected(self) -> FrozenSet[str]:
        """The statically selected (to-be-replicated) function set."""
        return frozenset(
            name for name, scope in self.functions.items()
            if scope.classification is TaintClass.TAINTED)

    @property
    def unknown(self) -> FrozenSet[str]:
        return frozenset(
            name for name, scope in self.functions.items()
            if scope.classification is TaintClass.UNKNOWN)

    @property
    def clean(self) -> FrozenSet[str]:
        return frozenset(
            name for name, scope in self.functions.items()
            if scope.classification is TaintClass.CLEAN)

    def to_dict(self) -> Dict:
        return {
            "image": self.image,
            "sources": [list(pair) for pair in self.sources],
            "selected": sorted(self.selected),
            "unknown": sorted(self.unknown),
            "clean": sorted(self.clean),
            "derived_root": self.derived_root,
            "root_candidates": list(self.root_candidates),
            "conservative_sites": [list(pair)
                                   for pair in self.conservative_sites],
            "tainted_slots": sorted(self.tainted_slots),
            "functions": [self.functions[name].to_dict()
                          for name in sorted(self.functions)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def format(self) -> str:
        lines = [f"scope {self.image}: {len(self.selected)} selected, "
                 f"{len(self.unknown)} unknown, {len(self.clean)} clean"]
        if self.sources:
            lines.append("  sources: " + ", ".join(
                f"{func} <- {libc}()" for func, libc in self.sources))
        lines.append(f"  derived root: {self.derived_root or '-'}"
                     + (f" (candidates: "
                        f"{', '.join(self.root_candidates)})"
                        if self.root_candidates else ""))
        for func, detail in self.conservative_sites:
            lines.append(f"  conservative: {func}: {detail}")
        for name in sorted(self.functions):
            scope = self.functions[name]
            tag = scope.classification.value.upper()
            lines.append(f"  {tag:>7} {name}")
            if scope.evidence:
                lines.append(f"          via "
                             f"{' -> '.join(scope.evidence)}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# ISA refinement: register-taint + known-slot dataflow (cfg.solve)
# ---------------------------------------------------------------------------

@dataclass
class _IsaSummary:
    """What one dataflow run proved about an ISA function."""

    #: a memory read may observe tainted bytes in this calling context
    may_observe: bool = False
    #: statically known slots read while tainted (evidence)
    observed_slots: Set[int] = field(default_factory=set)
    #: statically known slots written with a possibly-tainted value
    tainted_writes: Set[int] = field(default_factory=set)


#: per-register abstract value: (address constant or None, taint bit)
_Value = Tuple[Optional[int], bool]


class _IsaTaintAnalysis:
    """Abstract interpretation of one ISA function.

    The lattice is a product per register: a constant-address component
    (``LEA``-derived; a disagreeing join widens it to None, no known
    address) and a may-taint bit (join is OR).
    ``tainted_entry`` models the calling context: invoked from a tainted
    caller, every incoming register — and the stack, and any memory a
    statically unknown pointer reaches — may carry taint.
    """

    def __init__(self, cfg: FunctionCFG, tainted_entry: bool,
                 tainted_slots: FrozenSet[int]):
        self.cfg = cfg
        self.tainted_entry = tainted_entry
        self.tainted_slots = tainted_slots
        self.summary = _IsaSummary()

    def _default(self) -> _Value:
        return (None, self.tainted_entry)

    def _slot_tainted(self, addr: int, size: int) -> bool:
        return any(addr + i in self.tainted_slots for i in range(size))

    def _transfer(self, regs: Dict[str, _Value], addr: int,
                  instr: Instruction) -> None:
        op = instr.op
        get = lambda reg: regs.get(reg, self._default())

        if op is Op.LEA:
            regs[instr.reg1] = (addr + INSTR_SIZE + instr.imm, False)
        elif op is Op.MOV_RI:
            regs[instr.reg1] = (None, False)
        elif op is Op.MOV_RR:
            regs[instr.reg1] = get(instr.reg2)
        elif op in (Op.ADD_RI, Op.SUB_RI):
            value, taint = get(instr.reg1)
            if value is not None:
                sign = 1 if op is Op.ADD_RI else -1
                value += sign * instr.imm
            regs[instr.reg1] = (value, taint)
        elif op in (Op.AND_RI, Op.OR_RI, Op.XOR_RI, Op.SHL_RI, Op.SHR_RI):
            _value, taint = get(instr.reg1)
            regs[instr.reg1] = (None, taint)
        elif op is Op.NOT_R:
            regs[instr.reg1] = (None, get(instr.reg1)[1])
        elif op is Op.XOR_RR and instr.reg1 == instr.reg2:
            regs[instr.reg1] = (None, False)
        elif op in (Op.ADD_RR, Op.SUB_RR, Op.AND_RR, Op.OR_RR,
                    Op.XOR_RR, Op.MUL_RR):
            regs[instr.reg1] = (None, get(instr.reg1)[1]
                                or get(instr.reg2)[1])
        elif op in (Op.LOAD, Op.LOAD8):
            base_value, _base_taint = get(instr.reg2)
            size = 8 if op is Op.LOAD else 1
            if base_value is not None:
                slot = base_value + instr.imm
                taint = self._slot_tainted(slot, size)
                if taint:
                    self.summary.may_observe = True
                    self.summary.observed_slots.add(slot)
                regs[instr.reg1] = (None, taint)
            else:
                # unknown pointer: in a tainted activation it may point
                # at tainted bytes (args, heap shared with the source)
                if self.tainted_entry:
                    self.summary.may_observe = True
                regs[instr.reg1] = (None, self.tainted_entry)
        elif op in (Op.STORE, Op.STORE8):
            base_value, _ = get(instr.reg1)
            _, src_taint = get(instr.reg2)
            if base_value is not None and src_taint:
                self.summary.tainted_writes.add(base_value + instr.imm)
        elif op is Op.POP_R:
            # the guest stack of a tainted activation may hold tainted
            # bytes (exactly what the CVE's overflow plants there)
            if self.tainted_entry:
                self.summary.may_observe = True
            regs[instr.reg1] = (None, self.tainted_entry)
        elif op in (Op.CALL, Op.HLCALL, Op.CALL_R):
            regs.clear()              # callee clobbers; defaults re-apply
        elif op in (Op.SYSCALL, Op.RDPKRU):
            regs["rax"] = (None, self.tainted_entry)

    def _join(self, left: Dict[str, _Value],
              right: Dict[str, _Value]) -> Dict[str, _Value]:
        merged: Dict[str, _Value] = {}
        for reg in set(left) | set(right):
            lv, lt = left.get(reg, self._default())
            rv, rt = right.get(reg, self._default())
            merged[reg] = (lv if lv == rv else None, lt or rt)
        return merged

    def run(self) -> _IsaSummary:
        solve(self.cfg, {}, self._transfer, self._join)
        return self.summary


def _isa_summary(cfg: FunctionCFG, tainted_entry: bool,
                 tainted_slots: FrozenSet[int]) -> _IsaSummary:
    return _IsaTaintAnalysis(cfg, tainted_entry, tainted_slots).run()


# ---------------------------------------------------------------------------
# the interprocedural driver
# ---------------------------------------------------------------------------

def _network_sources(graph: CallGraph,
                     defined: List[str]) -> List[Tuple[str, str]]:
    sources = []
    for func in defined:
        for callee in sorted(graph.callees(func)):
            if callee.endswith(_PLT) \
                    and callee[:-len(_PLT)] in NETWORK_INPUT_LIBC:
                sources.append((func, callee[:-len(_PLT)]))
                break
    return sources


def derive_root(graph: CallGraph,
                selected: FrozenSet[str]
                ) -> Tuple[Optional[str], Tuple[str, ...]]:
    """Pick the annotated region entry whose subtree covers ``selected``.

    Candidates are callees of functions that statically call
    ``mvx_start`` (the Listing-1 annotation pattern: the *caller* opens
    the region around the call).  Returns ``(root, candidates)``; root is
    the minimal-subtree covering candidate, or None when the selection is
    empty or nothing annotated covers it.
    """
    candidates: Set[str] = set()
    for func, callees in graph.edges.items():
        if not ({"mvx_start", f"mvx_start{_PLT}"} & callees):
            continue
        for callee in callees:
            if callee in graph.edges and not callee.endswith(_PLT) \
                    and not callee.startswith("mvx_"):
                candidates.add(callee)
    ordered = tuple(sorted(candidates))
    if not selected:
        return None, ordered
    covering = [name for name in ordered
                if selected <= frozenset(graph.subtree(name))]
    if not covering:
        return None, ordered
    root = min(covering, key=lambda name: (len(graph.subtree(name)), name))
    return root, ordered


def compute_scope(image: ProgramImage,
                  alias: Optional[AliasAnalysis] = None) -> ScopeReport:
    """Run the full static selection pipeline over one image."""
    if alias is None:
        alias = analyze_image_pointers(image)
    graph = build_callgraph(image, alias)
    hl_names = {hl.name for hl in image.hl_functions}
    defined = [sym.name for sym in image.function_symbols()
               if sym.section == ".text"]
    cfgs = {name: function_cfg(image, image.symbol(name))
            for name in defined if name not in hl_names}

    sources = _network_sources(graph, defined)
    klass: Dict[str, TaintClass] = {}
    evidence: Dict[str, Tuple[str, ...]] = {}
    reasons: Dict[str, str] = {}
    tainted_slots: Set[int] = set()
    slot_writer: Dict[int, str] = {}
    conservative: List[Tuple[str, str]] = []
    widened: Set[str] = set()
    work: deque = deque()

    def mark_tainted(name: str, path: Tuple[str, ...],
                     reason: str) -> bool:
        if klass.get(name) is TaintClass.TAINTED:
            return False
        klass[name] = TaintClass.TAINTED
        evidence[name] = path
        reasons[name] = reason
        work.append(name)
        return True

    for func, libc in sources:
        mark_tainted(func, (f"{libc}{_PLT}", func),
                     f"calls network input {libc}()")

    # widening target set for unresolved indirect calls in tainted code:
    # the alias analysis's address-taken set when it is exhaustive for
    # static pointers, every defined function otherwise
    if alias.address_taken and alias.exhaustive_for_data:
        indirect_pool = sorted(alias.address_taken)
    else:
        indirect_pool = sorted(defined)

    # interprocedural fixpoint: call-edge propagation interleaved with
    # the ISA slot dataflow (new tainted slots can taint new functions,
    # which can taint new slots, ...)
    while True:
        while work:
            func = work.popleft()
            path = evidence[func]
            for callee in sorted(graph.callees(func)):
                if callee == INDIRECT or callee.endswith(_PLT):
                    continue
                if callee not in graph.edges:
                    continue          # undeclared external
                if callee in cfgs and not _isa_summary(
                        cfgs[callee], True,
                        frozenset(tainted_slots)).may_observe:
                    # proven pure in a tainted context: no memory read
                    # can observe tainted bytes
                    klass.setdefault(callee, TaintClass.CLEAN)
                    reasons.setdefault(
                        callee,
                        "proven clean by register dataflow: no memory "
                        "read in a tainted context")
                    continue
                mark_tainted(callee, path + (callee,),
                             f"callee of tainted {func!r}")
            if INDIRECT in graph.callees(func) and func not in widened:
                widened.add(func)
                conservative.append(
                    (func, "unresolved indirect call in tainted code; "
                           "selection widened to "
                           f"{len(indirect_pool)} address-taken "
                           "function(s)"))
                for target in indirect_pool:
                    if target in graph.edges and target != func:
                        mark_tainted(
                            target, path + ("<indirect>", target),
                            f"conservative target of an unresolved "
                            f"indirect call in {func!r}")

        # ISA slot pass: tainted functions' stores taint known slots;
        # any function loading a tainted slot becomes tainted
        progress = False
        frozen_slots = frozenset(tainted_slots)
        for name, cfg in cfgs.items():
            summary = _isa_summary(
                cfg, klass.get(name) is TaintClass.TAINTED, frozen_slots)
            if klass.get(name) is TaintClass.TAINTED:
                for slot in summary.tainted_writes:
                    if slot not in tainted_slots:
                        tainted_slots.add(slot)
                        slot_writer[slot] = name
                        progress = True
            elif summary.observed_slots:
                slot = min(summary.observed_slots)
                writer = slot_writer.get(slot, "?")
                base = evidence.get(writer, (writer,))
                if mark_tainted(name, base + (f"slot@{slot:#x}", name),
                                f"loads statically tainted slot "
                                f"{slot:#x} (written by {writer!r})"):
                    progress = True
        if not progress and not work:
            break

    # UNKNOWN upward closure: transitive callers of tainted functions
    # may observe tainted return values / shared structures
    pending = deque(name for name in klass
                    if klass[name] is TaintClass.TAINTED)
    while pending:
        func = pending.popleft()
        for caller in sorted(graph.callers(func)):
            if caller in klass or caller not in graph.edges:
                continue
            klass[caller] = TaintClass.UNKNOWN
            evidence[caller] = evidence.get(func, (func,)) + (caller,)
            reasons[caller] = (f"calls tainted {func!r}: may observe "
                               f"tainted returns or shared state")
            pending.append(caller)

    # a function whose own control flow is statically unresolved cannot
    # be proven clean either
    for name in defined:
        if name not in klass and INDIRECT in graph.callees(name):
            klass[name] = TaintClass.UNKNOWN
            reasons[name] = ("contains an indirect call the alias "
                            "analysis could not resolve")

    for name in defined:
        klass.setdefault(name, TaintClass.CLEAN)
        reasons.setdefault(name, "no modeled flow from a network-input "
                                 "source reaches this function")

    functions = {
        name: FunctionScope(name, klass[name],
                            tuple(evidence.get(name, ())),
                            reasons.get(name, ""))
        for name in defined}
    selected = frozenset(name for name in defined
                         if klass[name] is TaintClass.TAINTED)
    root, candidates = derive_root(graph, selected)
    return ScopeReport(
        image=image.name,
        functions=functions,
        sources=tuple(sources),
        root_candidates=candidates,
        derived_root=root,
        conservative_sites=tuple(conservative),
        tainted_slots=frozenset(tainted_slots),
    )
