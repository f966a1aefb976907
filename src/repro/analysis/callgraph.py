"""Static call-graph construction over program images.

The sMVX variant loader needs to know, given the protected root function,
which functions the follower variant must contain — the root's call-graph
subtree (paper Figure 2: protecting ``func2()`` replicates ``subfunc1``,
``subfunc2``, ``subsubfunc2``).

Edges come from two sources:

* **ISA functions** — genuine static analysis: disassemble the function
  body and resolve every direct ``CALL``/``JMP`` displacement to the
  symbol containing its target;
* **HL functions** — the callee list declared at image-build time (the
  hybrid-model analogue of compiler-emitted call info).

Libc imports appear as ``name@plt`` leaf nodes, so the graph also answers
"which libc functions can this subtree reach".

Register- and memory-target branches (``CALL_R``/``JMP_R``/``JMP_M``)
are resolved through the alias analysis where possible: a site the
pointer-table propagation proof (:mod:`repro.analysis.alias`) pins to a
static code-pointer table contributes concrete edges to that table's
entries.  Anything the proof cannot pin down is recorded as an edge to
the :data:`INDIRECT` pseudo-callee instead of being dropped, so consumers
(the interception-coverage verifier in particular) can be *conservative*
— "this subtree contains a crossing I could not resolve" — rather than
silently unsound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Set, Tuple

from repro.analysis.cfg import INDIRECT_OPS, symbol_resolver
from repro.errors import SymbolNotFound
from repro.loader.image import ProgramImage, Symbol
from repro.machine.disasm import disassemble_bytes
from repro.machine.isa import INSTR_SIZE, Op

#: Pseudo-callee marking a statically unresolvable branch target
#: (``CALL_R``/``JMP_R``/``JMP_M``) inside a function body.
INDIRECT = "<indirect>"


@dataclass
class CallGraph:
    """Adjacency over function names (``callee@plt`` for libc imports)."""

    image_name: str
    edges: Dict[str, Set[str]] = field(default_factory=dict)

    def callees(self, name: str) -> Set[str]:
        return set(self.edges.get(name, ()))

    def callers(self, name: str) -> Set[str]:
        return {caller for caller, callees in self.edges.items()
                if name in callees}

    def subtree(self, root: str) -> Set[str]:
        """Transitive closure of callees from ``root`` (root included),
        restricted to defined functions (PLT leaves excluded)."""
        if root not in self.edges:
            raise SymbolNotFound(root)
        seen: Set[str] = set()
        stack = [root]
        while stack:
            current = stack.pop()
            if current in seen or current.endswith("@plt") \
                    or current == INDIRECT:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, ()))
        return seen

    def libc_reachable(self, root: str) -> Set[str]:
        """Libc imports reachable from ``root``'s subtree."""
        reachable: Set[str] = set()
        for func in self.subtree(root):
            for callee in self.edges.get(func, ()):
                if callee.endswith("@plt"):
                    reachable.add(callee[:-len("@plt")])
        return reachable

    def roots(self) -> Set[str]:
        called = {c for callees in self.edges.values() for c in callees}
        return {name for name in self.edges
                if name not in called and not name.endswith("@plt")}

    def indirect_sites(self, root: str) -> Set[str]:
        """Functions in ``root``'s subtree containing an unresolvable
        (register/memory-target) branch.  A non-empty result means any
        reachability claim about the subtree is conservative, not exact."""
        return {func for func in self.subtree(root)
                if INDIRECT in self.edges.get(func, ())}


def _isa_call_targets(image: ProgramImage, sym: Symbol,
                      resolve: Callable[[int], Optional[str]],
                      site_targets: Mapping[int, Tuple[str, ...]],
                      ) -> Set[str]:
    """Disassemble one ISA function and resolve direct branch targets
    through ``resolve`` (:func:`~repro.analysis.cfg.symbol_resolver`).

    ``site_targets`` carries the alias analysis's per-site proof for
    indirect branches; a site it resolves contributes concrete edges, an
    unproven site falls back to the :data:`INDIRECT` pseudo-callee.
    """
    text = image.sections[".text"]
    body = text[sym.offset:sym.offset + sym.size]
    targets: Set[str] = set()
    for addr, instr in disassemble_bytes(body, base=sym.offset):
        if instr.op in INDIRECT_OPS:
            resolved_names = site_targets.get(addr)
            if resolved_names:
                targets.update(name for name in resolved_names
                               if name != sym.name)
            else:
                targets.add(INDIRECT)
            continue
        if instr.op not in (Op.CALL, Op.JMP):
            continue
        # next-instruction relative displacement
        name = resolve(addr + INSTR_SIZE + instr.imm)
        if name is not None and name != sym.name:
            targets.add(name)
    return targets


def build_callgraph(image: ProgramImage, alias=None) -> CallGraph:
    """Build the call graph, narrowing indirect sites through ``alias``.

    ``alias`` is an :class:`~repro.analysis.alias.AliasAnalysis` (computed
    on demand when omitted); its pointer-table proof replaces
    ``<indirect>`` edges with concrete ones wherever a register call's
    target set is statically known, upgrading every downstream
    conservative claim (interception coverage, subtree membership) to an
    exact one at those sites.
    """
    if alias is None:
        from repro.analysis.alias import analyze_image_pointers
        alias = analyze_image_pointers(image)
    graph = CallGraph(image.name)
    resolve = symbol_resolver(image)
    hl_by_name = {hl.name: hl for hl in image.hl_functions}
    for sym in image.function_symbols():
        if sym.section != ".text":
            continue
        if sym.name in hl_by_name:
            declared = hl_by_name[sym.name].calls
            resolved = set()
            for callee in declared:
                if image.has_symbol(callee):
                    resolved.add(callee)
                elif callee in image.plt_imports:
                    resolved.add(f"{callee}@plt")
                else:
                    # undeclared external: keep the name; subtree() skips it
                    resolved.add(callee)
            graph.edges[sym.name] = resolved
        else:
            graph.edges[sym.name] = _isa_call_targets(
                image, sym, resolve, alias.indirect_targets.get(sym.name, {}))
    return graph


def protected_function_set(image: ProgramImage, root: str) -> Set[str]:
    """The set of defined functions the follower variant must contain."""
    return build_callgraph(image).subtree(root)
