"""Aligned-variant creation — the paper's §4.1/§5 alternative strategy.

"We envision a different variant creation strategy that can be used to
avoid pointer updates.  For example, we can create two program variants
with varying options of the compiler... This way, we can align the
function addresses but still have different variant layouts."

Implementation: the follower gets its **own address-space view** in which
the target image region and the heap are *private pages at the same
numeric addresses* as the leader's — so every pointer is already valid
and no scanning/relocation happens at all.  Diversity comes from
**intra-function layout shuffling**: each function's body is shifted by a
seeded amount of leading NOPs (function *entry* addresses stay aligned,
exactly as the paper proposes), so any code-reuse payload aimed at
leader-internal offsets — a ROP gadget, a mid-function jump — executes
different instructions in the follower and desynchronizes the lockstep.

mvx_start() under this strategy costs: clone + page sharing + a private
copy of the image and heap.  The Table 2 scan costs vanish.  The steps
every follower takes are ``repro.core.variant``'s; this module supplies
the layout (same addresses, private view) and the diversification.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.relocate import RelocationReport
from repro.core.variant import (
    FollowerVariant,
    VariantReport,
    map_copy,
    spawn_follower,
)
from repro.errors import InvalidInstruction
from repro.loader.loader import LoadedImage
from repro.machine.costs import CostModel
from repro.machine.isa import INSTR_SIZE, Instruction, Op
from repro.machine.memory import AddressSpace, PAGE_SIZE, page_align_up
from repro.process.process import GuestProcess

#: ops whose immediate is a displacement relative to the next instruction
_RIP_RELATIVE_OPS = frozenset({
    Op.LEA, Op.JMP, Op.JMP_M, Op.JE, Op.JNE, Op.JL, Op.JGE, Op.JB,
    Op.JAE, Op.CALL,
})


#: the seed every aligned follower's function interiors are shuffled with
DIVERSITY_SEED = 0xD1CE

#: an intentionally invalid instruction slot: anything that lands here —
#: a stale gadget address, a fallthrough between resynced gadgets —
#: raises InvalidInstruction immediately.
TRAP_SLOT = b"\xEE" * INSTR_SIZE


def _diversify_function(body: bytes, name: str, seed: int) -> Optional[bytes]:
    """Relocate a function's body to the far end of its padded region.

    The function *entry* keeps its aligned address (slot 0 becomes a JMP
    to the moved body, so normal calls behave identically), the vacated
    slots become trap instructions, and the body itself shifts uniformly
    — intra-function displacements are shift-invariant, external
    RIP-relative targets get their displacement reduced by the shift.

    The security effect: every leader-internal code address other than
    the entry (ROP gadgets, mid-function jump targets) lands on a trap in
    the follower.  Requires padding >= body size; returns None otherwise
    (the function is left identical, reported as not diversified).
    """
    slots = []
    for offset in range(0, len(body), INSTR_SIZE):
        try:
            slots.append(Instruction.decode(body[offset:offset + INSTR_SIZE]))
        except InvalidInstruction:
            return None                 # unexpected content: leave as-is
    body_end = len(slots) - 1
    while body_end >= 0 and slots[body_end].op is Op.NOP:
        body_end -= 1
    instructions = slots[:body_end + 1]
    body_slots = len(instructions)
    total_slots = len(slots)
    if body_slots < 1 or total_slots < body_slots * 2 + 1:
        return None                     # not enough slack to vacate it

    # seeded placement: anywhere that keeps old offsets 1..body_slots-1
    # inside the trap region
    max_shift = total_slots - body_slots
    min_shift = body_slots
    span = max_shift - min_shift + 1
    state = seed & 0xFFFF_FFFF
    for byte in name.encode():
        state = (state * 131 + byte) & 0xFFFF_FFFF
    shift = min_shift + state % span
    shift_bytes = shift * INSTR_SIZE

    out = bytearray(TRAP_SLOT * total_slots)
    # entry: jump to the moved body (slot 0 -> slot `shift`)
    entry_jmp = Instruction(Op.JMP, imm=shift_bytes - INSTR_SIZE)
    out[0:INSTR_SIZE] = entry_jmp.encode()
    for index, instr in enumerate(instructions):
        if instr.op in _RIP_RELATIVE_OPS:
            old_target = index * INSTR_SIZE + INSTR_SIZE + instr.imm
            if not 0 <= old_target < body_slots * INSTR_SIZE:
                # external target: absolute position unchanged, so the
                # displacement shrinks by the distance the site moved
                instr = Instruction(instr.op, instr.reg1, instr.reg2,
                                    instr.imm - shift_bytes)
        slot = shift + index
        out[slot * INSTR_SIZE:(slot + 1) * INSTR_SIZE] = instr.encode()
    assert len(out) == len(body)
    return bytes(out)


def diversify_text(target: LoadedImage, space: AddressSpace,
                   seed: int) -> Tuple[bytes, Dict[str, int]]:
    """Produce a diversified copy of the loaded (already HLCALL-patched)
    ``.text`` bytes.  Returns the new bytes and, per function, how many
    instruction slots actually moved (0 == left untouched)."""
    text_start, text_size = target.section_range(".text")
    original = space.read(text_start, text_size, privileged=True)
    diversified = bytearray(original)
    moved: Dict[str, int] = {}
    for sym in target.image.function_symbols():
        if sym.section != ".text":
            continue
        body = original[sym.offset:sym.offset + sym.size]
        new_body = _diversify_function(body, sym.name, seed)
        if new_body is None:
            moved[sym.name] = 0
            continue
        changed = sum(1 for off in range(0, sym.size, INSTR_SIZE)
                      if new_body[off:off + INSTR_SIZE]
                      != body[off:off + INSTR_SIZE])
        moved[sym.name] = changed
        diversified[sym.offset:sym.offset + sym.size] = new_body
    return bytes(diversified), moved


def create_aligned_follower(process: GuestProcess, target: LoadedImage,
                            root_function: str, args: Sequence[int],
                            costs: CostModel
                            ) -> Tuple[FollowerVariant, List[int]]:
    """Build a follower at the *same* addresses with diversified text.

    No pointer scan, no relocation: the image and the heap are private
    copies at identical numeric addresses, in the follower's own view.
    """
    report = VariantReport(shift=0)
    view = AddressSpace(f"{process.name}:aligned-follower")

    # ---- private image copy at the same base, text diversified ----
    for section, _offset, _size in target.image.section_layout():
        start, size = target.section_range(section)
        copied = map_copy(process, view, start, size, 0,
                          f"aligned:{target.tag}:{section}")
        if section == ".text":
            report.text_pages_copied = copied
        else:
            report.support_pages_copied += copied
    new_text, moved = diversify_text(target, process.space, DIVERSITY_SEED)
    view.write(target.section_range(".text")[0], new_text, privileged=True)

    # ---- private heap at the same base ----
    heap = process.heap
    heap_used = heap.used_range()[1] - heap.base
    report.heap_pages_copied = map_copy(
        process, view, heap.base, heap.size, 0, "aligned:heap",
        pages=range(heap.base, heap.base + page_align_up(max(heap_used, 1)),
                    PAGE_SIZE))

    thread, follower_heap, relocator = spawn_follower(
        process, target, costs, report, f"aligned-follower:{root_function}",
        view)
    # no pointers to fix: shift == 0 by construction
    report.relocation = RelocationReport(0)
    report.protected_functions = {name for name, count in moved.items()
                                  if count > 0}

    # same addresses: the follower runs the leader's own image view
    variant = FollowerVariant(target, thread, follower_heap,
                              target.symbol_address(root_function),
                              report, relocator)
    return variant, [relocator.relocate_value(int(a)) for a in args]
