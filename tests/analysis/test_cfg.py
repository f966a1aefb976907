"""Tests for per-function CFG recovery (repro.analysis.cfg)."""

import pytest

from repro.analysis.cfg import (
    TOP,
    FunctionCFG,
    function_cfg,
    image_cfgs,
    recover_cfg,
    solve,
    symbol_resolver,
)
from repro.loader import ImageBuilder
from repro.machine import Assembler
from repro.machine.isa import INSTR_SIZE, Instruction, Op


def asm_bytes(build):
    a = Assembler()
    build(a)
    return a.assemble(0)


def test_straight_line_is_one_block():
    code = asm_bytes(lambda a: (a.mov_ri("rax", 1), a.add_ri("rax", 2),
                                a.ret()))
    cfg = recover_cfg(code, base=0, name="f")
    assert len(cfg.blocks) == 1
    block = cfg.blocks[0]
    assert [i.op for _, i in block.instructions] == \
        [Op.MOV_RI, Op.ADD_RI, Op.RET]
    assert block.successors == ()
    assert cfg.instruction_count == 3


def test_conditional_branch_splits_blocks_and_wires_edges():
    def build(a):
        a.cmp_ri("rdi", 0)          # 0x00
        a.je("done")                # 0x10 -> taken target + fallthrough
        a.mov_ri("rax", 1)          # 0x20
        a.label("done")
        a.ret()                     # 0x30
    cfg = recover_cfg(asm_bytes(build), base=0, name="f")
    assert set(cfg.blocks) == {0x00, 0x20, 0x30}
    entry = cfg.blocks[0x00]
    assert set(entry.successors) == {0x20, 0x30}
    assert cfg.blocks[0x20].successors == (0x30,)
    assert cfg.reachable_blocks() == {0x00, 0x20, 0x30}


def test_backward_jump_makes_loop_edge():
    def build(a):
        a.mov_ri("rcx", 4)          # 0x00
        a.label("loop")
        a.sub_ri("rcx", 1)          # 0x10
        a.cmp_ri("rcx", 0)          # 0x20
        a.jne("loop")               # 0x30 -> back edge
        a.ret()                     # 0x40
    cfg = recover_cfg(asm_bytes(build), base=0, name="f")
    loop_head = cfg.blocks[0x10]
    branch_block = cfg.block_at(0x30)
    assert 0x10 in branch_block.successors
    assert 0x40 in branch_block.successors
    assert loop_head.start == 0x10


def test_call_records_site_and_falls_through():
    builder = ImageBuilder("cfgapp")
    helper = Assembler()
    helper.ret()
    builder.add_isa_function("helper", helper)
    caller = Assembler()
    caller.call("helper")
    caller.ret()
    builder.add_isa_function("caller", caller)
    image = builder.build()
    cfg = function_cfg(image, image.symbol("caller"))
    assert len(cfg.call_sites) == 1
    site, target = cfg.call_sites[0]
    assert target == image.symbol("helper").offset
    # the call is a block terminator with a fall-through successor
    assert cfg.block_at(site).successors == (site + INSTR_SIZE,)


def test_indirect_sites_marked_not_dropped():
    def build(a):
        a.call_r("rax")             # 0x00
        a.jmp_r("rbx")              # 0x10
    cfg = recover_cfg(asm_bytes(build), base=0, name="f")
    assert cfg.indirect_sites == [0x00, 0x10]
    assert cfg.block_at(0x00).has_indirect_successor
    # register jump has no statically known successors
    assert cfg.block_at(0x10).successors == ()
    # the register call still gets an (unknown-target) call site
    assert (0x00, None) in cfg.call_sites


def test_escaping_jump_recorded():
    def build(a):
        a.jmp(0x100)                # far outside this 1-instruction body
    cfg = recover_cfg(asm_bytes(build), base=0, name="f")
    assert len(cfg.escapes) == 1
    site, target = cfg.escapes[0]
    # numeric immediates of RIP-relative ops are absolute targets
    assert site == 0 and target == 0x100


def test_invalid_slots_reported_and_decoding_resumes():
    good = asm_bytes(lambda a: (a.mov_ri("rax", 1),))
    junk = b"\xff" * INSTR_SIZE
    tail = asm_bytes(lambda a: (a.ret(),))
    cfg = recover_cfg(good + junk + tail, base=0, name="f")
    assert cfg.invalid_slots == [INSTR_SIZE]
    # the slot after the hole starts a fresh block
    assert 2 * INSTR_SIZE in cfg.blocks
    assert cfg.instruction_count == 2


def test_trailing_partial_slot_ignored():
    code = asm_bytes(lambda a: (a.ret(),)) + b"\x00" * 5
    cfg = recover_cfg(code, base=0, name="f")
    assert cfg.invalid_slots == []
    assert cfg.instruction_count == 1


def test_image_cfgs_cover_every_text_function():
    from repro.apps.minx import build_minx_image
    image = build_minx_image()
    cfgs = image_cfgs(image)
    text_funcs = {s.name for s in image.function_symbols()
                  if s.section == ".text"}
    assert set(cfgs) == text_funcs
    for cfg in cfgs.values():
        assert isinstance(cfg, FunctionCFG)
        assert cfg.entry in cfg.blocks or cfg.instruction_count == 0


def test_symbol_resolver_maps_text_and_plt():
    from repro.apps.minx import build_minx_image
    image = build_minx_image()
    resolve = symbol_resolver(image)
    sym = image.symbol("minx_http_process_request_line")
    assert resolve(sym.offset) == "minx_http_process_request_line"
    assert resolve(sym.offset + sym.size - INSTR_SIZE) == sym.name
    # a PLT entry resolves through the layout displacement
    layout = {name: (off, size) for name, off, size
              in image.section_layout()}
    plt_sym = image.symbol(f"{image.plt_imports[0]}@plt")
    plt_offset = (layout[".plt"][0] - layout[".text"][0]) + plt_sym.offset
    assert resolve(plt_offset) == plt_sym.name
    assert resolve(10**9) is None


# ---------------------------------------------------------------------------
# solve: the one fixpoint loop of the dataflow passes
# ---------------------------------------------------------------------------

def _constants(visits):
    """A toy constant-propagation pass that logs every transfer."""
    def transfer(state, addr, instr):
        visits.append(addr)
        if instr.op is Op.MOV_RI:
            state[instr.reg1] = instr.imm
        elif instr.op in (Op.ADD_RI, Op.SUB_RI):
            value = state.get(instr.reg1, TOP)
            sign = 1 if instr.op is Op.ADD_RI else -1
            state[instr.reg1] = (TOP if value is TOP
                                 else value + sign * instr.imm)

    def join(old, new):
        return {reg: value if new.get(reg, TOP) == value else TOP
                for reg, value in old.items()}

    return transfer, join


def test_solve_revisits_a_loop_header_until_join_stops_changing():
    def build(a):
        a.mov_ri("rcx", 4)          # 0x00
        a.label("loop")
        a.sub_ri("rcx", 1)          # 0x10  loop header
        a.cmp_ri("rcx", 0)          # 0x20
        a.jne("loop")               # 0x30 -> back edge, then 0x40
        a.ret()                     # 0x40
    cfg = recover_cfg(asm_bytes(build), base=0, name="f")
    visits = []
    states = solve(cfg, {}, *_constants(visits))
    # the back edge widens the header's rcx from 4 to TOP, so the header
    # runs again; the second pass brings TOP back, and join keeps it.
    # LIFO with successors pushed in CFG order: the exit block (pushed
    # last) runs before the revisited header.
    blocks = [addr for addr in visits if addr in cfg.blocks]
    assert blocks == [0x00, 0x10, 0x40, 0x10, 0x40]
    assert states[0x10] == {"rcx": TOP}
    assert states[0x40] == {"rcx": TOP}


def test_solve_terminates_on_a_self_loop():
    def build(a):
        a.label("spin")
        a.add_ri("rax", 1)          # 0x00
        a.jmp("spin")               # 0x10 -> itself
    cfg = recover_cfg(asm_bytes(build), base=0, name="f")
    assert cfg.blocks[0x00].successors == (0x00,)
    visits = []
    states = solve(cfg, {"rax": 0}, *_constants(visits))
    assert visits == [0x00, 0x10, 0x00, 0x10]
    assert states == {0x00: {"rax": TOP}}


def test_solve_never_transfers_an_unreachable_block():
    def build(a):
        a.mov_ri("rax", 1)          # 0x00
        a.ret()                     # 0x10
        a.mov_ri("rax", 2)          # 0x20  dead: nothing jumps here
        a.ret()                     # 0x30
    cfg = recover_cfg(asm_bytes(build), base=0, name="f")
    assert 0x20 in cfg.blocks
    visits = []
    states = solve(cfg, {}, *_constants(visits))
    assert visits == [0x00, 0x10]
    assert set(states) == {0x00}
