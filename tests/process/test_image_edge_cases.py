"""Edge cases in image building and loading."""

import pytest

from repro.errors import ImageError, SymbolNotFound
from repro.kernel import Kernel
from repro.libc import build_libc_image
from repro.loader import ImageBuilder
from repro.loader.image import PLT_ENTRY_SIZE, SECTION_ORDER
from repro.machine import Assembler, Instruction, Op, PAGE_SIZE
from repro.machine.isa import INSTR_SIZE
from repro.process import GuestProcess


def test_duplicate_data_symbol_rejected():
    builder = ImageBuilder("dup")
    builder.add_data("x", b"a")
    builder.add_data("x", b"b")
    with pytest.raises(ImageError):
        builder.build()


def test_hl_function_minimum_size_enforced():
    builder = ImageBuilder("tiny")
    with pytest.raises(ImageError):
        builder.add_hl_function("f", lambda ctx: 0, 0, size=INSTR_SIZE)


def test_pad_to_is_a_minimum_not_a_cap():
    builder = ImageBuilder("grows")
    a = Assembler()
    for _ in range(10):
        a.nop()
    a.ret()
    builder.add_isa_function("big", a, pad_to=2 * INSTR_SIZE)
    image = builder.build()
    assert image.symbol("big").size == 11 * INSTR_SIZE   # grew to fit
    small = ImageBuilder("padded")
    b = Assembler()
    b.ret()
    small.add_isa_function("tiny", b, pad_to=8 * INSTR_SIZE)
    assert small.build().symbol("tiny").size == 8 * INSTR_SIZE


def test_section_order_is_canonical():
    assert SECTION_ORDER == (".text", ".plt", ".rodata", ".got.plt",
                             ".data", ".bss")
    builder = ImageBuilder("ordered")
    builder.add_hl_function("f", lambda ctx: 0, 0)
    image = builder.build()
    offsets = [offset for _name, offset, _size in image.section_layout()]
    assert offsets == sorted(offsets)


def test_plt_entries_are_jmp_m():
    builder = ImageBuilder("plt")
    builder.import_libc("read", "write")
    builder.add_hl_function("f", lambda ctx: 0, 0)
    image = builder.build()
    plt = image.sections[".plt"]
    assert len(plt) == 2 * PLT_ENTRY_SIZE
    first = Instruction.decode(plt[:INSTR_SIZE])
    assert first.op is Op.JMP_M
    second = Instruction.decode(plt[PLT_ENTRY_SIZE:
                                    PLT_ENTRY_SIZE + INSTR_SIZE])
    assert second.op is Op.JMP_M
    # each entry's displacement targets its own GOT slot: they differ by
    # 8 (slot stride) minus the entry stride
    assert second.imm == first.imm + 8 - PLT_ENTRY_SIZE


def test_import_deduplication():
    builder = ImageBuilder("dedup")
    builder.import_libc("read", "read", "write", "read")
    builder.add_hl_function("f", lambda ctx: 0, 0)
    image = builder.build()
    assert image.plt_imports == ["read", "write"]


def test_hl_sites_match_entry_offsets():
    builder = ImageBuilder("sites")
    builder.add_hl_function("a", lambda ctx: 1, 0)
    builder.add_hl_function("b", lambda ctx: 2, 0)
    image = builder.build()
    assert len(image.hl_sites) == 2
    for (offset, local_index), name in zip(image.hl_sites, ("a", "b")):
        assert image.symbol(name).offset == offset
        instr = Instruction.decode(
            image.sections[".text"][offset:offset + INSTR_SIZE])
        assert instr.op is Op.HLCALL
        assert instr.imm == local_index


def test_loader_patches_hl_indices_globally():
    kernel = Kernel()
    proc = GuestProcess(kernel, "p")
    proc.load_image(build_libc_image(), tag="libc")   # many HL functions

    builder = ImageBuilder("second")
    builder.add_hl_function("mine", lambda ctx: 1234, 0)
    loaded = proc.load_image(builder.build())
    entry = loaded.symbol_address("mine")
    raw = proc.space.read(entry, INSTR_SIZE, privileged=True)
    instr = Instruction.decode(raw)
    # the local index 0 was rebased past libc's table
    assert instr.imm >= 40
    assert proc.call_function("mine") == 1234


def test_relocation_against_unknown_symbol_fails():
    builder = ImageBuilder("badrel")
    builder.add_hl_function("f", lambda ctx: 0, 0)
    builder.add_data_pointer("p", "ghost")
    image = builder.build()
    proc = GuestProcess(Kernel(), "p")
    with pytest.raises(ImageError):
        proc.load_image(image)


def test_bss_is_zero_and_writable():
    builder = ImageBuilder("bss")
    builder.add_hl_function("f", lambda ctx: 0, 0)
    builder.add_bss("arena", 3 * PAGE_SIZE)
    proc = GuestProcess(Kernel(), "p")
    loaded = proc.load_image(builder.build())
    arena = loaded.symbol_address("arena")
    assert proc.space.read(arena, 64, privileged=True) == b"\x00" * 64
    proc.space.write(arena, b"live")      # RW as guest
    assert proc.space.read(arena, 4) == b"live"


def test_rodata_not_writable_by_guest():
    from repro.errors import SegmentationFault
    builder = ImageBuilder("ro")
    builder.add_hl_function("f", lambda ctx: 0, 0)
    builder.add_rodata("constant", b"fixed")
    proc = GuestProcess(Kernel(), "p")
    loaded = proc.load_image(builder.build())
    with pytest.raises(SegmentationFault):
        proc.space.write(loaded.symbol_address("constant"), b"x")


def test_shifted_copy_view_symbol_math():
    builder = ImageBuilder("shifty")
    builder.add_hl_function("f", lambda ctx: 7, 0)
    proc = GuestProcess(Kernel(), "p")
    loaded = proc.load_image(builder.build())
    inside = loaded.symbol_address("f") + 0x1000_0000
    assert proc.loader.image_at(inside) is None
    copy = proc.loader.register_shifted_copy(loaded, 0x1000_0000, "copy")
    assert copy.symbol_address("f") == inside
    assert copy.tag == "copy"
    assert proc.loader.image_at(inside) is copy
    proc.loader.unregister(copy)
    assert copy not in proc.loader.images
    assert proc.loader.image_at(inside) is None


def test_image_at_first_last_and_one_past_end():
    builder = ImageBuilder("edges")
    builder.add_hl_function("f", lambda ctx: 0, 0)
    builder.add_data("blob", b"x" * 100)
    proc = GuestProcess(Kernel(), "p")
    libc = proc.load_image(build_libc_image(), tag="libc")
    app = proc.load_image(builder.build())
    copy = proc.loader.register_shifted_copy(app, 0x1000_0000, "copy")
    for loaded in (libc, app, copy):
        assert loaded.end == loaded.base + loaded.image.load_size
        assert proc.loader.image_at(loaded.base) is loaded
        assert proc.loader.image_at(loaded.end - 1) is loaded
        assert loaded.contains(loaded.end - 1)
        assert not loaded.contains(loaded.end)
        past = proc.loader.image_at(loaded.end)
        assert past is not loaded
        assert past is None or past.base == loaded.end   # an adjacent image
        before = proc.loader.image_at(loaded.base - 1)
        assert before is not loaded
    assert copy.end - app.end == 0x1000_0000


def test_function_at_boundaries():
    builder = ImageBuilder("bounds")
    builder.add_hl_function("first", lambda ctx: 0, 0, size=64)
    builder.add_hl_function("second", lambda ctx: 0, 0, size=64)
    proc = GuestProcess(Kernel(), "p")
    loaded = proc.load_image(builder.build())
    first = loaded.symbol_address("first")
    assert loaded.function_at(first).name == "first"
    assert loaded.function_at(first + 63).name == "first"
    assert loaded.function_at(first + 64).name == "second"
    assert loaded.function_at(first - 1) is None
