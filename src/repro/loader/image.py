"""Program image format and builder.

An image is the on-disk shape of a guest program: byte content for each
section, a symbol table, the list of libc functions it imports (which
becomes ``.plt``/``.got.plt``), the table of high-level guest functions,
and data relocations.

Hybrid guest model (DESIGN.md §1): a *function* is either

* an **ISA function** — real simulated machine code, written with the
  :class:`~repro.machine.asm.Assembler`; or
* a **high-level (HL) function** — a Python callable executed against a
  guest context.  Its ``.text`` footprint is ``HLCALL idx; RET`` padded
  with NOPs to a declared size, so it has a genuine address range, shows
  up in the symbol table, can be pointed to by function pointers, and its
  return path goes through a *real* ``RET`` on the guest stack (which is
  exactly what the CVE experiment corrupts).

Every control-flow construct emitted here is RIP-relative; MOV_RI of an
absolute address is rejected at build time so images stay genuinely
position independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ImageError, SymbolNotFound
from repro.machine.asm import Assembler
from repro.machine.isa import INSTR_SIZE, Instruction, Op
from repro.machine.memory import page_align_up

#: canonical section order within a loaded image; text-like first so the
#: executable region is contiguous, then read-only data, then writable.
SECTION_ORDER = (".text", ".plt", ".rodata", ".got.plt", ".data", ".bss")

EXEC_SECTIONS = (".text", ".plt")
WRITABLE_SECTIONS = (".got.plt", ".data", ".bss")

#: bytes per PLT entry: JMP_M <got slot> ; NOP
PLT_ENTRY_SIZE = 2 * INSTR_SIZE


#: ``(section, offset_from_base, size)`` of every section, in load order
Layout = Tuple[Tuple[str, int, int], ...]


def lay_out(sizes: Dict[str, int]) -> Tuple[Layout, int]:
    """Place each section on pages of its own, in load order; returns the
    layout and the load size.  A section ``sizes`` does not name is empty
    and still takes a page."""
    layout = []
    offset = 0
    for section in SECTION_ORDER:
        size = sizes.get(section, 0)
        layout.append((section, offset, size))
        offset += page_align_up(max(size, 1))
    return tuple(layout), offset


@dataclass(frozen=True)
class Symbol:
    """One symbol-table entry (offsets are section-relative)."""

    name: str
    section: str
    offset: int
    size: int
    kind: str = "func"        # "func" | "object"


@dataclass
class HLFunction:
    """A high-level guest function and its calling metadata."""

    name: str
    fn: Callable
    arity: int
    variadic: bool = False
    #: statically declared callees (guest functions and libc names); the
    #: call-graph analysis combines these with CALL-target extraction from
    #: ISA functions to compute protected subtrees (paper Figure 2).
    calls: Tuple[str, ...] = ()


@dataclass
class DataRelocation:
    """`mem64[section+offset] = address_of(target) + addend` at load time.

    These model link-time initialized pointers (e.g. a static table of
    handler function pointers) — the very pointers the sMVX relocator must
    find and fix in the follower variant.
    """

    section: str
    offset: int
    target: str
    addend: int = 0


@dataclass
class ProgramImage:
    """The built, immutable program image."""

    name: str
    sections: Dict[str, bytes]
    bss_size: int
    symbols: List[Symbol]
    hl_functions: List[HLFunction]
    #: (text_offset, local_hl_index) of every HLCALL site, for loader fixup
    hl_sites: List[Tuple[int, int]]
    plt_imports: List[str]
    relocations: List[DataRelocation]

    def __post_init__(self) -> None:
        self._by_name = {sym.name: sym for sym in self.symbols}
        # a built image never changes, so it is laid out once
        sizes = {name: len(data) for name, data in self.sections.items()}
        sizes[".bss"] = self.bss_size
        self._layout, self.load_size = lay_out(sizes)

    def symbol(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise SymbolNotFound(name) from None

    def has_symbol(self, name: str) -> bool:
        return name in self._by_name

    def function_symbols(self) -> List[Symbol]:
        return [s for s in self.symbols if s.kind == "func"]

    def section_layout(self) -> Layout:
        """Return ``(section, offset_from_base, size)`` with page alignment,
        in load order."""
        return self._layout


class ImageBuilder:
    """Assembles functions and data into a :class:`ProgramImage`."""

    def __init__(self, name: str):
        self.name = name
        self._isa_functions: List[Tuple[str, Assembler, int]] = []
        self._hl_functions: List[Tuple[str, HLFunction, int]] = []
        self._rodata: List[Tuple[str, bytes]] = []
        self._data: List[Tuple[str, bytes]] = []
        self._bss: List[Tuple[str, int]] = []
        self._plt_imports: List[str] = []
        self._relocations: List[Tuple[str, int, str, int]] = []  # by data sym
        self._entry: Optional[str] = None

    # -- code -------------------------------------------------------------------

    def add_isa_function(self, name: str, assembler: Assembler,
                         pad_to: int = 0) -> None:
        self._isa_functions.append((name, assembler, pad_to))

    def add_hl_function(self, name: str, fn: Callable, arity: int,
                        size: int = 4 * INSTR_SIZE,
                        variadic: bool = False,
                        calls: Sequence[str] = ()) -> None:
        """Register an HL function occupying ``size`` bytes of ``.text``.

        ``size`` lets applications give functions realistic footprints so
        RSS measurements (and page-granular variant cloning) behave like
        the paper's binaries.  ``calls`` declares static callees for the
        call-graph analysis (ISA functions don't need this — their CALL
        targets are extracted by disassembly).
        """
        if size < 2 * INSTR_SIZE:
            raise ImageError("HL function needs at least HLCALL+RET")
        self._hl_functions.append(
            (name, HLFunction(name, fn, arity, variadic, tuple(calls)),
             size))

    def import_libc(self, *names: str) -> None:
        for name in names:
            if name not in self._plt_imports:
                self._plt_imports.append(name)

    # -- data --------------------------------------------------------------------

    def add_rodata(self, name: str, content: bytes) -> None:
        self._rodata.append((name, content))

    def add_data(self, name: str, content: bytes) -> None:
        self._data.append((name, content))

    def add_bss(self, name: str, size: int) -> None:
        self._bss.append((name, size))

    def add_data_pointer(self, name: str, target: str,
                         addend: int = 0) -> None:
        """A pointer-sized ``.data`` object initialized to ``&target``."""
        self._data.append((name, b"\x00" * 8))
        self._relocations.append((name, 0, target, addend))

    def add_pointer_table(self, name: str, targets: Sequence[str]) -> None:
        """An array of function/data pointers (e.g. a handler table)."""
        self._data.append((name, b"\x00" * (8 * len(targets))))
        for index, target in enumerate(targets):
            self._relocations.append((name, 8 * index, target, 0))

    # -- build --------------------------------------------------------------------

    def build(self) -> ProgramImage:
        symbols: List[Symbol] = []
        hl_table: List[HLFunction] = []
        hl_sites: List[Tuple[int, int]] = []

        # ---- lay out .text ----
        text_offsets: Dict[str, int] = {}
        cursor = 0
        pieces: List[Tuple[str, object, int, int]] = []  # name, src, off, size
        for name, assembler, pad_to in self._isa_functions:
            size = max(len(assembler) * INSTR_SIZE, pad_to)
            size = ((size + INSTR_SIZE - 1) // INSTR_SIZE) * INSTR_SIZE
            pieces.append((name, assembler, cursor, size))
            text_offsets[name] = cursor
            cursor += size
        for name, hl, size in self._hl_functions:
            size = ((size + INSTR_SIZE - 1) // INSTR_SIZE) * INSTR_SIZE
            pieces.append((name, hl, cursor, size))
            text_offsets[name] = cursor
            cursor += size
        text_size = cursor

        # ---- lay out remaining sections (offsets within each section) ----
        plt_size = len(self._plt_imports) * PLT_ENTRY_SIZE
        rodata_offsets, rodata_size = self._layout(self._rodata)
        gotplt_size = max(8 * len(self._plt_imports), 8)
        data_offsets, data_size = self._layout(self._data)
        bss_offsets, bss_size = self._layout_sizes(self._bss)

        layout_for = {".text": text_offsets,
                      ".rodata": rodata_offsets,
                      ".data": data_offsets,
                      ".bss": bss_offsets}

        # ---- section bases for a base-0 load (for assembly) ----
        layout, _load_size = lay_out({
            ".text": text_size, ".plt": plt_size, ".rodata": rodata_size,
            ".got.plt": gotplt_size, ".data": data_size, ".bss": bss_size})
        section_base = {section: offset for section, offset, _ in layout}

        def absolute(name: str) -> int:
            for section, table in layout_for.items():
                if name in table:
                    return section_base[section] + table[name]
            if name in self._plt_imports:
                return (section_base[".plt"]
                        + self._plt_imports.index(name) * PLT_ENTRY_SIZE)
            raise ImageError(
                f"{self.name}: unresolved symbol {name!r}")

        externals = {}
        for table_section, table in layout_for.items():
            for sym_name in table:
                externals[sym_name] = absolute(sym_name)
        for import_name in self._plt_imports:
            externals.setdefault(f"{import_name}@plt", absolute(import_name))

        # ---- emit .text ----
        text = bytearray(text_size)
        for name, source, func_offset, size in pieces:
            if isinstance(source, Assembler):
                code = source.assemble(section_base[".text"] + func_offset,
                                       externals=externals)
                if len(code) > size:
                    raise ImageError(f"{name}: code exceeds padded size")
                text[func_offset:func_offset + len(code)] = code
                self._pad_nops(text, func_offset + len(code),
                               func_offset + size)
                symbols.append(Symbol(name, ".text", func_offset, size))
            else:
                local_index = len(hl_table)
                hl_table.append(source)
                entry = Instruction(Op.HLCALL, imm=local_index).encode()
                ret = Instruction(Op.RET).encode()
                text[func_offset:func_offset + INSTR_SIZE] = entry
                text[func_offset + INSTR_SIZE:
                     func_offset + 2 * INSTR_SIZE] = ret
                self._pad_nops(text, func_offset + 2 * INSTR_SIZE,
                               func_offset + size)
                hl_sites.append((func_offset, local_index))
                symbols.append(Symbol(name, ".text", func_offset, size))

        # ---- emit .plt: JMP_M through the matching .got.plt slot ----
        plt = bytearray(plt_size)
        for index, import_name in enumerate(self._plt_imports):
            entry_offset = index * PLT_ENTRY_SIZE
            entry_addr = section_base[".plt"] + entry_offset
            slot_addr = section_base[".got.plt"] + 8 * index
            displacement = slot_addr - (entry_addr + INSTR_SIZE)
            jmp = Instruction(Op.JMP_M, imm=displacement).encode()
            plt[entry_offset:entry_offset + INSTR_SIZE] = jmp
            plt[entry_offset + INSTR_SIZE:
                entry_offset + 2 * INSTR_SIZE] = Instruction(Op.NOP).encode()
            symbols.append(Symbol(f"{import_name}@plt", ".plt",
                                  entry_offset, PLT_ENTRY_SIZE))

        # ---- emit data sections ----
        rodata = self._emit(self._rodata, rodata_offsets, rodata_size)
        data = self._emit(self._data, data_offsets, data_size)
        for name, content in self._rodata:
            symbols.append(Symbol(name, ".rodata", rodata_offsets[name],
                                  len(content), "object"))
        for name, content in self._data:
            symbols.append(Symbol(name, ".data", data_offsets[name],
                                  len(content), "object"))
        for name, size in self._bss:
            symbols.append(Symbol(name, ".bss", bss_offsets[name], size,
                                  "object"))

        relocations = []
        data_offset_by_name = data_offsets
        for sym_name, rel_offset, target, addend in self._relocations:
            relocations.append(DataRelocation(
                ".data", data_offset_by_name[sym_name] + rel_offset,
                target, addend))

        return ProgramImage(
            name=self.name,
            sections={".text": bytes(text), ".plt": bytes(plt),
                      ".rodata": rodata,
                      ".got.plt": b"\x00" * gotplt_size,
                      ".data": data},
            bss_size=bss_size,
            symbols=symbols,
            hl_functions=hl_table,
            hl_sites=hl_sites,
            plt_imports=list(self._plt_imports),
            relocations=relocations,
        )

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _pad_nops(buf: bytearray, start: int, end: int) -> None:
        nop = Instruction(Op.NOP).encode()
        for offset in range(start, end, INSTR_SIZE):
            buf[offset:offset + INSTR_SIZE] = nop

    @staticmethod
    def _layout(items: List[Tuple[str, bytes]]) -> Tuple[Dict[str, int], int]:
        offsets: Dict[str, int] = {}
        cursor = 0
        for name, content in items:
            if name in offsets:
                raise ImageError(f"duplicate data symbol {name!r}")
            offsets[name] = cursor
            cursor += max(len(content), 1)
            cursor = (cursor + 7) & ~7          # keep 8-byte alignment
        return offsets, cursor

    @staticmethod
    def _layout_sizes(items: List[Tuple[str, int]]) -> Tuple[Dict[str, int], int]:
        offsets: Dict[str, int] = {}
        cursor = 0
        for name, size in items:
            offsets[name] = cursor
            cursor += max(size, 1)
            cursor = (cursor + 7) & ~7
        return offsets, cursor

    @staticmethod
    def _emit(items: List[Tuple[str, bytes]], offsets: Dict[str, int],
              total: int) -> bytes:
        buf = bytearray(total)
        for name, content in items:
            start = offsets[name]
            buf[start:start + len(content)] = content
        return bytes(buf)
