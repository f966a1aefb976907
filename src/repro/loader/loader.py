"""The dynamic loader: maps images, links imports, tracks symbols.

Responsibilities mirroring ``ld.so`` at the fidelity sMVX needs:

* place each image at a base address (caller-chosen or allocator-chosen,
  so ASLR-style randomization and deliberate non-overlap are both easy);
* materialize sections with correct permissions (``.text``/``.plt``
  executable, ``.rodata`` read-only, ``.got.plt``/``.data``/``.bss``
  writable);
* perform eager dynamic linking: fill ``.got.plt`` slots with exported
  addresses from previously loaded images (our "libc.so");
* apply data relocations (statically initialized pointers);
* patch ``HLCALL`` operands from image-local to process-global indices;
* answer ``address -> containing function`` queries (the r2pipe analogue
  used by the taint report and the profiler).

The sMVX monitor reuses :meth:`Loader.got_slot_address` +
:meth:`Loader.patch_got_slot` to interpose its trampoline stubs on libc
calls, and :meth:`Loader.register_shifted_copy` to describe the follower
variant's relocated image.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

from repro.errors import ImageError, SymbolNotFound
from repro.loader.image import (
    EXEC_SECTIONS,
    HLFunction,
    ProgramImage,
    Symbol,
)
from repro.machine.isa import INSTR_SIZE, Instruction, Op
from repro.machine.memory import (
    AddressSpace,
    PROT_READ,
    PROT_RW,
    PROT_RX,
    page_align_up,
)


class LoadedImage:
    """One image mapped at a base address."""

    def __init__(self, image: ProgramImage, base: int,
                 hl_index_base: int, tag: str):
        self.image = image
        self.base = base
        #: one past the last mapped byte (a built image never changes)
        self.end = base + image.load_size
        self.hl_index_base = hl_index_base
        self.tag = tag
        #: section -> (start, size), from the image's one layout
        self._sections = {section: (base + offset, size)
                          for section, offset, size in image.section_layout()}
        # sorted function table for address -> symbol lookup
        self._func_syms = sorted(
            (self.symbol_address(sym.name), sym)
            for sym in image.symbols if sym.kind == "func")
        self._func_addrs = [addr for addr, _ in self._func_syms]

    # -- symbols --------------------------------------------------------------

    def symbol_address(self, name: str) -> int:
        sym = self.image.symbol(name)
        return self._sections[sym.section][0] + sym.offset

    def has_symbol(self, name: str) -> bool:
        return self.image.has_symbol(name)

    def function_at(self, addr: int) -> Optional[Symbol]:
        """The function whose ``[start, start+size)`` range covers addr."""
        index = bisect.bisect_right(self._func_addrs, addr) - 1
        if index < 0:
            return None
        start, sym = self._func_syms[index]
        if start <= addr < start + sym.size:
            return sym
        return None

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def section_range(self, section: str) -> Tuple[int, int]:
        try:
            return self._sections[section]
        except KeyError:
            raise ImageError(f"no section {section!r}") from None

    def got_slot_address(self, import_name: str) -> int:
        try:
            index = self.image.plt_imports.index(import_name)
        except ValueError:
            raise SymbolNotFound(f"{import_name} (not imported by "
                                 f"{self.image.name})") from None
        return self._sections[".got.plt"][0] + 8 * index


class Loader:
    """Loads images into one address space and links them together."""

    def __init__(self, space: AddressSpace):
        self.space = space
        self.images: List[LoadedImage] = []
        self.hl_table: List[Tuple[HLFunction, "LoadedImage"]] = []
        self._exports: Dict[str, int] = {}
        self._next_base = 0x0000_5555_0000_0000  # PIE-ish default area

    # -- loading ------------------------------------------------------------------

    def load(self, image: ProgramImage, base: Optional[int] = None,
             tag: Optional[str] = None, pkey: int = 0,
             verify: bool = False) -> LoadedImage:
        if verify:
            # opt-in pre-load verification: refuse images carrying a
            # PKRU-write gadget or undecodable function bodies
            from repro.analysis.verify import verify_image
            report = verify_image(image)
            if not report.ok:
                raise ImageError(
                    f"{image.name}: static verification failed:\n"
                    + "\n".join(f.format() for f in report.errors))
        if base is None:
            base = self._next_base
            self._next_base += page_align_up(image.load_size) + 0x10000
        tag = tag or image.name
        hl_index_base = len(self.hl_table)
        loaded = LoadedImage(image, base, hl_index_base, tag)

        for section, offset, size in image.section_layout():
            prot = (PROT_RX if section in EXEC_SECTIONS
                    else PROT_READ if section == ".rodata"
                    else PROT_RW)
            self.space.mmap(base + offset, max(size, 1), prot=prot,
                            pkey=pkey, tag=f"{tag}:{section}")
            content = image.sections.get(section)
            if content:
                if section == ".text":
                    content = self._patch_hlcalls(image, content,
                                                  hl_index_base)
                self.space.write(base + offset, content, privileged=True)

        for hl in image.hl_functions:
            self.hl_table.append((hl, loaded))

        self._link_imports(loaded)
        self._apply_relocations(loaded)

        for sym in image.symbols:
            # later images win on name clashes, like symbol interposition
            self._exports[sym.name] = loaded.symbol_address(sym.name)
        self.images.append(loaded)
        return loaded

    @staticmethod
    def _patch_hlcalls(image: ProgramImage, text: bytes,
                       hl_index_base: int) -> bytes:
        buf = bytearray(text)
        for offset, local_index in image.hl_sites:
            patched = Instruction(Op.HLCALL,
                                  imm=hl_index_base + local_index)
            buf[offset:offset + INSTR_SIZE] = patched.encode()
        return bytes(buf)

    def _link_imports(self, loaded: LoadedImage) -> None:
        got = loaded.section_range(".got.plt")[0]
        for index, name in enumerate(loaded.image.plt_imports):
            target = self._exports.get(name)
            if target is None:
                raise ImageError(
                    f"{loaded.image.name}: unresolved import {name!r}")
            self.space.write_word(got + 8 * index, target, privileged=True)

    def _apply_relocations(self, loaded: LoadedImage) -> None:
        for rel in loaded.image.relocations:
            if loaded.has_symbol(rel.target):
                target = loaded.symbol_address(rel.target)
            else:
                target = self._exports.get(rel.target)
                if target is None:
                    raise ImageError(
                        f"{loaded.image.name}: relocation against unknown "
                        f"symbol {rel.target!r}")
            address = loaded.section_range(rel.section)[0] + rel.offset
            self.space.write_word(address, target + rel.addend,
                                  privileged=True)

    # -- queries -----------------------------------------------------------------------

    def resolve(self, name: str) -> int:
        try:
            return self._exports[name]
        except KeyError:
            raise SymbolNotFound(name) from None

    def image_at(self, addr: int) -> Optional[LoadedImage]:
        for loaded in self.images:
            if loaded.contains(addr):
                return loaded
        return None

    def function_at(self, addr: int) -> Optional[Tuple[LoadedImage, Symbol]]:
        loaded = self.image_at(addr)
        if loaded is None:
            return None
        sym = loaded.function_at(addr)
        return (loaded, sym) if sym is not None else None

    # -- interposition (used by the sMVX monitor) -----------------------------------------

    def got_slot_address(self, loaded: LoadedImage, name: str) -> int:
        return loaded.got_slot_address(name)

    def read_got_slot(self, loaded: LoadedImage, name: str) -> int:
        return self.space.read_word(loaded.got_slot_address(name),
                                    privileged=True)

    def patch_got_slot(self, loaded: LoadedImage, name: str,
                       target: int) -> int:
        """Point a ``.got.plt`` slot somewhere else; returns the old value."""
        slot = loaded.got_slot_address(name)
        old = self.space.read_word(slot, privileged=True)
        self.space.write_word(slot, target, privileged=True)
        return old

    # -- follower-variant support ------------------------------------------------------------

    def register_shifted_copy(self, original: LoadedImage, shift: int,
                              tag: str) -> LoadedImage:
        """Describe an already-copied image at ``original.base + shift``.

        The caller (sMVX variant creation) is responsible for having copied
        the page contents; PIE code plus process-global ``HLCALL`` indices
        make the bytes valid at the new base as-is.
        """
        copy = LoadedImage(original.image, original.base + shift,
                           original.hl_index_base, tag)
        self.images.append(copy)
        return copy

    def unregister(self, loaded: LoadedImage) -> None:
        """Forget an image view (follower teardown at mvx_end)."""
        self.images.remove(loaded)
