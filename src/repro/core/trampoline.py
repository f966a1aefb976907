"""The sMVX monitor image: interposition stubs, MPK gates, safe stacks.

Reproduces Figure 4's execution flow.  At ``setup_mvx()`` time the monitor
builds a small shared object containing, per libc import of the target:

* ``stub_<i>`` — two real instructions: ``PUSH_I i; JMP common``.  The
  target's ``.got.plt`` slots are re-pointed at these stubs, so every PLT
  call funnels through the monitor.  (The paper patches the PLT bytes; we
  patch the GOT slot the PLT entry already jumps through — structurally
  equivalent, and it survives the follower's shift-and-clone because the
  slot holds an absolute stub address.)
* ``common`` — the trampoline: saves ``rax/rcx/rdx`` on the unsafe stack
  (``rax`` carries the variadic count, ``rcx/rdx`` are argument registers
  that ``wrpkru`` clobbers), opens the monitor's protection key with a
  real ``WRPKRU``, calls the reference-monitor gate, then closes the key
  (parking the return value in ``r10`` across the second ``WRPKRU``),
  drops the four saved words, and returns to the application call site.
* ``smvx_gate`` — the reference monitor entry: reads the saved registers
  and PLT index off the unsafe stack, **pivots to a per-thread safe stack
  inside monitor-keyed memory**, and dispatches to the monitor logic
  (lockstep sync or passthrough).

The monitor's text pages are made execute-only (XoM) under the monitor
pkey and the image is loaded at a randomized base, reproducing the
MonGuard-style code hiding the paper builds on.

On the interpreter's fast tier the CPU retires a warm intercepted call,
stub through trampoline, gate and close sequence, in one step
(``CPU._run_interposed`` in ``machine/cpu.py``), with exactly the effects
of running its 21 instructions.  It recognises the path from these
instructions; nothing here registers it.  So the image's bytes, and the
static verifier's proof of the ``WRPKRU`` gate over them, are the same
whichever tier runs the call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.loader.image import ImageBuilder, ProgramImage
from repro.machine.asm import Assembler
from repro.machine.isa import INSTR_SIZE
from repro.machine.memory import (
    PAGE_SIZE,
    PROT_EXEC,
    PROT_RW,
    page_align_up,
)
from repro.machine.mpk import PKRU_ALLOW_ALL, pkru_disable_access

#: stack slots the trampoline leaves above the gate frame, in words:
#: [ret_to_common][rdx][rcx][rax][plt_index][ret_to_app][stack args...]
GATE_FRAME_WORDS = 6

SAFE_STACK_BYTES = 2 * PAGE_SIZE
#: threads with a safe stack of their own (more share them round robin)
SAFE_STACK_SLOTS = 4


def randomized_monitor_base(seed: str) -> int:
    """Deterministic stand-in for load-address randomization: derive the
    base from a seed (pid + image name in practice).  16-byte aligned,
    placed in an otherwise unused arena."""
    digest = hashlib.sha256(seed.encode()).digest()
    offset = int.from_bytes(digest[:4], "little") & 0x3FFF_F000
    return 0x0000_6600_0000_0000 + offset * 16


def build_monitor_image(plt_imports: List[str], gate_fn: Callable,
                        init_fn: Callable, start_fn: Callable,
                        end_fn: Callable,
                        pkru_open: int, pkru_closed: int) -> ProgramImage:
    """Assemble the ``smvx_monitor.so`` image.

    ``gate_fn`` is the monitor's Python-side gate (bound method of the
    SmvxMonitor); the ``mvx_*`` entry points live here too so the target
    can import them like any shared-library symbol.
    """
    builder = ImageBuilder("smvx_monitor.so")

    # the reference-monitor gate (HL); must be registered before the
    # trampoline so `call("smvx_gate")` resolves.
    builder.add_hl_function("smvx_gate", gate_fn, 0,
                            size=8 * INSTR_SIZE)
    builder.add_hl_function("mvx_init", init_fn, 0, size=8 * INSTR_SIZE)
    # mvx_start(fname, nargs, arg1..arg6) — 8 integer slots, two of which
    # arrive on the stack per the SysV convention.
    builder.add_hl_function("mvx_start", start_fn, 8,
                            size=8 * INSTR_SIZE, variadic=True)
    builder.add_hl_function("mvx_end", end_fn, 0, size=8 * INSTR_SIZE)

    common = Assembler()
    common.push_r("rax")              # variadic count / caller's rax
    common.push_r("rcx")              # arg 4 (wrpkru clobbers rcx)
    common.push_r("rdx")              # arg 3 (wrpkru clobbers rdx)
    common.mov_ri("rcx", 0)
    common.mov_ri("rdx", 0)
    common.mov_ri("rax", pkru_open)
    common.wrpkru()                   # -- monitor pages become accessible
    common.call("smvx_gate")          # reference monitor (pivots stacks)
    common.mov_rr("r10", "rax")       # park retval across the close gate
    common.mov_ri("rcx", 0)
    common.mov_ri("rdx", 0)
    common.mov_ri("rax", pkru_closed)
    common.wrpkru()                   # -- monitor pages hidden again
    common.mov_rr("rax", "r10")
    common.add_ri("rsp", 32)          # drop rdx/rcx/rax/plt_index
    common.ret()                      # back to the application call site
    builder.add_isa_function("smvx_trampoline", common)

    for index, name in enumerate(plt_imports):
        stub = Assembler()
        stub.push_i(index)
        stub.jmp("smvx_trampoline")   # cross-function: resolved at build
        builder.add_isa_function(f"smvx_stub_{name}", stub)

    builder.add_rodata("smvx_banner", b"sMVX in-process monitor\x00")
    # monitor-private data page (bookkeeping the app must never read)
    builder.add_bss("smvx_private", PAGE_SIZE)
    return builder.build()


@dataclass
class MonitorMemory:
    """The monitor's pkey-guarded runtime allocations."""

    pkey: int
    pkru_open: int
    pkru_closed: int
    safe_stack_area: int = 0
    safe_stack_size: int = 0
    ipc_area: int = 0
    ipc_size: int = 0

    def safe_stack_top(self, slot: int) -> int:
        """Per-thread safe stack top (TLS-style slotting)."""
        base = self.safe_stack_area + slot * SAFE_STACK_BYTES
        if base + SAFE_STACK_BYTES > self.safe_stack_area + self.safe_stack_size:
            raise IndexError("out of safe-stack slots")
        return base + SAFE_STACK_BYTES - 16


def allocate_monitor_memory(space, pkey: int) -> MonitorMemory:
    """Map the safe stacks and the IPC ring under the monitor pkey."""
    pkru_closed = pkru_disable_access(PKRU_ALLOW_ALL, pkey)
    memory = MonitorMemory(pkey=pkey, pkru_open=PKRU_ALLOW_ALL,
                           pkru_closed=pkru_closed)
    size = page_align_up(SAFE_STACK_SLOTS * SAFE_STACK_BYTES)
    memory.safe_stack_area = space.mmap(None, size, prot=PROT_RW,
                                        pkey=pkey, tag="smvx:safe-stacks")
    memory.safe_stack_size = size
    memory.ipc_size = 2 * PAGE_SIZE
    memory.ipc_area = space.mmap(None, memory.ipc_size, prot=PROT_RW,
                                 pkey=pkey, tag="smvx:ipc")
    return memory


def harden_monitor_text(space, loaded) -> None:
    """Make the monitor's executable sections execute-only (XoM) under the
    monitor pkey, and key its data sections."""
    pkey = None
    for section in (".text", ".plt"):
        start, size = loaded.section_range(section)
        page = space.page_at(start)
        pkey = page.pkey
        space.mprotect(start, page_align_up(max(size, 1)), PROT_EXEC)
    for section in (".rodata", ".got.plt", ".data", ".bss"):
        start, size = loaded.section_range(section)
        space.set_tag(start, page_align_up(max(size, 1)),
                      f"smvx:{section}")
