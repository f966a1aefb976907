"""The interpreter core of the simulated machine.

The CPU executes one *hart* at a time against an :class:`AddressSpace`.
The executing thread's architectural state (registers + the thread-private
PKRU) is handed in per run, mirroring the fact that PKRU is per-thread on
real hardware.

Two escape hatches connect the machine to the rest of the system:

* ``syscall_handler(state)`` — invoked by the ``SYSCALL`` instruction; the
  simulated kernel lives behind it.
* ``hl_dispatch(state, index)`` — invoked by ``HLCALL``; high-level guest
  functions (DESIGN.md's hybrid guest model) live behind it.

Every instruction charges :attr:`CostModel.instruction_ns` of virtual time.

Each opcode is defined once, by its handler in a per-opcode table.  Two
interpreters run that table and differ only in how they fetch and charge:

* the **precise path** (:meth:`CPU.step`): fetch, fire ``trace_hook``,
  charge the counter, run the handler.  It runs whenever anything
  observes execution at instruction or access granularity — a
  ``trace_hook``, a memory observer on the address space, or a
  ``CycleCounter`` listener — and for every direct ``step()`` call.
* the **fast path** (inside :meth:`CPU.run`): fetches through a per-page
  decoded-instruction cache (decode each text page's slots once, dropped
  by the MMU whenever the page is written or remapped), and batches
  virtual-time charging — ``instruction_ns`` is accumulated locally and
  flushed to the counter at block boundaries (``SYSCALL``/``HLCALL``, any
  fault, and run exit).  Because every cost constant is an
  exactly-representable binary fraction, the batched sums are
  bit-identical to per-instruction charging, and the flush always happens
  *before* host callbacks run, so the kernel observes the same virtual
  clock either way.

On the fast tier, :meth:`CPU.run` also retires a whole guest call in one
step (:meth:`CPU._run_call`): ``JMP_M [slot]`` → ``HLCALL n`` → ``RET``,
which is ``ctx.libc`` through the PLT, and ``HLCALL n`` → ``RET``, which
is ``ctx.call`` of an HL function.  It applies exactly the fast loop's
effects (page checks, MMU accesses, charges, the precision re-check) and
hands anything else back to the loop: instructions not yet decoded, a
missing or non-executable page, a ``.got.plt`` slot leading anywhere but
an ``HLCALL``, a precision consumer attached inside the body, or a return
slot that does not hold ``until_rip``.

A slot that leads to an sMVX stub (``PUSH_I i; JMP trampoline``) is
retired in one step too (:meth:`CPU._run_interposed`): the stub, the MPK
trampoline with both ``WRPKRU``\\ s, the gate's ``HLCALL`` and ``RET``, the
close sequence and the final ``RET``.  The CPU recognises that path from
the decoded instructions and keeps one plan per trampoline among its
page's decoded instructions (:meth:`CPU._plan_interposition`), guarded by
the decoded instructions of the path's other pages, so a warm call checks
only the stub and those guards.  It hands back to the loop as the plain
one-step does, and also when ``until_rip`` lies on the path, a guard
fails after the gate, or the gate's ``RET`` does not return into the
trampoline.

``CPU.force_slow_path`` (class-wide or per instance) pins the precise
path; the differential tests use it to prove that the fast loop and the
one-steps agree with it.  What each handler computes is checked against
an independent model in ``tests/machine/test_cpu_differential.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import InvalidInstruction, MachineFault
from repro.machine.costs import CostModel, CycleCounter, DEFAULT_COSTS
from repro.machine.isa import INSTR_SIZE, Instruction, Op
from repro.machine.memory import (
    AddressSpace,
    PAGE_SIZE,
    PROT_EXEC,
    PROT_WRITE,
    WORD_SIZE,
    _WORD_STRUCT,
)
from repro.machine.mpk import PKRU_MASK
from repro.machine.registers import FLAG_CF, FLAG_SF, FLAG_ZF, RegisterFile

_MASK64 = (1 << 64) - 1

#: the straight-line opcodes an interposition plan holds besides its
#: CALL, HLCALL and RETs (see CPU._plan_interposition)
_PLAN_OPS = frozenset(int(op) for op in (
    Op.PUSH_R, Op.MOV_RI, Op.MOV_RR, Op.ADD_RI, Op.WRPKRU))

#: Synthetic return address meaning "return control to the host caller".
#: It is canonical user space that the layout leaves unmapped: loader
#: images start at 0x5555_0000_0000, mmap at 0x7F00_0000_0000, and stacks
#: sit below 0x7FFE_0000_0000.
HOST_RETURN_ADDRESS = 0x0FFF_DEAD_0000


@dataclass
class ExecState:
    """Architectural state of one simulated thread."""

    regs: RegisterFile
    pkru: int = 0


class CpuExit(Exception):
    """Raised (internally) to stop the run loop; carries the reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# -- opcode handlers ----------------------------------------------------------
#
# One function per opcode, indexed by opcode byte: the one definition of
# each instruction, run by both CPU.step and CPU._run_fast.  A handler
# takes the decoded operands and runs after fetch and charge, with ``rip``
# already advanced to ``rip_next``.  It reads and writes the register dict
# directly: every register is stored masked to 64 bits, so only a result
# that can leave that range is masked.

_DISPATCH: List[Optional[Callable]] = [None] * 0x80


def _handler(*ops: Op):
    def register(fn):
        for op in ops:
            _DISPATCH[int(op)] = fn
        return fn
    return register


@_handler(Op.NOP, Op.BRK)
def _op_nop(cpu, state, reg1, reg2, imm, rip_next):
    pass


@_handler(Op.HLT)
def _op_hlt(cpu, state, reg1, reg2, imm, rip_next):
    raise CpuExit("hlt")


@_handler(Op.MOV_RR)
def _op_mov_rr(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs._regs
    regs[reg1] = regs[reg2]


@_handler(Op.MOV_RI)
def _op_mov_ri(cpu, state, reg1, reg2, imm, rip_next):
    state.regs._regs[reg1] = imm & _MASK64


@_handler(Op.LEA)
def _op_lea(cpu, state, reg1, reg2, imm, rip_next):
    state.regs._regs[reg1] = (rip_next + imm) & _MASK64


@_handler(Op.LOAD)
def _op_load(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs._regs
    regs[reg1] = cpu.space.read_word((regs[reg2] + imm) & _MASK64,
                                     state.pkru)


@_handler(Op.STORE)
def _op_store(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs._regs
    cpu.space.write_word((regs[reg1] + imm) & _MASK64, regs[reg2],
                         state.pkru)


@_handler(Op.LOAD8)
def _op_load8(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs._regs
    regs[reg1] = cpu.space.read((regs[reg2] + imm) & _MASK64, 1,
                                state.pkru)[0]


@_handler(Op.STORE8)
def _op_store8(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs._regs
    cpu.space.write((regs[reg1] + imm) & _MASK64,
                    bytes((regs[reg2] & 0xFF,)), state.pkru)


@_handler(Op.ADD_RR)
def _op_add_rr(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs._regs
    regs[reg1] = (regs[reg1] + regs[reg2]) & _MASK64


@_handler(Op.ADD_RI)
def _op_add_ri(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs._regs
    regs[reg1] = (regs[reg1] + imm) & _MASK64


@_handler(Op.SUB_RR)
def _op_sub_rr(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs._regs
    regs[reg1] = (regs[reg1] - regs[reg2]) & _MASK64


@_handler(Op.SUB_RI)
def _op_sub_ri(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs._regs
    regs[reg1] = (regs[reg1] - imm) & _MASK64


@_handler(Op.AND_RR)
def _op_and_rr(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs._regs
    regs[reg1] &= regs[reg2]


@_handler(Op.AND_RI)
def _op_and_ri(cpu, state, reg1, reg2, imm, rip_next):
    state.regs._regs[reg1] &= imm & _MASK64


@_handler(Op.OR_RR)
def _op_or_rr(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs._regs
    regs[reg1] |= regs[reg2]


@_handler(Op.OR_RI)
def _op_or_ri(cpu, state, reg1, reg2, imm, rip_next):
    state.regs._regs[reg1] |= imm & _MASK64


@_handler(Op.XOR_RR)
def _op_xor_rr(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs._regs
    regs[reg1] ^= regs[reg2]


@_handler(Op.XOR_RI)
def _op_xor_ri(cpu, state, reg1, reg2, imm, rip_next):
    state.regs._regs[reg1] ^= imm & _MASK64


@_handler(Op.SHL_RI)
def _op_shl_ri(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs._regs
    regs[reg1] = (regs[reg1] << (imm & 63)) & _MASK64


@_handler(Op.SHR_RI)
def _op_shr_ri(cpu, state, reg1, reg2, imm, rip_next):
    state.regs._regs[reg1] >>= imm & 63


@_handler(Op.MUL_RR)
def _op_mul_rr(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs._regs
    regs[reg1] = (regs[reg1] * regs[reg2]) & _MASK64


@_handler(Op.NOT_R)
def _op_not_r(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs._regs
    regs[reg1] = ~regs[reg1] & _MASK64


@_handler(Op.CMP_RR)
def _op_cmp_rr(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs
    regs.set_compare_flags(regs._regs[reg1], regs._regs[reg2])


@_handler(Op.CMP_RI)
def _op_cmp_ri(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs
    regs.set_compare_flags(regs._regs[reg1], imm)


@_handler(Op.TEST_RR)
def _op_test_rr(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs
    regs.set_compare_flags(regs._regs[reg1] & regs._regs[reg2], 0)


@_handler(Op.JMP)
def _op_jmp(cpu, state, reg1, reg2, imm, rip_next):
    state.regs.rip = (rip_next + imm) & _MASK64


@_handler(Op.JMP_R)
def _op_jmp_r(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs
    regs.rip = regs._regs[reg1]


@_handler(Op.JMP_M)
def _op_jmp_m(cpu, state, reg1, reg2, imm, rip_next):
    state.regs.rip = cpu.space.read_word((rip_next + imm) & _MASK64,
                                         state.pkru)


@_handler(Op.JE)
def _op_je(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs
    if regs.flags & FLAG_ZF:
        regs.rip = (rip_next + imm) & _MASK64


@_handler(Op.JNE)
def _op_jne(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs
    if not regs.flags & FLAG_ZF:
        regs.rip = (rip_next + imm) & _MASK64


@_handler(Op.JL)
def _op_jl(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs
    if regs.flags & FLAG_SF:
        regs.rip = (rip_next + imm) & _MASK64


@_handler(Op.JGE)
def _op_jge(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs
    if not regs.flags & FLAG_SF:
        regs.rip = (rip_next + imm) & _MASK64


@_handler(Op.JB)
def _op_jb(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs
    if regs.flags & FLAG_CF:
        regs.rip = (rip_next + imm) & _MASK64


@_handler(Op.JAE)
def _op_jae(cpu, state, reg1, reg2, imm, rip_next):
    regs = state.regs
    if not regs.flags & FLAG_CF:
        regs.rip = (rip_next + imm) & _MASK64


@_handler(Op.CALL)
def _op_call(cpu, state, reg1, reg2, imm, rip_next):
    cpu._push(state, rip_next)
    state.regs.rip = (rip_next + imm) & _MASK64


@_handler(Op.CALL_R)
def _op_call_r(cpu, state, reg1, reg2, imm, rip_next):
    cpu._push(state, rip_next)
    regs = state.regs
    regs.rip = regs._regs[reg1]


@_handler(Op.RET)
def _op_ret(cpu, state, reg1, reg2, imm, rip_next):
    state.regs.rip = cpu._pop(state)


@_handler(Op.PUSH_R)
def _op_push_r(cpu, state, reg1, reg2, imm, rip_next):
    cpu._push(state, state.regs._regs[reg1])    # before rsp moves


@_handler(Op.POP_R)
def _op_pop_r(cpu, state, reg1, reg2, imm, rip_next):
    value = cpu._pop(state)
    state.regs._regs[reg1] = value              # after rsp moves


@_handler(Op.PUSH_I)
def _op_push_i(cpu, state, reg1, reg2, imm, rip_next):
    cpu._push(state, imm & _MASK64)


@_handler(Op.WRPKRU)
def _op_wrpkru(cpu, state, reg1, reg2, imm, rip_next):
    # Hardware requires %ecx == %edx == 0 or it #GPs; keeping the
    # check makes accidental wrpkru gadgets harder, as on Skylake.
    regs = state.regs._regs
    if regs["rcx"] or regs["rdx"]:
        raise InvalidInstruction("wrpkru with non-zero rcx/rdx",
                                 rip_next - INSTR_SIZE)
    state.pkru = regs["rax"] & PKRU_MASK


@_handler(Op.RDPKRU)
def _op_rdpkru(cpu, state, reg1, reg2, imm, rip_next):
    state.regs._regs["rax"] = state.pkru


@_handler(Op.SYSCALL)
def _op_syscall(cpu, state, reg1, reg2, imm, rip_next):
    if cpu.syscall_handler is None:
        raise MachineFault("SYSCALL with no kernel attached",
                           rip_next - INSTR_SIZE)
    cpu.syscall_handler(state)


@_handler(Op.HLCALL)
def _op_hlcall(cpu, state, reg1, reg2, imm, rip_next):
    if cpu.hl_dispatch is None:
        raise MachineFault("HLCALL with no dispatcher",
                           rip_next - INSTR_SIZE)
    cpu.hl_dispatch(state, imm)


#: the opcodes whose handlers call into the host; the fast loop flushes
#: its batched charge before them and re-checks precision after them
_HOST_CALL_OPS = frozenset((int(Op.SYSCALL), int(Op.HLCALL)))


class CPU:
    """Fetch/decode/execute loop over the simulated ISA."""

    #: Class-wide escape hatch: force the precise per-instruction
    #: interpreter (also settable per instance).  Used by the
    #: differential tests and handy when bisecting a fast-path suspect.
    force_slow_path = False

    def __init__(self, space: AddressSpace,
                 counter: Optional[CycleCounter] = None,
                 costs: CostModel = DEFAULT_COSTS,
                 syscall_handler: Optional[Callable] = None,
                 hl_dispatch: Optional[Callable] = None):
        self.space = space
        self.counter = counter or CycleCounter()
        self.costs = costs
        self.syscall_handler = syscall_handler
        self.hl_dispatch = hl_dispatch
        #: optional per-instruction hook: (state, addr, instruction).
        #: A hook that raises is detached (the error is kept in
        #: :attr:`trace_hook_error`) — observation must never perturb the
        #: observed execution.  While attached, the CPU runs the precise
        #: path so the hook sees every retired instruction.
        self.trace_hook: Optional[Callable] = None
        self.trace_hook_error: Optional[BaseException] = None
        self.instructions_retired = 0
        #: per-tier retirement counters (sum == instructions_retired)
        self.precise_insns = 0
        self.fast_insns = 0
        #: always 0; kept because perfbench/layers.py reads it per run
        self.jit_insns = 0

    def stats(self) -> dict:
        """Per-tier execution statistics (deterministic across identical
        runs — the trace footer pins them to prove the tier split
        replays).  The TLB hit rate is approximate: observer-path
        accesses bypass the TLB but still count as accesses."""
        space = self.space
        accesses = space.access_count
        fills = space.tlb_fills
        return {
            "precise_insns": self.precise_insns,
            "fast_insns": self.fast_insns,
            "instructions_retired": self.instructions_retired,
            "tlb_fills": fills,
            "tlb_hit_rate": (round(1.0 - fills / accesses, 6)
                             if accesses else 1.0),
        }

    # -- helpers -------------------------------------------------------------

    def _decode_cached(self, page, offset: int, addr: int):
        """Decode the instruction at ``addr`` into ``page``'s cache.

        Returns a ``(opcode, reg1, reg2, imm, instruction)`` entry.  An
        instruction that straddles the page boundary is decoded precisely
        and never cached (its bytes span two pages, so one page's
        invalidation could not cover it).
        """
        if offset + INSTR_SIZE <= PAGE_SIZE:
            try:
                instr = Instruction.decode(
                    bytes(page.data[offset:offset + INSTR_SIZE]))
            except InvalidInstruction as exc:
                exc.address = addr
                raise
            entry = (int(instr.op), instr.reg1, instr.reg2, instr.imm,
                     instr)
            cache = page.decode_cache
            if cache is not None:
                cache[offset] = entry
            return entry
        head = bytes(page.data[offset:])
        next_page = self.space.fetch_check(addr + (PAGE_SIZE - offset))
        raw = head + bytes(next_page.data[:INSTR_SIZE - len(head)])
        try:
            instr = Instruction.decode(raw)
        except InvalidInstruction as exc:
            exc.address = addr
            raise
        return (int(instr.op), instr.reg1, instr.reg2, instr.imm, instr)

    def _fetch(self, state: ExecState) -> Instruction:
        addr = state.regs.rip
        page = self.space.fetch_check(addr)
        offset = addr % PAGE_SIZE
        cache = page.decode_cache
        if cache is None:
            cache = page.decode_cache = {}
        entry = cache.get(offset)
        if entry is None:
            entry = self._decode_cached(page, offset, addr)
        return entry[4]

    def _push(self, state: ExecState, value: int) -> None:
        regs = state.regs._regs
        rsp = regs["rsp"] = (regs["rsp"] - WORD_SIZE) & _MASK64
        self.space.write_word(rsp, value, state.pkru)

    def _pop(self, state: ExecState) -> int:
        regs = state.regs._regs
        rsp = regs["rsp"]
        value = self.space.read_word(rsp, state.pkru)
        regs["rsp"] = (rsp + WORD_SIZE) & _MASK64
        return value

    # -- execution -----------------------------------------------------------

    def run(self, state: ExecState, until_rip: int = HOST_RETURN_ADDRESS,
            max_steps: Optional[int] = None) -> str:
        """Run until ``rip`` equals ``until_rip``, ``HLT``, or ``max_steps``.

        Returns the exit reason: ``"host-return"`` or ``"max-steps"``.
        ``HLT`` raises :class:`CpuExit` with reason ``"hlt"``, and machine
        faults propagate to the caller — the simulated kernel (or the MVX
        monitor watching a variant) decides what a fault means.
        """
        steps = 0
        regs = state.regs
        while True:
            if regs.rip == until_rip:
                return "host-return"
            if max_steps is not None and steps >= max_steps:
                return "max-steps"
            # the precise path serves anything observing execution at
            # instruction or access granularity
            if (self.force_slow_path or self.trace_hook is not None
                    or self.space._observers or self.counter.listeners):
                self.step(state)
                steps += 1
            elif max_steps is not None or not self._run_call(state,
                                                             until_rip):
                steps = self._run_fast(state, until_rip, max_steps, steps)

    def _run_call(self, state: ExecState, until_rip: int) -> bool:
        """Retire the guest call at ``rip`` in one step, if it is one.

        HL code calls through two shapes: ``JMP_M [slot]`` → ``HLCALL n``
        → ``RET`` (``ctx.libc`` through the PLT, its ``.got.plt`` slot
        holding an HL stub) and ``HLCALL n`` → ``RET`` (``ctx.call`` of an
        HL function).  They retire two or three instructions, less work
        than entering :meth:`_run_fast`.  This applies exactly the effects
        :meth:`_run_fast` applies to them: the same execute checks on the
        PLT and stub pages, the same ``read_word`` of the ``.got.plt`` and
        return slots with the thread's PKRU, ``rip`` advanced before each
        access, the ``JMP_M`` and ``HLCALL`` charged together before the
        handler and the ``RET`` after it, and the same precision re-check
        after the handler.

        Returns False, having changed nothing, unless ``rip`` starts one
        of the two shapes with every instruction up to the ``HLCALL``
        already decoded on an executable page; the loop then runs
        :meth:`_run_fast` from the same ``rip``, and it raises any fault
        the call takes.  Returns True once the handler has run, with
        ``rip`` wherever the call got to: ``until_rip`` normally, a
        smashed return slot's value otherwise.
        """
        space = self.space
        pages = space._pages
        regs = state.regs
        rip = regs.rip
        page = pages.get(rip >> 12)
        if (page is None or not page.prot & PROT_EXEC
                or page.decode_cache is None):
            return False
        entry = page.decode_cache.get(rip & 0xFFF)
        if entry is None:
            return False
        slot = None
        if entry[0] == 0x42:              # JMP_M through a .got.plt slot
            slot = (rip + INSTR_SIZE + entry[3]) & _MASK64
            got = pages.get(slot >> 12)
            if got is None or slot % WORD_SIZE:
                return False
            plt = rip
            # a peek, not an access: the read_word below returns the same
            # word, since every page-table change flushes the TLB
            rip = _WORD_STRUCT.unpack_from(got.data, slot & 0xFFF)[0]
            if rip == until_rip:
                return False
            page = pages.get(rip >> 12)
            if (page is None or not page.prot & PROT_EXEC
                    or page.decode_cache is None):
                return False
            entry = page.decode_cache.get(rip & 0xFFF)
            if entry is None:
                return False
        if entry[0] != 0x70 or self.hl_dispatch is None:    # HLCALL
            if entry[0] == 0x55 and slot is not None:       # PUSH_I
                return self._run_interposed(state, until_rip, plt, slot,
                                            rip, page, entry[3])
            return False

        counter = self.counter
        cost_ns = self.costs.instruction_ns
        stub_idx = rip >> 12
        epoch = space.mapping_epoch
        pending = 0
        try:
            if slot is not None:
                pending = 1
                regs.rip = plt + INSTR_SIZE
                space.read_word(slot, state.pkru)
            pending += 1
            regs.rip = rip + INSTR_SIZE
            counter.charge(pending * cost_ns, "cpu")
            self.instructions_retired += pending
            self.fast_insns += pending
            pending = 0
            self.hl_dispatch(state, entry[3])
            if (self.force_slow_path or self.trace_hook is not None
                    or space._observers or counter.listeners):
                return True

            # the RET, fetched as _run_fast fetches it: the stub's page
            # is re-checked only if the handler changed the page table
            rip = regs.rip
            if rip == until_rip:
                return True
            if rip >> 12 != stub_idx or space.mapping_epoch != epoch:
                page = pages.get(rip >> 12)
                if page is None or not page.prot & PROT_EXEC:
                    return True           # _run_fast raises the fault
            cache = page.decode_cache
            if cache is None:             # the handler wrote to the page
                cache = page.decode_cache = {}
            entry = cache.get(rip & 0xFFF)
            if entry is None:
                entry = self._decode_cached(page, rip & 0xFFF, rip)
            if entry[0] != 0x52:          # RET
                return True
            pending = 1
            regs.rip = rip + INSTR_SIZE
            regs_d = regs._regs
            rsp = regs_d["rsp"]
            value = space.read_word(rsp, state.pkru)
            regs_d["rsp"] = (rsp + WORD_SIZE) & _MASK64
            regs.rip = value
            return True
        finally:
            if pending:
                counter.charge(pending * cost_ns, "cpu")
                self.instructions_retired += pending
                self.fast_insns += pending

    def _run_interposed(self, state: ExecState, until_rip: int, plt: int,
                        slot: int, stub: int, page, index: int) -> bool:
        """Retire an interposed libc call in one step, if it is one.

        :meth:`_run_call` comes here when a PLT entry's ``.got.plt`` slot
        leads to a ``PUSH_I``, the first instruction of an sMVX stub
        (``PUSH_I i; JMP trampoline``, see ``core/trampoline.py``).  From
        the trampoline on, through the gate and back to the caller, the
        path is retired from the trampoline's plan
        (:meth:`_plan_interposition`).

        First it only looks: the stub's two instructions decoded on one
        page that is not writable, and the trampoline's plan present with
        its guards holding (planned again if not).  It returns False,
        having changed nothing, if anything differs, if ``until_rip`` is
        an address on the path or if no dispatcher is attached; the loop
        then runs :meth:`_run_fast` from the same ``rip``, and it raises
        any fault the call takes.

        Then it applies exactly :meth:`_run_fast`'s effects: ``rip``
        advanced before each access; each push and pop through
        ``write_word``/``read_word`` with the thread's current PKRU, in
        the loop's order; both ``WRPKRU``\\ s with their ``rcx``/``rdx``
        check; the instructions up to the gate's ``HLCALL`` charged
        together before the handler and the rest at the end, with any
        pending charge flushed on a fault.  After the handler it re-runs
        the precision check and the guards, and hands back at the current
        ``rip`` when either fails, when the handler moved ``rip``, or when
        the gate's ``RET`` does not return into the trampoline.  Returns
        True once the handler has run.
        """
        if page.prot & PROT_WRITE:
            return False
        # (a JMP past the page's end has no entry in its decoded cache)
        jmp = page.decode_cache.get((stub & 0xFFF) + INSTR_SIZE)
        if jmp is None or jmp[0] != 0x40:                   # JMP
            return False
        tramp = (stub + 2 * INSTR_SIZE + jmp[3]) & _MASK64
        space = self.space
        pages = space._pages
        tramp_idx = tramp >> 12
        tramp_page = pages.get(tramp_idx)
        if tramp_page is None or tramp_page.decode_cache is None:
            return False
        tramp_cache = tramp_page.decode_cache
        plan = tramp_cache.get(~(tramp & 0xFFF))
        if plan is not None:
            for idx, other, cache in plan[2]:
                if (pages.get(idx) is not other
                        or other.decode_cache is not cache):
                    plan = None               # a guard failed: plan again
                    break
        if plan is None:
            plan = self._plan_interposition(tramp, tramp_page)
            if plan is None:
                return False
        steps, addresses, guards = plan
        if (until_rip in addresses or until_rip == stub + INSTR_SIZE
                or self.hl_dispatch is None):
            return False

        regs = state.regs
        regs_d = regs._regs
        counter = self.counter
        cost_ns = self.costs.instruction_ns
        read_word = space.read_word
        write_word = space.write_word
        M = _MASK64
        pending = 1
        try:
            regs.rip = plt + INSTR_SIZE                     # JMP_M [slot]
            read_word(slot, state.pkru)
            pending = 2                                     # PUSH_I i
            regs.rip = stub + INSTR_SIZE
            rsp = (regs_d["rsp"] - 8) & M
            regs_d["rsp"] = rsp
            write_word(rsp, index & M, state.pkru)
            pending = 3                                     # JMP
            for pending, op, r1, r2, imm, rip_next in steps:
                if op == 0x53:                              # PUSH_R
                    regs.rip = rip_next
                    value = regs_d[r1]
                    rsp = (regs_d["rsp"] - 8) & M
                    regs_d["rsp"] = rsp
                    write_word(rsp, value, state.pkru)
                elif op == 0x11:                            # MOV_RI run
                    regs_d.update(imm)
                elif op == 0x10:                            # MOV_RR
                    regs_d[r1] = regs_d[r2]
                elif op == 0x60:                            # WRPKRU
                    if regs_d["rcx"] or regs_d["rdx"]:
                        regs.rip = rip_next
                        raise InvalidInstruction(
                            "wrpkru with non-zero rcx/rdx",
                            rip_next - INSTR_SIZE)
                    state.pkru = regs_d["rax"] & PKRU_MASK
                elif op == 0x52:                            # RET
                    regs.rip = rip_next
                    rsp = regs_d["rsp"]
                    value = read_word(rsp, state.pkru)
                    regs_d["rsp"] = (rsp + 8) & M
                    regs.rip = value
                    if value != imm:       # off the path, or the last RET
                        return True
                elif op == 0x21:                            # ADD_RI
                    regs_d[r1] = (regs_d[r1] + imm) & M
                elif op == 0x50:                            # CALL
                    regs.rip = rip_next
                    rsp = (regs_d["rsp"] - 8) & M
                    regs_d["rsp"] = rsp
                    write_word(rsp, rip_next, state.pkru)
                else:                                       # HLCALL
                    regs.rip = rip_next
                    counter.charge(pending * cost_ns, "cpu")
                    self.instructions_retired += pending
                    self.fast_insns += pending
                    pending = 0
                    self.hl_dispatch(state, imm)
                    if (self.force_slow_path or self.trace_hook is not None
                            or space._observers or counter.listeners
                            or regs.rip != rip_next
                            or pages.get(tramp_idx) is not tramp_page
                            or tramp_page.decode_cache is not tramp_cache):
                        return True
                    for idx, other, cache in guards:
                        if (pages.get(idx) is not other
                                or other.decode_cache is not cache):
                            return True
        finally:
            if pending:
                counter.charge(pending * cost_ns, "cpu")
                self.instructions_retired += pending
                self.fast_insns += pending

    def _plan_interposition(self, tramp: int, page):
        """Plan the interposition path from the trampoline at ``tramp``.

        The path runs straight from ``tramp`` through ``PUSH_R``,
        ``MOV_RI``, ``MOV_RR``, ``ADD_RI`` and ``WRPKRU`` to a ``CALL``
        of an HL function (``HLCALL n; RET``), then on from the ``CALL``'s
        return address through the same kinds of instruction to a
        ``RET``.  The plan is ``(steps, addresses, guards)``:

        * one ``(pending, op, reg1, reg2, imm, rip_next)`` step per
          instruction, where ``pending`` counts the instructions retired
          but not yet charged once the step has run (the stub's three
          included), a run of ``MOV_RI``\\ s is one step whose imm maps
          each register to its value, and a ``RET``'s imm is the address
          it must return to for the path to go on (None for the last);
        * the set of the path's addresses;
        * an ``(index, page, decoded instructions)`` guard for every page
          on the path but ``page``, the trampoline's own.

        The plan is stored among ``page``'s decoded instructions, under
        the key ``~offset``, which no instruction offset takes, so it
        lives exactly as long as they do.  Returns None, storing nothing,
        unless the whole path is already decoded on present pages that
        are executable and not writable: no push can then rewrite the
        path, and anything that later changes one of its pages drops that
        page's decoded instructions, and with them the plan or a guard.
        """
        pages = self.space._pages
        guards = {}
        path = []

        def decoded(addr):
            idx = addr >> 12
            at = pages.get(idx)
            if (at is None or at.decode_cache is None
                    or at.prot & (PROT_EXEC | PROT_WRITE) != PROT_EXEC):
                return None
            if at is not page:
                guards[idx] = (idx, at, at.decode_cache)
            return at.decode_cache.get(addr & 0xFFF)

        def straight(addr):
            """Add the straight-line run from ``addr`` to the path;
            return the entry that ends it and its address."""
            while True:
                entry = decoded(addr)
                if entry is None or entry[0] not in _PLAN_OPS:
                    return entry, addr
                path.append(entry[:4] + (addr,))
                addr += INSTR_SIZE

        call, addr = straight(tramp)
        if call is None or call[0] != 0x50:                 # CALL
            return None
        resume = addr + INSTR_SIZE
        gate = (resume + call[3]) & _MASK64
        hlcall = decoded(gate)
        ret = decoded(gate + INSTR_SIZE)
        if (hlcall is None or hlcall[0] != 0x70
                or ret is None or ret[0] != 0x52):          # HLCALL; RET
            return None
        path += [call[:4] + (addr,), hlcall[:4] + (gate,),
                 (0x52, None, None, resume, gate + INSTR_SIZE)]
        last, addr = straight(resume)
        if last is None or last[0] != 0x52:                 # RET
            return None
        path.append((0x52, None, None, None, addr))

        steps = []
        pending = 3                 # the stub's JMP_M, PUSH_I and JMP
        for op, reg1, reg2, imm, addr in path:
            pending += 1
            if op == 0x11:                                  # MOV_RI
                run = (steps.pop()[4] if steps and steps[-1][1] == 0x11
                       else {})
                run[reg1] = imm & _MASK64
                imm = run
            steps.append((pending, op, reg1, reg2, imm, addr + INSTR_SIZE))
            if op == 0x70:                                  # HLCALL
                pending = 0
        plan = (tuple(steps), frozenset(step[4] for step in path),
                tuple(guards.values()))
        page.decode_cache[~(tramp & 0xFFF)] = plan
        return plan

    def step(self, state: ExecState) -> None:
        """Execute exactly one instruction (the precise path)."""
        addr = state.regs.rip
        instr = self._fetch(state)
        if self.trace_hook is not None:
            try:
                self.trace_hook(state, addr, instr)
            except Exception as exc:
                self.trace_hook_error = exc
                self.trace_hook = None
        self.counter.charge(self.costs.instruction_ns, "cpu")
        self.instructions_retired += 1
        self.precise_insns += 1
        rip_next = addr + INSTR_SIZE
        state.regs.rip = rip_next
        _DISPATCH[instr.op](self, state, instr.reg1, instr.reg2, instr.imm,
                            rip_next)

    def _run_fast(self, state: ExecState, until_rip: int,
                  max_steps: Optional[int], steps: int) -> int:
        """The fast interpreter: the handler table behind a decoded-page
        cache, with batched virtual-time charging.

        Executes until an exit condition (``until_rip``/``max_steps``) is
        hit, or until a host callback (``SYSCALL``/``HLCALL``) may have
        attached a precision consumer — either way it returns the updated
        step count and :meth:`run` re-evaluates.  Pending charges are
        flushed before every host callback and, via ``finally``, before
        any fault propagates, so virtual-cycle totals and
        ``instructions_retired`` are bit-identical to the precise path at
        every observable point (host callbacks, faults, run exit).
        """
        space = self.space
        pages = space._pages
        regs = state.regs
        counter = self.counter
        cost_ns = self.costs.instruction_ns
        dispatch = _DISPATCH
        host_call_ops = _HOST_CALL_OPS
        pending = 0
        cur_idx = -1
        cur_epoch = -1
        cur_page = None
        try:
            while True:
                rip = regs.rip
                if rip == until_rip:
                    return steps
                if max_steps is not None and steps >= max_steps:
                    return steps

                # -- fetch through the per-page decoded cache
                idx = rip >> 12
                if idx != cur_idx or space.mapping_epoch != cur_epoch:
                    cur_page = pages.get(idx)
                    if cur_page is None or not cur_page.prot & PROT_EXEC:
                        space.fetch_check(rip)    # raises the ExecuteFault
                    cur_idx = idx
                    cur_epoch = space.mapping_epoch
                cache = cur_page.decode_cache
                if cache is None:
                    cache = cur_page.decode_cache = {}
                offset = rip & 0xFFF
                entry = cache.get(offset)
                if entry is None:
                    entry = self._decode_cached(cur_page, offset, rip)
                op, reg1, reg2, imm, _ = entry

                steps += 1
                pending += 1
                rip_next = rip + INSTR_SIZE
                regs.rip = rip_next
                if op not in host_call_ops:
                    dispatch[op](self, state, reg1, reg2, imm, rip_next)
                    continue
                # a block boundary: the host sees the virtual clock
                counter.charge(pending * cost_ns, "cpu")
                self.instructions_retired += pending
                self.fast_insns += pending
                pending = 0
                dispatch[op](self, state, reg1, reg2, imm, rip_next)
                if (self.force_slow_path or self.trace_hook is not None
                        or space._observers or counter.listeners):
                    return steps
        finally:
            if pending:
                counter.charge(pending * cost_ns, "cpu")
                self.instructions_retired += pending
                self.fast_insns += pending
