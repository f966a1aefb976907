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

Two interpreters produce identical architectural results:

* the **precise path** (:meth:`CPU.step`): fetch, fire ``trace_hook``,
  charge the counter, execute via a per-opcode handler table.  It runs
  whenever anything observes execution at instruction or access
  granularity — a ``trace_hook``, a memory observer on the address space,
  or a ``CycleCounter`` listener — and for every direct ``step()`` call.
* the **fast path** (inside :meth:`CPU.run`): fetches through a per-page
  decoded-instruction cache (decode each text page's slots once, dropped
  by the MMU whenever the page is written or remapped), inlines the hot
  opcodes, and batches virtual-time charging — ``instruction_ns`` is
  accumulated locally and flushed to the counter at block boundaries
  (``SYSCALL``/``HLCALL``, any fault, and run exit).  Because every cost
  constant is an exactly-representable binary fraction, the batched sums
  are bit-identical to per-instruction charging, and the flush always
  happens *before* host callbacks run, so the kernel observes the same
  virtual clock either way.

``CPU.force_slow_path`` (class-wide or per instance) pins the precise
path; the differential tests use it to prove both interpreters agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.errors import InvalidInstruction, MachineFault
from repro.machine.costs import CostModel, CycleCounter, DEFAULT_COSTS
from repro.machine.isa import INSTR_SIZE, Instruction, Op
from repro.machine.memory import AddressSpace, PAGE_SIZE, WORD_SIZE
from repro.machine.mpk import PKRU_MASK
from repro.machine.registers import RegisterFile

_MASK64 = (1 << 64) - 1

#: Synthetic return address meaning "return control to the host caller".
#: It sits in non-canonical space so it can never collide with a mapping.
HOST_RETURN_ADDRESS = 0x0FFF_DEAD_0000


@dataclass
class ExecState:
    """Architectural state of one simulated thread."""

    regs: RegisterFile
    pkru: int = 0

    def clone(self) -> "ExecState":
        state = ExecState(RegisterFile(), self.pkru)
        state.regs.load_snapshot(self.regs.snapshot())
        return state


class CpuExit(Exception):
    """Raised (internally) to stop the run loop; carries the reason."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


# -- precise-path opcode handlers ---------------------------------------------
#
# One function per opcode, indexed by opcode byte.  Handlers run *after*
# fetch/hook/charge with ``rip`` already advanced to ``rip_next`` — the
# same contract the old if/elif chain had.

_DISPATCH: List[Optional[Callable]] = [None] * 0x80


def _handler(op: Op):
    def register(fn):
        _DISPATCH[int(op)] = fn
        return fn
    return register


@_handler(Op.NOP)
@_handler(Op.BRK)
def _op_nop(cpu, state, instr, addr, rip_next):
    pass


@_handler(Op.HLT)
def _op_hlt(cpu, state, instr, addr, rip_next):
    raise CpuExit("hlt")


@_handler(Op.MOV_RR)
def _op_mov_rr(cpu, state, instr, addr, rip_next):
    state.regs.set(instr.reg1, state.regs.get(instr.reg2))


@_handler(Op.MOV_RI)
def _op_mov_ri(cpu, state, instr, addr, rip_next):
    state.regs.set(instr.reg1, instr.imm)


@_handler(Op.LEA)
def _op_lea(cpu, state, instr, addr, rip_next):
    state.regs.set(instr.reg1, rip_next + instr.imm)


@_handler(Op.LOAD)
def _op_load(cpu, state, instr, addr, rip_next):
    base = state.regs.get(instr.reg2)
    state.regs.set(instr.reg1,
                   cpu.space.read_word((base + instr.imm) & _MASK64,
                                       state.pkru))


@_handler(Op.STORE)
def _op_store(cpu, state, instr, addr, rip_next):
    base = state.regs.get(instr.reg1)
    cpu.space.write_word((base + instr.imm) & _MASK64,
                         state.regs.get(instr.reg2), state.pkru)


@_handler(Op.LOAD8)
def _op_load8(cpu, state, instr, addr, rip_next):
    base = state.regs.get(instr.reg2)
    raw = cpu.space.read((base + instr.imm) & _MASK64, 1, state.pkru)
    state.regs.set(instr.reg1, raw[0])


@_handler(Op.STORE8)
def _op_store8(cpu, state, instr, addr, rip_next):
    base = state.regs.get(instr.reg1)
    cpu.space.write((base + instr.imm) & _MASK64,
                    bytes([state.regs.get(instr.reg2) & 0xFF]), state.pkru)


def _alu(op: Op, fn):
    @_handler(op)
    def _op_alu(cpu, state, instr, addr, rip_next, _fn=fn):
        regs = state.regs
        regs.set(instr.reg1, _fn(regs, instr))
    return _op_alu


_alu(Op.ADD_RR, lambda r, i: r.get(i.reg1) + r.get(i.reg2))
_alu(Op.ADD_RI, lambda r, i: r.get(i.reg1) + i.imm)
_alu(Op.SUB_RR, lambda r, i: r.get(i.reg1) - r.get(i.reg2))
_alu(Op.SUB_RI, lambda r, i: r.get(i.reg1) - i.imm)
_alu(Op.AND_RR, lambda r, i: r.get(i.reg1) & r.get(i.reg2))
_alu(Op.AND_RI, lambda r, i: r.get(i.reg1) & i.imm)
_alu(Op.OR_RR, lambda r, i: r.get(i.reg1) | r.get(i.reg2))
_alu(Op.OR_RI, lambda r, i: r.get(i.reg1) | i.imm)
_alu(Op.XOR_RR, lambda r, i: r.get(i.reg1) ^ r.get(i.reg2))
_alu(Op.XOR_RI, lambda r, i: r.get(i.reg1) ^ i.imm)
_alu(Op.SHL_RI, lambda r, i: r.get(i.reg1) << (i.imm & 63))
_alu(Op.SHR_RI, lambda r, i: r.get(i.reg1) >> (i.imm & 63))
_alu(Op.MUL_RR, lambda r, i: r.get(i.reg1) * r.get(i.reg2))
_alu(Op.NOT_R, lambda r, i: ~r.get(i.reg1))


@_handler(Op.CMP_RR)
def _op_cmp_rr(cpu, state, instr, addr, rip_next):
    state.regs.set_compare_flags(state.regs.get(instr.reg1),
                                 state.regs.get(instr.reg2))


@_handler(Op.CMP_RI)
def _op_cmp_ri(cpu, state, instr, addr, rip_next):
    state.regs.set_compare_flags(state.regs.get(instr.reg1), instr.imm)


@_handler(Op.TEST_RR)
def _op_test_rr(cpu, state, instr, addr, rip_next):
    masked = state.regs.get(instr.reg1) & state.regs.get(instr.reg2)
    state.regs.set_compare_flags(masked, 0)


@_handler(Op.JMP)
def _op_jmp(cpu, state, instr, addr, rip_next):
    state.regs.rip = (rip_next + instr.imm) & _MASK64


@_handler(Op.JMP_R)
def _op_jmp_r(cpu, state, instr, addr, rip_next):
    state.regs.rip = state.regs.get(instr.reg1)


@_handler(Op.JMP_M)
def _op_jmp_m(cpu, state, instr, addr, rip_next):
    slot = (rip_next + instr.imm) & _MASK64
    state.regs.rip = cpu.space.read_word(slot, state.pkru)


def _jcc(op: Op, taken):
    @_handler(op)
    def _op_jcc(cpu, state, instr, addr, rip_next, _taken=taken):
        regs = state.regs
        if _taken(regs):
            regs.rip = (rip_next + instr.imm) & _MASK64
    return _op_jcc


_jcc(Op.JE, lambda r: r.zf)
_jcc(Op.JNE, lambda r: not r.zf)
_jcc(Op.JL, lambda r: r.sf)
_jcc(Op.JGE, lambda r: not r.sf)
_jcc(Op.JB, lambda r: r.cf)
_jcc(Op.JAE, lambda r: not r.cf)


@_handler(Op.CALL)
def _op_call(cpu, state, instr, addr, rip_next):
    cpu._push(state, rip_next)
    state.regs.rip = (rip_next + instr.imm) & _MASK64


@_handler(Op.CALL_R)
def _op_call_r(cpu, state, instr, addr, rip_next):
    cpu._push(state, rip_next)
    state.regs.rip = state.regs.get(instr.reg1)


@_handler(Op.RET)
def _op_ret(cpu, state, instr, addr, rip_next):
    state.regs.rip = cpu._pop(state)


@_handler(Op.PUSH_R)
def _op_push_r(cpu, state, instr, addr, rip_next):
    cpu._push(state, state.regs.get(instr.reg1))


@_handler(Op.POP_R)
def _op_pop_r(cpu, state, instr, addr, rip_next):
    state.regs.set(instr.reg1, cpu._pop(state))


@_handler(Op.PUSH_I)
def _op_push_i(cpu, state, instr, addr, rip_next):
    cpu._push(state, instr.imm & _MASK64)


@_handler(Op.WRPKRU)
def _op_wrpkru(cpu, state, instr, addr, rip_next):
    # Hardware requires %ecx == %edx == 0 or it #GPs; keeping the
    # check makes accidental wrpkru gadgets harder, as on Skylake.
    if state.regs.get("rcx") or state.regs.get("rdx"):
        raise InvalidInstruction("wrpkru with non-zero rcx/rdx", addr)
    state.pkru = state.regs.get("rax") & PKRU_MASK


@_handler(Op.RDPKRU)
def _op_rdpkru(cpu, state, instr, addr, rip_next):
    state.regs.set("rax", state.pkru)


@_handler(Op.SYSCALL)
def _op_syscall(cpu, state, instr, addr, rip_next):
    if cpu.syscall_handler is None:
        raise MachineFault("SYSCALL with no kernel attached", addr)
    cpu.syscall_handler(state)


@_handler(Op.HLCALL)
def _op_hlcall(cpu, state, instr, addr, rip_next):
    if cpu.hl_dispatch is None:
        raise MachineFault("HLCALL with no dispatcher", addr)
    cpu.hl_dispatch(state, instr.imm)


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
        rsp = (state.regs.get("rsp") - WORD_SIZE) & _MASK64
        state.regs.set("rsp", rsp)
        self.space.write_word(rsp, value, state.pkru)

    def _pop(self, state: ExecState) -> int:
        rsp = state.regs.get("rsp")
        value = self.space.read_word(rsp, state.pkru)
        state.regs.set("rsp", (rsp + WORD_SIZE) & _MASK64)
        return value

    def _precision_forced(self) -> bool:
        """True when something observes execution at instruction or
        access granularity — those consumers get the precise path."""
        return (self.force_slow_path or self.trace_hook is not None
                or bool(self.space._observers)
                or bool(self.counter.listeners))

    # -- execution -----------------------------------------------------------

    def run(self, state: ExecState, until_rip: int = HOST_RETURN_ADDRESS,
            max_steps: Optional[int] = None) -> str:
        """Run until ``rip`` equals ``until_rip``, ``HLT``, or ``max_steps``.

        Returns the exit reason: ``"host-return"``, ``"hlt"``, or
        ``"max-steps"``.  Machine faults propagate to the caller — the
        simulated kernel (or the MVX monitor watching a variant) decides
        what a fault means.
        """
        steps = 0
        regs = state.regs
        while True:
            if regs.rip == until_rip:
                return "host-return"
            if max_steps is not None and steps >= max_steps:
                return "max-steps"
            if self._precision_forced():
                self.step(state)
                steps += 1
            else:
                steps = self._run_fast(state, until_rip, max_steps, steps)

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
        handler = _DISPATCH[instr.op]
        if handler is None:  # pragma: no cover - decode guarantees coverage
            raise InvalidInstruction(f"unhandled opcode {instr.op}", addr)
        handler(self, state, instr, addr, rip_next)

    def _run_fast(self, state: ExecState, until_rip: int,
                  max_steps: Optional[int], steps: int) -> int:
        """The fast interpreter: decoded-page cache, inlined hot opcodes,
        batched virtual-time charging.

        Executes until an exit condition (``until_rip``/``max_steps``) is
        hit, or until a host callback (``SYSCALL``/``HLCALL``) may have
        attached a precision consumer — either way it returns the updated
        step count and :meth:`run` re-evaluates.  Pending charges are
        flushed at every block boundary and, via ``finally``, before any
        fault propagates, so virtual-cycle totals and
        ``instructions_retired`` are bit-identical to the precise path at
        every observable point (host callbacks, faults, run exit).
        """
        space = self.space
        regs = state.regs
        regs_d = regs._regs
        counter = self.counter
        cost_ns = self.costs.instruction_ns
        read_word = space.read_word
        write_word = space.write_word
        space_read = space.read
        space_write = space.write
        fetch_check = space.fetch_check
        M = _MASK64
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
                    cur_page = fetch_check(rip)
                    cur_idx = idx
                    cur_epoch = space.mapping_epoch
                cache = cur_page.decode_cache
                if cache is None:
                    cache = cur_page.decode_cache = {}
                offset = rip & 0xFFF
                entry = cache.get(offset)
                if entry is None:
                    entry = self._decode_cached(cur_page, offset, rip)
                op, r1, r2, imm, instr = entry

                steps += 1
                pending += 1
                rip_next = rip + INSTR_SIZE
                regs.rip = rip_next

                # -- inlined hot opcodes (numeric opcode constants; see
                #    Op in isa.py).  Semantics mirror the precise
                #    handlers exactly, including operation order around
                #    possible faults.
                if op == 0x13:            # LOAD
                    regs_d[r1] = read_word((regs_d[r2] + imm) & M,
                                           state.pkru)
                elif op == 0x14:          # STORE
                    write_word((regs_d[r1] + imm) & M, regs_d[r2],
                               state.pkru)
                elif op == 0x10:          # MOV_RR
                    regs_d[r1] = regs_d[r2]
                elif op == 0x11:          # MOV_RI
                    regs_d[r1] = imm & M
                elif op == 0x21:          # ADD_RI
                    regs_d[r1] = (regs_d[r1] + imm) & M
                elif op == 0x20:          # ADD_RR
                    regs_d[r1] = (regs_d[r1] + regs_d[r2]) & M
                elif op == 0x31:          # CMP_RI
                    left = regs_d[r1]
                    diff = (left - imm) & M
                    if diff == 0:
                        flags = 1
                    elif diff >> 63:
                        flags = 2
                    else:
                        flags = 0
                    if left < (imm & M):
                        flags |= 4
                    regs.flags = flags
                elif op == 0x30:          # CMP_RR
                    left = regs_d[r1]
                    right = regs_d[r2]
                    diff = (left - right) & M
                    if diff == 0:
                        flags = 1
                    elif diff >> 63:
                        flags = 2
                    else:
                        flags = 0
                    if left < right:
                        flags |= 4
                    regs.flags = flags
                elif op == 0x43:          # JE
                    if regs.flags & 1:
                        regs.rip = (rip_next + imm) & M
                elif op == 0x44:          # JNE
                    if not regs.flags & 1:
                        regs.rip = (rip_next + imm) & M
                elif op == 0x40:          # JMP
                    regs.rip = (rip_next + imm) & M
                elif op == 0x45:          # JL
                    if regs.flags & 2:
                        regs.rip = (rip_next + imm) & M
                elif op == 0x46:          # JGE
                    if not regs.flags & 2:
                        regs.rip = (rip_next + imm) & M
                elif op == 0x47:          # JB
                    if regs.flags & 4:
                        regs.rip = (rip_next + imm) & M
                elif op == 0x48:          # JAE
                    if not regs.flags & 4:
                        regs.rip = (rip_next + imm) & M
                elif op == 0x50:          # CALL
                    rsp = (regs_d["rsp"] - 8) & M
                    regs_d["rsp"] = rsp
                    write_word(rsp, rip_next, state.pkru)
                    regs.rip = (rip_next + imm) & M
                elif op == 0x51:          # CALL_R
                    rsp = (regs_d["rsp"] - 8) & M
                    regs_d["rsp"] = rsp
                    write_word(rsp, rip_next, state.pkru)
                    regs.rip = regs_d[r1]
                elif op == 0x52:          # RET
                    rsp = regs_d["rsp"]
                    value = read_word(rsp, state.pkru)
                    regs_d["rsp"] = (rsp + 8) & M
                    regs.rip = value
                elif op == 0x53:          # PUSH_R
                    value = regs_d[r1]    # before the move, like _op_push_r
                    rsp = (regs_d["rsp"] - 8) & M
                    regs_d["rsp"] = rsp
                    write_word(rsp, value, state.pkru)
                elif op == 0x54:          # POP_R
                    rsp = regs_d["rsp"]
                    value = read_word(rsp, state.pkru)
                    regs_d["rsp"] = (rsp + 8) & M
                    regs_d[r1] = value
                elif op == 0x55:          # PUSH_I
                    rsp = (regs_d["rsp"] - 8) & M
                    regs_d["rsp"] = rsp
                    write_word(rsp, imm & M, state.pkru)
                elif op == 0x12:          # LEA
                    regs_d[r1] = (rip_next + imm) & M
                elif op == 0x22:          # SUB_RR
                    regs_d[r1] = (regs_d[r1] - regs_d[r2]) & M
                elif op == 0x23:          # SUB_RI
                    regs_d[r1] = (regs_d[r1] - imm) & M
                elif op == 0x24:          # AND_RR
                    regs_d[r1] = regs_d[r1] & regs_d[r2]
                elif op == 0x25:          # AND_RI
                    regs_d[r1] = (regs_d[r1] & imm) & M
                elif op == 0x26:          # OR_RR
                    regs_d[r1] = regs_d[r1] | regs_d[r2]
                elif op == 0x27:          # OR_RI
                    regs_d[r1] = (regs_d[r1] | imm) & M
                elif op == 0x28:          # XOR_RR
                    regs_d[r1] = regs_d[r1] ^ regs_d[r2]
                elif op == 0x29:          # XOR_RI
                    regs_d[r1] = (regs_d[r1] ^ imm) & M
                elif op == 0x2A:          # SHL_RI
                    regs_d[r1] = (regs_d[r1] << (imm & 63)) & M
                elif op == 0x2B:          # SHR_RI
                    regs_d[r1] = regs_d[r1] >> (imm & 63)
                elif op == 0x2C:          # MUL_RR
                    regs_d[r1] = (regs_d[r1] * regs_d[r2]) & M
                elif op == 0x2D:          # NOT_R
                    regs_d[r1] = ~regs_d[r1] & M
                elif op == 0x32:          # TEST_RR
                    masked = regs_d[r1] & regs_d[r2]
                    if masked == 0:
                        regs.flags = 1
                    elif masked >> 63:
                        regs.flags = 2
                    else:
                        regs.flags = 0
                elif op == 0x15:          # LOAD8
                    regs_d[r1] = space_read((regs_d[r2] + imm) & M, 1,
                                            state.pkru)[0]
                elif op == 0x16:          # STORE8
                    space_write((regs_d[r1] + imm) & M,
                                bytes([regs_d[r2] & 0xFF]), state.pkru)
                elif op == 0x42:          # JMP_M
                    slot = (rip_next + imm) & M
                    regs.rip = read_word(slot, state.pkru)
                elif op == 0x41:          # JMP_R
                    regs.rip = regs_d[r1]
                elif op == 0x01 or op == 0x71:   # NOP / BRK
                    pass
                elif op == 0x60:          # WRPKRU
                    if regs_d["rcx"] or regs_d["rdx"]:
                        raise InvalidInstruction(
                            "wrpkru with non-zero rcx/rdx", rip)
                    state.pkru = regs_d["rax"] & PKRU_MASK
                elif op == 0x61:          # RDPKRU
                    regs_d["rax"] = state.pkru
                elif op == 0x02:          # HLT
                    raise CpuExit("hlt")
                elif op == 0x62:          # SYSCALL — block boundary
                    if pending:
                        counter.charge(pending * cost_ns, "cpu")
                        self.instructions_retired += pending
                        self.fast_insns += pending
                        pending = 0
                    if self.syscall_handler is None:
                        raise MachineFault(
                            "SYSCALL with no kernel attached", rip)
                    self.syscall_handler(state)
                    if self._precision_forced():
                        return steps
                elif op == 0x70:          # HLCALL — block boundary
                    if pending:
                        counter.charge(pending * cost_ns, "cpu")
                        self.instructions_retired += pending
                        self.fast_insns += pending
                        pending = 0
                    if self.hl_dispatch is None:
                        raise MachineFault(
                            "HLCALL with no dispatcher", rip)
                    self.hl_dispatch(state, imm)
                    if self._precision_forced():
                        return steps
                else:  # pragma: no cover - decode guarantees coverage
                    raise InvalidInstruction(
                        f"unhandled opcode {instr.op}", rip)
        finally:
            if pending:
                counter.charge(pending * cost_ns, "cpu")
                self.instructions_retired += pending
                self.fast_insns += pending
