"""The sMVX interposition path retired in one step, against the fast loop
and the precise path.

On the fast tier ``CPU.run`` retires a warm intercepted libc call in one
step (``CPU._run_interposed``): the PLT's ``JMP_M``, the stub's ``PUSH_I``
and ``JMP``, the trampoline up to ``CALL smvx_gate``, the gate's ``HLCALL``
and ``RET``, the close sequence and the final ``RET``, 21 instructions.
Each case makes three calls through a PLT entry on three fresh copies of
``test_trampoline_isa.py``'s rig: one runs the one-step, one the fast loop
(``max_steps`` set, which skips the one-step) and one the precise path.
After every call the three must agree on registers, PKRU, virtual time,
retirements, access counts, TLB fills, monitor statistics, what a
precision consumer saw, and the call's outcome, faults included.  The
``rip`` at which each one-step call entered the fast loop is pinned: one
case per way the one-step hands a call back.
"""

import pytest

from repro.core import AlarmLog, attach_smvx, build_smvx_stub_image
from repro.core.divergence import DivergenceKind, DivergenceReport
from repro.core.ipc import LockstepTimeout
from repro.errors import MachineFault, MvxDivergence
from repro.kernel import Kernel
from repro.libc import build_libc_image
from repro.loader import ImageBuilder
from repro.machine.cpu import CPU, ExecState, HOST_RETURN_ADDRESS
from repro.machine.isa import INSTR_SIZE, Instruction, Op
from repro.machine.memory import (
    PAGE_SIZE,
    PROT_READ,
    PROT_RW,
    PROT_WRITE,
    WORD_SIZE,
)
from repro.machine.mpk import PKRU_ALLOW_ALL, pkru_disable_access
from repro.machine.registers import RegisterFile
from repro.process import GuestProcess

#: trampoline instruction indices (core/trampoline.py's ``common``)
OPEN_RCX, OPEN_RAX, CALL_GATE, RESUME = 3, 5, 7, 8
CLOSE_RDX, CLOSE_RAX = 10, 11
#: a protection key no rig uses, for the stack in the pkey cases
STACK_PKEY = 9


def make_rig(caller=lambda ctx: ctx.libc("getpid")):
    """``test_trampoline_isa.py``'s rig: libc, the mvx stub image and an
    app importing getpid and time, with the sMVX monitor attached."""
    kernel = Kernel()
    proc = GuestProcess(kernel, "rig")
    proc.load_image(build_libc_image(), tag="libc")
    proc.load_image(build_smvx_stub_image(), tag="libsmvx")
    builder = ImageBuilder("rigapp")
    builder.import_libc("mvx_init", "mvx_start", "mvx_end", "getpid",
                        "time")
    builder.add_hl_function("caller", caller, 0, calls=("getpid",))
    target = proc.load_image(builder.build(), main=True)
    monitor = attach_smvx(proc, target, alarm_log=AlarmLog())
    return proc, monitor, target


class Rig:
    """One rig in one mode, with the addresses the cases name."""

    def __init__(self, mode):
        self.proc, self.monitor, target = make_rig()
        self.mode = mode
        self.cpu = self.proc.cpu
        self.cpu.force_slow_path = mode == "precise"
        self.space = self.proc.space
        self.state = self.proc.main_thread().state
        image = self.monitor.monitor_image
        self.tramp = image.symbol_address("smvx_trampoline")
        self.gate = image.symbol_address("smvx_gate")
        self.at = {
            "plt": target.symbol_address("getpid@plt"),
            "plt-time": target.symbol_address("time@plt"),
            "stub-jmp": (image.symbol_address("smvx_stub_getpid")
                         + INSTR_SIZE),
            "gate-ret": self.gate + INSTR_SIZE,
            "resume": self.insn(RESUME),
            "resume+1": self.insn(RESUME + 1),
        }
        assert self.decode(CALL_GATE).op is Op.CALL
        self.entered = []
        self.seen = []
        self.detach = None
        run_fast = self.cpu._run_fast

        def spy(state, *args):
            self.entered.append(state.regs.rip)
            return run_fast(state, *args)

        self.cpu._run_fast = spy

    def insn(self, index):
        return self.tramp + index * INSTR_SIZE

    def decode(self, index):
        return Instruction.decode(self.space.read(
            self.insn(index), INSTR_SIZE, privileged=True))

    def rewrite(self, index, instr):
        self.space.write(self.insn(index), instr.encode(), privileged=True)

    def predecode(self):
        """Decode the whole path, from the stub on, without running it."""
        scratch = ExecState(RegisterFile())
        stub = self.at["stub-jmp"] - INSTR_SIZE
        for addr in ([stub, stub + INSTR_SIZE, self.gate,
                      self.gate + INSTR_SIZE]
                     + [self.insn(i) for i in range(16)]):
            scratch.regs.rip = addr
            self.cpu._fetch(scratch)

    def key_the_stack(self, pages=2):
        """Put the stack's lowest ``pages`` of its top two under
        ``STACK_PKEY``."""
        top = (self.state.regs.get("rsp") - WORD_SIZE) & ~(PAGE_SIZE - 1)
        self.space.pkey_mprotect(top - PAGE_SIZE, pages * PAGE_SIZE,
                                 PROT_RW, STACK_PKEY)

    def straddle(self):
        """Place ``rsp`` 16 bytes above its page's base: the call's first
        push then lands on the page's lowest word, and the gate's frame
        words lie two on each side of the page boundary."""
        base = (self.state.regs.get("rsp") - WORD_SIZE) & ~(PAGE_SIZE - 1)
        self.state.regs.set("rsp", base + 2 * WORD_SIZE)

    def call(self, plt="plt", until=None):
        """Run one call from a PLT entry; returns how it ended."""
        regs = self.state.regs
        rsp = (regs.get("rsp") - WORD_SIZE) & ((1 << 64) - 1)
        regs.set("rsp", rsp)
        # privileged, so that a keyed stack faults in the path, not here
        self.space.write_word(rsp, HOST_RETURN_ADDRESS, privileged=True)
        regs.rip = self.at[plt]
        until = HOST_RETURN_ADDRESS if until is None else self.at[until]
        try:
            return self.cpu.run(
                self.state, until_rip=until,
                max_steps=10**6 if self.mode == "fast loop" else None)
        except (MachineFault, MvxDivergence, LockstepTimeout) as exc:
            return type(exc).__name__, getattr(exc, "address", None)

    def observables(self):
        counter = self.proc.counter
        return {
            "registers": self.state.regs.snapshot(),
            "pkru": self.state.pkru,
            "virtual_ns": counter.total_ns,
            "by_category": dict(counter.by_category),
            "clock": self.proc.kernel.clock.monotonic_ns,
            "instructions": self.cpu.instructions_retired,
            "accesses": (self.space.access_count, self.space.tlb_fills),
            "tiers": (self.cpu.fast_insns, self.cpu.precise_insns),
            "stats": vars(self.monitor.stats).copy(),
            "seen": list(self.seen),
        }


def in_gate(rig, action):
    """Run ``action(rig, rsp)`` inside the next gate, after its handler
    returned: ``rsp`` is the gate frame's return slot."""
    dispatch = rig.cpu.hl_dispatch

    def wrapped(state, index):
        rsp = state.regs.get("rsp")
        dispatch(state, index)
        if state.regs.rip == rig.gate + INSTR_SIZE:
            rig.cpu.hl_dispatch = dispatch
            action(rig, rsp)

    rig.cpu.hl_dispatch = wrapped


def raising(exc):
    def arm(rig):
        def dispatch(ctx, thread, name, args):
            del rig.monitor._dispatch
            raise exc
        rig.monitor._dispatch = dispatch
    return arm


def attach(consumer):
    def arm(rig):
        def action(rig, rsp):
            if consumer == "hook":
                rig.cpu.trace_hook = (
                    lambda state, addr, instr: rig.seen.append(addr))
                rig.detach = lambda: setattr(rig.cpu, "trace_hook", None)
            elif consumer == "observer":
                def observer(op, addr, size, value):
                    rig.seen.append((op, addr))
                rig.space.add_observer(observer)
                rig.detach = lambda: rig.space.remove_observer(observer)
            else:
                def listener(ns, category):
                    rig.seen.append((ns, category))
                rig.proc.counter.add_listener(listener)
                rig.detach = lambda: rig.proc.counter.remove_listener(
                    listener)
        in_gate(rig, action)
    return arm


def detach(rig):
    rig.detach()


def rewrite_close_rax(rig, rsp=None):
    rig.rewrite(CLOSE_RAX, Instruction(Op.MOV_RI, "rax", imm=PKRU_ALLOW_ALL))


def rewrite_gate_ret(rig, rsp):
    rig.space.write(rig.gate + INSTR_SIZE, Instruction(Op.RET).encode(),
                    privileged=True)


def smash_return(rig, rsp):
    rig.space.write_word(rsp, rig.at["resume+1"], privileged=True)


def mprotect_trampoline(rig):
    rig.space.mprotect(rig.tramp & ~(PAGE_SIZE - 1), PAGE_SIZE, PROT_READ)


def rewritten_and_decoded(index, reg, imm):
    def arm(rig):
        rig.rewrite(index, Instruction(Op.MOV_RI, reg, imm=imm))
        rig.predecode()
    return arm


def deny_stack_when_closed(rig):
    rig.key_the_stack()
    rig.state.pkru = pkru_disable_access(rig.state.pkru, STACK_PKEY)


def deny_the_page_below(rig):
    rig.key_the_stack(pages=1)
    rig.straddle()
    rig.state.pkru = pkru_disable_access(rig.state.pkru, STACK_PKEY)


def deny_stack_when_open(rig):
    rig.key_the_stack()
    rewritten_and_decoded(OPEN_RAX, "rax", pkru_disable_access(
        PKRU_ALLOW_ALL, STACK_PKEY))(rig)


_DIVERGENCE = MvxDivergence(DivergenceReport(DivergenceKind.CALL_NAME, 1,
                                             "getpid", "injected"))

#: case -> (what runs before call 2, what runs before call 3, the PLT
#: entry of calls 2 and 3 and the until_rip of calls 1 and 2, the three
#: calls' outcomes, and the addresses at which each one-step call entered
#: the fast loop).  The first call is always cold and enters the loop at
#: the PLT.
RET = "host-return"
CASES = {
    "warm": (None, None, {}, [RET, RET, RET], [["plt"], [], []]),
    # a cold stub (time's, never called yet) on a warm trampoline
    "cold-stub": (None, None, {"plt": "plt-time"}, [RET, RET, RET],
                  [["plt"], ["plt-time"], []]),
    # the first call stops at the resume point, so the close sequence is
    # not yet decoded: the second call cannot be planned
    "cold-trampoline": (None, None, {"first-until": "resume"},
                        [RET, RET, RET], [["plt"], ["plt"], []]),
    # the trampoline page made non-executable: the plan is dropped
    "trampoline-noexec": (mprotect_trampoline, None, {},
                          [RET, ("ExecuteFault", "stub"),
                           ("ExecuteFault", "stub")],
                          [["plt"], ["plt"], ["plt"]]),
    # the close sequence rewritten between calls: the plan is dropped,
    # and rebuilt from the new instructions once they are decoded
    "trampoline-rewritten": (rewrite_close_rax, None, {}, [RET, RET, RET],
                             [["plt"], ["plt"], []]),
    # the gate rewrites the close sequence, or its own RET
    "gate-rewrites-close": (
        lambda rig: in_gate(rig, rewrite_close_rax), None, {},
        [RET, RET, RET], [["plt"], ["gate-ret"], ["plt"]]),
    "gate-rewrites-ret": (
        lambda rig: in_gate(rig, rewrite_gate_ret), None, {},
        [RET, RET, RET], [["plt"], ["gate-ret"], ["plt"]]),
    # until_rip on the path
    "until-stub-jmp": (None, None, {"until": "stub-jmp"}, [RET, RET, RET],
                       [["plt"], ["plt"], []]),
    "until-gate-ret": (None, None, {"until": "gate-ret"}, [RET, RET, RET],
                       [["plt"], ["plt"], []]),
    "until-resume": (None, None, {"until": "resume"}, [RET, RET, RET],
                     [["plt"], ["plt"], []]),
    # a non-zero rcx at the open WRPKRU, or rdx at the close one
    "wrpkru-open-rcx": (
        rewritten_and_decoded(OPEN_RCX, "rcx", 1), None, {},
        [RET, ("InvalidInstruction", "open-wrpkru"),
         ("InvalidInstruction", "open-wrpkru")], [["plt"], [], []]),
    "wrpkru-close-rdx": (
        rewritten_and_decoded(CLOSE_RDX, "rdx", 1), None, {},
        [RET, ("InvalidInstruction", "close-wrpkru"),
         ("InvalidInstruction", "close-wrpkru")], [["plt"], [], []]),
    # a push the PKRU denies: the stub's, under the closed PKRU, or the
    # CALL's, under the open one
    "push-denied-closed": (deny_stack_when_closed, None, {},
                           [RET, ("ProtectionKeyFault", "push"),
                            ("ProtectionKeyFault", "push")],
                           [["plt"], [], []]),
    # the stub's push lands, the trampoline's first PUSH_R is denied
    "push-r-denied": (deny_the_page_below, None, {},
                      [RET, ("ProtectionKeyFault", "push"),
                       ("ProtectionKeyFault", "push")], [["plt"], [], []]),
    # the gate's frame straddles two pages (read word by word), through
    # time's stub, the second PLT index
    "frame-straddles": (Rig.straddle, None, {"plt": "plt-time"},
                        [RET, RET, RET], [["plt"], ["plt-time"], []]),
    "push-denied-open": (deny_stack_when_open, None, {},
                         [RET, ("ProtectionKeyFault", "call-push"),
                          ("ProtectionKeyFault", "call-push")],
                         [["plt"], [], []]),
    # the gate raises
    "gate-divergence": (raising(_DIVERGENCE), None, {},
                        [RET, ("MvxDivergence", None), RET],
                        [["plt"], [], []]),
    "gate-follower-fault": (
        raising(MachineFault("follower fault", 0x5555_0002_E000)), None, {},
        [RET, ("MachineFault", 0x5555_0002_E000), RET], [["plt"], [], []]),
    "gate-lockstep-timeout": (
        raising(LockstepTimeout("follower: protocol stall")), None, {},
        [RET, ("LockstepTimeout", None), RET], [["plt"], [], []]),
    # the gate frame's return slot smashed: the gate's RET leaves the path
    "smashed-return": (lambda rig: in_gate(rig, smash_return), None, {},
                       [RET, RET, RET], [["plt"], ["resume+1"], []]),
    # a precision consumer attached inside the gate, detached before the
    # third call
    "hook": (attach("hook"), detach, {}, [RET, RET, RET],
             [["plt"], [], []]),
    "observer": (attach("observer"), detach, {}, [RET, RET, RET],
                 [["plt"], [], []]),
    "listener": (attach("listener"), detach, {}, [RET, RET, RET],
                 [["plt"], [], []]),
}


def resolve(rig, outcome):
    """A case's symbolic fault address, in ``rig``."""
    if not isinstance(outcome, tuple) or not isinstance(outcome[1], str):
        return outcome
    name, where = outcome
    rsp = rig.state.regs.get("rsp")
    return name, {
        "stub": rig.at["stub-jmp"] - INSTR_SIZE,
        "open-wrpkru": rig.insn(OPEN_RAX + 1),
        "close-wrpkru": rig.insn(CLOSE_RAX + 1),
        "push": rsp,                      # the register file keeps the
        "call-push": rsp,                 # faulting push's rsp
    }[where]


@pytest.mark.parametrize("case", list(CASES))
def test_interposition_one_step_matches_the_fast_loop_and_precise_path(
        case):
    before_second, before_third, calls, outcomes, entered = CASES[case]
    ends = {}
    for mode in ("one-step", "fast loop", "precise"):
        rig = Rig(mode)
        got, entries, states = [], [], []
        for number in range(3):
            if number == 1 and before_second is not None:
                before_second(rig)
            if number == 2 and before_third is not None:
                before_third(rig)
            until = (calls.get("first-until") if number == 0
                     else calls.get("until") if number == 1 else None)
            plt = calls.get("plt", "plt") if number else "plt"
            del rig.entered[:]
            outcome = rig.call(plt, until)
            got.append(outcome)
            assert outcome == resolve(rig, outcomes[number]), (mode, number)
            entries.append(list(rig.entered))
            states.append(rig.observables())
        names = {addr: name for name, addr in rig.at.items()}
        if mode == "one-step":
            assert [[names.get(rip, hex(rip)) for rip in call]
                    for call in entries] == entered
        elif mode == "fast loop":
            assert all(len(call) == 1 for call in entries)
        else:
            assert entries == [[], [], []]
        if before_third is detach:
            assert states[1]["seen"] and states[2]["seen"] == states[1]["seen"]
        ends[mode] = states
    assert ends["one-step"] == ends["fast loop"]
    for one_step, precise in zip(ends["one-step"], ends["precise"]):
        assert precise["tiers"] == (0, precise["instructions"])
        precise["tiers"] = one_step["tiers"]
        assert one_step == precise


def test_cases_reach_the_gate_and_its_hand_backs():
    """The cases exercise what they name: the warm call runs the gate,
    and the smashed return lands one instruction past the resume
    point."""
    rig = Rig("one-step")
    rig.call()
    before = rig.monitor.stats.intercepted_calls
    assert rig.call() == RET
    assert rig.monitor.stats.intercepted_calls == before + 1
    assert rig.state.regs.get("rax") == rig.proc.pid
    assert rig.decode(RESUME).op is Op.MOV_RR
    assert rig.decode(OPEN_RCX) == Instruction(Op.MOV_RI, "rcx", imm=0)
    assert rig.decode(CLOSE_RDX) == Instruction(Op.MOV_RI, "rdx", imm=0)
    assert rig.decode(OPEN_RAX).reg1 == rig.decode(CLOSE_RAX).reg1 == "rax"


@pytest.mark.parametrize("frame", ["one-page", "straddling", "unreadable"])
def test_gate_reads_its_frame_as_four_charged_guest_reads(frame):
    """The gate reads the trampoline's four frame words as four guest
    reads of ``memory_access_ns`` each, every one charged before it is
    read: one ``read_words`` for a frame in one page, word by word for a
    frame across two pages, and a frame it may not read faults with only
    the first read charged."""
    rig = Rig("one-step")
    rig.call("plt-time")                  # cold
    if frame == "straddling":
        rig.straddle()
    if frame == "unreadable":
        rsp = rig.state.regs.get("rsp")
        rig.space.mprotect((rsp & ~(PAGE_SIZE - 1)) - PAGE_SIZE,
                           2 * PAGE_SIZE, PROT_WRITE)
    costs = rig.proc.costs
    before = dict(rig.proc.counter.by_category)
    del rig.entered[:]
    outcome = rig.call("plt-time")
    after = rig.proc.counter.by_category
    charged = {category: after[category] - before.get(category, 0)
               for category in ("memory", "smvx-intercept")
               if after.get(category, 0) != before.get(category, 0)}
    assert rig.entered == []              # warm: the one-step ran it
    if frame == "unreadable":
        rsp = rig.state.regs.get("rsp")
        assert outcome == ("SegmentationFault", rsp + WORD_SIZE)
        assert charged == {"memory": costs.memory_access_ns}
    else:
        assert outcome == RET
        assert rig.state.regs.get("rax") == 1733097600   # time, not getpid
        assert charged == {
            "memory": 4 * costs.memory_access_ns,
            "smvx-intercept": costs.trampoline_ns + costs.monitor_call_ns}


def test_warm_intercepted_libc_retires_without_the_fast_loop(monkeypatch):
    """A warm intercepted ``ctx.libc`` never enters the fast loop and
    retires the path's 21 instructions on the fast tier, so the one-step
    cannot switch itself off unseen."""
    entered = []
    run_fast = CPU._run_fast

    def counted(cpu, *args):
        entered.append(cpu.space.access_count)
        return run_fast(cpu, *args)

    monkeypatch.setattr(CPU, "_run_fast", counted)
    planned = []
    plan = CPU._plan_interposition

    def counted_plan(cpu, *args):
        planned.append(args[0])
        return plan(cpu, *args)

    monkeypatch.setattr(CPU, "_plan_interposition", counted_plan)
    retired = []

    def caller(ctx):
        cpu = ctx.thread.cpu
        before = (cpu.fast_insns, cpu.precise_insns)
        result = ctx.libc("getpid")
        retired.append((cpu.fast_insns - before[0],
                        cpu.precise_insns - before[1]))
        return result

    proc, monitor, _ = make_rig(caller)
    assert proc.call_function("caller") == proc.pid
    assert entered                        # cold: decoded by the fast loop
    for _ in range(3):
        del entered[:]
        assert proc.call_function("caller") == proc.pid
        assert entered == []
        assert retired[-1] == (21, 0)
    assert monitor.stats.intercepted_calls == 4
    # planned once, on the first warm call, and kept with the trampoline
    assert planned == [monitor.monitor_image.symbol_address(
        "smvx_trampoline")]
