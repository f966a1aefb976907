"""The host<->guest call protocol against a copy of its earlier form.

``reference_guest_call``, ``reference_push``, ``reference_hl_dispatch``
and ``reference_hl_function`` are ``GuestProcess.guest_call``,
``GuestProcess._push``, ``GuestProcess._hl_dispatch`` and
``Loader.hl_function`` as they stood before the protocol was made cheap,
and ``reference_run`` is ``CPU.run`` as it stood before it learned to
retire a whole guest call in one step (``CPU._run_call``).  They are
kept verbatim except that they call each other instead of the methods.
A process runs them in place of its own protocol after
:func:`use_reference_protocol`.  On every input they share, the two
protocols must leave the same registers, memory, access and TLB-fill
counts, virtual time, retirement counts, call stacks, libc counts and
observer events, and raise the same fault at the same address.

Each generated case calls its entry twice on one process, because the
one-step only takes calls whose instructions are already decoded: the
first call runs cold, the second warm.  Its actions also reach every
case where the one-step hands the call back to the interpreter loop: a
``.got.plt`` slot that leads to ISA code or to a non-executable page, a
PLT page made non-executable, a body that drops its own stub's decoded
page, a precision consumer attached inside a body, and a smashed return
slot.

Two inputs are left out of the comparison because the protocol now
handles them differently on purpose, and have their own tests below: a
fault while ``guest_call`` pushes its arguments (the caller's state is
now restored), and an ``HLCALL`` index outside the HL table (now an
``InvalidInstruction`` at the ``HLCALL``).
"""

import types
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ImageError, InvalidInstruction, SegmentationFault
from repro.kernel import Kernel
from repro.libc import build_libc_image
from repro.loader import ImageBuilder
from repro.machine import Assembler
from repro.machine.cpu import CPU, ExecState, HOST_RETURN_ADDRESS
from repro.machine.isa import INSTR_SIZE
from repro.machine.memory import PAGE_SIZE, PROT_READ, WORD_SIZE
from repro.machine.registers import ARG_REGISTERS
from repro.process import GuestProcess
from repro.process.context import GuestContext

_MASK64 = (1 << 64) - 1

LIBC = build_libc_image()


# -- the reference protocol ---------------------------------------------------


def reference_guest_call(self, thread, target, *args):
    """Call a guest function and return its ``rax`` (as unsigned).

    Implements the SysV convention: first six integer args in
    registers, the rest pushed right-to-left, ``rax`` = arg count (for
    variadic callees), return address pushed by CALL semantics.
    """
    if isinstance(target, str):
        address = self.resolve(target)
    else:
        address = target
    state = thread.state
    regs = state.regs
    saved = regs.snapshot()
    previous_active = self.active_thread
    self.active_thread = thread

    int_args = [int(a) & _MASK64 for a in args]
    for name, value in zip(ARG_REGISTERS, int_args[:6]):
        regs.set(name, value)
    for value in reversed(int_args[6:]):
        reference_push(self, state, value)
    regs.set("rax", len(int_args))

    self._sentinel_seq += 1
    sentinel = HOST_RETURN_ADDRESS + INSTR_SIZE * (
        self._sentinel_seq & 0xFFFFFF)
    reference_push(self, state, sentinel)
    regs.rip = address
    try:
        reference_run(thread.cpu, state, until_rip=sentinel)
        result = regs.get("rax")
    finally:
        regs.load_snapshot(saved)
        self.active_thread = previous_active
    return result


def reference_run(self, state: ExecState,
                  until_rip: int = HOST_RETURN_ADDRESS,
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
        # the precise path serves anything observing execution at
        # instruction or access granularity
        if (self.force_slow_path or self.trace_hook is not None
                or self.space._observers or self.counter.listeners):
            self.step(state)
            steps += 1
        else:
            steps = self._run_fast(state, until_rip, max_steps, steps)


def reference_push(self, state: ExecState, value: int) -> None:
    rsp = (state.regs.get("rsp") - WORD_SIZE) & _MASK64
    state.regs.set("rsp", rsp)
    state.thread.space.write_word(rsp, value & _MASK64, pkru=state.pkru)


def reference_hl_function(self, global_index):
    try:
        return self.hl_table[global_index]
    except IndexError:
        raise ImageError(f"bad HL index {global_index}") from None


def reference_hl_dispatch(self, state: ExecState, global_index: int) -> None:
    hl, home = reference_hl_function(self.loader, global_index)
    rip_next = state.regs.rip             # already past the HLCALL
    entry_addr = rip_next - INSTR_SIZE
    loaded = self.loader.image_at(entry_addr) or home
    thread = state.thread
    regs = state.regs
    entry_rsp = regs.get("rsp")

    args = []
    for index in range(hl.arity):
        if index < len(ARG_REGISTERS):
            args.append(regs.get(ARG_REGISTERS[index]))
        else:
            offset = WORD_SIZE * (index - len(ARG_REGISTERS) + 1)
            args.append(thread.space.read_word(entry_rsp + offset,
                                               pkru=state.pkru))

    ctx = GuestContext(self, thread, loaded, hl.name)
    if self.function_trace is not None:
        # (stack depth, name): depth lets the auth-diff analysis find
        # the frame *enclosing* the first divergent call
        self.function_trace.append((len(thread.func_stack), hl.name))
    thread.func_stack.append(hl.name)
    previous_active = self.active_thread
    self.active_thread = thread
    try:
        result = hl.fn(ctx, *args)
    finally:
        thread.func_stack.pop()
        self.active_thread = previous_active
        # discard locals; the (possibly corrupted) return-address slot
        # is back on top for the RET that follows the HLCALL.
        regs.set("rsp", entry_rsp)
    regs.set("rax", int(result or 0) & _MASK64)


def use_reference_protocol(process: GuestProcess) -> None:
    process.guest_call = types.MethodType(reference_guest_call, process)
    process.cpu.hl_dispatch = types.MethodType(reference_hl_dispatch,
                                               process)


# -- one run of a generated call tree -----------------------------------------

UNMAPPED = 0x1234_5000
#: actions that end where the one-step hands the call back to the loop
#: (``got-isa`` is the entry's alone: from the leaf it would recurse)
FALLBACK_ACTIONS = ("got-noexec", "mprotect", "restub")
LEAF_ACTIONS = ("strlen", "getpid", "malloc", "fault", "abort", "smash",
                "hook", "listen") + FALLBACK_ACTIONS
ENTRY_ACTIONS = LEAF_ACTIONS + ("call", "call", "isa", "got-isa")


def new_process():
    process = GuestProcess(Kernel(), "protocol", heap_pages=4)
    process.load_image(LIBC, tag="libc")
    return process


def run_call_tree(case, reference, precise, observe):
    """Run ``case``'s entry call twice from the host on a fresh process;
    after each call, return every observable the call protocol can
    touch."""
    process = new_process()
    seen, hooked, charged, libc_seen, events = [], [], [], [], []

    def perform(ctx, name, plan, args):
        seen.append((name, args, ctx.regs.get("rax")))   # rax: arg count
        entry_rsp = ctx.regs.get("rsp")
        total = sum(args)
        for action, operand in plan:
            if action == "strlen":
                buf = ctx.stack_alloc(32)
                ctx.write_cstring(buf, b"x" * (operand % 24))
                total += ctx.libc("strlen", buf)
            elif action == "getpid":
                total += ctx.libc("getpid")
            elif action == "malloc":
                pointer = ctx.libc("malloc", 8 + operand % 64)
                ctx.write_word(pointer, total)
            elif action == "fault":
                ctx.read_word(UNMAPPED + 8 * (operand % 4))
            elif action == "abort":
                ctx.fault(f"{name} aborts")
            elif action == "smash":
                # the entry may return into leaf; leaf never into itself
                targets = (UNMAPPED, process.heap.base, ctx.symbol("leaf"))
                ctx.write_word(entry_rsp, targets[
                    operand % (3 if name == "entry" else 2)])
            elif action == "hook":
                ctx.thread.cpu.trace_hook = \
                    lambda state, addr, instr: hooked.append(addr)
            elif action == "listen":
                ctx.thread.counter.add_listener(
                    lambda ns, category: charged.append((ns, category)))
            elif action in ("got-isa", "got-noexec"):
                # the slot leads to ISA code, or to a page that is mapped
                # but not executable
                target = (ctx.symbol("wrap") if action == "got-isa"
                          else process.heap.base)
                ctx.write_word(ctx.loaded.got_slot_address("time"), target)
                total += ctx.libc("time", 0)
            elif action == "mprotect":
                # the image's PLT page, where every later libc call
                # faults, or the body's own stub page, where its RET does
                code = (ctx.loaded.symbol_address("time@plt")
                        if operand % 2 == 0 else ctx.symbol(name))
                ctx.space.mprotect(code - code % PAGE_SIZE, PAGE_SIZE,
                                   PROT_READ)
            elif action == "restub":
                # rewrite the body's own HLCALL in place: its page's
                # decoded instructions are dropped before the RET
                stub = ctx.symbol(name)
                ctx.space.write(stub, ctx.space.read(stub, INSTR_SIZE,
                                                     privileged=True),
                                privileged=True)
            else:
                callee = "leaf" if action == "call" else "wrap"
                total += ctx.call(callee, *case["leaf_calls"][operand])
        return total - len(plan)

    def entry(ctx, *args):
        return perform(ctx, "entry", case["entry_plan"], args)

    def leaf(ctx, *args):
        return perform(ctx, "leaf", case["leaf_plan"], args)

    # ISA code between two HL frames: sets the flags and clobbers
    # registers the protocol must restore for its caller
    wrap = Assembler()
    wrap.cmp_rr("rdi", "rsi")
    wrap.mov_ri("rbx", -1)
    wrap.push_r("rbx")
    wrap.pop_r("r12")
    wrap.call("leaf")
    wrap.add_ri("rax", 1)
    wrap.ret()
    builder = ImageBuilder("tree")
    builder.import_libc("strlen", "getpid", "malloc", "time")
    builder.add_isa_function("wrap", wrap)
    builder.add_hl_function("entry", entry, case["entry_arity"])
    builder.add_hl_function("leaf", leaf, case["leaf_arity"])
    process.load_image(builder.build(), main=True)
    if reference:
        use_reference_protocol(process)
    process.cpu.force_slow_path = precise
    process.function_trace = []
    process.libc_call_observers.append(
        lambda thread, name: libc_seen.append((thread.name, name)))
    if observe:
        process.space.add_observer(lambda *event: events.append(event))
    thread = process.main_thread()
    space, cpu, counter = process.space, process.cpu, process.counter
    calls = []
    for _ in range(2):
        # a consumer the first call attached would pin the second to the
        # precise path; detached, the second call's attach lands inside
        # a warm one-step
        cpu.trace_hook = None
        del counter.listeners[:]
        try:
            outcome = ("return", process.guest_call(thread, "entry",
                                                    *case["args"]))
        except Exception as exc:
            outcome = (type(exc).__name__, str(exc),
                       getattr(exc, "address", None))
        calls.append({
            "outcome": outcome,
            "registers": thread.state.regs.snapshot(),
            "memory": {base: (page.prot, bytes(page.data))
                       for base, page in space.mapped_pages()},
            "access_count": space.access_count,
            "tlb_fills": space.tlb_fills,
            "total_ns": counter.total_ns,
            "by_category": dict(counter.by_category),
            "clock_ns": process.kernel.clock.monotonic_ns,
            "retired": (cpu.instructions_retired, cpu.fast_insns,
                        cpu.precise_insns),
            "func_stack": list(thread.func_stack),
            "active_thread": process.active_thread,
            "libc": (dict(process.libc_call_counts),
                     process.libc_calls_total),
            "function_trace": list(process.function_trace),
            "seen": list(seen),
            "libc_seen": list(libc_seen),
            "hooked": list(hooked),
            "charged": list(charged),
            "events": list(events),
        })
    return calls


wide = st.one_of(st.integers(-(1 << 70), 1 << 70),
                 st.integers(-8, 8),
                 st.integers((1 << 64) - 8, (1 << 64) + 8))
arguments = st.lists(wide, max_size=9)


def plans(actions):
    return st.lists(st.tuples(st.sampled_from(actions),
                              st.integers(0, 2)), max_size=4)


call_trees = st.fixed_dictionaries({
    "args": arguments,
    "entry_arity": st.integers(0, 9),
    "leaf_arity": st.integers(0, 9),
    "entry_plan": plans(ENTRY_ACTIONS),
    "leaf_plan": plans(LEAF_ACTIONS),
    "leaf_calls": st.lists(arguments, min_size=3, max_size=3),
})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=call_trees, precise=st.booleans(), observe=st.booleans())
def test_guest_call_matches_the_reference_protocol(case, precise, observe):
    expected = run_call_tree(case, True, precise, observe)
    assert run_call_tree(case, False, precise, observe) == expected


def test_call_tree_cases_reach_every_outcome():
    """The generated shapes do exercise returns, stack arguments, nested
    calls, faults from a callee and from a smashed return slot, and
    every hand-back from the one-step to the loop."""
    base = {"args": list(range(-3, 6)), "entry_arity": 9, "leaf_arity": 8,
            "leaf_plan": [("strlen", 5)],
            "leaf_calls": [list(range(8)), [], [1 << 64]]}
    cases = [
        ("return", [("call", 0), ("isa", 0), ("getpid", 0), ("malloc", 1)]),
        ("return", [("got-isa", 0), ("restub", 0), ("getpid", 0)]),
        ("return", [("getpid", 0), ("hook", 0)]),
        ("return", [("listen", 0), ("call", 2)]),
        ("SegmentationFault", [("call", 1), ("fault", 2)]),
        ("MachineFault", [("abort", 0)]),
        ("ExecuteFault", [("smash", 1)]),
        ("ExecuteFault", [("got-noexec", 0)]),
        ("ExecuteFault", [("mprotect", 0), ("getpid", 0)]),
        ("ExecuteFault", [("mprotect", 1)]),
    ]
    for kind, plan in cases:
        case = dict(base, entry_plan=plan)
        for precise in (False, True):
            calls = run_call_tree(case, False, precise, observe=False)
            for call in calls:
                assert call["outcome"][0] == kind, plan
                assert call["func_stack"] == []
                assert call["active_thread"] is None
            assert calls == run_call_tree(case, True, precise,
                                          observe=False)
    smashed = run_call_tree(dict(base, entry_plan=[("smash", 0)]), False,
                            False, observe=False)[1]
    assert smashed["outcome"] == ("ExecuteFault", smashed["outcome"][1],
                                  UNMAPPED)
    noexec = run_call_tree(dict(base, entry_plan=[("got-noexec", 0)]),
                           False, False, observe=False)[1]
    assert noexec["outcome"][2] == new_process().heap.base


def test_warm_calls_retire_without_the_fast_loop(monkeypatch):
    """Once its instructions are decoded, a fast-tier ``ctx.libc`` and
    ``ctx.call`` retire in ``CPU.run``'s one-step and never enter the
    fast loop, so the one-step cannot switch itself off unseen."""
    entered = []
    run_fast = CPU._run_fast

    def counted(cpu, *args):
        entered.append(cpu.space.access_count)
        return run_fast(cpu, *args)

    monkeypatch.setattr(CPU, "_run_fast", counted)
    process = new_process()
    builder = ImageBuilder("warm")
    builder.import_libc("getpid")
    builder.add_hl_function(
        "entry", lambda ctx: ctx.libc("getpid") + ctx.call("leaf", 2), 0)
    builder.add_hl_function("leaf", lambda ctx, value: value * 3, 1)
    process.load_image(builder.build(), main=True)
    thread = process.main_thread()
    cpu = process.cpu
    assert process.guest_call(thread, "entry") == process.pid + 6
    assert entered                        # cold: decoded by the fast loop
    del entered[:]
    before = (cpu.fast_insns, cpu.precise_insns)
    assert process.guest_call(thread, "entry") == process.pid + 6
    assert entered == []
    # entry and leaf: HLCALL, RET; getpid: JMP_M, HLCALL, RET
    assert (cpu.fast_insns, cpu.precise_insns) == (before[0] + 7,
                                                   before[1])


# -- the two inputs the protocol now handles differently ----------------------


def test_push_fault_restores_the_callers_state():
    """A stack argument pushed below the stack faults before the callee
    runs; the caller gets its registers and ``active_thread`` back, and
    the fault is the one the reference protocol raises."""
    faults = {}
    for reference in (True, False):
        process = new_process()
        builder = ImageBuilder("pusher")
        builder.add_hl_function("eight", lambda ctx, *args: 0, 8)
        process.load_image(builder.build(), main=True)
        if reference:
            use_reference_protocol(process)
        thread = process.main_thread()
        thread.state.regs.set("rsp", thread.stack_base)
        before = thread.state.regs.snapshot()
        with pytest.raises(SegmentationFault) as caught:
            process.guest_call(thread, "eight", *range(1, 9))
        faults[reference] = (type(caught.value), str(caught.value),
                             caught.value.address)
        if reference:
            # the reference leaves the caller's state clobbered
            assert process.active_thread is thread
            assert thread.state.regs.snapshot() != before
        else:
            assert process.active_thread is None
            assert process.current_counter is process.counter
            assert thread.state.regs.snapshot() == before
    assert faults[False] == faults[True]
    assert faults[False][2] == thread.stack_base - WORD_SIZE


@pytest.mark.parametrize("precise", [False, True], ids=["fast", "precise"])
@pytest.mark.parametrize("where", ["negative", "one-past-end", "huge"])
def test_hlcall_index_outside_the_table_is_an_invalid_instruction(
        where, precise):
    process = new_process()
    table_size = len(process.loader.hl_table)
    index = {"negative": -1, "one-past-end": table_size,
             "huge": 1_000_000}[where]
    code = Assembler()
    code.hlcall(index)
    code.ret()
    builder = ImageBuilder("badcall")
    builder.add_isa_function("bad", code)
    loaded = process.load_image(builder.build(), main=True)
    assert len(process.loader.hl_table) == table_size
    process.cpu.force_slow_path = precise
    thread = process.main_thread()
    thread.state.regs.set("rdi", 0x1234)
    before = thread.state.regs.snapshot()
    with pytest.raises(InvalidInstruction) as caught:
        process.guest_call(thread, "bad", 0x1234)
    assert caught.value.address == loaded.symbol_address("bad")
    assert "HLCALL index" in str(caught.value)
    # the HLCALL retired, as a WRPKRU that #GPs does; nothing else ran
    assert process.cpu.instructions_retired == 1
    assert process.libc_calls_total == 0 and thread.func_stack == []
    assert thread.state.regs.snapshot() == before
    assert process.active_thread is None
