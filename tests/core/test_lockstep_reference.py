"""The leader side of the lockstep protocol against copies of its three
earlier forms.

Every deployment now runs the leader side of §3.3 through
``SmvxMonitor.rendezvous``, ``capture`` and ``publish``.  Before, it was
written three times, and the copies below are those three as they stood:

* in process, ``SmvxMonitor._leader_call``, ``_emulate_for_follower`` and
  ``emulation_fault``: ``reference_leader_call``,
  ``reference_emulate_for_follower`` and ``reference_emulation_fault``;
* on the distributed leader, ``DistributedLeaderMonitor._leader_call``
  and ``_capture``: ``reference_distributed_leader_call`` and
  ``reference_capture``;
* on the mirror, ``RemoteRegionRunner``'s ``_on_call``, ``_on_sync``,
  ``_on_result``, ``_play``, ``_publish``, ``_emulate`` and ``_abort``:
  ``reference_on_call`` and the rest.

They are kept verbatim, except that they call each other instead of the
methods, and that ``LibcResult`` no longer carries the unread
``buffers_copied``.  Each test builds two identical worlds, a protected
process with an open region whose lockstep channel is scripted, runs one
call through the reference in one world and through the monitor in the
other, and compares leader and follower memory, the published
``LibcResult``, the divergence flagged on the channel, the alarms,
``MonitorStats``, both counters and the clock, access counts, TLB fills,
and every wire message.

One difference remains, on the in-process path only.  ``capture``
reads every leader output buffer before ``publish`` writes any, so for
getsockopt (the one call with two output buffers) it reads the second
buffer even when the write of the first into the follower then faults,
where the old path stopped at that fault.  The region is torn down with
the same ``FOLLOWER_FAULT`` alarm either way.  It happens only when the
variants already disagree on the first pointer, and it costs one
privileged read in the leader's space (no TLB fill; the kernel has just
written those bytes, so the read cannot fault): ``access_count`` goes up
by one and nothing else moves.  A buffer the follower passed NULL for is
not read at all, as before: ``capture`` is given the follower's record.
"""

import random
from dataclasses import asdict, dataclass, replace
from types import SimpleNamespace
from typing import List, Tuple

from hypothesis import example, given, settings, strategies as st

from repro.cluster import wire
from repro.cluster.remote import DistributedLeaderMonitor, RemoteRegionRunner
from repro.core import AlarmLog, attach_smvx, build_smvx_stub_image
from repro.core.divergence import (
    CallRecord,
    DivergenceKind,
    DivergenceReport,
    compare_calls,
)
from repro.core.ipc import FOLLOWER, LEADER, CallEvent, LibcResult
from repro.core.monitor import MonitorStats, SmvxMonitor
from repro.errors import MachineFault, MvxDivergence
from repro.kernel import Kernel
from repro.libc import LIBC_ARITIES, build_libc_image
from repro.libc.categories import (
    EMULATION_SPECS,
    BufSize,
    Category,
    EmulationSpec,
    spec_for,
)
from repro.loader import ImageBuilder
from repro.machine.memory import PAGE_SIZE
from repro.process import GuestProcess
from repro.process.context import to_signed

_MASK64 = (1 << 64) - 1


# -- the in-process leader call, as it stood ----------------------------------


def reference_leader_call(self, ctx, thread, name, args):
    region = self.region
    spec = spec_for(name) or EmulationSpec(name, Category.LOCAL)
    region.leader_seq += 1
    record = CallRecord(region.leader_seq, name, tuple(args), LEADER)
    self.stats.leader_calls += 1
    self.process.charge(self.costs.rendezvous_ns, "smvx-rendezvous")
    for tap in self.call_taps:
        tap(LEADER, record)

    try:
        follower_record = region.channel.leader_announce(record)
    except MvxDivergence as divergence:
        self._teardown_region(alarm=divergence.report)
        raise

    report = compare_calls(record, follower_record, spec.pointer_args)
    if report is not None:
        report = replace(report, task_id=thread.tid,
                         guest_pc=thread.state.regs.rip)
        region.channel.leader_abort(report)
        self._teardown_region(alarm=report)
        raise MvxDivergence(report)

    if spec.category is Category.LOCAL:
        retval = self._execute_libc(thread, name, args)
        self.stats.local_calls += 1
        region.channel.leader_publish(LibcResult(
            record.seq, retval, thread.errno, execute_locally=True))
        return retval

    retval = self._execute_libc(thread, name, args)
    self.stats.emulated_calls += 1
    try:
        follower_ret, copied = reference_emulate_for_follower(
            self, spec, retval, record, follower_record)
    except MachineFault as fault:
        report = reference_emulation_fault(self, record.seq, name, fault)
        region.channel.leader_abort(report)
        self._teardown_region(alarm=report)
        raise MvxDivergence(report)
    region.channel.leader_publish(LibcResult(
        record.seq, follower_ret, thread.errno))
    return retval


def reference_emulation_fault(self, seq, name, fault):
    """The alarm for a fault while writing call ``seq``'s result into
    the follower's memory (its buffer lies in an unmapped page): a
    follower fault, reported at the call rather than left for the
    follower to wait out."""
    return DivergenceReport(
        DivergenceKind.FOLLOWER_FAULT, seq, name,
        f"emulating {name} into the follower: "
        f"{type(fault).__name__}: {fault}",
        task_id=self.region.variant.thread.tid, guest_pc=fault.address)


def reference_emulate_for_follower(self, spec, retval, leader, follower):
    """Copy output buffers into the follower's memory and translate a
    pointer-valued return (paper §3.3 + the §3.3 'special' cases).

    Reads come from the leader's view, writes go through the
    follower's own view — under the aligned-variant strategy the same
    numeric address names *different* pages in the two views."""
    space = self.process.space
    follower_space = self.region.variant.thread.space
    region = self.region
    copied: List[Tuple[int, int]] = []
    signed_ret = to_signed(retval)

    if signed_ret >= 0:
        for buffer in spec.out_buffers:
            if buffer.arg_index >= len(leader.args):
                continue
            leader_ptr = leader.args[buffer.arg_index]
            follower_ptr = follower.args[buffer.arg_index]
            if leader_ptr == 0 or follower_ptr == 0:
                continue
            if buffer.size is BufSize.RETVAL:
                size = signed_ret
            elif buffer.size is BufSize.RETVAL_TIMES:
                size = signed_ret * buffer.fixed_size
            else:
                size = buffer.fixed_size
            if size <= 0:
                continue
            if spec.category is Category.SPECIAL and spec.name == "ioctl":
                # pointer-in-address-space heuristic (paper §3.3)
                if not space.is_mapped(leader_ptr):
                    continue
            data = space.read(leader_ptr, size, privileged=True)
            follower_space.write(follower_ptr, data, privileged=True)
            copied.append((follower_ptr, size))
            self.stats.bytes_copied += size
            self.process.charge(size * self.costs.ipc_copy_byte_ns,
                                "smvx-ipc-copy")
        if spec.name in ("epoll_wait", "epoll_pwait") and signed_ret > 0:
            self._translate_epoll_data(follower.args[1], signed_ret)

    follower_ret = retval
    if spec.retval_is_pointer:
        # a pointer return usually aliases one of the arguments
        # (localtime_r returns its result buffer); map positionally,
        # else fall back to old-range relocation.
        follower_ret = None
        for index, value in enumerate(leader.args):
            if value == retval and index < len(follower.args):
                follower_ret = follower.args[index]
                break
        if follower_ret is None:
            follower_ret = region.variant.relocator.relocate_value(retval)
    return follower_ret & _MASK64, copied


# -- the distributed leader call, as it stood ---------------------------------


def reference_distributed_leader_call(self, ctx, thread, name, args):
    region = self.region
    spec = spec_for(name) or EmulationSpec(name, Category.LOCAL)
    region.leader_seq += 1
    record = CallRecord(region.leader_seq, name, tuple(args), LEADER)
    self.stats.leader_calls += 1
    for tap in self.call_taps:
        tap(LEADER, record)

    if name in self.sensitive:
        # dMVX sensitive-operation sync point: announce, flush, and
        # block for the remote verdict *before* executing.  The wait
        # is the only per-call wall cost the leader ever pays.
        announce = CallEvent(record.seq, name, record.args, sync=True,
                             task=thread.tid,
                             pc=thread.state.regs.rip)
        self.endpoint.post(wire.call_msg(announce), self.process)
        verdict, deliver_at = self._await_verdict(region.number,
                                                  record.seq)
        self.host.clock.advance_to(deliver_at)
        if not verdict["ok"]:
            report = wire.report_from_dict(verdict["alarm"])
            self._teardown_region(alarm=report)
            raise MvxDivergence(report)
        retval = self._execute_libc(thread, name, args)
        event = reference_capture(self, spec, record, retval, thread)
        self.endpoint.post(wire.result_msg(event), self.process)
        return retval

    # relaxed lockstep: execute immediately, ship the outcome
    retval = self._execute_libc(thread, name, args)
    event = reference_capture(self, spec, record, retval, thread)
    self.endpoint.post(wire.call_msg(event), self.process)
    return retval


def reference_capture(self, spec, record, retval, thread):
    """Flatten an executed call into a wire event: retval/errno plus
    the bytes of every output buffer the call filled in leader
    memory (the remote monitor writes them into its follower)."""
    execute_locally = spec.category is Category.LOCAL
    buffers: List[Tuple[int, bytes]] = []
    signed = to_signed(retval)
    if not execute_locally and signed >= 0:
        space = self.process.space
        for buffer in spec.out_buffers:
            if buffer.arg_index >= len(record.args):
                continue
            pointer = record.args[buffer.arg_index]
            if pointer == 0:
                continue
            if buffer.size is BufSize.RETVAL:
                size = signed
            elif buffer.size is BufSize.RETVAL_TIMES:
                size = signed * buffer.fixed_size
            else:
                size = buffer.fixed_size
            if size <= 0:
                continue
            if spec.category is Category.SPECIAL \
                    and spec.name == "ioctl" \
                    and not space.is_mapped(pointer):
                continue
            buffers.append((buffer.arg_index,
                            space.read(pointer, size, privileged=True)))
            self.stats.bytes_copied += size
    if execute_locally:
        self.stats.local_calls += 1
    else:
        self.stats.emulated_calls += 1
    return CallEvent(record.seq, record.name, record.args, retval,
                     thread.errno, execute_locally, tuple(buffers),
                     task=thread.tid, pc=thread.state.regs.rip)


# -- the mirror's runner, as it stood -----------------------------------------


def reference_on_call(self, msg):
    if self._dead:
        return
    event = CallEvent.from_dict(msg["event"])
    try:
        reference_play(self, event)
    except MvxDivergence as divergence:
        reference_abort(self, divergence.report)


def reference_on_sync(self, msg):
    event = CallEvent.from_dict(msg["event"])
    if self._dead:
        self._send_verdict(event.seq, self.alarm is None, self.alarm)
        return
    spec = spec_for(event.name) or EmulationSpec(event.name,
                                                 Category.LOCAL)
    record = CallRecord(event.seq, event.name, event.args, LEADER)
    channel = self.monitor.region.channel
    self.process.charge(self.process.costs.rendezvous_ns,
                        "smvx-rendezvous")
    try:
        follower_record = channel.leader_announce(record)
    except MvxDivergence as divergence:
        reference_abort(self, divergence.report)
        self._send_verdict(event.seq, False, divergence.report)
        return
    report = compare_calls(record, follower_record, spec.pointer_args)
    if report is not None:
        report = replace(report, task_id=event.task,
                         guest_pc=event.pc)
        reference_abort(self, report)
        self._send_verdict(event.seq, False, report)
        return
    # follower stays parked in follower_announce until the executed
    # result arrives; the leader is free to run the moment the OK
    # verdict lands
    self._pending_sync = (event, spec, record, follower_record)
    self._send_verdict(event.seq, True, None)


def reference_on_result(self, msg):
    if self._dead or self._pending_sync is None:
        return
    event = CallEvent.from_dict(msg["event"])
    _, spec, record, follower_record = self._pending_sync
    self._pending_sync = None
    channel = self.monitor.region.channel
    try:
        reference_publish(self, channel, spec, event, follower_record)
    except MvxDivergence as divergence:
        reference_abort(self, divergence.report)


def reference_play(self, event):
    """One already-executed leader call: announce, compare, emulate,
    publish — the in-process ``_leader_call`` with leader memory
    reads replaced by wire payloads."""
    spec = spec_for(event.name) or EmulationSpec(event.name,
                                                 Category.LOCAL)
    record = CallRecord(event.seq, event.name, event.args, LEADER)
    channel = self.monitor.region.channel
    self.process.charge(self.process.costs.rendezvous_ns,
                        "smvx-rendezvous")
    follower_record = channel.leader_announce(record)
    report = compare_calls(record, follower_record, spec.pointer_args)
    if report is not None:
        report = replace(report, task_id=event.task,
                         guest_pc=event.pc)
        channel.leader_abort(report)
        raise MvxDivergence(report)
    reference_publish(self, channel, spec, event, follower_record)
    self.events_played += 1


def reference_publish(self, channel, spec, event, follower_record):
    if event.execute_locally:
        channel.leader_publish(LibcResult(
            event.seq, event.retval, event.errno,
            execute_locally=True))
        return
    try:
        follower_ret, copied = reference_emulate(self, spec, event,
                                                 follower_record)
    except MachineFault as fault:
        raise MvxDivergence(reference_emulation_fault(
            self.monitor, event.seq, event.name, fault)) from fault
    channel.leader_publish(LibcResult(
        event.seq, follower_ret, event.errno))


def reference_emulate(self, spec, event, follower):
    """§3.3 emulation against wire payloads: write the leader's
    output-buffer bytes into the follower's memory, translate epoll
    data and pointer returns."""
    monitor = self.monitor
    region = monitor.region
    follower_space = region.variant.thread.space
    signed = to_signed(event.retval)
    copied: List[Tuple[int, int]] = []
    if signed >= 0:
        for arg_index, data in event.buffers:
            if arg_index >= len(follower.args):
                continue
            follower_ptr = follower.args[arg_index]
            if follower_ptr == 0:
                continue
            follower_space.write(follower_ptr, data, privileged=True)
            copied.append((follower_ptr, len(data)))
            monitor.stats.bytes_copied += len(data)
            self.process.charge(
                len(data) * self.process.costs.ipc_copy_byte_ns,
                "smvx-ipc-copy")
        if event.name in ("epoll_wait", "epoll_pwait") and signed > 0:
            monitor._translate_epoll_data(follower.args[1], signed)
    follower_ret = event.retval
    if spec.retval_is_pointer:
        follower_ret = None
        for index, value in enumerate(event.args):
            if value == event.retval and index < len(follower.args):
                follower_ret = follower.args[index]
                break
        if follower_ret is None:
            follower_ret = region.variant.relocator.relocate_value(
                event.retval)
    return follower_ret & ((1 << 64) - 1), copied


def reference_abort(self, report):
    if self.alarm is None:
        self.alarm = report
    self._dead = True
    if self.monitor.region is not None:
        # tears the mirror region down and logs the alarm on the
        # mirror host's own log (the host-1 operational record)
        self.monitor.abort_region(report)


# -- the worlds ---------------------------------------------------------------

LIBC = build_libc_image()
STUB = build_smvx_stub_image()
ROOT = "lockstep_root"
BUFS_SIZE = 8192
#: unmapped in the leader's and in either follower's view
UNMAPPED = 0x1000_0000
LEADER_PC = 0x5555_0000_1230
#: every call with output buffers, a LOCAL one, a pointer-returning LOCAL
#: one, and one that returns a value only
NAMES = sorted(name for name, spec in EMULATION_SPECS.items()
               if spec.out_buffers) + ["malloc", "strlen", "write"]


def _root(ctx):
    return 0


def _build_app():
    builder = ImageBuilder("lockstep")
    builder.import_libc("mvx_init", "mvx_start", "mvx_end", *NAMES)
    builder.add_hl_function(ROOT, _root, 0)
    builder.add_bss("bufs", BUFS_SIZE)
    return builder.build()


APP = _build_app()


class ScriptedChannel:
    """The leader's end of a lockstep channel whose follower side is
    scripted: ``leader_announce`` returns ``follower``, or raises the
    divergence already flagged.  What the leader publishes or flags is
    kept."""

    def __init__(self, follower, divergence=None):
        self.follower = follower
        self.divergence = divergence
        self.published = []

    def leader_announce(self, record):
        if self.divergence is not None:
            raise MvxDivergence(self.divergence)
        return self.follower

    def leader_publish(self, result):
        self.published.append(result)

    def leader_abort(self, report):
        self.divergence = report


class RecordingEndpoint:
    def __init__(self):
        self.posted = []
        self.flushes = 0

    def post(self, msg, process):
        self.posted.append(msg)

    def flush(self, process):
        self.flushes += 1


@dataclass
class Case:
    """One leader call, with the variants' arguments described by kind
    so that both worlds build the same addresses."""

    strategy: str
    name: str
    retval: int
    errno: int
    #: per output buffer: "buffer", "null", or for ioctl "unmapped" and
    #: "straddle" (mapped, but its last bytes are not: FIONBIO returns 0
    #: without touching the argument)
    leader_kinds: Tuple[str, ...]
    #: per output buffer: "mirror" (the follower's own copy), "null" or
    #: "unmapped"
    follower_kinds: Tuple[str, ...]
    #: first output buffer's offset into ``bufs`` (8-byte aligned)
    offset: int
    #: pointer-returning calls: "alias" (an argument), "pointer" or "scalar"
    retval_kind: str
    #: per epoll record: its data is a leader image pointer, a leader heap
    #: pointer, or a scalar
    epoll_data: Tuple[str, ...]
    scalars: Tuple[int, ...]
    #: "match", "name" or "argument" mismatch, or "flagged" (the channel
    #: raises at the announce)
    channel: str
    content_seed: int
    #: distributed leader: the call is a sensitive sync point
    sensitive: bool
    #: mirror: the call arrives as a sync announcement plus a result
    sync: bool


def _buffer_size(buffer, retval):
    signed = to_signed(retval)
    if buffer.size is BufSize.RETVAL:
        return signed
    if buffer.size is BufSize.RETVAL_TIMES:
        return signed * buffer.fixed_size
    return buffer.fixed_size


@st.composite
def cases(draw):
    name = draw(st.sampled_from(NAMES))
    spec = spec_for(name)
    sizes = {buffer.size for buffer in spec.out_buffers}
    if BufSize.RETVAL_TIMES in sizes:
        retval = draw(st.integers(-3, 6))
    elif BufSize.RETVAL in sizes:
        retval = draw(st.integers(-3, 96))
    else:
        retval = draw(st.integers(-3, 3))
    leader_choices = ["buffer", "null"] + (["unmapped", "straddle"]
                                           if name == "ioctl" else [])
    count = len(spec.out_buffers)
    return Case(
        strategy=draw(st.sampled_from(("shift", "aligned"))),
        name=name,
        retval=retval & _MASK64,
        errno=draw(st.integers(0, 12)),
        leader_kinds=tuple(draw(st.lists(
            st.sampled_from(leader_choices), min_size=count,
            max_size=count))),
        follower_kinds=tuple(draw(st.lists(
            st.sampled_from(("mirror", "null", "unmapped")),
            min_size=count, max_size=count))),
        offset=8 * draw(st.integers(0, 512)),
        retval_kind=draw(st.sampled_from(("alias", "pointer", "scalar"))),
        epoll_data=tuple(draw(st.lists(
            st.sampled_from(("image", "heap", "scalar")),
            min_size=6, max_size=6))),
        scalars=tuple(draw(st.lists(st.integers(0, _MASK64),
                                    min_size=6, max_size=6))),
        channel=draw(st.sampled_from(("match", "match", "match", "name",
                                      "argument", "flagged"))),
        content_seed=draw(st.integers(0, 2 ** 32)),
        sensitive=draw(st.booleans()),
        sync=draw(st.booleans()),
    )


@dataclass
class World:
    process: GuestProcess
    monitor: SmvxMonitor
    alarms: AlarmLog
    thread: object
    leader_args: List[int]
    follower: CallRecord
    retval: int
    channel: ScriptedChannel = None
    variant: object = None


def _boot(case):
    kernel = Kernel()
    process = GuestProcess(kernel, "lockstep")
    process.load_image(LIBC, tag="libc")
    process.load_image(STUB, tag="libsmvx")
    target = process.load_image(APP, main=True)
    return process, target


def _materialise(case, process, target, relocate):
    """Fill the leader's buffers and build both variants' arguments."""
    spec = spec_for(case.name)
    bufs = target.symbol_address("bufs")
    mapped_end = bufs - bufs % PAGE_SIZE
    while process.space.is_mapped(mapped_end):
        mapped_end += PAGE_SIZE
    process.space.write(bufs, random.Random(case.content_seed).randbytes(
        BUFS_SIZE), privileged=True)
    heap = process.heap.base
    out = {buffer.arg_index: position
           for position, buffer in enumerate(spec.out_buffers)}
    leader, follower = [], []
    scalars = iter(case.scalars)
    for index in range(LIBC_ARITIES[case.name]):
        if index in out:
            position = out[index]
            pointer = {"buffer": bufs + case.offset + 1100 * position,
                       "null": 0, "unmapped": UNMAPPED,
                       "straddle": mapped_end - 4}[
                           case.leader_kinds[position]]
            leader.append(pointer)
            follower.append({"mirror": relocate(pointer), "null": 0,
                             "unmapped": UNMAPPED}[
                                 case.follower_kinds[position]])
        elif index in spec.pointer_args:
            leader.append(bufs + 7000)
            follower.append(relocate(bufs + 7000))
        else:
            value = next(scalars)
            leader.append(value)
            follower.append(value)
    if case.name in ("epoll_wait", "epoll_pwait") \
            and leader[1] not in (0, UNMAPPED):
        for record, kind in enumerate(case.epoll_data):
            data = {"image": bufs + 16 * record, "heap": heap + 64 * record,
                    "scalar": record + 3}[kind]
            process.space.write_word(leader[1] + 16 * record + 8, data,
                                     privileged=True)
    retval = case.retval
    if spec.retval_is_pointer:
        retval = {"alias": leader[-1], "pointer": bufs + 2048,
                  "scalar": case.retval}[case.retval_kind]
    name = case.name
    if case.channel == "name":
        name = "getpid" if case.name != "getpid" else "close"
    elif case.channel == "argument":
        scalar = [index for index in range(len(leader))
                  if index not in spec.pointer_args]
        if scalar:
            follower[scalar[0]] = (follower[scalar[0]] + 1) & _MASK64
        else:
            name = "getpid"
    return leader, CallRecord(1, name, tuple(follower), FOLLOWER), retval


def _stub_libc(monitor, retval, errno):
    def execute(thread, name, args):
        thread.errno = errno
        return retval & _MASK64
    monitor._execute_libc = execute


def _flagged(case):
    return DivergenceReport(
        DivergenceKind.CALL_COUNT, 1, case.name,
        f"follower returned after 0 calls; leader issued call #1 "
        f"({case.name})")


def open_world(case):
    """A protected process inside a region, whose follower thread is
    retired before it runs: the channel is scripted instead."""
    process, target = _boot(case)
    alarms = AlarmLog()
    monitor = attach_smvx(process, target, alarm_log=alarms,
                          variant_strategy=case.strategy)
    thread = process.main_thread()
    thread.state.regs.rip = LEADER_PC
    monitor.region_start(thread, ROOT, [])
    region = monitor.region
    region.channel.leader_abort(DivergenceReport(DivergenceKind.MONITOR))
    region.py_thread.join()
    leader, follower, retval = _materialise(
        case, process, target, region.variant.relocator.relocate_value)
    region.channel = ScriptedChannel(
        follower, _flagged(case) if case.channel == "flagged" else None)
    _stub_libc(monitor, retval, case.errno)
    return World(process, monitor, alarms, thread, leader, follower, retval,
                 region.channel, region.variant)


def open_distributed_world(case):
    """A distributed leader inside a region; a sensitive call's verdict
    is already in."""
    process, target = _boot(case)
    alarms = AlarmLog()
    endpoint = RecordingEndpoint()
    host = SimpleNamespace(clock=SimpleNamespace(advanced=[]), cluster=None)
    host.clock.advance_to = host.clock.advanced.append
    verdicts = {}
    monitor = DistributedLeaderMonitor(
        process, host, endpoint, verdicts,
        sensitive=(case.name,) if case.sensitive else (), alarm_log=alarms)
    monitor.setup(target)
    monitor.checkpoint()
    thread = process.main_thread()
    thread.state.regs.rip = LEADER_PC
    monitor.region_start(thread, ROOT, [])
    leader, follower, retval = _materialise(case, process, target,
                                            lambda value: value)
    ok = case.channel == "match"
    verdicts[(0, 1, 1)] = (wire.verdict_msg(
        1, 1, ok, None if ok else _flagged(case)), 12_345.0)
    _stub_libc(monitor, retval, case.errno)
    return World(process, monitor, alarms, thread, leader, follower, retval)


def _memory(space):
    return {base: bytes(page.data) for base, page in space.mapped_pages()}


def world_state(world):
    process, monitor = world.process, world.monitor
    state = {
        "leader_memory": _memory(process.space),
        "leader_reads": process.space.access_count,
        "leader_tlb_fills": process.space.tlb_fills,
        "alarms": list(world.alarms.alarms),
        "stats": asdict(monitor.stats),
        "counter": (process.counter.total_ns,
                    dict(process.counter.by_category)),
        "clock": process.kernel.clock.monotonic_ns,
        "region_open": monitor.region is not None,
        "leader_variant": world.thread.variant,
    }
    if world.variant is not None:
        space = world.variant.thread.space
        counter = world.variant.thread.counter
        state.update({
            "follower_memory": _memory(space),
            "follower_accesses": space.access_count,
            "follower_tlb_fills": space.tlb_fills,
            "follower_counter": (counter.total_ns,
                                 dict(counter.by_category)),
            "published": list(world.channel.published),
            "flagged": world.channel.divergence,
        })
    return state


def _outcome(call):
    try:
        return "returned", call()
    except MvxDivergence as divergence:
        return "raised", divergence.report
    except MachineFault as fault:
        return "faulted", type(fault), fault.address


def allowed_extra_reads(case, retval):
    """Leader reads ``capture`` makes that the reference skipped: the
    buffers it reads after an earlier buffer's write faulted."""
    spec = spec_for(case.name)
    if case.channel != "match" or spec.category is Category.LOCAL:
        return 0
    extra, faulted = 0, False
    for buffer, leader, follower in zip(spec.out_buffers, case.leader_kinds,
                                        case.follower_kinds):
        if to_signed(retval) < 0 or leader != "buffer" or follower == "null" \
                or _buffer_size(buffer, retval) <= 0:
            continue                    # neither side reads it
        if faulted:
            extra += 1
        elif follower == "unmapped":
            faulted = True
    return extra


def edge(name, **fields):
    """A hand-picked case: by default a matching call with every buffer
    in place."""
    count = len(spec_for(name).out_buffers)
    case = dict(strategy="shift", name=name, retval=5, errno=0,
                leader_kinds=("buffer",) * count,
                follower_kinds=("mirror",) * count, offset=64,
                retval_kind="alias",
                epoll_data=("image", "heap", "scalar") * 2,
                scalars=(1, 2, 3, 4, 5, 6), channel="match",
                content_seed=7, sensitive=False, sync=False)
    case.update(fields)
    case["retval"] &= _MASK64
    return Case(**case)


#: every input class the protocol distinguishes, whatever the draws do
EDGE_CASES = [
    *(edge(name, strategy=("shift", "aligned")[index % 2])
      for index, name in enumerate(NAMES)),
    edge("read", retval=-9), edge("read", retval=0),
    edge("epoll_wait", retval=-4), edge("epoll_wait", retval=0),
    edge("read", leader_kinds=("null",)),
    edge("read", follower_kinds=("null",)),
    edge("read", follower_kinds=("unmapped",)),
    edge("read", follower_kinds=("unmapped",), strategy="aligned"),
    edge("getsockopt", retval=0, follower_kinds=("null", "mirror")),
    edge("getsockopt", retval=0, follower_kinds=("unmapped", "mirror")),
    edge("getsockopt", retval=0, follower_kinds=("mirror", "unmapped")),
    edge("ioctl", retval=0, leader_kinds=("unmapped",)),
    edge("ioctl", retval=0, leader_kinds=("straddle",)),
    edge("ioctl", retval=0, leader_kinds=("straddle",), sensitive=True),
    edge("ioctl", retval=0, leader_kinds=("straddle",),
         follower_kinds=("null",)),
    edge("ioctl", retval=0, leader_kinds=("unmapped",),
         follower_kinds=("null",)),
    edge("getsockopt", retval=0, follower_kinds=("unmapped", "null")),
    edge("getsockopt", retval=0, follower_kinds=("null", "unmapped")),
    edge("epoll_pwait", retval=6,
         epoll_data=("image", "scalar", "heap", "heap", "scalar", "image")),
    edge("epoll_wait", retval=6, strategy="aligned"),
    edge("localtime_r", retval_kind="pointer"),
    edge("localtime_r", retval_kind="scalar", retval=0),
    edge("malloc", retval_kind="pointer"),
    edge("read", channel="name"), edge("read", channel="argument"),
    edge("stat", channel="argument"), edge("recv", channel="flagged"),
    edge("gettimeofday", sensitive=True),
    edge("gettimeofday", sensitive=True, channel="name"),
    edge("read", sync=True), edge("read", sync=True, channel="argument"),
    edge("read", sync=True, channel="flagged"),
    edge("read", sync=True, follower_kinds=("unmapped",)),
]


def with_edge_cases(test):
    for case in EDGE_CASES:
        test = example(case=case)(test)
    return test


# -- the comparisons ----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@with_edge_cases
@given(case=cases())
def test_in_process_leader_call_matches_reference(case):
    outcomes, states, retvals = [], [], []
    for leader_call in (reference_leader_call, SmvxMonitor._leader_call):
        world = open_world(case)
        outcomes.append(_outcome(lambda: leader_call(
            world.monitor, None, world.thread, case.name, world.leader_args)))
        states.append(world_state(world))
        retvals.append(world.retval)
    reference, current = states
    extra = current.pop("leader_reads") - reference.pop("leader_reads")
    assert outcomes[0] == outcomes[1]
    assert current == reference
    assert extra == allowed_extra_reads(case, retvals[0])


@settings(max_examples=30, deadline=None)
@with_edge_cases
@given(case=cases())
def test_distributed_leader_call_matches_reference(case):
    """Also pins ``capture``: the event it ships equals
    ``reference_capture``'s field for field, so every wire byte does."""
    outcomes, states, posted = [], [], []
    for leader_call in (reference_distributed_leader_call,
                        DistributedLeaderMonitor._leader_call):
        world = open_distributed_world(case)
        outcomes.append(_outcome(lambda: leader_call(
            world.monitor, None, world.thread, case.name, world.leader_args)))
        states.append(world_state(world))
        endpoint = world.monitor.endpoint
        posted.append((endpoint.posted, endpoint.flushes,
                       world.monitor.host.clock.advanced))
    events = [[CallEvent.from_dict(msg["event"]) for msg in sent
               if msg["type"] in ("call", "result")]
              for sent, _, _ in posted]
    assert outcomes[0] == outcomes[1]
    assert states[0] == states[1]
    assert events[0] == events[1]
    assert posted[0] == posted[1]


REFERENCE_RUNNER = (reference_on_call, reference_on_sync, reference_on_result)
CURRENT_RUNNER = (RemoteRegionRunner._on_call, RemoteRegionRunner._on_sync,
                  RemoteRegionRunner._on_result)


@settings(max_examples=30, deadline=None)
@with_edge_cases
@given(case=cases())
def test_mirror_runner_matches_reference(case):
    """The wire event, played as one relaxed call or as a sync
    announcement followed by its result."""
    states = []
    for on_call, on_sync, on_result in (REFERENCE_RUNNER, CURRENT_RUNNER):
        world = open_world(case)
        thread = world.thread
        record = CallRecord(1, case.name, tuple(world.leader_args), LEADER)
        retval = world.monitor._execute_libc(thread, case.name, [])
        leader = SimpleNamespace(process=world.process, stats=MonitorStats())
        try:
            event = reference_capture(leader, spec_for(case.name), record,
                                      retval, thread)
        except MachineFault:
            return          # the leader faulted: nothing reaches the mirror
        runner = RemoteRegionRunner(world.process, world.monitor, None,
                                    RecordingEndpoint())
        runner.region_no = 1
        if case.sync:
            on_sync(runner, wire.call_msg(CallEvent(
                1, case.name, event.args, sync=True, task=event.task,
                pc=event.pc)))
            on_result(runner, wire.result_msg(event))
        else:
            on_call(runner, wire.call_msg(event))
        state = world_state(world)
        state["runner"] = (runner.alarm, runner._dead, runner.events_played,
                           runner._pending_sync is None,
                           runner.endpoint.posted, runner.endpoint.flushes)
        states.append(state)
    assert states[0] == states[1]
