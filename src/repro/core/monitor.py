"""The sMVX in-process monitor.

One :class:`SmvxMonitor` per protected process.  ``setup()`` plays the
role of the paper's ``LD_PRELOAD`` constructor ``setup_mvx()`` (§3.2):

1. read the profile file the pre-run script left in ``/tmp``;
2. read ``/proc/self/maps`` to locate the loaded target;
3. save the original libc addresses out of the target's ``.got.plt`` (so
   the monitor can call libc "internally without intercepting ourselves");
4. build + load the monitor image at a randomized base, key its pages
   with a freshly allocated protection key, make its text execute-only;
5. patch the target's GOT slots to the interposition stubs;
6. allocate the per-thread safe stacks and the lockstep IPC memory;
7. close the monitor pkey in every application thread's PKRU.

At runtime the monitor implements the ``mvx_init``/``mvx_start``/
``mvx_end`` API (§3.2), follower-variant creation (§3.4 via
``repro.core.variant``), and libc lockstep synchronization (§3.3 via
``repro.core.ipc`` + the Table 1 categories).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.core.divergence import (
    AlarmLog,
    CallRecord,
    DivergenceKind,
    DivergenceReport,
    compare_calls,
)
from repro.core.ipc import (
    FOLLOWER,
    LEADER,
    CallEvent,
    LibcResult,
    LockstepChannel,
    LockstepTimeout,
)
from repro.core.aligned import create_aligned_follower
from repro.core.relocate import OldRange, PointerRelocator
from repro.core.reuse import CachedVariant, park_variant, refresh_variant
from repro.core.trampoline import (
    allocate_monitor_memory,
    build_monitor_image,
    harden_monitor_text,
    randomized_monitor_base,
)
from repro.core.variant import FollowerVariant, create_follower
from repro.errors import (
    MachineFault,
    MvxDivergence,
    MvxSetupError,
    MvxStateError,
)
from repro.kernel.vfs import O_RDONLY
from repro.libc.categories import BufSize, Category, EmulationSpec, spec_for
from repro.libc.libc import LIBC_ARITIES, LIBC_FUNCTIONS
from repro.loader.loader import LoadedImage
from repro.loader.profile_tool import read_profile, write_profile
from repro.machine.mpk import PkeyAllocator
from repro.machine.registers import ARG_REGISTERS
from repro.process.context import GuestContext, to_signed
from repro.process.process import GuestProcess, GuestThread

_MASK64 = (1 << 64) - 1


#: Table 1's row for every libc call; a call the table does not list
#: runs LOCAL.
_SPECS: Dict[str, EmulationSpec] = {
    name: spec_for(name) or EmulationSpec(name, Category.LOCAL)
    for name in LIBC_FUNCTIONS}
#: the LOCAL calls, as a set: every leader call asks, and on Python 3.11
#: reading ``Category.LOCAL`` costs as much as building a small object.
_LOCAL_CALLS = frozenset(name for name, spec in _SPECS.items()
                         if spec.category is Category.LOCAL)


@dataclass
class MonitorStats:
    intercepted_calls: int = 0
    passthrough_calls: int = 0
    leader_calls: int = 0
    follower_calls: int = 0
    emulated_calls: int = 0
    local_calls: int = 0
    bytes_copied: int = 0
    regions_entered: int = 0


@dataclass
class ActiveRegion:
    root: str
    leader: GuestThread
    variant: FollowerVariant
    channel: LockstepChannel
    relocator: PointerRelocator
    py_thread: threading.Thread
    leader_seq: int = 0
    follower_seq: int = 0


class SmvxMonitor:
    """The in-process, MPK-isolated sMVX monitor."""

    def __init__(self, process: GuestProcess,
                 alarm_log: Optional[AlarmLog] = None,
                 alias_info=None, reuse_variants: bool = False,
                 variant_strategy: str = "shift",
                 strict_verify: bool = False,
                 scope_report=None):
        if variant_strategy not in ("shift", "aligned"):
            raise MvxSetupError(
                f"unknown variant strategy {variant_strategy!r}")
        #: the static ScopeReport that derived the protected set, when
        #: bring-up used ``attach_smvx(auto_scope=True)`` (None for a
        #: hand-picked set); kept for explain_alarm-style tooling.
        self.scope_report = scope_report
        #: fail-closed bring-up: run the static verifier over the live
        #: space at the end of setup() and refuse to serve on any ERROR.
        self.strict_verify = strict_verify
        self.process = process
        self.costs = process.costs
        self.alarms = alarm_log or AlarmLog()
        self.alias_info = alias_info
        #: "shift" = the paper's prototype (non-overlapping addresses,
        #: pointer scan); "aligned" = the §5 alternative (same addresses,
        #: diversified function interiors, no relocation).
        self.variant_strategy = variant_strategy
        #: §5 optimization: keep the follower across regions of the same
        #: root and refresh only dirty pages (see repro.core.reuse).
        #: (shift strategy only; aligned creation is already cheap.)
        self.reuse_variants = reuse_variants and variant_strategy == "shift"
        self._cached_variants: Dict[str, CachedVariant] = {}
        self.last_refresh_stats = None
        #: cumulative refreshes per protected root (reuse mode)
        self.refresh_counts: Dict[str, int] = {}
        self.stats = MonitorStats()
        self.target: Optional[LoadedImage] = None
        self.monitor_image: Optional[LoadedImage] = None
        self.memory = None
        self.pkey: Optional[int] = None
        self.plt_names: List[str] = []
        self.real_libc: Dict[str, int] = {}
        self.region: Optional[ActiveRegion] = None
        self._libc_loaded: Optional[LoadedImage] = None
        self.last_variant_report = None
        #: flight-recorder taps: fn(variant, record) at every lockstep
        #: rendezvous ("leader"/"follower" announce).
        self.call_taps: List = []

    # ------------------------------------------------------------------
    # setup (the LD_PRELOAD constructor)
    # ------------------------------------------------------------------

    def setup(self, target: LoadedImage,
              profile_path: Optional[str] = None) -> None:
        process = self.process
        if process.smvx_monitor is not None:
            raise MvxSetupError("a monitor is already attached")
        self.target = target
        # mvx_*() entries are redirected to the monitor's own
        # implementations rather than run through the libc gate.
        self.plt_names = [name for name in target.image.plt_imports
                          if not name.startswith("mvx_")]
        self._mvx_imports = [name for name in target.image.plt_imports
                             if name.startswith("mvx_")]

        # 1. the profile file from the pre-run analysis script
        if profile_path is None:
            profile_path = write_profile(process.kernel.vfs, target.image)
        self.profile = read_profile(process.kernel.vfs, profile_path)

        # 2. /proc/self/maps — a real guest-visible read
        self._read_self_maps()

        # 3. original libc entry points, before any patching
        for name in self.plt_names:
            self.real_libc[name] = process.loader.read_got_slot(target, name)

        # find the loaded libc image (for building libc call contexts)
        for loaded in process.loader.images:
            if loaded.image.name == "libc.so":
                self._libc_loaded = loaded
        if self._libc_loaded is None:
            raise MvxSetupError("libc.so not loaded in target process")

        # 4. monitor image at a randomized, pkey-guarded location
        allocator = getattr(process, "pkey_allocator", None)
        if allocator is None:
            allocator = PkeyAllocator()
            process.pkey_allocator = allocator
        self.pkey = allocator.alloc()
        self.memory = allocate_monitor_memory(process.space, self.pkey)
        image = build_monitor_image(
            self.plt_names, self._gate, self._api_init, self._api_start,
            self._api_end, self.memory.pkru_open, self.memory.pkru_closed)
        base = randomized_monitor_base(f"{process.pid}:{target.tag}")
        self.monitor_image = process.loader.load(
            image, base=base, tag="smvx_monitor", pkey=self.pkey)
        harden_monitor_text(process.space, self.monitor_image)

        # 5. interpose on every libc import; redirect mvx_*() to the
        #    monitor's own implementations (paper §3.2: "calls to mvx_*()
        #    functions are redirected to the sMVX monitor")
        for name in self.plt_names:
            stub = self.monitor_image.symbol_address(f"smvx_stub_{name}")
            process.loader.patch_got_slot(target, name, stub)
        for name in self._mvx_imports:
            impl = self.monitor_image.symbol_address(name)
            process.loader.patch_got_slot(target, name, impl)

        # 6b. seal the interposed GOT: every slot now points into the
        # monitor, and nothing legitimate writes it again (linking was
        # eager, variant bookkeeping uses privileged stores), so leaving
        # it writable would only serve GOT-overwrite attacks.
        self.seal_target_got()

        # 7. hide the monitor from application code
        process.default_pkru = self.memory.pkru_closed
        for thread in process.threads:
            thread.state.pkru = self.memory.pkru_closed
        process.smvx_monitor = self

        # 8. opt-in fail-closed bring-up: prove the MPK/interception
        # invariants over the live space before serving anything.
        if self.strict_verify:
            from repro.analysis.verify import verify_process
            config = getattr(process, "app_config", None) or {}
            protect = config.get("protect")
            roots = (protect,) if protect \
                and target.has_symbol(protect) else ()
            report = verify_process(process, self, roots=roots)
            if not report.ok:
                raise MvxSetupError(
                    "strict verification failed:\n" + "\n".join(
                        f.format() for f in report.errors))

    def seal_target_got(self) -> None:
        """Write-protect the target's patched ``.got.plt`` pages."""
        from repro.machine.memory import PROT_READ, page_align_up
        start, size = self.target.section_range(".got.plt")
        self.process.space.mprotect(start, page_align_up(max(size, 1)),
                                    PROT_READ)

    def _read_self_maps(self) -> None:
        process = self.process
        kernel = process.kernel
        scratch = process.space.mmap(None, 8192, tag="smvx:setup-scratch")
        process.space.write(scratch, b"/proc/self/maps\x00",
                            privileged=True)
        # monitor-internal I/O is exempt from fault injection (rr keeps
        # its own recorder I/O outside the perturbed world): these raw
        # syscalls have no libc retry layer above them, and a schedule
        # models a hostile environment, not a self-sabotaging monitor.
        with kernel.faults.suspended():
            fd = kernel.syscall(process, "open", scratch, O_RDONLY)
            if fd < 0:
                raise MvxSetupError("cannot open /proc/self/maps")
            chunks = []
            while True:
                n = kernel.syscall(process, "read", fd, scratch + 256, 4096)
                if n <= 0:
                    break
                chunks.append(process.space.read(scratch + 256, n,
                                                 privileged=True))
            kernel.syscall(process, "close", fd)
        process.space.munmap(scratch, 8192)
        self.self_maps = b"".join(chunks).decode()

    # ------------------------------------------------------------------
    # the mvx_*() API implementations (called through the stub image)
    # ------------------------------------------------------------------

    def _api_init(self, ctx: GuestContext) -> int:
        # setup() already ran at preload; mvx_init() validates and charges
        # the pkey-association work.
        if self.target is None:
            return -1
        self.process.charge(self.costs.monitor_call_ns, "smvx-init")
        return 0

    def _api_start(self, ctx: GuestContext, name_ptr: int, nargs: int,
                   *raw_args: int) -> int:
        name = ctx.read_cstring(name_ptr).decode()
        nargs = min(int(nargs), len(raw_args))
        args = list(raw_args[:nargs])
        self.region_start(ctx.thread, name, args)
        return 0

    def _api_end(self, ctx: GuestContext) -> int:
        if self.region is None:
            return -1
        self.region_end(ctx.thread)
        return 0

    # ------------------------------------------------------------------
    # region lifecycle
    # ------------------------------------------------------------------

    def region_start(self, leader: GuestThread, root_function: str,
                     args: Sequence[int]) -> None:
        if self.region is not None:
            raise MvxStateError("nested mvx_start() is not supported")
        if not self.target.has_symbol(root_function):
            # resolve via the profile (the paper's name->address mapping)
            raise MvxSetupError(
                f"protected function {root_function!r} not in profile")
        self.stats.regions_entered += 1
        cached = (self._cached_variants.pop(root_function, None)
                  if self.reuse_variants else None)
        if cached is not None:
            variant, relocated_args, refresh = refresh_variant(
                self.process, cached, self.target, args, self.costs)
            self.last_refresh_stats = refresh
            self.refresh_counts[root_function] = \
                self.refresh_counts.get(root_function, 0) + 1
        elif self.variant_strategy == "aligned":
            variant, relocated_args = create_aligned_follower(
                self.process, self.target, root_function, args, self.costs)
        else:
            variant, relocated_args = create_follower(
                self.process, self.target, root_function, args, self.costs,
                alias_info=self.alias_info)
        self.last_variant_report = variant.report
        variant.thread.state.pkru = self.memory.pkru_closed
        channel = LockstepChannel()
        relocator = PointerRelocator(
            self.process.space,
            [OldRange(self.target.base,
                      self.target.base + self.target.image.load_size,
                      "image"),
             OldRange(self.process.heap.base,
                      self.process.heap.base + self.process.heap.size,
                      "heap")],
            variant.report.shift, self.costs)
        leader.variant = LEADER

        py_thread = threading.Thread(
            target=self._follower_main,
            args=(variant, relocated_args, channel),
            name=f"smvx-follower-{root_function}",
            daemon=True)
        self.region = ActiveRegion(root_function, leader, variant, channel,
                                   relocator, py_thread)
        channel.threads[FOLLOWER] = py_thread
        py_thread.start()

    def _follower_main(self, variant: FollowerVariant,
                       args: Sequence[int],
                       channel: LockstepChannel) -> None:
        try:
            channel.follower_wait_turn()
            self.process.guest_call(variant.thread, variant.entry, *args)
        except MvxDivergence:
            # already flagged on the channel; just exit
            channel.follower_finish(fault="divergence")
            return
        except MachineFault as fault:
            channel.follower_finish(
                fault=f"{type(fault).__name__}: {fault} "
                      f"(address {fault.address:#x})",
                fault_pc=getattr(fault, "address", -1) or -1,
                fault_task=variant.thread.tid)
            return
        except LockstepTimeout as timeout:
            channel.follower_finish(fault=f"lockstep timeout: {timeout}")
            return
        except BaseException as exc:          # noqa: BLE001 — reported
            # any other crash is a follower fault too: the leader must
            # never wait on a thread that is gone
            channel.follower_finish(fault=f"{type(exc).__name__}: {exc}")
            if not isinstance(exc, Exception):
                raise                         # interrupts still propagate
            return
        channel.follower_finish()

    def region_end(self, leader: GuestThread) -> None:
        region = self.region
        if region is None:
            raise MvxStateError("mvx_end() without an active region")
        if leader is not region.leader:
            raise MvxStateError("mvx_end() from a non-leader thread")
        try:
            status = region.channel.leader_finish()
        except MvxDivergence as divergence:
            self._teardown_region(alarm=divergence.report)
            raise
        if status.fault:
            report = DivergenceReport(
                DivergenceKind.FOLLOWER_FAULT, detail=status.fault,
                task_id=status.fault_task, guest_pc=status.fault_pc)
            self._teardown_region(alarm=report)
            raise MvxDivergence(report)
        self._teardown_region()

    def abort_region(self, report: DivergenceReport) -> None:
        if self.region is not None:
            self.region.channel.leader_abort(report)
            self._teardown_region(alarm=report)

    def _teardown_region(self,
                         alarm: Optional[DivergenceReport] = None) -> None:
        region = self.region
        self.region = None
        if alarm is not None:
            if alarm.pid < 0:
                # stamp the owning process: multi-worker servers funnel
                # every monitor into one shared AlarmLog, and tids alone
                # (each worker's main thread is 1) cannot identify it
                alarm = replace(alarm, pid=self.process.pid)
            self.alarms.raise_alarm(alarm)
        region.leader.variant = "main"
        region.py_thread.join(timeout=30)
        if alarm is None and self.reuse_variants:
            # §5: park the follower and track dirtiness instead of paying
            # full duplication + scans on the next region entry
            self._cached_variants[region.root] = park_variant(
                self.process, region.variant, self.target)
        else:
            region.variant.destroy(self.process)

    def drop_variant_caches(self) -> None:
        """Destroy all parked followers (frees their memory)."""
        for cached in self._cached_variants.values():
            cached.tracker.detach()
            cached.variant.destroy(self.process)
        self._cached_variants.clear()

    def broadcast_privileged_word(self, symbol: str, offset: int,
                                  value: int) -> int:
        """Mirror a control-plane store into every follower copy of
        ``symbol``: the active region's variant and any parked reusable
        ones.  Privileged writes bypass the page observers, so the reuse
        ``DirtyTracker`` never records them — without this mirror a
        drain flag written into the leader's globals leaves the follower
        copies stale, and the very next protected region diverges on the
        drain branch (CALL_NAME at the first call past it).  Each copy is
        written through its variant's own view: a shifted copy lives in
        pages both views share, while an aligned follower keeps private
        pages at the leader's addresses that only its view reaches.
        Returns the number of copies written."""
        if self.target is None:
            return 0
        variants = []
        if self.region is not None:
            variants.append(self.region.variant)
        variants.extend(cached.variant
                        for cached in self._cached_variants.values())
        for variant in variants:
            addr = variant.loaded.symbol_address(symbol)
            variant.thread.space.write_word(addr + offset, value,
                                            privileged=True)
        return len(variants)

    # ------------------------------------------------------------------
    # the gate: every intercepted libc call lands here
    # ------------------------------------------------------------------

    def _gate(self, ctx: GuestContext) -> int:
        process = self.process
        thread = ctx.thread
        regs = ctx.regs
        rsp = regs.get("rsp")
        # unsafe-stack frame laid out by the trampoline (see trampoline.py)
        rdx_saved = ctx.read_word(rsp + 8)
        rcx_saved = ctx.read_word(rsp + 16)
        rax_saved = ctx.read_word(rsp + 24)
        plt_index = ctx.read_word(rsp + 32)
        name = self.plt_names[plt_index]
        arity = LIBC_ARITIES[name]

        args = []
        for index in range(arity):
            if index == 2:
                args.append(rdx_saved)
            elif index == 3:
                args.append(rcx_saved)
            elif index < 6:
                args.append(regs.get(ARG_REGISTERS[index]))
            else:
                args.append(ctx.read_word(
                    rsp + 48 + 8 * (index - 6)))

        self.stats.intercepted_calls += 1
        # per-thread: a follower's interception work burns its own core
        thread.counter.charge(
            self.costs.trampoline_ns + self.costs.monitor_call_ns,
            "smvx-intercept")

        # stack pivot: monitor logic runs on the pkey-guarded safe stack
        slots = self.memory.safe_stack_size // (2 * 4096)
        slot = self.process.threads.index(thread) % slots
        unsafe_rsp = rsp
        regs.set("rsp", self.memory.safe_stack_top(slot))
        try:
            return self._dispatch(ctx, thread, name, args)
        finally:
            regs.set("rsp", unsafe_rsp)

    def _dispatch(self, ctx: GuestContext, thread: GuestThread,
                  name: str, args: List[int]) -> int:
        region = self.region
        if region is not None and thread is region.leader:
            return self._leader_call(ctx, thread, name, args)
        if region is not None and thread is region.variant.thread:
            return self._follower_call(ctx, thread, name, args)
        self.stats.passthrough_calls += 1
        return self._execute_libc(thread, name, args)

    def _execute_libc(self, thread: GuestThread, name: str,
                      args: List[int]) -> int:
        """Run the *real* libc implementation (saved at setup) directly —
        the monitor never re-enters its own interception."""
        fn, _arity = LIBC_FUNCTIONS[name]
        libc_ctx = GuestContext(self.process, thread, self._libc_loaded,
                                name)
        thread.func_stack.append(name)
        try:
            result = fn(libc_ctx, *args)
        finally:
            thread.func_stack.pop()
        return int(result or 0) & _MASK64

    # -- leader side ----------------------------------------------------------
    #
    # One lockstep protocol (§3.3) for every deployment: ``rendezvous``
    # before the leader runs a call, ``capture`` once it has run, and
    # ``publish`` into the follower.  In process, ``_leader_call`` runs all
    # three; distributed, the leader host ships ``capture``'s event and
    # the mirror host runs ``rendezvous`` and ``publish`` on it.

    def _leader_call(self, ctx: GuestContext, thread: GuestThread,
                     name: str, args: List[int]) -> int:
        region = self.region
        region.leader_seq += 1
        record = CallRecord(region.leader_seq, name, tuple(args), LEADER)
        self.stats.leader_calls += 1
        self.process.charge(self.costs.rendezvous_ns, "smvx-rendezvous")
        for tap in self.call_taps:
            tap(LEADER, record)
        follower = self.rendezvous(record, thread.tid, thread.state.regs.rip)
        retval = self._execute_libc(thread, name, args)
        # counted before capture: a call whose capture faults still counts
        if name in _LOCAL_CALLS:
            self.stats.local_calls += 1
        else:
            self.stats.emulated_calls += 1
        try:
            event = self.capture(record, retval, thread, follower)
        except MachineFault as fault:
            raise self._emulation_fault(record.seq, name, fault) from fault
        self.publish(event, follower)
        return retval

    def rendezvous(self, record: CallRecord, task: int,
                   pc: int) -> CallRecord:
        """Announce the leader's call, wait for the follower's, and
        compare them.  A divergence, stamped with the leader's ``task``
        and guest ``pc``, tears the region down and is raised.  Returns
        the follower's record."""
        channel = self.region.channel
        try:
            follower = channel.leader_announce(record)
        except MvxDivergence as divergence:
            self._teardown_region(alarm=divergence.report)
            raise
        report = compare_calls(record, follower,
                               _SPECS[record.name].pointer_args)
        if report is not None:
            report = replace(report, task_id=task, guest_pc=pc)
            self.abort_region(report)
            raise MvxDivergence(report)
        return follower

    def capture(self, record: CallRecord, retval: int, thread: GuestThread,
                follower: Optional[CallRecord] = None) -> CallEvent:
        """Flatten the call the leader just executed into a
        :class:`CallEvent`: retval, errno and the bytes of every output
        buffer it filled in the leader's memory (paper §3.3).  Given the
        ``follower``'s record (in process), a buffer it passed NULL for is
        not read: nothing is written for it."""
        spec = _SPECS[record.name]
        local = record.name in _LOCAL_CALLS
        buffers = []
        signed = to_signed(retval)
        if not local and signed >= 0:
            space = self.process.space
            for buffer in spec.out_buffers:
                index = buffer.arg_index
                if index >= len(record.args):
                    continue
                pointer = record.args[index]
                if pointer == 0 or (follower is not None
                                    and follower.args[index] == 0):
                    continue
                if buffer.size is BufSize.RETVAL:
                    size = signed
                elif buffer.size is BufSize.RETVAL_TIMES:
                    size = signed * buffer.fixed_size
                else:
                    size = buffer.fixed_size
                if size <= 0:
                    continue
                if spec.name == "ioctl" and not space.is_mapped(pointer):
                    # pointer-in-address-space heuristic (paper §3.3)
                    continue
                buffers.append((index,
                                space.read(pointer, size, privileged=True)))
        # all positional (``sync`` is False): keyword arguments would make
        # this, on every leader call in process, twice as costly
        return CallEvent(record.seq, record.name, record.args, retval,
                         thread.errno, local, tuple(buffers), False,
                         thread.tid, thread.state.regs.rip)

    def publish(self, event: CallEvent, follower: CallRecord) -> None:
        """Hand the leader's call ``event`` to the follower that made
        call ``follower``: a LOCAL call is re-run by the follower itself;
        otherwise write the captured bytes through the follower's own
        view (under the aligned strategy the same numeric address names
        *different* pages in the two views), translate epoll data and a
        pointer return, and publish the result.  A fault while writing
        is the follower's, reported at once."""
        channel = self.region.channel
        if event.execute_locally:
            channel.leader_publish(LibcResult(event.seq, event.retval,
                                              event.errno, True))
            return
        try:
            space = self.region.variant.thread.space
            for index, data in event.buffers:
                pointer = follower.args[index]
                if pointer == 0:
                    continue
                space.write(pointer, data, privileged=True)
                self.stats.bytes_copied += len(data)
                self.process.charge(len(data) * self.costs.ipc_copy_byte_ns,
                                    "smvx-ipc-copy")
            count = to_signed(event.retval)
            if event.name in ("epoll_wait", "epoll_pwait") and count > 0:
                self._translate_epoll_data(follower.args[1], count)
        except MachineFault as fault:
            raise self._emulation_fault(event.seq, event.name,
                                        fault) from fault
        retval = event.retval
        if _SPECS[event.name].retval_is_pointer:
            # a pointer return usually aliases one of the arguments
            # (localtime_r returns its result buffer); map positionally,
            # else fall back to old-range relocation.
            retval = None
            for index, value in enumerate(event.args):
                if value == event.retval:
                    retval = follower.args[index]
                    break
            if retval is None:
                retval = self.region.relocator.relocate_value(event.retval)
        channel.leader_publish(LibcResult(event.seq, retval & _MASK64,
                                          event.errno))

    def _emulation_fault(self, seq: int, name: str,
                         fault: MachineFault) -> MvxDivergence:
        """Tear the region down for a fault while emulating call ``seq``
        into the follower (its buffer lies in an unmapped page) and return
        the divergence to raise: a follower fault, reported at the call
        rather than left for the follower to wait out."""
        report = DivergenceReport(
            DivergenceKind.FOLLOWER_FAULT, seq, name,
            f"emulating {name} into the follower: "
            f"{type(fault).__name__}: {fault}",
            task_id=self.region.variant.thread.tid, guest_pc=fault.address)
        self.abort_region(report)
        return MvxDivergence(report)

    def _translate_epoll_data(self, follower_events: int, count: int) -> None:
        """epoll_data is a union; when a value looks like a pointer into
        the leader's ranges, hand the follower its shifted equivalent."""
        space = self.region.variant.thread.space
        relocator = self.region.relocator
        for index in range(count):
            slot = follower_events + 16 * index + 8
            value = space.read_word(slot, privileged=True)
            translated = relocator.relocate_value(value)
            if translated != value:
                space.write_word(slot, translated, privileged=True)

    # -- follower side -----------------------------------------------------------

    def _follower_call(self, ctx: GuestContext, thread: GuestThread,
                       name: str, args: List[int]) -> int:
        region = self.region
        region.follower_seq += 1
        record = CallRecord(region.follower_seq, name, tuple(args), FOLLOWER)
        self.stats.follower_calls += 1
        for tap in self.call_taps:
            tap(FOLLOWER, record)
        # follower-side wait burns its own core, not wall time (the wall
        # cost of the rendezvous is charged once, on the leader side)
        thread.counter.charge(self.costs.rendezvous_ns, "smvx-rendezvous")
        result = region.channel.follower_announce(record)
        if result.execute_locally:
            mine = self._execute_libc(thread, name, args)
            # paper §3.3: return values are lockstep-checked too; pointer
            # returns legitimately differ between layouts and are skipped
            if not _SPECS[name].retval_is_pointer and mine != result.retval:
                report = DivergenceReport(
                    DivergenceKind.RETVAL, record.seq, name,
                    f"local call returned {mine:#x} in the follower vs "
                    f"{result.retval:#x} in the leader",
                    task_id=thread.tid, guest_pc=thread.state.regs.rip)
                region.channel.follower_abort(report)
                raise MvxDivergence(report)
            return mine
        thread.errno = result.errno
        return result.retval
