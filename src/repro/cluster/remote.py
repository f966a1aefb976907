"""Distributed sMVX: leader monitor on host 0, variant + monitor on a
remote host.

This is the dMVX/DMON deployment of the paper's selective MVX: the
production (leader) application runs unmodified on host 0; the lockstep
variant and the monitor that supervises it live on another host.  Only
events inside sMVX-selected regions cross the network, batched on
protected-region boundaries (:mod:`repro.cluster.wire`), and the leader
blocks only at *sensitive* calls — the relaxed-lockstep trade that makes
distributed MVX cheap on the leader's critical path.

Three pieces:

* :class:`DistributedLeaderMonitor` — a :class:`~repro.core.monitor.
  SmvxMonitor` subclass for the leader process.  ``setup()`` is
  inherited wholesale (same GOT interposition, same MPK isolation), but
  region bodies create **no local variant**: every intercepted call is
  executed locally, flattened by the inherited ``capture`` into a
  :class:`~repro.core.ipc.CallEvent` (retval, errno, output-buffer
  bytes), and posted to the wire batch.  Sensitive calls ship a ``sync``
  announcement first and block for the remote verdict *before*
  executing — CVE-2013-2028's ``mkdir`` never runs when the remote
  follower died on the ROP chain.

* :class:`RemoteRegionRunner` — host 1 side.  A *mirror* of the leader
  process (built by the same constructor, same pid, same layout) carries
  a stock in-process :class:`SmvxMonitor`; the runner applies the
  leader's page/heap deltas, opens a real region (which creates a real
  follower variant), and hands each wire event to that monitor's own
  ``rendezvous`` and ``publish``.  The mirror therefore runs the
  in-process lockstep protocol of §3.3 (compare, buffer copies, epoll
  translation, pointer-return mapping) unchanged, with bytes that came
  over the wire in place of reads from leader memory.

* :class:`DistributedSmvx` — pairs a leader server with its mirror over
  a :class:`~repro.cluster.host.Cluster`, one channel per worker
  process.

**State-sync contract.**  Leader and mirror are built identically (same
images, same pid, therefore the same randomized monitor base and GOT
patches) — the dMVX common checkpoint.  ``checkpoint()`` snapshots the
leader's writable non-monitor pages; each ``region_start`` ships only
pages dirtied since (plus the heap allocator's bookkeeping), so the
mirror's memory equals the leader's at every region entry — which is
exactly the guarantee the in-process follower gets from
``create_follower`` reading local memory.  The mirror's follower view
excludes its own image+heap ranges, so a leaked leader-space pointer
faults at the identical guest PC remotely as in-process.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster import wire
from repro.cluster.host import Cluster, ClusterHost, WireEndpoint
from repro.core.divergence import CallRecord, DivergenceReport
from repro.core.ipc import LEADER, CallEvent
from repro.core.monitor import SmvxMonitor
from repro.errors import MvxDivergence, MvxSetupError, MvxStateError
from repro.machine.memory import PAGE_SIZE, PROT_WRITE
from repro.process.process import GuestProcess, GuestThread

#: calls the leader treats as security-sensitive sync points (dMVX §4:
#: irreversible, externally visible effects).  Deliberately *not* the
#: benign serving path (read/write/epoll), so ordinary requests never
#: pay a round trip.
DEFAULT_SENSITIVE = frozenset(("mkdir", "unlink", "exit", "fork"))


# -- state sync ----------------------------------------------------------------


def _syncable(page) -> bool:
    """Pages worth shipping: writable, non-monitor (pkey 0), and not a
    thread stack — stacks are per-variant state (the in-process follower
    gets a fresh one too; the mirror builds its own at the same base)."""
    return (page.pkey == 0 and (page.prot & PROT_WRITE)
            and not page.tag.startswith("stack:"))


def snapshot_hashes(process: GuestProcess) -> Dict[int, bytes]:
    """Hash every syncable page."""
    hashes: Dict[int, bytes] = {}
    for base, page in process.space.mapped_pages():
        if _syncable(page):
            hashes[base] = hashlib.sha256(bytes(page.data)).digest()
    return hashes


def state_delta(process: GuestProcess,
                hashes: Dict[int, bytes]) -> List[List]:
    """Pages dirtied since the last snapshot, as ``[addr, hexdata]``;
    updates ``hashes`` in place."""
    delta: List[List] = []
    for base, page in process.space.mapped_pages():
        if not _syncable(page):
            continue
        digest = hashlib.sha256(bytes(page.data)).digest()
        if hashes.get(base) != digest:
            hashes[base] = digest
            delta.append([base, bytes(page.data).hex()])
    return delta


def heap_book(process: GuestProcess) -> Dict:
    """The leader heap's allocator metadata, JSON-safe."""
    book = process.heap.clone_bookkeeping(0)
    return {"brk": book["brk"],
            "free": sorted([size, sorted(addrs)]
                           for size, addrs in book["free"].items()),
            "allocated": sorted(book["allocated"].items())}


def adopt_heap_book(process: GuestProcess, raw: Dict) -> None:
    process.heap.adopt_bookkeeping({
        "brk": raw["brk"],
        "free": {size: list(addrs) for size, addrs in raw["free"]},
        "allocated": {addr: size for addr, size in raw["allocated"]}})


def apply_state(process: GuestProcess, pages: List[List],
                heap_raw: Dict) -> None:
    """Write the leader's page delta into the mirror and adopt the heap
    bookkeeping; charged as page-copy work on the mirror's host."""
    for addr, hexdata in pages:
        if not process.space.is_mapped(addr):
            process.space.mmap(addr, PAGE_SIZE, fixed=True,
                               tag="cluster:sync")
        process.space.write(addr, bytes.fromhex(hexdata), privileged=True)
    if pages:
        process.charge(len(pages) * process.costs.page_copy_ns,
                       "cluster-sync")
    adopt_heap_book(process, heap_raw)


# -- leader side ---------------------------------------------------------------


@dataclass
class RemoteRegion:
    """Leader-side book for one open region (no local variant)."""

    root: str
    leader: GuestThread
    number: int
    leader_seq: int = 0


class DistributedLeaderMonitor(SmvxMonitor):
    """The leader-host monitor: same interposition machinery as the
    in-process monitor, but regions replicate to a remote host instead
    of creating a local follower."""

    def __init__(self, process: GuestProcess, host: ClusterHost,
                 endpoint: WireEndpoint, verdicts: Dict,
                 chan: int = 0,
                 sensitive: Optional[Sequence[str]] = None,
                 **kwargs):
        super().__init__(process, **kwargs)
        self.host = host
        self.endpoint = endpoint
        #: shared verdict box, filled by the cluster's leader-side frame
        #: handler: (chan, region, seq) -> (verdict msg, deliver_at_ns).
        self.verdicts = verdicts
        self.chan = chan
        self.sensitive = (DEFAULT_SENSITIVE if sensitive is None
                          else frozenset(sensitive))
        self._region_no = 0
        self._page_hashes: Dict[int, bytes] = {}

    # -- state sync --------------------------------------------------------

    def checkpoint(self) -> None:
        """Record the common starting checkpoint (call once, right after
        both monitors attached and before the leader serves)."""
        self._page_hashes = snapshot_hashes(self.process)

    # -- region lifecycle --------------------------------------------------

    def region_start(self, leader: GuestThread, root_function: str,
                     args: Sequence[int]) -> None:
        if self.region is not None:
            raise MvxStateError("nested mvx_start() is not supported")
        if not self.target.has_symbol(root_function):
            raise MvxSetupError(
                f"protected function {root_function!r} not in profile")
        self.stats.regions_entered += 1
        self._region_no += 1
        pages = state_delta(self.process, self._page_hashes)
        leader.variant = LEADER
        self.region = RemoteRegion(root_function, leader, self._region_no)
        self.endpoint.post(wire.region_start_msg(
            self._region_no, root_function, list(args), pages,
            heap_book(self.process)), self.process)
        # region boundary: flush so the mirror can start duplicating the
        # variant while the leader runs ahead (relaxed lockstep)
        self.endpoint.flush(self.process)

    def region_end(self, leader: GuestThread) -> None:
        region = self.region
        if region is None:
            raise MvxStateError("mvx_end() without an active region")
        if leader is not region.leader:
            raise MvxStateError("mvx_end() from a non-leader thread")
        self.endpoint.post(wire.region_end_msg(region.number),
                           self.process)
        # the close is asynchronous on the leader's wall clock (dMVX:
        # the leader does not wait for the region verdict), but the
        # verdict still gates the region result: a follower fault after
        # the last sync point surfaces here.
        verdict, _ = self._await_verdict(region.number, -1)
        if not verdict["ok"]:
            report = wire.report_from_dict(verdict["alarm"])
            self._teardown_region(alarm=report)
            raise MvxDivergence(report)
        self._teardown_region()

    def abort_region(self, report: DivergenceReport) -> None:
        if self.region is None:
            return
        number = self.region.number
        self.endpoint.post(wire.region_end_msg(number), self.process)
        try:
            self._await_verdict(number, -1)
        except MvxStateError:
            pass
        self._teardown_region(alarm=report)

    def _teardown_region(self,
                         alarm: Optional[DivergenceReport] = None) -> None:
        region, self.region = self.region, None
        if alarm is not None:
            if alarm.pid < 0:
                alarm = replace(alarm, pid=self.process.pid)
            self.alarms.raise_alarm(alarm)
        if region is not None:
            region.leader.variant = "main"

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, ctx, thread: GuestThread, name: str,
                  args: List[int]) -> int:
        region = self.region
        if region is not None and thread is region.leader:
            return self._leader_call(ctx, thread, name, args)
        self.stats.passthrough_calls += 1
        return self._execute_libc(thread, name, args)

    def _leader_call(self, ctx, thread: GuestThread, name: str,
                     args: List[int]) -> int:
        region = self.region
        region.leader_seq += 1
        record = CallRecord(region.leader_seq, name, tuple(args), LEADER)
        self.stats.leader_calls += 1
        for tap in self.call_taps:
            tap(LEADER, record)

        sensitive = name in self.sensitive
        if sensitive:
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

        # execute and ship the outcome: a sync point's result, or a
        # relaxed-lockstep call the mirror checks after the fact
        retval = self._execute_libc(thread, name, args)
        event = self.capture(record, retval, thread)
        if event.execute_locally:
            self.stats.local_calls += 1
        else:
            self.stats.emulated_calls += 1
        self.stats.bytes_copied += sum(len(data) for _, data in event.buffers)
        msg = wire.result_msg(event) if sensitive else wire.call_msg(event)
        self.endpoint.post(msg, self.process)
        return retval

    def _await_verdict(self, region: int, seq: int) -> Tuple[Dict, float]:
        """Flush, then drive the cluster until the verdict lands."""
        self.endpoint.flush(self.process)
        key = (self.chan, region, seq)
        cluster = self.host.cluster
        while key not in self.verdicts:
            if not cluster.pump_one():
                raise MvxStateError(
                    f"cluster idle while leader awaits verdict {key}")
        return self.verdicts.pop(key)


# -- remote (mirror) side ------------------------------------------------------


class RemoteRegionRunner:
    """Host-1 protocol engine for one leader/mirror pair: applies state
    deltas, opens mirror regions, and runs the leader side of the
    lockstep channel from wire events on the mirror's own monitor."""

    def __init__(self, process: GuestProcess, monitor: SmvxMonitor,
                 host: ClusterHost, endpoint: WireEndpoint,
                 chan: int = 0):
        if monitor is None:
            raise MvxSetupError("mirror server must be built with smvx=True")
        self.process = process
        self.monitor = monitor
        self.host = host
        self.endpoint = endpoint
        self.chan = chan
        self.region_no = 0
        #: divergence discovered between sync points (relaxed lockstep:
        #: reported at the next sync or region end).
        self.alarm: Optional[DivergenceReport] = None
        self._dead = False
        #: the follower's record of the sync call whose executed result
        #: has not arrived yet
        self._pending_sync: Optional[CallRecord] = None
        self.events_played = 0

    # -- frame entry -------------------------------------------------------

    def handle(self, msgs: List[Dict], deliver_at: float) -> None:
        for msg in msgs:
            kind = msg["type"]
            if kind == "region_start":
                self._on_region_start(msg)
            elif kind == "call":
                self._on_call(msg)
            elif kind == "sync":
                self._on_sync(msg)
            elif kind == "result":
                self._on_result(msg)
            elif kind == "region_end":
                self._on_region_end(msg)
            else:
                raise MvxStateError(f"unknown wire message {kind!r}")

    # -- region protocol ---------------------------------------------------

    def _on_region_start(self, msg: Dict) -> None:
        self.region_no = msg["region"]
        self.alarm = None
        self._dead = False
        self._pending_sync = None
        apply_state(self.process, msg["pages"], msg["heap"])
        self.monitor.region_start(self.process.main_thread(),
                                  msg["root"], msg["args"])

    def _on_call(self, msg: Dict) -> None:
        if self._dead:
            return
        event = CallEvent.from_dict(msg["event"])
        try:
            self.monitor.publish(event, self._rendezvous(event))
        except MvxDivergence as divergence:
            self._abort(divergence.report)
            return
        self.events_played += 1

    def _on_sync(self, msg: Dict) -> None:
        event = CallEvent.from_dict(msg["event"])
        if self._dead:
            self._send_verdict(event.seq, self.alarm is None, self.alarm)
            return
        try:
            follower = self._rendezvous(event)
        except MvxDivergence as divergence:
            self._abort(divergence.report)
            self._send_verdict(event.seq, False, divergence.report)
            return
        # follower stays parked in follower_announce until the executed
        # result arrives; the leader is free to run the moment the OK
        # verdict lands
        self._pending_sync = follower
        self._send_verdict(event.seq, True, None)

    def _on_result(self, msg: Dict) -> None:
        if self._dead or self._pending_sync is None:
            return
        follower, self._pending_sync = self._pending_sync, None
        try:
            self.monitor.publish(CallEvent.from_dict(msg["event"]), follower)
        except MvxDivergence as divergence:
            self._abort(divergence.report)

    def _on_region_end(self, msg: Dict) -> None:
        if self._dead or self.monitor.region is None:
            self._send_verdict(-1, self.alarm is None, self.alarm)
            return
        try:
            self.monitor.region_end(self.process.main_thread())
        except MvxDivergence as divergence:
            self.alarm = divergence.report
            self._send_verdict(-1, False, divergence.report)
            return
        self._send_verdict(-1, True, None)

    # -- the leader side of the channel, fed from the wire ------------------

    def _rendezvous(self, event: CallEvent) -> CallRecord:
        """The in-process monitor's rendezvous for a leader call that
        arrived over the wire; returns the follower's record."""
        self.process.charge(self.process.costs.rendezvous_ns,
                            "smvx-rendezvous")
        return self.monitor.rendezvous(
            CallRecord(event.seq, event.name, event.args, LEADER),
            event.task, event.pc)

    def _abort(self, report: DivergenceReport) -> None:
        """Note a divergence the mirror's monitor has already torn its
        region down for (relaxed lockstep: reported at the next sync or
        region end)."""
        self.alarm = report
        self._dead = True

    def _send_verdict(self, seq: int, ok: bool,
                      alarm: Optional[DivergenceReport]) -> None:
        self.endpoint.post(wire.verdict_msg(self.region_no, seq, ok,
                                            alarm), self.process)
        self.endpoint.flush(self.process)


# -- pairing a leader server with its mirror -----------------------------------


class DistributedSmvx:
    """Wire a leader server (host 0, built with ``smvx=False``) to its
    mirror (host 1, built identically but with ``smvx=True``): one
    channel per worker process, all multiplexed over one link pair."""

    def __init__(self, cluster: Cluster, leader_server, mirror_server,
                 sensitive: Optional[Sequence[str]] = None):
        self.cluster = cluster
        self.leader_server = leader_server
        self.mirror_server = mirror_server
        host0, host1 = cluster.host(0), cluster.host(1)
        self.link_out = cluster.link(0, 1)
        self.link_back = cluster.link(1, 0)
        self.verdicts: Dict = {}
        self.monitors: List[DistributedLeaderMonitor] = []
        self.runners: Dict[int, RemoteRegionRunner] = {}

        leader_units = list(getattr(leader_server, "workers", None)
                            or [leader_server])
        mirror_units = list(getattr(mirror_server, "workers", None)
                            or [mirror_server])
        if len(leader_units) != len(mirror_units):
            raise MvxSetupError(
                "leader and mirror must have the same worker shape")
        for chan, (leader_unit, mirror_unit) in enumerate(
                zip(leader_units, mirror_units)):
            if leader_unit.monitor is not None:
                raise MvxSetupError(
                    "leader server must be built with smvx=False")
            monitor = DistributedLeaderMonitor(
                leader_unit.process, host0,
                WireEndpoint(host0, self.link_out, chan),
                self.verdicts, chan=chan, sensitive=sensitive,
                alarm_log=leader_server.alarms)
            monitor.setup(leader_unit.loaded)
            monitor.checkpoint()
            leader_unit.monitor = monitor
            self.monitors.append(monitor)
            self.runners[chan] = RemoteRegionRunner(
                mirror_unit.process, mirror_unit.monitor, host1,
                WireEndpoint(host1, self.link_back, chan),
                chan)
        leader_server.monitor = self.monitors[0]
        self.link_out.on_frame = self._deliver_to_mirror
        self.link_back.on_frame = self._deliver_to_leader
        sched = host0.kernel.sched
        if sched is not None:
            # scheduled serving: drain pending frames at scheduler idle
            # points so verdicts land while every task is parked; chained
            # so sim instrumentation hooks coexist with the pump
            sched.add_idle_hook(cluster.pump_one)

    @property
    def monitor(self) -> DistributedLeaderMonitor:
        return self.monitors[0]

    def _deliver_to_mirror(self, batch: Dict, deliver_at: float) -> None:
        self.runners[batch["chan"]].handle(batch["msgs"], deliver_at)

    def _deliver_to_leader(self, batch: Dict, deliver_at: float) -> None:
        for msg in batch["msgs"]:
            if msg["type"] == "verdict":
                key = (batch["chan"], msg["region"], msg["seq"])
                self.verdicts[key] = (msg, deliver_at)

    def settle(self) -> None:
        """Deliver every in-flight frame (end-of-run drain)."""
        self.cluster.pump()
