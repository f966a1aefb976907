"""The simulated kernel: syscall surface, FD tables, accounting.

Calling convention: buffer arguments are *guest addresses*; the kernel
copies to/from the calling process's address space with privileged
accesses (the direct-map analogue).  Return values follow the Linux raw
convention — non-negative on success, ``-errno`` on failure — and the libc
layer converts them to the C ``-1 + errno`` shape.

Every syscall is counted per process (Figure 7 plots libc:syscall ratios
against these counters) and charged two user/kernel crossings plus a base
amount of in-kernel work.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import KernelError
from repro.kernel.clock import VirtualClock
from repro.kernel.epoll_impl import EpollInstance
from repro.kernel.errno_codes import Errno
from repro.kernel.faults import FaultPlane
from repro.kernel.fds import (
    EpollFD,
    FileDescription,
    FileFD,
    ListenerFD,
    SocketFD,
    UrandomFD,
)
from repro.kernel.net import Listener, Network, Socket
from repro.kernel.tasks import TaskManager
from repro.kernel.vfs import (
    DEFAULT_URANDOM_SEED,
    O_CREAT,
    O_TRUNC,
    VirtualFS,
    normalize,
)
from repro.machine.costs import CostModel, DEFAULT_COSTS

#: Syscall numbers (Linux x86-64 values where one exists).
SYSCALL_NUMBERS = {
    "read": 0, "write": 1, "open": 2, "close": 3, "stat": 4, "fstat": 5,
    "lseek": 8, "ioctl": 16, "writev": 20, "sendfile": 40,
    "shutdown": 48, "setsockopt": 54, "getsockopt": 55,
    "clone": 56, "fork": 57, "exit": 60, "unlink": 87, "mkdir": 83,
    "gettimeofday": 96, "getpid": 39,
    "epoll_wait": 232, "epoll_ctl": 233, "accept4": 288,
    "recvfrom": 45, "sendto": 44, "epoll_create1": 291, "epoll_pwait": 281,
    "listen_on": 900,  # simplified socket+bind+listen (no Linux equivalent)
}
SYSCALL_NAMES = {num: name for name, num in SYSCALL_NUMBERS.items()}


class SyscallError(KernelError):
    """Raised for kernel-API misuse that real hardware could not express."""


class _ProcState:
    """Kernel-side per-process state (the PCB)."""

    def __init__(self, proc, pid: int):
        self.proc = proc
        self.pid = pid
        self.fds: Dict[int, FileDescription] = {}
        self.next_fd = 3
        self.syscall_counts: Dict[str, int] = {}
        self.total_syscalls = 0

    def alloc_fd(self, description: FileDescription) -> int:
        fd = self.next_fd
        while fd in self.fds:
            fd += 1
        self.fds[fd] = description
        self.next_fd = fd + 1
        return fd


class Kernel:
    """One simulated machine's kernel."""

    def __init__(self, clock: Optional[VirtualClock] = None,
                 costs: CostModel = DEFAULT_COSTS,
                 latency_ns: Optional[int] = None,
                 seed: "bytes | str | None" = None,
                 host_id: int = 0):
        self.clock = clock or VirtualClock()
        self.costs = costs
        #: which cluster host this kernel is (0 for a standalone machine).
        #: ``repro.cluster`` gives every host its own kernel, seed, and
        #: virtual clock; the id keys per-host traces and wire events.
        self.host_id = host_id
        #: the one top-level determinism knob: every nondeterminism source
        #: the machine owns (today: /dev/urandom) derives from it.
        self.seed = seed if seed is not None else DEFAULT_URANDOM_SEED
        self.vfs = VirtualFS(urandom_seed=self.seed)
        #: seeded fault-injection plane; inert until a schedule is
        #: installed (`faults.install(...)`), decisions derive from the
        #: same top-level seed so schedules never break determinism.
        self.faults = FaultPlane(self.seed)
        self.network = Network(self.clock,
                               latency_ns if latency_ns is not None
                               else 100_000)
        self.network.fault_plane = self.faults
        self.tasks = TaskManager(costs)
        #: the deterministic preemptive scheduler, installed by
        #: ``repro.kernel.sched.Scheduler``; None = legacy pump mode.
        self.sched = None
        self._procs: Dict[int, _ProcState] = {}
        #: charged per syscall: enter + exit crossings + base work.
        self._syscall_cost_ns = 2 * costs.kernel_crossing_ns + costs.syscall_work_ns
        #: taint-source hook: fn(proc, buf_addr, nbytes, kind) called when
        #: external input enters guest memory (libdft's taint source).
        self.io_taint_hook = None
        #: syscall interposition hooks: fn(proc, name) on every syscall —
        #: how syscall-boundary MVX monitors (ReMon, ptrace) attach.
        self.syscall_hooks: List[Callable] = []
        #: cluster wire observers: fn(direction, link, frame_meta) when a
        #: wire frame leaves ("send") or reaches ("recv") this host — the
        #: flight recorder's cross-host causality tap.
        self.wire_hooks: List[Callable] = []
        #: post-syscall hooks: fn(proc, name, result) after the handler
        #: ran — the flight recorder digests the retval/errno stream here.
        self.syscall_result_hooks: List[Callable] = []
        self._handler_arity: Dict[str, int] = {}

    # -- process lifecycle -----------------------------------------------------

    def register_process(self, proc, name: str = "guest",
                         parent: Optional[int] = None) -> int:
        pid = self.tasks.spawn(name, parent)
        self._procs[pid] = _ProcState(proc, pid)
        return pid

    def state_of(self, pid: int) -> _ProcState:
        try:
            return self._procs[pid]
        except KeyError:
            raise SyscallError(f"unregistered pid {pid}") from None

    def syscall_count(self, pid: int) -> int:
        return self.state_of(pid).total_syscalls

    def release_process_fds(self, pid: int) -> int:
        """Process-exit fd sweep: close every description the process
        still holds, exactly as the real kernel does when a process dies.
        Sockets FIN their peers (a crashed worker's clients see the reset
        instead of hanging), shared listeners drop one reference, epoll
        instances detach their watchers.  Returns the number closed."""
        pcb = self._procs.get(pid)
        if pcb is None:
            return 0
        closed = 0
        for fd in list(pcb.fds):
            description = pcb.fds.pop(fd, None)
            if description is None:
                continue
            for other in pcb.fds.values():
                if isinstance(other, EpollFD):
                    other.instance.forget(fd)
            description.close()
            closed += 1
        return closed

    def syscall_breakdown(self, pid: int) -> Dict[str, int]:
        return dict(self.state_of(pid).syscall_counts)

    # -- accounting --------------------------------------------------------------

    def _charge(self, proc, ns: float, category: str = "kernel") -> None:
        # the active thread's counter (a follower's work must not extend
        # wall time); it advances the global clock when attached.
        counter = getattr(proc, "current_counter", None) or proc.counter
        counter.charge(ns, category)

    def attach_counter(self, counter) -> None:
        """Bind a process's cycle counter to this machine's clock."""
        counter.clock = self.clock

    # -- dispatch ------------------------------------------------------------------

    def syscall(self, proc, name: str, *args):
        """Issue a syscall on behalf of ``proc``; returns the raw result.

        Surplus arguments are ignored, like the real ABI: a raw SYSCALL
        instruction always supplies six registers regardless of how many
        the call consumes.
        """
        handler: Optional[Callable] = getattr(self, f"_sys_{name}", None)
        if handler is None:
            return -Errno.ENOSYS
        max_args = self._handler_arity.get(name)
        if max_args is None:
            import inspect
            parameters = inspect.signature(handler).parameters
            max_args = len(parameters) - 2          # minus proc, pcb
            self._handler_arity[name] = max_args
        pcb = self.state_of(proc.pid)
        pcb.total_syscalls += 1
        pcb.syscall_counts[name] = pcb.syscall_counts.get(name, 0) + 1
        self._charge(proc, self._syscall_cost_ns, "syscall")
        if self.sched is not None:
            # every syscall entry is a preemption point: a task past its
            # quantum yields *before* the handler runs, so e.g. a raced
            # accept4 observes the listener as a sibling left it.
            self.sched.maybe_preempt()
        for hook in self.syscall_hooks:
            hook(proc, name)
        # an injected fault is a real kernel crossing: it is counted,
        # charged, and visible to every hook, exactly like the handler's
        # own result would be.
        result = self.faults.before_syscall(name) if self.faults.active \
            else None
        if result is None:
            result = handler(proc, pcb, *args[:max_args])
        for hook in self.syscall_result_hooks:
            hook(proc, name, result)
        return result

    def syscall_by_number(self, proc, number: int, *args):
        name = SYSCALL_NAMES.get(number)
        if name is None:
            return -Errno.ENOSYS
        return self.syscall(proc, name, *args)

    # -- blocking helper -----------------------------------------------------------

    def _wait_readable(self, description: FileDescription,
                       timeout_ns: Optional[float]) -> bool:
        """Advance virtual time until ``description`` is readable.

        Returns True if it became readable; False on timeout / nothing
        pending (the caller then reports EAGAIN — nothing in the simulated
        future can make the fd ready without the host driving it).
        """
        now = self.clock.monotonic_ns
        if description.readable(now):
            return True
        ready_at = description.next_ready_at()
        if ready_at is None:
            return False
        if timeout_ns is not None and ready_at - now > timeout_ns:
            self.clock.advance_ns(timeout_ns)
            return False
        self.clock.advance_to(ready_at)
        return True

    def _sched_task_active(self) -> bool:
        """True when the calling thread is the scheduler's current task:
        blocking syscalls must then park instead of advancing the clock
        themselves (non-task contexts — legacy pump mode, follower
        threads — keep the co-simulation behaviour)."""
        return self.sched is not None and self.sched.in_task()

    def _park_until_readable(self, description: FileDescription) -> bool:
        """Scheduled blocking: park the current task until ``description``
        is readable.  Returns False when nothing is in flight (EAGAIN —
        only another task's future I/O could change that, and the epoll
        level is where we wait for it)."""
        while True:
            if description.readable(self.clock.monotonic_ns):
                return True
            if description.next_ready_at() is None:
                return False
            # re-check after every wake: a sibling may have consumed it
            self.sched.park(horizon=description.next_ready_at,
                            watch=(description,))

    # -- filesystem ------------------------------------------------------------------

    def _sys_open(self, proc, pcb, path_addr: int, flags: int = 0):
        path = proc.space.read_cstring(path_addr, privileged=True).decode(
            "utf-8", "replace")
        path = normalize(path)
        if path == "/dev/urandom":
            return pcb.alloc_fd(UrandomFD(self.vfs.urandom))
        if path == "/proc/self/maps":
            content = self._render_maps(proc)
            from repro.kernel.vfs import RegularFile
            return pcb.alloc_fd(FileFD(RegularFile(bytearray(content)), 0))
        node = self.vfs.lookup(path)
        if node is None:
            if not flags & O_CREAT:
                return -Errno.ENOENT
            self.vfs.write_file(path, b"")
            node = self.vfs.lookup(path)
        if flags & O_TRUNC:
            del node.data[:]
        return pcb.alloc_fd(FileFD(node, flags))

    def _render_maps(self, proc) -> bytes:
        lines = []
        for start, length, prot, tag in proc.space.mapped_regions():
            bits = "".join((
                "r" if prot & 1 else "-",
                "w" if prot & 2 else "-",
                "x" if prot & 4 else "-",
                "p",
            ))
            lines.append(f"{start:012x}-{start + length:012x} {bits} "
                         f"00000000 00:00 0  {tag}")
        return ("\n".join(lines) + "\n").encode()

    def _sys_close(self, proc, pcb, fd: int):
        description = pcb.fds.pop(fd, None)
        if description is None:
            return -Errno.EBADF
        for other in pcb.fds.values():
            if isinstance(other, EpollFD):
                other.instance.forget(fd)
        description.close()
        return 0

    def _sys_read(self, proc, pcb, fd: int, buf: int, count: int):
        description = pcb.fds.get(fd)
        if description is None:
            return -Errno.EBADF
        if count < 0:
            return -Errno.EINVAL
        if self.faults.active:
            count = self.faults.clamp_io("read", count)
        result = description.read(count, self.clock.monotonic_ns)
        if isinstance(result, int):
            return result
        if result:
            proc.space.write(buf, result, privileged=True)
        return len(result)

    def _sys_write(self, proc, pcb, fd: int, buf: int, count: int):
        description = pcb.fds.get(fd)
        if description is None:
            return -Errno.EBADF
        if self.faults.active:
            count = self.faults.clamp_io("write", count)
        data = proc.space.read(buf, count, privileged=True)
        return description.write(data, self.clock.monotonic_ns)

    def _sys_writev(self, proc, pcb, fd: int, iov_addr: int, iovcnt: int):
        description = pcb.fds.get(fd)
        if description is None:
            return -Errno.EBADF
        total = 0
        for i in range(iovcnt):
            base = proc.space.read_word(iov_addr + 16 * i, privileged=True)
            length = proc.space.read_word(iov_addr + 16 * i + 8,
                                          privileged=True)
            data = proc.space.read(base, length, privileged=True)
            wrote = description.write(data, self.clock.monotonic_ns)
            if wrote < 0:
                return wrote if total == 0 else total
            total += wrote
        return total

    def _pack_stat(self, proc, statbuf: int, mode: int, size: int,
                   mtime_s: int) -> None:
        proc.space.write(statbuf, struct.pack("<3q", mode, size, mtime_s),
                         privileged=True)

    def _sys_stat(self, proc, pcb, path_addr: int, statbuf: int):
        path = proc.space.read_cstring(path_addr, privileged=True).decode(
            "utf-8", "replace")
        result = self.vfs.stat(path)
        if isinstance(result, int):
            return result
        self._pack_stat(proc, statbuf, *result)
        return 0

    def _sys_fstat(self, proc, pcb, fd: int, statbuf: int):
        description = pcb.fds.get(fd)
        if description is None:
            return -Errno.EBADF
        result = description.stat()
        if isinstance(result, int):
            return result
        self._pack_stat(proc, statbuf, *result)
        return 0

    def _sys_lseek(self, proc, pcb, fd: int, offset: int, whence: int = 0):
        description = pcb.fds.get(fd)
        if description is None:
            return -Errno.EBADF
        if whence != 0:
            return -Errno.EINVAL
        return description.seek_set(offset)

    def _sys_mkdir(self, proc, pcb, path_addr: int, mode: int = 0o755):
        path = proc.space.read_cstring(path_addr, privileged=True).decode(
            "utf-8", "replace")
        return self.vfs.mkdir(path)

    def _sys_unlink(self, proc, pcb, path_addr: int):
        path = proc.space.read_cstring(path_addr, privileged=True).decode(
            "utf-8", "replace")
        return self.vfs.unlink(path)

    def _sys_sendfile(self, proc, pcb, out_fd: int, in_fd: int,
                      offset_addr: int, count: int):
        """sendfile(2): copy from a file to a socket inside the kernel."""
        out_desc = pcb.fds.get(out_fd)
        in_desc = pcb.fds.get(in_fd)
        if out_desc is None or in_desc is None:
            return -Errno.EBADF
        if not isinstance(in_desc, FileFD):
            return -Errno.EINVAL
        if offset_addr:
            offset = proc.space.read_word(offset_addr, privileged=True)
            in_desc.offset = offset
        data = in_desc.read(count, self.clock.monotonic_ns)
        if isinstance(data, int):
            return data
        sent = out_desc.write(data, self.clock.monotonic_ns)
        if sent < 0:
            return sent
        if offset_addr:
            proc.space.write_word(offset_addr, in_desc.offset,
                                  privileged=True)
        return sent

    # -- time ------------------------------------------------------------------------

    def _sys_gettimeofday(self, proc, pcb, tv_addr: int):
        sec, usec = self.clock.gettimeofday()
        proc.space.write(tv_addr, struct.pack("<2q", sec, usec),
                         privileged=True)
        return 0

    def _sys_getpid(self, proc, pcb):
        return proc.pid

    # -- networking --------------------------------------------------------------------

    def _sys_listen_on(self, proc, pcb, port: int, backlog: int = 128):
        """socket()+bind()+listen() in one call (simulation simplification;
        the libc layer exposes the familiar three-call shape on top)."""
        result = self.network.listen(port, backlog)
        if isinstance(result, int):
            return result
        return pcb.alloc_fd(ListenerFD(result))

    def _sys_accept4(self, proc, pcb, fd: int, flags: int = 0):
        description = pcb.fds.get(fd)
        if not isinstance(description, ListenerFD):
            return -Errno.ENOTSOCK
        if not self._sched_task_active():
            self._wait_readable(description, timeout_ns=None)
        # under the scheduler accept4 never parks: blocking lives at the
        # epoll level, so a worker woken for a connection that a sibling
        # already accepted takes EAGAIN and re-blocks in epoll_wait
        # rather than spinning (the thundering-herd contract).
        result = description.listener.accept()
        if isinstance(result, int):
            return result
        return pcb.alloc_fd(SocketFD(result))

    def _sys_recvfrom(self, proc, pcb, fd: int, buf: int, count: int,
                      flags: int = 0):
        description = pcb.fds.get(fd)
        if description is None:
            return -Errno.EBADF
        if not isinstance(description, SocketFD):
            return -Errno.ENOTSOCK
        if count < 0:
            # In C the size_t cast turns a negative length into a huge
            # positive one; the kernel then caps it (MAX_RW_COUNT) and
            # reads whatever is available.  This is the load-bearing
            # semantic of CVE-2013-2028 (paper §4.2).
            count = 1 << 31
        if self.faults.active:
            count = self.faults.clamp_io("recvfrom", count)
        if self._sched_task_active():
            # park only while bytes are actually in flight; an empty pipe
            # stays EAGAIN exactly as before.
            self._park_until_readable(description)
        else:
            self._wait_readable(description, timeout_ns=None)
        result = description.read(count, self.clock.monotonic_ns)
        if isinstance(result, int):
            return result
        if result:
            proc.space.write(buf, result, privileged=True)
            if self.io_taint_hook is not None:
                self.io_taint_hook(proc, buf, len(result), "socket")
        return len(result)

    def _sys_sendto(self, proc, pcb, fd: int, buf: int, count: int,
                    flags: int = 0):
        description = pcb.fds.get(fd)
        if description is None:
            return -Errno.EBADF
        if not isinstance(description, SocketFD):
            return -Errno.ENOTSOCK
        if self.faults.active:
            count = self.faults.clamp_io("sendto", count)
        data = proc.space.read(buf, count, privileged=True)
        return description.write(data, self.clock.monotonic_ns)

    def _sys_shutdown(self, proc, pcb, fd: int, how: int = 1):
        description = pcb.fds.get(fd)
        if not isinstance(description, SocketFD):
            return -Errno.ENOTSOCK
        description.sock.shutdown_write()
        return 0

    def _sys_setsockopt(self, proc, pcb, fd: int, level: int, optname: int,
                        optval_addr: int, optlen: int):
        description = pcb.fds.get(fd)
        if not isinstance(description, (SocketFD, ListenerFD)):
            return -Errno.ENOTSOCK
        value = 0
        if optval_addr and optlen:
            raw = proc.space.read(optval_addr, min(optlen, 8),
                                  privileged=True)
            value = int.from_bytes(raw, "little")
        if isinstance(description, SocketFD):
            description.sock.options[(level, optname)] = value
        return 0

    def _sys_getsockopt(self, proc, pcb, fd: int, level: int, optname: int,
                        optval_addr: int, optlen_addr: int):
        description = pcb.fds.get(fd)
        if not isinstance(description, SocketFD):
            return -Errno.ENOTSOCK
        value = description.sock.options.get((level, optname), 0)
        proc.space.write(optval_addr, struct.pack("<q", value),
                         privileged=True)
        if optlen_addr:
            proc.space.write(optlen_addr, struct.pack("<q", 8),
                             privileged=True)
        return 0

    # -- epoll ----------------------------------------------------------------------------

    def _sys_epoll_create1(self, proc, pcb, flags: int = 0):
        return pcb.alloc_fd(EpollFD())

    def _epoll_of(self, pcb, epfd: int) -> "EpollInstance | int":
        description = pcb.fds.get(epfd)
        if not isinstance(description, EpollFD):
            return -Errno.EINVAL
        return description.instance

    def _sys_epoll_ctl(self, proc, pcb, epfd: int, op: int, fd: int,
                       event_addr: int = 0):
        instance = self._epoll_of(pcb, epfd)
        if isinstance(instance, int):
            return instance
        if fd not in pcb.fds:
            return -Errno.EBADF
        events = data = 0
        if event_addr:
            events = proc.space.read_word(event_addr, privileged=True)
            data = proc.space.read_word(event_addr + 8, privileged=True)
        # The description is handed over as the re-arm channel: its
        # watcher puts the fd back on the instance's armed list whenever
        # a delivery/FIN/enqueue event targets it.
        return instance.ctl(op, fd, events, data, channel=pcb.fds[fd])

    def _epoll_probe(self, pcb):
        now = self.clock.monotonic_ns

        def probe(fd: int):
            description = pcb.fds.get(fd)
            if description is None:
                return None
            # 4-tuple probe: the trailing next_ready_at lets the armed
            # list disarm idle fds with nothing in flight (O(ready) poll).
            return (description.readable(now), description.writable(now),
                    description.hup(now), description.next_ready_at())
        return probe

    def _sys_epoll_wait(self, proc, pcb, epfd: int, events_addr: int,
                        maxevents: int, timeout_ms: int = -1):
        instance = self._epoll_of(pcb, epfd)
        if isinstance(instance, int):
            return instance
        if maxevents <= 0:
            return -Errno.EINVAL
        if self._sched_task_active() and self.sched.current.cancelled:
            # a kill interrupts at the syscall boundary (EINTR-style):
            # the cancelled worker must not keep pulling ready events
            # off a loaded epoll set, it must unwind now
            return 0
        ready = instance.poll(self.clock.monotonic_ns,
                              self._epoll_probe(pcb), maxevents)
        if not ready and self._sched_task_active():
            # Scheduled blocking: park until a watched fd becomes ready
            # (socket delivery, listener enqueue, FIN), re-polling after
            # every wake because a sibling worker may have raced us to
            # the event.  The horizon closure reads *live* kernel state
            # and the instance is its channel: every re-arm has the
            # scheduler re-evaluate it.
            deadline = None if timeout_ms < 0 else \
                self.clock.monotonic_ns + timeout_ms * 1_000_000

            def sched_horizon():
                return instance.next_ready_at(
                    lambda fd: pcb.fds[fd].next_ready_at()
                    if fd in pcb.fds else None)

            while not ready:
                if deadline is not None \
                        and self.clock.monotonic_ns >= deadline:
                    break
                woke = self.sched.park(horizon=sched_horizon,
                                       deadline_ns=deadline,
                                       watch=(instance,))
                ready = instance.poll(self.clock.monotonic_ns,
                                      self._epoll_probe(pcb), maxevents)
                if not woke and not ready:
                    break                  # timed out
        elif not ready:
            # Legacy co-simulation: sleep until the earliest in-flight
            # event, bounded by the timeout.  With nothing in flight
            # there is nothing the simulated future can deliver: return
            # 0 (timeout) instead of blocking forever.
            def horizon(fd: int):
                description = pcb.fds.get(fd)
                return description.next_ready_at() if description else None
            soonest = instance.next_ready_at(horizon)
            now = self.clock.monotonic_ns
            if soonest is not None and (
                    timeout_ms < 0
                    or soonest - now <= timeout_ms * 1_000_000):
                self.clock.advance_to(soonest)
                ready = instance.poll(self.clock.monotonic_ns,
                                      self._epoll_probe(pcb), maxevents)
            elif timeout_ms > 0:
                self.clock.advance_ns(timeout_ms * 1_000_000)
        for index, (events, data) in enumerate(ready):
            proc.space.write(events_addr + 16 * index,
                             struct.pack("<2q", events, data),
                             privileged=True)
        return len(ready)

    def _sys_epoll_pwait(self, proc, pcb, epfd: int, events_addr: int,
                         maxevents: int, timeout_ms: int = -1,
                         sigmask: int = 0):
        return self._sys_epoll_wait(proc, pcb, epfd, events_addr, maxevents,
                                    timeout_ms)

    # -- misc ------------------------------------------------------------------------------

    FIONBIO = 0x5421
    FIONREAD = 0x541B

    def _sys_ioctl(self, proc, pcb, fd: int, request: int, arg_addr: int = 0):
        description = pcb.fds.get(fd)
        if description is None:
            return -Errno.EBADF
        if request == self.FIONBIO:
            # all our sockets are non-blocking already; accept and ignore
            return 0
        if request == self.FIONREAD:
            pending = 0
            if isinstance(description, SocketFD):
                now = self.clock.monotonic_ns
                pending = sum(len(seg) for at, seg in
                              description.sock._inbox if at <= now)
            proc.space.write_word(arg_addr, pending, privileged=True)
            return 0
        return -Errno.ENOTTY

    def _sys_clone(self, proc, pcb, flags: int = 0):
        """Thread-style clone: charge the Table-2 cost; the guest-process
        layer builds the actual execution context."""
        self._charge(proc, self.tasks.clone_thread_cost_ns(), "clone")
        return self.tasks.new_thread(proc.pid)

    def _sys_fork(self, proc, pcb):
        pages = proc.space.resident_bytes() // 4096
        self._charge(proc, self.tasks.fork_cost_ns(pages), "fork")
        return self.tasks.spawn(f"{self.tasks.tasks[proc.pid].name}-child",
                                proc.pid)

    def _sys_exit(self, proc, pcb, code: int = 0):
        self.tasks.exit(proc.pid, code)
        return 0
