"""Loopback networking.

The paper's server evaluation runs ApacheBench against the loopback
interface with 0.1 ms latency (§4.1); the attacker of §2.2 reaches the
target only through a socket.  This module provides exactly that: stream
sockets connected pairwise over a simulated loopback with a configurable
one-way latency, driven by the shared :class:`VirtualClock`.

Server-side sockets are installed into a process's FD table by the kernel;
client-side sockets are used directly by host-level workload generators
(`repro.workloads`), which play the role of the remote machine.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.kernel.clock import VirtualClock
from repro.kernel.errno_codes import Errno

#: Loopback one-way latency, matching the paper's 0.1 ms.
DEFAULT_LATENCY_NS = 100_000


class Channel:
    """An event source with readiness watchers: zero-arg callables fired
    whenever a reader *may* have become ready.  Epoll instances use them
    to re-arm fds, and the scheduler to re-check parked tasks; a watcher
    never decides readiness itself, which is still probed against the
    clock."""

    def __init__(self) -> None:
        self._watchers: List[Callable[[], None]] = []

    def add_watcher(self, fn: Callable[[], None]) -> None:
        if fn not in self._watchers:
            self._watchers.append(fn)

    def remove_watcher(self, fn: Callable[[], None]) -> None:
        if fn in self._watchers:
            self._watchers.remove(fn)

    def _notify(self) -> None:
        for fn in tuple(self._watchers):
            fn()


class Socket(Channel):
    """One end of a connected stream socket; fires its watchers when a
    segment or FIN is scheduled toward it."""

    def __init__(self, network: "Network", label: str):
        super().__init__()
        self._network = network
        self.label = label
        #: connection number assigned by :meth:`Network.connect` (both
        #: ends share it); host-provisioned sockets keep -1.
        self.conn_id = -1
        self.peer: Optional["Socket"] = None
        #: inbound segments: (ready_at_ns, bytearray)
        self._inbox: Deque[Tuple[float, bytearray]] = deque()
        self.closed = False
        #: when the peer's FIN becomes visible here (None = still open).
        #: The FIN travels the same latency path as data and never
        #: overtakes segments sent causally before it, so EOF/HUP cannot
        #: precede data the peer sent first.
        self.fin_at: Optional[float] = None
        #: latest scheduled arrival in this direction (FIN ordering).
        self.last_delivery_at: float = 0.0
        #: local half-close: ``shutdown(SHUT_WR)`` was issued here, so
        #: further sends must fail with EPIPE even though the socket
        #: itself is still open for reading.
        self.write_shutdown = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self.options: Dict[Tuple[int, int], int] = {}

    # -- plumbing -------------------------------------------------------------

    def _deliver(self, data: bytes, ready_at: float) -> None:
        self._inbox.append((ready_at, bytearray(data)))
        if ready_at > self.last_delivery_at:
            self.last_delivery_at = ready_at
        if self._network.ingress_hook is not None:
            self._network.ingress_hook(self, data, ready_at)
        self._notify()

    def fin_visible(self, now: float) -> bool:
        """Has the peer's FIN arrived by ``now``?"""
        return self.fin_at is not None and self.fin_at <= now

    def next_ready_at(self) -> Optional[float]:
        """Earliest instant at which this socket becomes readable."""
        if self._inbox:
            return self._inbox[0][0]
        if self.fin_at is not None:
            return self.fin_at
        return None

    def readable(self, now: float) -> bool:
        if self._inbox and self._inbox[0][0] <= now:
            return True
        return self.fin_visible(now) and not self._inbox

    def writable(self, now: float) -> bool:
        return (not self.closed and not self.write_shutdown
                and not self.fin_visible(now))

    # -- I/O -------------------------------------------------------------------

    def send(self, data: bytes, extra_delay_ns: float = 0) -> int:
        """Queue bytes toward the peer; returns count or negative errno.

        ``extra_delay_ns`` models client-side pacing on top of the link
        latency (e.g. an attacker sending a request head, then the body a
        moment later so it arrives while the server is mid-request).
        """
        if self.closed:
            return -Errno.EBADF
        if self.write_shutdown:
            return -Errno.EPIPE   # POSIX: no sends after SHUT_WR
        now = self._network.clock.monotonic_ns
        if self.peer is None or self.fin_visible(now):
            return -Errno.EPIPE
        base = now + self._network.latency_ns + extra_delay_ns
        plane = self._network.fault_plane
        pieces = plane.segment_delivery(data) \
            if plane is not None and plane.active else None
        if pieces is None:
            self.peer._deliver(data, base)
        else:
            for chunk, extra in pieces:
                self.peer._deliver(chunk, base + extra)
        self.bytes_sent += len(data)
        return len(data)

    def recv(self, count: int) -> "bytes | int":
        """Read up to ``count`` ready bytes.

        Returns ``b""`` on EOF, ``-EAGAIN`` if nothing is ready yet, the
        bytes otherwise.  (Sockets are non-blocking; the kernel layers
        block-until-ready behaviour on top when asked to.)
        """
        if self.closed:
            return -Errno.EBADF
        if count == 0:
            return b""            # POSIX: read(fd, buf, 0) returns 0
        now = self._network.clock.monotonic_ns
        out = bytearray()
        while self._inbox and len(out) < count:
            ready_at, segment = self._inbox[0]
            if ready_at > now:
                break
            take = min(count - len(out), len(segment))
            out += segment[:take]
            if take == len(segment):
                self._inbox.popleft()
            else:
                del segment[:take]
        if out:
            self.bytes_received += len(out)
            return bytes(out)
        if self._inbox:
            return -Errno.EAGAIN  # data in flight, not yet arrived
        if self.fin_visible(now):
            return b""            # orderly EOF
        return -Errno.EAGAIN

    def recv_wait(self, count: int) -> "bytes | int":
        """Like :meth:`recv` but advances the clock to the data if needed.

        Host-side workload generators use this: the "remote machine" has
        nothing else to do, so waiting == advancing virtual time.
        """
        result = self.recv(count)
        if result == -Errno.EAGAIN:
            ready_at = self.next_ready_at()
            if ready_at is None:
                return -Errno.EAGAIN
            self._network.clock.advance_to(ready_at)
            result = self.recv(count)
        return result

    def shutdown_write(self) -> None:
        """Send FIN: it rides the same latency path as data and is
        sequenced after every segment already in flight toward the peer,
        so the peer never observes EOF/HUP before causally earlier data."""
        self.write_shutdown = True
        if self.peer is not None and self.peer.fin_at is None:
            now = self._network.clock.monotonic_ns
            self.peer.fin_at = max(now + self._network.latency_ns,
                                   self.peer.last_delivery_at)
            self.peer._notify()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.shutdown_write()


class Listener(Channel):
    """A listening socket bound to a port; fires its watchers on every
    enqueued connection."""

    def __init__(self, network: "Network", port: int, backlog: int = 128):
        super().__init__()
        self._network = network
        self.port = port
        self.backlog = backlog
        self._pending: Deque[Tuple[float, Socket]] = deque()
        self.closed = False
        self.accepted_total = 0

    def enqueue(self, server_end: Socket, ready_at: float) -> int:
        backlog = self.backlog
        plane = self._network.fault_plane
        if plane is not None and plane.active:
            backlog = plane.backlog_limit(backlog)
        if len(self._pending) >= backlog:
            return -Errno.ECONNREFUSED
        self._pending.append((ready_at, server_end))
        self._notify()
        return 0

    def next_ready_at(self) -> Optional[float]:
        return self._pending[0][0] if self._pending else None

    def pending_count(self) -> int:
        """Connections awaiting accept (including ones still in flight);
        workload generators use this to bound their accept-pump loops."""
        return len(self._pending)

    def readable(self, now: float) -> bool:
        return bool(self._pending) and self._pending[0][0] <= now

    def accept(self) -> "Socket | int":
        now = self._network.clock.monotonic_ns
        if not self._pending:
            return -Errno.EAGAIN
        ready_at, sock = self._pending[0]
        if ready_at > now:
            return -Errno.EAGAIN
        self._pending.popleft()
        self.accepted_total += 1
        if self._network.accept_hook is not None:
            self._network.accept_hook(self, sock)
        return sock

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._network.release_port(self.port)
        # Tear down every queued, never-accepted connection: closing the
        # server end sends FIN back to the mid-connect client, which
        # would otherwise park on a socket nobody will ever service.
        while self._pending:
            _ready_at, server_end = self._pending.popleft()
            server_end.close()


class Network:
    """The loopback fabric: listeners by port, latency, connection setup."""

    def __init__(self, clock: VirtualClock,
                 latency_ns: int = DEFAULT_LATENCY_NS):
        self.clock = clock
        self.latency_ns = latency_ns
        self._listeners: Dict[int, Listener] = {}
        self.connections_total = 0
        #: the kernel's fault-injection plane (None for a bare Network);
        #: consulted for delivery segmentation and backlog caps.
        self.fault_plane = None
        #: flight-recorder taps (repro.trace): all default to None so the
        #: fast path stays a single attribute test.
        #: fn(client_socket, port) after a successful connect
        self.connect_hook = None
        #: fn(receiving_socket, data, ready_at_ns) on every delivery
        self.ingress_hook = None
        #: fn(listener, server_socket) on every successful accept
        self.accept_hook = None

    def listen(self, port: int, backlog: int = 128) -> "Listener | int":
        if port in self._listeners:
            return -Errno.EADDRINUSE
        listener = Listener(self, port, backlog)
        self._listeners[port] = listener
        return listener

    def release_port(self, port: int) -> None:
        self._listeners.pop(port, None)

    def listener_at(self, port: int) -> Optional[Listener]:
        return self._listeners.get(port)

    def connect(self, port: int) -> "Socket | int":
        """Client-side connect; returns the client socket end."""
        listener = self._listeners.get(port)
        if listener is None or listener.closed:
            return -Errno.ECONNREFUSED
        client = Socket(self, f"client:{port}")
        server = Socket(self, f"server:{port}")
        client.peer = server
        server.peer = client
        now = self.clock.monotonic_ns
        rc = listener.enqueue(server, now + self.latency_ns)
        if rc < 0:
            return rc
        client.conn_id = server.conn_id = self.connections_total
        self.connections_total += 1
        if self.connect_hook is not None:
            self.connect_hook(client, port)
        return client
