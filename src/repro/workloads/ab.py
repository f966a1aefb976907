"""ApacheBench (ab) analogue.

Plays the remote client of the paper's server evaluation: HTTP/1.1
keep-alive requests over the simulated loopback (0.1 ms latency), serving
a 4 KB page.

Two driving modes, selected by the server:

* **co-simulated** (classic, single-process server): after sending a
  request the client pumps the server's event loop until the full
  response has been read, advancing virtual time exactly as a
  saturating closed-loop load generator would.
* **scheduled** (multi-worker server with ``kernel.sched`` installed):
  ``ab -c C`` becomes C concurrent client *tasks*, each a closed loop
  over its own connection; clients park on socket readiness and workers
  park in ``epoll_wait``, so requests genuinely interleave across
  workers and the harness never calls ``pump()``.

Results carry both wall virtual time and the server's *busy* time; the
Figure 7 overhead normalization uses busy time per request (the saturated-
server regime the paper measures throughput in), while the multi-worker
scaling curves (BENCH_sched.json) use wall throughput.

Client behaviour is itself a scenario axis (`repro.sim`):

* ``client_mode="normal"`` — plain keep-alive GETs (the default);
* ``client_mode="slowloris"`` — every request is dripped onto the wire
  in small pieces with per-piece pacing delays (the CVE-2013-2028
  attacker's traffic shape applied to benign requests);
* ``client_mode="chunked"`` — benign chunked POST uploads shaped like
  the CVE request (chunk-size line + raw chunk bytes) but with an
  honest small size, exercising the discard path the exploit abuses;
* ``partial_preludes=N`` — N aggressor connections that send a
  truncated request head and slam the connection shut before the
  benchmark proper, leaving the server half-read state to clean up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.kernel.kernel import Kernel

#: client-behaviour modes understood by :class:`ApacheBench`.
CLIENT_MODES = ("normal", "slowloris", "chunked")

#: the ``Host`` header of every request
HOST = "localhost"
#: slowloris shape: piece size and per-piece pacing delay
DRIP_BYTES = 16
DRIP_DELAY_NS = 200_000


@dataclass
class AbResult:
    requests_attempted: int
    requests_completed: int = 0
    failures: int = 0
    wall_ns: float = 0.0
    server_busy_ns: float = 0.0
    server_cpu_ns: float = 0.0
    bytes_received: int = 0
    status_counts: dict = field(default_factory=dict)
    #: scheduled-mode shape: client tasks / server workers (0 = classic
    #: co-simulated run) and the scheduler's run_until outcome.
    concurrency: int = 1
    workers: int = 0
    sched_status: str = ""

    @property
    def busy_per_request_ns(self) -> float:
        if not self.requests_completed:
            return float("inf")
        return self.server_busy_ns / self.requests_completed

    @property
    def throughput_rps(self) -> float:
        """Saturated-server throughput: 1 / busy-time-per-request."""
        busy = self.busy_per_request_ns
        return 1e9 / busy if busy > 0 else 0.0

    @property
    def wall_per_request_ns(self) -> float:
        if not self.requests_completed:
            return float("inf")
        return self.wall_ns / self.requests_completed

    @property
    def wall_throughput_rps(self) -> float:
        """End-to-end throughput: completed requests per wall second —
        the number that scales with workers."""
        if not self.wall_ns:
            return 0.0
        return self.requests_completed * 1e9 / self.wall_ns


class ApacheBench:
    """``ab -n <requests> -k`` against a simulated server."""

    def __init__(self, kernel: Kernel, server, path: str = "/index.html",
                 keepalive: bool = True,
                 max_stalls: int = 2, timeout_ns: float = 50_000_000,
                 client_mode: str = "normal", chunk_bytes: int = 256,
                 partial_preludes: int = 0, pipeline: int = 1,
                 connect_retries: int = 20, think_ns: float = 0):
        if client_mode not in CLIENT_MODES:
            raise ValueError(f"unknown client_mode {client_mode!r}; "
                             f"expected one of {CLIENT_MODES}")
        self.kernel = kernel
        self.server = server            # MinxServer / LittledServer-like
        self.path = path
        self.keepalive = keepalive
        self.client_mode = client_mode
        #: chunked-upload shape: honest chunk size, capped so head+body
        #: always fit the server's one-recv request buffer (the benign
        #: upload must not depend on multi-read body delivery).
        self.chunk_bytes = max(1, min(chunk_bytes, 1400))
        #: truncated-head aggressor connections fired before the run.
        self.partial_preludes = partial_preludes
        #: how many empty recv+pump rounds to tolerate per read before
        #: declaring the request failed; fault-schedule runs (spurious
        #: EAGAIN, segmented deliveries) legitimately need more patience
        #: than the happy path's 2.
        self.max_stalls = max_stalls
        #: scheduled mode: per-read park deadline (virtual ns) — the
        #: ab-style request timeout that turns a dead server into failed
        #: requests instead of a stalled run.
        self.timeout_ns = timeout_ns
        #: pipelined burst depth for scheduled keep-alive clients: send
        #: up to this many requests back-to-back, then read the matching
        #: responses in order.  1 = classic request/response lockstep.
        self.pipeline = max(1, pipeline)
        #: scheduled mode: SYN-retransmit budget.  When the accept queue
        #: is full (``ab -c 1000`` against a backlog-128 listener, or a
        #: conn-cap-gated worker fleet) connect returns ECONNREFUSED;
        #: like a TCP client retransmitting its SYN, the client task
        #: backs off (exponential, deterministic) and retries up to this
        #: many times before charging a failure.
        self.connect_retries = max(0, connect_retries)
        #: scheduled mode: idle time a keep-alive client parks between
        #: bursts while holding its connection open (wrk-style think
        #: time).  This is what builds a large *resident* connection set
        #: — the case the O(ready) epoll exists for.
        self.think_ns = max(0, think_ns)
        self._run_seq = 0

    def _request_bytes(self, path: Optional[str] = None,
                       method: str = "GET") -> bytes:
        connection = "keep-alive" if self.keepalive else "close"
        return (f"{method} {path or self.path} HTTP/1.1\r\n"
                f"Host: {HOST}\r\n"
                f"User-Agent: ab/2.3-repro\r\n"
                f"Accept: */*\r\n"
                f"Connection: {connection}\r\n"
                f"\r\n").encode()

    def _chunked_request_bytes(self, path: Optional[str] = None) -> bytes:
        """A benign chunked POST in the CVE-2013-2028 request shape —
        headers, the chunk-size line, then exactly that many raw body
        bytes — with an honest size, so the server's discard loop reads
        precisely the body and nothing lingers on the socket."""
        connection = "keep-alive" if self.keepalive else "close"
        size = self.chunk_bytes
        head = (f"POST {path or self.path} HTTP/1.1\r\n"
                f"Host: {HOST}\r\n"
                f"User-Agent: ab/2.3-repro\r\n"
                f"Transfer-Encoding: chunked\r\n"
                f"Connection: {connection}\r\n"
                f"\r\n"
                f"{size:x}\r\n").encode()
        return head + b"B" * size

    def _request_payload(self, path: Optional[str] = None) -> bytes:
        if self.client_mode == "chunked":
            return self._chunked_request_bytes(path)
        return self._request_bytes(path)

    def _send_request(self, sock, path: Optional[str] = None) -> None:
        """Put one request on the wire in the configured client shape."""
        data = self._request_payload(path)
        if self.client_mode == "slowloris":
            for piece_index, offset in enumerate(
                    range(0, len(data), DRIP_BYTES)):
                sock.send(data[offset:offset + DRIP_BYTES],
                          piece_index * DRIP_DELAY_NS)
        else:
            sock.send(data)

    def _fire_partial_preludes(self) -> None:
        """Aggressor connections: send a truncated request head, then
        slam the connection shut.  The server must clean up the
        half-read state without alarming or wedging the listener."""
        for _ in range(self.partial_preludes):
            sock = self.kernel.network.connect(self.server.port)
            if isinstance(sock, int):
                continue                # refused: nothing to clean up
            head = self._request_bytes(self.path)
            sock.send(head[:max(1, len(head) // 2)])
            sock.close()

    def _recv_or_pump(self, sock, count: int) -> bytes:
        """Receive what's in flight; pump the server only when the pipe is
        truly empty (extra pumps are extra protected-region entries for a
        loop-protected server, so a real client's pacing matters)."""
        chunk = sock.recv_wait(count)
        if isinstance(chunk, bytes) and chunk:
            return chunk
        self.server.pump()
        chunk = sock.recv_wait(count)
        return chunk if isinstance(chunk, bytes) else b""

    def _sched_fetch(self, sock, count: int) -> bytes:
        """Scheduled-mode read: park the client task until the socket is
        readable (or the request timeout fires), never pump."""
        sched = self.kernel.sched
        now = self.kernel.clock.monotonic_ns
        if not sock.readable(now):
            woke = sched.park(horizon=sock.next_ready_at,
                              deadline_ns=now + self.timeout_ns,
                              watch=(sock,))
            if not woke:
                return b""              # timeout or cancellation
        chunk = sock.recv_wait(count)
        return chunk if isinstance(chunk, bytes) else b""

    def _read_response(self, sock, fetch=None,
                       carry=None) -> "tuple[int, bytes, bool] | None":
        """Read exactly one HTTP response.

        Returns ``(status, body, keep)`` — ``keep`` is False when the
        server announced ``Connection: close`` (a draining worker during
        graceful reload, or an honoured close request), in which case the
        client must not reuse the connection.

        ``carry`` is a one-element list used as a cross-call buffer for
        pipelined connections: bytes of response N+1 that arrived in the
        same segment as response N are parked there instead of lost."""
        fetch = fetch or self._recv_or_pump
        raw = bytes(carry[0]) if carry and carry[0] else b""
        if carry:
            carry[0] = b""
        stalls = 0
        while b"\r\n\r\n" not in raw:
            chunk = fetch(sock, 4096)
            if not chunk:
                stalls += 1
                if stalls > self.max_stalls:
                    return None
                continue
            raw += chunk
        head, _, rest = raw.partition(b"\r\n\r\n")
        status = int(head.split(b" ", 2)[1])
        content_length = 0
        keep = True
        for line in head.split(b"\r\n")[1:]:
            if line.lower().startswith(b"content-length:"):
                content_length = int(line.split(b":", 1)[1])
            elif line.lower().startswith(b"connection:"):
                keep = line.split(b":", 1)[1].strip().lower() != b"close"
        body = rest
        stalls = 0
        while len(body) < content_length:
            chunk = fetch(sock, content_length - len(body))
            if not chunk:
                stalls += 1
                if stalls > self.max_stalls:
                    break
                continue
            stalls = 0
            body += chunk
        if carry is not None:
            carry[0] = body[content_length:]
        body = body[:content_length]
        return status, body, keep

    def run(self, requests: int, paths: Optional[List[str]] = None,
            concurrency: int = 1) -> AbResult:
        """Issue ``requests`` keep-alive requests over ``concurrency``
        connections (``ab -n <requests> -c <concurrency> -k``) and collect
        statistics.

        Against a classic single-process server, connections are driven
        round-robin with co-simulated pumps.  Against a scheduled
        multi-worker server, each connection becomes a concurrent client
        task and the scheduler interleaves them — see
        :meth:`_run_scheduled`.
        """
        if getattr(self.server, "workers_n", 0):
            return self._run_scheduled(requests, paths, concurrency)
        process = self.server.process
        result = AbResult(requests, concurrency=max(1, concurrency))
        clock0 = self.kernel.clock.monotonic_ns
        busy0 = process.counter.total_ns
        cpu0 = process.total_cpu_ns()

        sockets = []
        for _ in range(max(1, concurrency)):
            sock = self.kernel.network.connect(self.server.port)
            if isinstance(sock, int):
                result.failures = requests
                return result
            sockets.append(sock)
        self._fire_partial_preludes()
        # let the server accept them all: one pump is *not* enough in
        # general (each epoll_wait batch is bounded, and under a faulty
        # or high-latency schedule accepts trickle in), so pump until
        # the accept queue drains — bounded by the connection count so a
        # refusing server cannot stall the harness.
        listener = self.kernel.network.listener_at(self.server.port)
        for _ in range(len(sockets) + self.partial_preludes + 1):
            self.server.pump()
            if listener is None or not listener.pending_count():
                break

        for index in range(requests):
            sock = sockets[index % len(sockets)]
            path = paths[index % len(paths)] if paths else self.path
            self._send_request(sock, path)
            self.server.pump()
            response = self._read_response(sock)
            if response is None:
                result.failures += 1
                continue
            status, body, _keep = response
            result.requests_completed += 1
            result.bytes_received += len(body)
            result.status_counts[status] = \
                result.status_counts.get(status, 0) + 1
        for sock in sockets:
            sock.close()
        self.server.pump()              # let the server reap the closes

        result.wall_ns = self.kernel.clock.monotonic_ns - clock0
        result.server_busy_ns = process.counter.total_ns - busy0
        result.server_cpu_ns = process.total_cpu_ns() - cpu0
        return result

    def _run_scheduled(self, requests: int, paths: Optional[List[str]],
                       concurrency: int) -> AbResult:
        """``ab -n <requests> -c C`` against a scheduled multi-worker
        server: C coreless client tasks, each a closed request loop over
        its own keep-alive connection.  The scheduler interleaves client
        sends, worker accepts, and response reads; the harness never
        calls ``pump()``."""
        sched = self.kernel.sched
        if sched is None:
            raise RuntimeError("server has workers but kernel.sched is "
                               "not installed")
        n_clients = max(1, concurrency)
        workers = self.server.workers
        result = AbResult(requests, concurrency=n_clients,
                          workers=self.server.workers_n)
        clock0 = self.kernel.clock.monotonic_ns
        busy0 = sum(w.process.counter.total_ns for w in workers)
        cpu0 = sum(w.process.total_cpu_ns() for w in workers)
        quotas = [requests // n_clients +
                  (1 if i < requests % n_clients else 0)
                  for i in range(n_clients)]
        self._run_seq += 1
        # aggressor connections go in before the clients spawn; the
        # workers wake on their readiness/FIN during the run proper
        self._fire_partial_preludes()

        can_pipeline = self.keepalive and self.client_mode == "normal"

        def make_client(index: int, quota: int):
            def client() -> None:
                sock = None
                carry = [b""]
                served_on_conn = 0
                shot = 0
                syn_tries = 0
                dead_retries = 3
                while shot < quota:
                    me = sched.current
                    if me is not None and me.cancelled:
                        break
                    now = self.kernel.clock.monotonic_ns
                    if sock is None or not sock.writable(now):
                        if sock is not None:
                            sock.close()
                        sock = self.kernel.network.connect(self.server.port)
                        carry[0] = b""
                        served_on_conn = 0
                        if isinstance(sock, int):
                            # accept queue full (backlog cap / gated
                            # admission): retransmit the SYN after an
                            # exponential backoff, like a TCP client
                            sock = None
                            if syn_tries < self.connect_retries:
                                backoff = min(200_000 << syn_tries,
                                              6_400_000)
                                syn_tries += 1
                                sched.park(deadline_ns=now + backoff)
                                continue
                            syn_tries = 0
                            shot += 1      # retries exhausted: failure
                            continue
                        syn_tries = 0
                    burst = min(self.pipeline, quota - shot) \
                        if can_pipeline else 1
                    for j in range(burst):
                        path = paths[(shot + j) % len(paths)] \
                            if paths else self.path
                        self._send_request(sock, path)
                    done_in_burst = 0
                    dropped = False
                    for j in range(burst):
                        response = self._read_response(
                            sock, fetch=self._sched_fetch, carry=carry)
                        if response is None:
                            dropped = True
                            break
                        status, body, keep = response
                        result.requests_completed += 1
                        result.bytes_received += len(body)
                        result.status_counts[status] = \
                            result.status_counts.get(status, 0) + 1
                        done_in_burst += 1
                        served_on_conn += 1
                        if not keep:
                            # the server is closing (e.g. draining for a
                            # reload): any unanswered pipelined requests
                            # must be replayed on a fresh connection
                            dropped = j + 1 < burst
                            sock.close()
                            sock = None
                            break
                    shot += done_in_burst
                    if not dropped:
                        if self.think_ns and shot < quota:
                            # hold the keep-alive connection open, idle
                            sched.park(
                                deadline_ns=self.kernel.clock.monotonic_ns
                                + self.think_ns)
                        continue
                    now = self.kernel.clock.monotonic_ns
                    conn_died = (sock is None or not sock.writable(now)
                                 or sock.fin_visible(now))
                    retry = False
                    if self.keepalive and conn_died:
                        if served_on_conn > 0:
                            # RFC 7230 §6.3.1: a request sent on a
                            # *reused* connection that died before
                            # responding is safe to retry on a fresh
                            # one; progress on the old connection
                            # bounds the retries
                            retry = True
                        elif self.client_mode == "normal" \
                                and dead_retries > 0:
                            # idempotent GETs may also retry a
                            # connection that died before its first
                            # response (a crashed worker), under a
                            # small per-client budget
                            dead_retries -= 1
                            retry = True
                    if retry:
                        if sock is not None:
                            sock.close()
                        sock = None
                        continue           # re-send the unanswered shots
                    shot += burst - done_in_burst   # genuine failures
                if sock is not None:
                    sock.close()
            return client

        clients = [sched.spawn(f"ab{self._run_seq}-c{index}",
                               make_client(index, quota))
                   for index, quota in enumerate(quotas) if quota]
        result.sched_status = sched.run_until(tasks=clients)
        if result.sched_status == "stall":
            for task in clients:
                sched.cancel(task)
            sched.run_until(tasks=clients)
        result.failures = requests - result.requests_completed
        result.wall_ns = self.kernel.clock.monotonic_ns - clock0
        result.server_busy_ns = \
            sum(w.process.counter.total_ns for w in workers) - busy0
        result.server_cpu_ns = \
            sum(w.process.total_cpu_ns() for w in workers) - cpu0
        return result
