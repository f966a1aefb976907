"""The benchmark's four workloads, driven only through repro's public API.

A workload is run as identical *units*.  A unit starts from an empty
``Kernel`` built from the workload's seed, sets up (``setup_s``), runs its
operations (the measured phase), checks the outcome, and tears down.  A
unit's simulated statistics are a pure function of the seed, so every unit
of a run -- and every run on the same seed -- folds them into the same
``virtual_digest``.  A change that only makes the simulator faster must
leave that digest unchanged.

All load is generated in this process: clients are scheduler tasks (or a
classic co-simulated client) on the simulated loopback, so no OS socket is
ever opened.  All four workloads are closed loops.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from dataclasses import asdict, dataclass, replace
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.apps import LittledServer, MinxServer
from repro.attacks import run_exploit
from repro.attacks.cve_2013_2028 import VICTIM_DIRECTORY
from repro.kernel import Kernel
from repro.kernel.fds import EpollFD
from repro.kernel.net import Network
from repro.sim import OK_CLASSES, generate_matrix
from repro.sim.runner import run_scenario
from repro.trace import record_littled, replay_trace
from repro.workloads import ApacheBench


def digest(stats: Dict) -> str:
    blob = json.dumps(stats, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


Interval = Tuple[float, float]          # (begin, end) on perf_counter


@dataclass
class Unit:
    """One unit's host intervals, outcome and simulated statistics."""

    phases: List[Interval]            # the measured operations
    span: Interval                    # the whole unit, set-up to teardown
    ops: int                          # operations attempted
    failed_ops: int                   # refused, timed-out, non-200, ...
    latencies: List[Interval]         # one per completed operation
    checks: Dict[str, bool]           # unit-level contracts
    virtual: Dict                     # simulated statistics (deterministic)
    setup: Optional[Interval] = None  # empty Kernel -> first operation

    @property
    def completed(self) -> int:
        return self.ops - self.failed_ops


class ResponseClock:
    """Client-side view of every HTTP request: the host time from the
    request's ``send`` to the last byte of its response, its status, and
    whether the body is the page the request asked for.

    Installed once per process by wrapping ``Network.connect``; while
    armed, each client socket it returns gets instance-level ``send`` /
    ``recv_wait`` wrappers that parse responses off the byte stream.
    Pipelined requests on one connection are matched first-in first-out.
    """

    def __init__(self) -> None:
        self.armed = False
        self.latencies: List[Interval] = []
        self.statuses: Dict[int, int] = {}
        self.ok = 0
        self.pages: Dict[bytes, bytes] = {}
        connect = Network.connect
        clock = self

        def timed_connect(network, port):
            sock = connect(network, port)
            if clock.armed and not isinstance(sock, int):
                clock._watch(sock)
            return sock

        Network.connect = timed_connect

    def arm(self, pages: Optional[Dict[bytes, bytes]] = None) -> None:
        """Start watching; ``pages`` maps request paths to the bodies a
        200 response must carry (unlisted paths are not compared)."""
        self.latencies, self.statuses, self.ok = [], {}, 0
        self.pages = pages or {}
        self.armed = True

    def take(self):
        """Stop watching; returns (latencies, statuses, correct 200s)."""
        self.armed = False
        return self.latencies, self.statuses, self.ok

    def _watch(self, sock) -> None:
        sent: deque = deque()
        buf = bytearray()
        send, recv_wait = sock.send, sock.recv_wait

        def timed_send(data, extra_delay_ns=0):
            request_line = bytes(data[:512]).split(b" ", 2)
            path = request_line[1] if len(request_line) > 1 else b""
            sent.append((perf_counter(), path))
            return send(data, extra_delay_ns)

        def timed_recv_wait(count):
            chunk = recv_wait(count)
            if isinstance(chunk, (bytes, bytearray)) and chunk:
                buf.extend(chunk)
                self._complete(buf, sent)
            return chunk

        sock.send = timed_send
        sock.recv_wait = timed_recv_wait

    def _complete(self, buf: bytearray, sent: deque) -> None:
        while True:
            end = buf.find(b"\r\n\r\n")
            if end < 0:
                return
            head = bytes(buf[:end]).split(b"\r\n")
            length = 0
            for line in head[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value)
            if len(buf) < end + 4 + length:
                return
            body = bytes(buf[end + 4:end + 4 + length])
            del buf[:end + 4 + length]
            status = int(head[0].split(b" ", 2)[1])
            self.statuses[status] = self.statuses.get(status, 0) + 1
            if sent:
                started, path = sent.popleft()
                self.latencies.append((started, perf_counter()))
                expected = self.pages.get(path)
                if status == 200 and expected in (None, body):
                    self.ok += 1


def _request_failures(requests: int, ok: int) -> int:
    return requests - min(requests, ok)


_LETTERS = bytes(ord("a") + i % 26 for i in range(256))


def seeded_docroot(kernel, seed: str, pages: int = 8, mix: int = 16):
    """Write ``pages`` seeded static pages into the kernel's docroot.
    Returns ``(bodies, paths)``: the page bodies by request path, and a
    seeded request mix over them.  Every page is 4 KiB, like the servers'
    own ``index.html``, so each seed costs the same."""
    rng = random.Random(seed)
    bodies = {}
    for _ in range(pages):
        path = f"/page-{rng.getrandbits(32):08x}.html"
        body = b"<html>" + rng.randbytes(4083).translate(_LETTERS) \
            + b"</html>"
        kernel.vfs.write_file("/var/www" + path, body)
        bodies[path.encode()] = body
    paths = [path.decode() for path in bodies]
    return bodies, [rng.choice(paths) for _ in range(mix)]


# ---------------------------------------------------------------------------
# serve-c1000
# ---------------------------------------------------------------------------

class ServeC1000:
    name = "serve-c1000"
    why = ("1000 keep-alive clients on 4 pre-forked littled workers: the "
           "scheduler wake scan and connect stampede, no sMVX")
    workers = 4
    requests = 2000
    clients = 1000
    pipeline = 2
    think_ns = 100_000_000
    timeout_ns = 2_000_000_000
    connect_retries = 200

    def _boot(self, seed: str):
        kernel = Kernel(seed=seed)
        bodies, paths = seeded_docroot(kernel, seed)
        server = LittledServer(kernel, workers=self.workers)
        server.start()
        return kernel, server, bodies, paths

    def setup(self, seed: str) -> Interval:
        begin = perf_counter()
        server = self._boot(seed)[1]
        booted = perf_counter()
        server.shutdown()
        return begin, booted

    def unit(self, seed: str, clock: ResponseClock,
             on_op: Callable[[], None]) -> Unit:
        begin = perf_counter()
        kernel, server, bodies, paths = self._boot(seed)
        booted = perf_counter()
        clock.arm(bodies)
        result = ApacheBench(
            kernel, server, pipeline=self.pipeline,
            timeout_ns=self.timeout_ns, think_ns=self.think_ns,
            connect_retries=self.connect_retries,
        ).run(self.requests, paths=paths, concurrency=self.clients)
        done = perf_counter()
        latencies, statuses, ok = clock.take()
        polls = probes = 0
        for worker in server.workers:
            for fd in kernel.state_of(worker.process.pid).fds.values():
                if isinstance(fd, EpollFD):
                    polls += fd.instance.polls
                    probes += fd.instance.probes
        sched = kernel.sched
        virtual = {
            "completed": result.requests_completed,
            "statuses": sorted(statuses.items()),
            "wall_ns": result.wall_ns,
            "wall_rps": result.wall_throughput_rps,
            "busy_per_request_ns": result.busy_per_request_ns,
            "sched_status": result.sched_status,
            "sched_decisions": sched.decisions,
            "sched_digest": sched.digest,
            "served": [w.served_snapshot for w in server.workers],
            "epoll_polls": polls,
            "epoll_probes": probes,
        }
        alarms = len(server.alarms.alarms)
        server.shutdown()
        on_op()
        return Unit(
            phases=[(booted, done)], span=(begin, perf_counter()),
            ops=self.requests,
            failed_ops=_request_failures(self.requests, ok),
            latencies=latencies, setup=(begin, booted), virtual=virtual,
            checks={"no-alarms": alarms == 0,
                    "run-finished": result.sched_status == "done"})


# ---------------------------------------------------------------------------
# minx-smvx
# ---------------------------------------------------------------------------

class MinxSmvx:
    name = "minx-smvx"
    why = ("one keep-alive client against sMVX-protected minx, then "
           "CVE-2013-2028: follower creation and pointer scan per request")
    protect = "minx_http_process_request_line"
    requests = 100

    def _boot(self, seed: str):
        kernel = Kernel(seed=seed)
        bodies, paths = seeded_docroot(kernel, seed)
        server = MinxServer(kernel, smvx=True, protect=self.protect)
        server.start()
        return kernel, server, bodies, paths

    def setup(self, seed: str) -> Interval:
        begin = perf_counter()
        self._boot(seed)
        return begin, perf_counter()

    def unit(self, seed: str, clock: ResponseClock,
             on_op: Callable[[], None]) -> Unit:
        begin = perf_counter()
        kernel, server, bodies, paths = self._boot(seed)
        booted = perf_counter()
        clock.arm(bodies)
        result = ApacheBench(kernel, server).run(self.requests, paths=paths)
        done = perf_counter()
        latencies, statuses, ok = clock.take()
        alarms_under_load = len(server.alarms.alarms)
        outcome = run_exploit(server)
        victim = kernel.vfs.is_dir(VICTIM_DIRECTORY)
        alarm = server.alarms.alarms[-1] if server.alarms.alarms else None
        virtual = {
            "completed": result.requests_completed,
            "statuses": sorted(statuses.items()),
            "wall_ns": result.wall_ns,
            "wall_rps": result.wall_throughput_rps,
            "busy_per_request_ns": result.busy_per_request_ns,
            "monitor": asdict(server.monitor.stats),
            "exploit": {
                "divergence_detected": outcome.divergence_detected,
                "server_crashed": outcome.server_crashed,
                "alarm_count": outcome.alarm_count,
                "alarm": alarm.kind.name if alarm else None,
                "guest_pc": alarm.guest_pc if alarm else None,
                "victim_directory": victim,
            },
        }
        on_op()
        return Unit(
            phases=[(booted, done)], span=(begin, perf_counter()),
            ops=self.requests,
            failed_ops=_request_failures(self.requests, ok),
            latencies=latencies, setup=(begin, booted), virtual=virtual,
            checks={"no-alarms-under-load": alarms_under_load == 0,
                    "cve-detected": outcome.divergence_detected,
                    "cve-blocked": not victim})


# ---------------------------------------------------------------------------
# sim-swarm
# ---------------------------------------------------------------------------

class SimSwarm:
    name = "sim-swarm"
    why = ("120 short repro.sim deployments (minx, littled, cluster x "
           "faults x clients x CVE x recheck): boot, fault plane, wire")
    #: Scenario shapes come from one fixed master seed, so every run costs
    #: the same; the run's seed re-keys each scenario's kernel, fault-plane
    #: and cluster randomness (``Scenario.seed`` derives from
    #: ``master_seed``).  120 scenarios leave twelve beyond the 90th
    #: percentile.
    master = "bench-swarm"
    scenarios = 120

    @staticmethod
    def known_bug(scenario) -> bool:
        """An open simulator bug, not a benchmark input: a graceful reload
        of aligned-variant littled workers can raise an unexpected
        CALL_NAME alarm at ``epoll_ctl``."""
        return scenario.reload and scenario.variant_strategy == "aligned"

    def matrix(self, seed: str) -> list:
        shapes = [scenario for scenario in generate_matrix(self.master, 130)
                  if not self.known_bug(scenario)]
        return [replace(scenario, master_seed=seed)
                for scenario in shapes[:self.scenarios]]

    def setup(self, seed: str) -> Interval:
        begin = perf_counter()
        self.matrix(seed)
        return begin, perf_counter()

    def unit(self, seed: str, clock: ResponseClock,
             on_op: Callable[[], None]) -> Unit:
        begin = perf_counter()
        matrix = self.matrix(seed)
        booted = perf_counter()
        latencies = []
        outcomes = []
        for scenario in matrix:
            started = perf_counter()
            outcome = run_scenario(scenario)
            latencies.append((started, perf_counter()))
            outcomes.append([scenario.index, outcome.klass, outcome.digest])
            on_op()
        done = perf_counter()
        histogram: Dict[str, int] = {}
        for _, klass, _ in outcomes:
            histogram[klass] = histogram.get(klass, 0) + 1
        failed = sum(1 for _, klass, _ in outcomes if klass not in OK_CLASSES)
        return Unit(
            phases=[(booted, done)], span=(begin, perf_counter()),
            ops=len(matrix), failed_ops=failed, latencies=latencies,
            setup=(begin, booted), checks={},
            virtual={"classes": histogram, "scenarios": outcomes})


# ---------------------------------------------------------------------------
# record-replay
# ---------------------------------------------------------------------------

class RecordReplay:
    name = "record-replay"
    why = ("flight recorder on a 2-worker sMVX littled with a worker kill "
           "and a graceful reload, then a bit-identical replay")
    server = {"workers": 2, "smvx": True, "protect": "server_main_loop"}
    requests = 64
    workload = {"requests": requests, "concurrency": 8,
                "timeout_ns": 2_000_000_000}
    control = {"restart_budget": 2, "reload_at_ns": 6_000_000,
               "worker_kills": [{"slot": 1, "at_ns": 2_000_000}]}
    #: footer fields shown beside the footer digest
    pins = ("clock_end_ns", "syscalls", "sched_decisions", "sched_digest",
            "syscall_digest", "workers_busy_ns")

    def setup(self, seed: str) -> Interval:
        begin = perf_counter()
        _, server, recorder = record_littled(seed=seed, **self.server)
        booted = perf_counter()
        recorder.detach()
        server.shutdown()
        return begin, booted

    def unit(self, seed: str, clock: ResponseClock,
             on_op: Callable[[], None]) -> Unit:
        begin = perf_counter()
        clock.arm()
        _, server, recorder = record_littled(
            seed=seed, workload=dict(self.workload),
            control=dict(self.control), **self.server)
        trace = recorder.finish()
        recorded = perf_counter()
        latencies, statuses, ok = clock.take()
        alarms = len(server.alarms.alarms)
        server.shutdown()
        replay_begin = perf_counter()
        clock.arm()
        replay = replay_trace(trace, keep_server=True)
        replayed = perf_counter()
        replay_latencies, _, replay_ok = clock.take()
        replay.server.shutdown()
        footer = trace.footer
        supervisor = footer.get("supervisor", {})
        requests = self.requests
        virtual = {
            "footer_digest": digest(footer),
            "pins": {key: footer.get(key) for key in self.pins},
            "supervisor": {key: supervisor.get(key) for key in
                           ("restarts_total", "reloads", "served_total")},
            "statuses": sorted(statuses.items()),
            "busy_per_request_ns": footer["workers_busy_ns"] / requests,
            "wall_rps": requests * 1e9 / footer["clock_end_ns"],
            "events_emitted": trace.meta["ring"]["emitted"],
            "script_ops": len(trace.script),
            "replay_ok": replay.ok,
        }
        on_op()
        return Unit(
            phases=[(begin, recorded), (replay_begin, replayed)],
            span=(begin, perf_counter()), ops=requests,
            failed_ops=min(requests, _request_failures(requests, ok)
                           + len(replay.mismatches)),
            latencies=latencies + replay_latencies, virtual=virtual,
            checks={"no-alarms": alarms == 0,
                    "served-all": supervisor.get("served_total") == requests,
                    "kill-restarted": supervisor.get("restarts_total") == 1,
                    "reloaded": supervisor.get("reloads") == 1,
                    "replay-identical": replay.ok,
                    "replay-served-all": replay_ok == requests})


WORKLOADS = {w.name: w for w in (ServeC1000(), MinxSmvx(), SimSwarm(),
                                 RecordReplay())}
