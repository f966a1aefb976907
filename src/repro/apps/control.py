"""Production serving control plane.

The paper's serving evaluation (§4.1) assumes an nginx/lighttpd-style
master: pre-forked workers, a supervisor that restarts the ones that die
or trip MVX alarms, and zero-downtime reload.  This module provides that
master as one more deterministic scheduler task:

* :class:`Supervisor` — a coreless task ticking on virtual time.  Each
  tick it (a) detects exited workers and reprovisions them within a
  per-slot restart budget, (b) optionally treats divergence alarms as a
  kill signal (restart-on-alarm), (c) executes a scheduled graceful
  reload, and (d) samples a metrics snapshot (per-worker served counts,
  open connections, listener queue depth, alarm/restart totals) that the
  flight recorder exports through the trace stream.

* graceful reload — a new worker generation is booted onto the shared
  listener *first*; only then are the old workers flagged to drain
  (privileged store into the guest's ``G_DRAIN``, plus a scheduler
  ``kick`` to get them out of ``epoll_wait(-1)``).  Draining workers
  answer their in-flight requests with ``Connection: close`` and exit
  when their last connection does, so no accepted request is ever
  dropped.

Everything the supervisor does is a deterministic function of scheduler
state and virtual time, so supervised runs record and replay
bit-identically; its final :meth:`Supervisor.snapshot` is pinned in the
trace footer.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.apps.littled import LittledServer, LittledWorker


class Supervisor:
    """Master task supervising a :class:`LittledServer` worker fleet."""

    def __init__(self, server: LittledServer,
                 restart_budget: int = 2,
                 tick_ns: float = 1_000_000,
                 restart_on_alarm: bool = False,
                 reload_at_ns: Optional[float] = None):
        if not server.workers_n:
            raise ValueError("the supervisor needs a scheduled "
                             "multi-worker server (workers >= 1)")
        self.server = server
        self.sched = server.sched
        self.kernel = server.kernel
        self.restart_budget = restart_budget
        self.tick_ns = tick_ns
        self.restart_on_alarm = restart_on_alarm
        self.reload_at_ns = reload_at_ns

        #: control-plane event log (restarts, reloads, budget exhaustion)
        self.events: List[Dict] = []
        #: per-slot restart counts (the budget is per slot, not global)
        self.restart_counts: Dict[int, int] = {}
        self.restarts_total = 0
        self.reloads = 0
        self.generation = 0
        #: fn(sample_dict) — the flight recorder's metrics tap
        self.metrics_hook: Optional[Callable[[Dict], None]] = None
        self.metric_samples = 0
        self._last_sample: Optional[Dict] = None
        #: fn(worker) called for every worker the supervisor provisions —
        #: the recorder re-taps the new process, baselines extend their
        #: monitoring, etc.
        self.worker_hooks: List[Callable[[LittledWorker], None]] = []

        self.task = None
        self._stop = False
        self._reload_done = False
        #: workers whose exit is deliberate (drained generations) — their
        #: task.done must not be read as a crash
        self._expected_exits: set = set()
        self._alarms_seen = 0
        #: serial for provisioned-worker names (w0g1, w0g2, ...)
        self._serial = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "Supervisor":
        self.server.supervisor = self
        self.task = self.sched.spawn(f"{self.server.name}-supervisor",
                                     self._run)
        return self

    def stop(self) -> None:
        """Stand the supervisor down (host-side, before server shutdown)."""
        if self.task is None or self.task.done:
            return
        self._stop = True
        self.sched.cancel(self.task)
        self.sched.run_until(tasks=[self.task])
        # one closing sample so snapshot()'s served_final reflects the
        # fleet's end state, not the last mid-load tick
        self._sample_metrics(self.kernel.clock.monotonic_ns)

    # -- the supervisor task --------------------------------------------------

    def _run(self) -> None:
        while not self.task.cancelled and not self._stop:
            self._tick()
            self.sched.park(
                deadline_ns=self.kernel.clock.monotonic_ns + self.tick_ns)

    def _tick(self) -> None:
        now = self.kernel.clock.monotonic_ns
        if (self.reload_at_ns is not None and not self._reload_done
                and now >= self.reload_at_ns):
            self._reload(now)
        self._reap_alarms(now)
        self._reap_crashes(now)
        self._sample_metrics(now)

    # -- crash / alarm recovery -----------------------------------------------

    def _reap_crashes(self, now: float) -> None:
        for slot, worker in enumerate(self.server.workers):
            if worker.task is None or not worker.task.done:
                continue
            if worker in self._expected_exits:
                continue
            if not self._restart(slot, "crash", now):
                # budget exhausted: the slot stays down — remember the
                # corpse so the exhaustion is logged once, not per tick
                self._expected_exits.add(worker)

    def _reap_alarms(self, now: float) -> None:
        alarms = self.server.alarms.alarms
        fresh, self._alarms_seen = alarms[self._alarms_seen:], len(alarms)
        if not fresh or not self.restart_on_alarm:
            return
        pids = []
        for report in fresh:
            if report.pid >= 0 and report.pid not in pids:
                pids.append(report.pid)
        for slot, worker in enumerate(self.server.workers):
            if worker.process.pid not in pids:
                continue
            if worker.task is not None and not worker.task.done:
                # the alarmed worker is still serving: take it out first
                self._expected_exits.add(worker)
                self.sched.cancel(worker.task)
            if not self._restart(slot, "alarm", now):
                self._expected_exits.add(worker)

    def _restart(self, slot: int, reason: str, now: float) -> bool:
        spent = self.restart_counts.get(slot, 0)
        if spent >= self.restart_budget:
            self.events.append({"event": "budget-exhausted", "slot": slot,
                                "reason": reason, "at_ns": now})
            return False
        self.restart_counts[slot] = spent + 1
        self.restarts_total += 1
        new = self._provision(slot)
        self.events.append({
            "event": "restart", "slot": slot, "reason": reason,
            "at_ns": now, "pid": new.process.pid,
            "name": new.process.name,
            "budget_left": self.restart_budget - spent - 1})
        return True

    # -- graceful reload --------------------------------------------------------

    def _reload(self, now: float) -> None:
        """Boot a full new generation on the shared listener, then drain
        the old one.  Ordering matters: the new workers' epoll sets are
        watching the listener *before* any old worker stops accepting,
        so there is no instant with nobody accepting."""
        old = list(self.server.workers)
        self.generation += 1
        for slot, worker in enumerate(old):
            self._provision(slot)
        for worker in old:
            if worker.task is None or worker.task.done:
                continue
            self._expected_exits.add(worker)
            self.server.retired.append(worker)
            worker.request_drain()
            self.sched.kick(worker.task)
        self.reloads += 1
        self._reload_done = True
        self.events.append({
            "event": "reload", "at_ns": now,
            "generation": self.generation,
            "drained": [w.process.name for w in old]})

    def _provision(self, slot: int) -> LittledWorker:
        """Build, boot, and schedule a replacement worker for ``slot``."""
        old = self.server.workers[slot]
        if old not in self.server.retired and old.task is not None \
                and old.task.done:
            self.server.retired.append(old)
        self._serial += 1
        new = LittledWorker(self.server, slot, old.core,
                            generation=self._serial)
        rc = self.server.boot_worker(new)
        if rc < 0:
            raise RuntimeError(
                f"worker slot {slot} failed to re-initialize: {rc}")
        self.server.workers[slot] = new
        for hook in self.worker_hooks:
            hook(new)
        self.server.spawn_worker_task(new)
        return new

    # -- metrics ----------------------------------------------------------------

    def _sample_metrics(self, now: float) -> None:
        listener = self.kernel.network.listener_at(self.server.port)
        previous = {w["pid"]: w["served"]
                    for w in self._last_sample["workers"]} \
            if self._last_sample else {}
        workers = []
        for slot, worker in enumerate(self.server.workers):
            served = worker.served_snapshot
            workers.append({
                "slot": slot,
                "pid": worker.process.pid,
                "name": worker.process.name,
                "served": served,
                "served_delta": served - previous.get(worker.process.pid, 0),
                "open_conns": worker.active_connections,
                "restarts": self.restart_counts.get(slot, 0),
            })
        sample = {
            "at_ns": now,
            "generation": self.generation,
            "queue_depth": listener.pending_count() if listener else 0,
            "alarms": len(self.server.alarms.alarms),
            "restarts_total": self.restarts_total,
            "reloads": self.reloads,
            # cumulative across generations: retired (drained/crashed)
            # workers keep their counts
            "served_total": sum(w["served"] for w in workers)
            + sum(w.served_snapshot for w in self.server.retired),
            "workers": workers,
        }
        self._last_sample = sample
        self.metric_samples += 1
        if self.metrics_hook is not None:
            self.metrics_hook(sample)

    # -- trace pins --------------------------------------------------------------

    def snapshot(self) -> Dict:
        """Deterministic summary pinned in the trace footer."""
        served = {w["name"]: w["served"]
                  for w in (self._last_sample or {}).get("workers", [])}
        return {
            "generation": self.generation,
            "reloads": self.reloads,
            "restarts_total": self.restarts_total,
            "restart_counts": {str(slot): count for slot, count
                               in sorted(self.restart_counts.items())},
            "metric_samples": self.metric_samples,
            "events": [dict(event) for event in self.events],
            "served_final": served,
            # read fresh (privileged peeks): the last tick's sample may
            # predate the final requests of the run
            "served_total": sum(
                w.served_snapshot
                for w in self.server.workers + self.server.retired),
        }


def spawn_worker_kill(server: LittledServer, slot: int,
                      at_ns: float) -> None:
    """Chaos helper: a coreless task that cancels worker ``slot``'s task
    at virtual instant ``at_ns`` — the deterministic stand-in for a
    worker segfault mid-load.  Every run arms it the same way (through
    :meth:`repro.deploy.Run.arm_control_plane`), so recorded, replayed
    and simulated kill runs reproduce exactly.  ``server.shutdown()``
    cancels a kill whose instant has not come, and a cancelled kill
    leaves its victim alone."""
    sched = server.sched
    victim = server.workers[slot]

    def chaos() -> None:
        sched.park(deadline_ns=at_ns)
        if sched.current.cancelled:
            return                   # the run ended before the kill slot
        if victim.task is not None and not victim.task.done:
            sched.cancel(victim.task)

    server.chaos_kills += (
        sched.spawn(f"{server.name}-chaos-kill-w{slot}", chaos),)
