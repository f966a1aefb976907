"""Deterministic preemptive scheduler.

The servers of the paper's evaluation (Fig. 7) multiplex concurrent
connections; this scheduler runs them in the DiOS tradition: every
interleaving decision is a pure function of the machine state, so the
same seed and workload reproduce the same schedule bit-for-bit, and the
decision stream is digested so record/replay can pin it.

Execution model
---------------

Tasks are Python threads, but *exactly one* runs at a time: the driver
(whoever called :meth:`Scheduler.run_until`) gives one task the turn on
its :class:`~repro.kernel.baton.Baton`, and the task runs until it parks
(blocking syscall), is preempted (virtual-time quantum exhausted, checked
at syscall entry), or exits; then the turn returns to the driver.  The
Python threads exist only so that guest call stacks can be suspended
mid-syscall — there is no host-level parallelism to leak nondeterminism.

Virtual time is multi-core: each worker core owns a :class:`CoreClock`
whose local time advances as the tasks bound to it charge cycles; the
kernel's global :class:`~repro.kernel.clock.VirtualClock` is the frontier
(max over cores), and the scheduler always dispatches the runnable core
with the *lowest* local time, which bounds inter-core skew by one quantum
and is what lets N workers serve N requests in ~1 request's wall time.

Blocking semantics:

* ``epoll_wait`` parks the task with a readiness *horizon* (a closure
  over live kernel state) and declares the channel that horizon reads,
  its epoll instance.  The driver re-evaluates the horizon only when a
  declared channel fires (socket delivery, FIN, listener enqueue, epoll
  re-arm) or when the clock reaches its cached instant.  The cached
  value is a lower bound: every event that can make a horizon earlier
  fires a channel, and consuming data only makes it later.  A park
  without channels is polled: its horizon is re-evaluated every
  iteration, so a closure over arbitrary state still wakes the sleeper
  and a forgotten channel costs speed, never correctness.
* ``recvfrom`` parks only while data is actually in flight; otherwise it
  stays non-blocking (EAGAIN), as before.
* ``accept4`` never parks: blocking lives at the epoll level, so a worker
  woken for a connection that a sibling already accepted simply takes
  EAGAIN and re-enters ``epoll_wait`` (no thundering-herd spin).

When no task is runnable the driver advances the global clock to the
earliest wake instant; if there is none, the run has genuinely stalled
and ``run_until`` says so instead of hanging.
"""

from __future__ import annotations

import hashlib
import heapq
import threading
from collections import deque
from enum import Enum
from typing import (Callable, Deque, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.errors import KernelError
from repro.kernel.baton import Baton
from repro.machine.costs import CostModel, DEFAULT_COSTS

#: default preemption quantum in virtual ns — a handful of requests'
#: worth of work; small enough that workers stay in rough lockstep.
DEFAULT_QUANTUM_NS = 100_000

#: hard bound on driver iterations per run_until call: a runaway
#: park/wake loop should fail loudly, not hang the harness.
MAX_DECISIONS_PER_RUN = 2_000_000

#: slack before the wake-timer heap is compacted: it may hold this many
#: stale entries beyond one per timed task.
_HEAP_SLACK = 64

#: the two sides of each task's baton.
_DRIVER, _TASK = "driver", "task"


class SchedulerError(KernelError):
    pass


class TaskCancelled(BaseException):
    """A task function may raise this to terminate cleanly after
    observing ``task.cancelled`` (BaseException so guest-level ``except
    Exception`` cleanup cannot swallow it; the scheduler treats it as a
    normal exit, not an error).

    The scheduler itself never raises it into a task: cancellation is
    cooperative.  Forcing an exception out of ``park()`` would unwind a
    guest call stack from *inside* a blocking syscall — with sMVX
    attached that tears the leader out of a protected region while the
    follower still waits in lockstep, manufacturing a divergence.
    Instead a cancelled task's parks return False immediately, so the
    blocking syscall reports "nothing ready" (EINTR-style), the guest
    unwinds normally, and the task function exits at its next
    ``cancelled`` check."""


class RunState(Enum):
    RUNNABLE = "runnable"
    RUNNING = "running"
    BLOCKED = "blocked"
    ZOMBIE = "zombie"


class CoreClock:
    """One virtual core's local clock.

    Duck-types the one method :class:`~repro.machine.costs.CycleCounter`
    needs (``advance_ns``): charges advance the core's *local* time and
    drag the global clock forward only when this core becomes the
    frontier — that is what lets two workers each burn 1 ms of CPU while
    wall time advances only ~1 ms.
    """

    def __init__(self, global_clock, core_id: int):
        self._global = global_clock
        self.core_id = core_id
        self.local_ns: float = 0.0
        #: last task dispatched here (context-switch charging).
        self.last_task: Optional["SchedTask"] = None

    def advance_ns(self, ns: float) -> None:
        if ns < 0:
            raise ValueError("cannot advance a core clock backwards")
        local = self.local_ns = self.local_ns + ns
        clock = self._global
        if local > clock.monotonic_ns:
            clock.advance_to(local)

    def catch_up(self, instant: float) -> None:
        """The core idled until ``instant`` (a wake): jump local time
        forward; never backwards."""
        if instant > self.local_ns:
            self.local_ns = instant


class SchedTask:
    """One schedulable task: run state + the suspended Python thread."""

    def __init__(self, sched: "Scheduler", name: str,
                 fn: Callable[[], object], core: Optional[CoreClock],
                 pid: Optional[int]):
        self.sched = sched
        self.name = name
        #: spawn index: wake candidates are examined in spawn order.
        self.seq = len(sched.tasks)
        self.fn = fn
        self.core = core
        self.pid = pid
        self.state = RunState.RUNNABLE
        self.done = False
        self.error: Optional[BaseException] = None
        self.cancelled = False
        #: BLOCKED bookkeeping: earliest-ready closure + absolute deadline.
        self.wait_horizon: Optional[Callable[[], Optional[float]]] = None
        self.wait_deadline: Optional[float] = None
        #: injected spurious wake instant (fault plane), or None.
        self.spurious_at: Optional[float] = None
        #: channels the parked horizon reads (empty = polled).
        self.watch: Tuple[object, ...] = ()
        #: the channel watcher: marks this task for re-evaluation.
        self.notify = lambda: sched._mark_dirty(self)
        self.dirty = False
        #: last evaluated horizon value: a lower bound of the live one.
        self.horizon_at: Optional[float] = None
        #: instant of this park's one live timer entry, or None.
        self.timer_at: Optional[float] = None
        #: park counter; timer entries of earlier parks are stale.
        self.park_gen = 0
        #: park() return value set by the driver at wake time.
        self.wake_value = True
        #: core-local time at dispatch (quantum accounting).
        self.slice_start_ns = 0.0
        #: the driver holds the turn until it dispatches the task.
        self._baton = Baton(_DRIVER, _TASK)
        self.thread = threading.Thread(
            target=self._main, name=f"sched:{name}", daemon=True)
        self.thread.start()

    # -- task-thread side ---------------------------------------------------

    def _main(self) -> None:
        self._baton.wait(_TASK)
        try:
            if not self.cancelled:
                self.fn()
        except TaskCancelled:
            pass
        except BaseException as exc:          # noqa: BLE001 — reported
            self.error = exc                  # to the driver, not lost
        finally:
            self.sched._task_exited(self)

    def __repr__(self) -> str:
        core = self.core.core_id if self.core else "-"
        return f"<SchedTask {self.name} {self.state.value} core={core}>"


class SchedStats:
    def __init__(self) -> None:
        self.dispatches = 0
        self.preemptions = 0
        self.parks = 0
        self.wakeups = 0
        self.spurious_wakeups = 0
        self.idle_advances = 0
        self.context_switches = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class Scheduler:
    """The machine's deterministic preemptive scheduler.

    Construction registers it on the kernel (``kernel.sched``); from then
    on the blocking syscalls park the current task instead of advancing
    the clock themselves, and every syscall entry is a preemption point.
    """

    def __init__(self, kernel, cores: int = 1,
                 quantum_ns: float = DEFAULT_QUANTUM_NS,
                 costs: CostModel = DEFAULT_COSTS):
        if getattr(kernel, "sched", None) is not None:
            raise SchedulerError("kernel already has a scheduler")
        self.kernel = kernel
        self.clock = kernel.clock
        self.costs = costs
        self.quantum_ns = quantum_ns
        self.cores: List[CoreClock] = [CoreClock(kernel.clock, i)
                                       for i in range(max(1, cores))]
        self.tasks: List[SchedTask] = []
        self.current: Optional[SchedTask] = None
        self.stats = SchedStats()
        #: decision stream: counted and digested (FaultPlane idiom) so a
        #: trace footer pins the exact schedule a replay must reproduce.
        self.decisions = 0
        self._digest = hashlib.sha256()
        #: flight-recorder tap: fn(kind, task_name, detail_dict).
        self.decision_hook = None
        #: cross-host drain points: each fn() -> bool is called when no
        #: task is runnable; returning True means external progress was
        #: made (e.g. a cluster wire frame delivered) and dispatch should
        #: retry instead of going idle.  A *list* so the cluster pump and
        #: sim instrumentation can coexist (every hook runs each idle
        #: round, in registration order).
        self.idle_hooks: List[Callable[[], bool]] = []
        self._run_queues: List[Deque[SchedTask]] = \
            [deque() for _ in self.cores]
        self._coreless: Deque[SchedTask] = deque()
        #: wake timers: (instant, spawn index, park_gen), one live entry
        #: per timed task (min of deadline, spurious wake and cached
        #: horizon); stale entries are skipped and compacted away.
        self._timers: List[Tuple[float, int, int]] = []
        #: tasks with a live timer entry (bounds the heap's size).
        self._timed = 0
        #: watched tasks whose channel fired since their last evaluation.
        self._dirty: List[SchedTask] = []
        #: channel-less horizon parks, re-evaluated every iteration.
        self._polled: Dict[SchedTask, None] = {}
        #: tasks that have exited (backs ``run_until(tasks=...)`` and the
        #: idle check).
        self._exits = 0
        #: horizon closure evaluations (wake cost; not in ``stats``, so
        #: the replay-compared ``sched_stats`` never moves with it).
        self.horizon_evals = 0
        self._in_run = False
        kernel.sched = self

    # -- idle hooks ----------------------------------------------------------

    def add_idle_hook(self, fn: Callable[[], bool]) -> None:
        """Chain an idle-time drain hook (idempotent per callable)."""
        if fn not in self.idle_hooks:
            self.idle_hooks.append(fn)

    def remove_idle_hook(self, fn: Callable[[], bool]) -> None:
        if fn in self.idle_hooks:
            self.idle_hooks.remove(fn)

    # -- decision stream ----------------------------------------------------

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def _decision(self, kind: str, task: SchedTask, **detail) -> None:
        self.decisions += 1
        core = task.core.core_id if task.core is not None else -1
        at = task.core.local_ns if task.core is not None \
            else self.clock.monotonic_ns
        self._digest.update(
            f"{kind}:{task.name}:{core}:{at!r}".encode())
        if self.decision_hook is not None:
            self.decision_hook(kind, task.name,
                               dict(detail, core=core, at_ns=at))

    # -- task lifecycle -----------------------------------------------------

    def spawn(self, name: str, fn: Callable[[], object],
              core: Optional[int] = None,
              pid: Optional[int] = None) -> SchedTask:
        """Register a new RUNNABLE task.  ``core`` binds it to a virtual
        core (workers); None means coreless (host-side clients, which
        charge no CPU and run at the global frontier)."""
        core_clock = self.cores[core] if core is not None else None
        task = SchedTask(self, name, fn, core_clock, pid)
        self.tasks.append(task)
        self._enqueue(task)
        if pid is not None:
            record = self.kernel.tasks.tasks.get(pid)
            if record is not None:
                record.state = RunState.RUNNABLE.value
        self._decision("spawn", task)
        return task

    def apply_clock_skew(self, skews_ns: "List[float]") -> None:
        """Pre-advance core-local clocks by per-core offsets (sim axis:
        workers booting out of phase).  Skews are plain virtual-time
        offsets, so a skewed run is exactly as deterministic as an
        unskewed one; the global frontier follows the fastest core."""
        for core, skew in zip(self.cores, skews_ns):
            if skew < 0:
                raise ValueError("clock skew must be non-negative")
            if skew:
                core.advance_ns(skew)

    def bind_core(self, counter, core: int) -> CoreClock:
        """Attach a process's cycle counter to a core's local clock (the
        multi-worker analogue of ``Kernel.attach_counter``)."""
        clock = self.cores[core]
        counter.clock = clock
        return clock

    def cancel(self, task: SchedTask) -> None:
        """Request cooperative cancellation.

        A blocked task is woken with False (its blocking syscall reports
        no readiness) and every later ``park`` returns False without
        blocking, so the guest call stack unwinds through its normal
        "nothing ready" paths — sMVX regions close in lockstep — and the
        task function exits at its next ``task.cancelled`` check.
        """
        if task.done:
            return
        task.cancelled = True
        self._decision("cancel", task)
        if task.state is RunState.BLOCKED:
            self._wake(task, value=False, instant=self.clock.monotonic_ns)

    def kick(self, task: SchedTask) -> bool:
        """Signal-style nudge: wake a BLOCKED task with False so its
        blocking syscall reports "nothing ready" and the guest unwinds to
        its control-plane checks (drain flags, cancellation) — without
        marking the task cancelled.  The control plane uses this to get a
        worker out of ``epoll_wait(-1)`` after flagging it to drain.

        Returns True if the task was actually woken."""
        if task.done or task.state is not RunState.BLOCKED:
            return False
        self._decision("kick", task)
        self._wake(task, value=False, instant=self.clock.monotonic_ns)
        return True

    def join(self, timeout: float = 10.0) -> None:
        """Join finished task threads (host hygiene; no virtual cost)."""
        for task in self.tasks:
            if task.done:
                task.thread.join(timeout)

    def _task_exited(self, task: SchedTask) -> None:
        task.state = RunState.ZOMBIE
        task.done = True
        self._exits += 1
        if task.pid is not None:
            code = 0 if task.error is None else 1
            self.kernel.tasks.exit(task.pid, code)
        self._decision("exit", task)
        task._baton.give(_TASK)

    # -- queue machinery ----------------------------------------------------

    def _enqueue(self, task: SchedTask) -> None:
        task.state = RunState.RUNNABLE
        if task.core is None:
            self._coreless.append(task)
        else:
            self._run_queues[task.core.core_id].append(task)

    def _record_state(self, task: SchedTask) -> None:
        if task.pid is not None:
            record = self.kernel.tasks.tasks.get(task.pid)
            if record is not None:
                record.state = task.state.value

    def _wake(self, task: SchedTask, value: bool, instant: float,
              spurious: bool = False) -> None:
        task.wake_value = value
        task.wait_horizon = None
        task.wait_deadline = None
        task.spurious_at = None
        for channel in task.watch:
            channel.remove_watcher(task.notify)
        task.watch = ()
        task.horizon_at = None
        self._polled.pop(task, None)
        self._push_timer(task, None)
        if task.core is not None:
            task.core.catch_up(instant)
        self._enqueue(task)
        self._record_state(task)
        self.stats.wakeups += 1
        if spurious:
            self.stats.spurious_wakeups += 1
        self._decision("wake", task, spurious=spurious)

    # -- wake bookkeeping ---------------------------------------------------

    def _mark_dirty(self, task: SchedTask) -> None:
        """A channel the parked task watches fired: its horizon may now
        be earlier than the cached value, so re-evaluate it."""
        if not task.dirty and task.state is RunState.BLOCKED:
            task.dirty = True
            self._dirty.append(task)

    def _push_timer(self, task: SchedTask, at: Optional[float]) -> None:
        """Make ``at`` the task's one live timer entry (None: no timer)."""
        if task.timer_at is not None:
            self._timed -= 1
        task.timer_at = at
        if at is None:
            return
        self._timed += 1
        timers = self._timers
        heapq.heappush(timers, (at, task.seq, task.park_gen))
        if len(timers) > 2 * self._timed + _HEAP_SLACK:
            # a woken task's deadline entry outlives its park: drop every
            # stale entry so the heap stays O(parked tasks)
            tasks = self.tasks
            timers[:] = [entry for entry in timers
                         if tasks[entry[1]].park_gen == entry[2]
                         and tasks[entry[1]].timer_at == entry[0]]
            heapq.heapify(timers)

    def _evaluate(self, task: SchedTask) -> Optional[float]:
        if task.wait_horizon is None:
            return None
        self.horizon_evals += 1
        task.horizon_at = task.wait_horizon()
        return task.horizon_at

    def _set_timer(self, task: SchedTask, horizon: Optional[float]) -> None:
        """Time the task's wake at its earliest known instant: the
        horizon just evaluated, its deadline or its spurious wake."""
        at = min((instant for instant in (horizon, task.wait_deadline,
                                          task.spurious_at)
                  if instant is not None), default=None)
        if at != task.timer_at:
            self._push_timer(task, at)

    def _wake_ready(self) -> None:
        """Move every BLOCKED task whose horizon/deadline/spurious-wake
        instant has been reached back to RUNNABLE (deterministic order:
        spawn order).

        Only candidates are examined: tasks a channel marked dirty, tasks
        whose timer is due, and polled (channel-less) parks.  Every other
        parked task's live horizon is at or after its timer, so the full
        scan would not wake it either."""
        now = self.clock.monotonic_ns
        timers = self._timers
        due = self._dirty
        if not (due or self._polled or (timers and timers[0][0] <= now)):
            return
        self._dirty = []
        tasks = self.tasks
        while timers and timers[0][0] <= now:
            at, seq, gen = heapq.heappop(timers)
            task = tasks[seq]
            if task.park_gen == gen and task.timer_at == at:
                self._push_timer(task, None)
                due.append(task)
        due.extend(self._polled)
        if len(due) > 1:
            due = sorted(set(due), key=lambda task: task.seq)
        for task in due:
            task.dirty = False
            if task.state is not RunState.BLOCKED:
                continue
            horizon = self._evaluate(task)
            if horizon is not None and horizon <= now:
                self._wake(task, value=True, instant=horizon)
            elif task.wait_deadline is not None \
                    and task.wait_deadline <= now:
                self._wake(task, value=False, instant=task.wait_deadline)
            elif task.spurious_at is not None and task.spurious_at <= now:
                self._wake(task, value=True, instant=task.spurious_at,
                           spurious=True)
            elif task not in self._polled:
                self._set_timer(task, horizon)

    def _next_wake_ns(self) -> Optional[float]:
        """The earliest instant any parked task can wake — exactly the
        minimum the full scan would find, so an idle advance lands on
        the same instant."""
        soonest: Optional[float] = None
        # channels fired during the idle hooks: refresh those caches
        dirty, self._dirty = self._dirty, []
        for task in dirty:
            task.dirty = False
            if task.state is RunState.BLOCKED:
                self._set_timer(task, self._evaluate(task))
        for task in self._polled:
            for candidate in (self._evaluate(task), task.wait_deadline,
                              task.spurious_at):
                if candidate is not None and (soonest is None
                                              or candidate < soonest):
                    soonest = candidate
        timers = self._timers
        tasks = self.tasks
        while timers:
            at, seq, gen = timers[0]
            task = tasks[seq]
            if task.park_gen != gen or task.timer_at != at:
                heapq.heappop(timers)           # stale
                continue
            if at != task.horizon_at or at == task.wait_deadline \
                    or at == task.spurious_at:
                break           # a fixed instant: exact
            # a cached horizon is only a lower bound: refresh it
            self._set_timer(task, self._evaluate(task))
            if task.timer_at == at:
                break
        if timers and (soonest is None or timers[0][0] < soonest):
            soonest = timers[0][0]
        return soonest

    def _pick(self) -> Optional[SchedTask]:
        """Coreless (host-side) tasks first, FIFO; then the runnable core
        with the lowest local time (tie: lowest core id)."""
        if self._coreless:
            return self._coreless.popleft()
        best: Optional[int] = None
        for index, queue in enumerate(self._run_queues):
            if not queue:
                continue
            if best is None or \
                    self.cores[index].local_ns < self.cores[best].local_ns:
                best = index
        if best is None:
            return None
        return self._run_queues[best].popleft()

    # -- the driver ---------------------------------------------------------

    def run_until(self, predicate: Optional[Callable[[], bool]] = None,
                  max_decisions: int = MAX_DECISIONS_PER_RUN,
                  tasks: Optional[Iterable[SchedTask]] = None) -> str:
        """Drive the machine until ``predicate()`` holds and every task in
        ``tasks`` has exited (either may be omitted).

        Returns ``"done"`` (condition satisfied), ``"idle"`` (every task
        is a zombie), or ``"stall"`` (live tasks remain but nothing can
        ever wake them — the deterministic analogue of a hang).  Only
        ``tasks`` and ``predicate`` both omitted runs until idle.
        """
        if self.in_task():
            raise SchedulerError("run_until called from inside a task")
        if self._in_run:
            raise SchedulerError("run_until is not reentrant")
        waiting = None if tasks is None else \
            [task for task in tasks if not task.done]
        exits = self._exits
        self._in_run = True
        try:
            for _ in range(max_decisions):
                if waiting is not None:
                    if self._exits != exits:
                        exits = self._exits
                        waiting = [task for task in waiting
                                   if not task.done]
                    if not waiting and (predicate is None or predicate()):
                        return "done"
                elif predicate is not None and predicate():
                    return "done"
                self._wake_ready()
                task = self._pick()
                if task is None:
                    # no runnable task: give cross-host machinery (the
                    # cluster's pending wire frames) a chance to make
                    # progress before declaring idle/stall — delivering a
                    # frame may unblock a parked task or close a region.
                    # Every chained hook runs, in registration order, so
                    # one hook's progress never starves another's.
                    progressed = False
                    for hook in tuple(self.idle_hooks):
                        if hook():
                            progressed = True
                    if progressed:
                        continue
                    if self._exits == len(self.tasks):
                        return "idle"
                    wake_ns = self._next_wake_ns()
                    if wake_ns is None:
                        return "stall"
                    if wake_ns > self.clock.monotonic_ns:
                        self.clock.advance_to(wake_ns)
                    self.stats.idle_advances += 1
                    continue
                self._dispatch(task)
                if task.error is not None:
                    error, task.error = task.error, None
                    raise error
            raise SchedulerError(
                f"run_until exceeded {max_decisions} decisions")
        finally:
            self._in_run = False

    def _dispatch(self, task: SchedTask) -> None:
        core = task.core
        if core is not None:
            if core.last_task is not None and core.last_task is not task:
                # a real context switch on this core: charged to the
                # incoming task's core time (CostModel footnote-1 value)
                core.advance_ns(self.costs.context_switch_ns)
                self.stats.context_switches += 1
            core.last_task = task
            task.slice_start_ns = core.local_ns
        task.state = RunState.RUNNING
        self._record_state(task)
        self.current = task
        self.stats.dispatches += 1
        self._decision("dispatch", task)
        task._baton.give(_DRIVER)
        task._baton.wait(_DRIVER)
        self.current = None
        self._record_state(task)

    # -- task-side entry points (called from inside a running task) ---------

    def in_task(self) -> bool:
        task = self.current
        return task is not None \
            and threading.current_thread() is task.thread

    def _current_checked(self) -> SchedTask:
        task = self.current
        if task is None or threading.current_thread() is not task.thread:
            raise SchedulerError(
                "park/yield called from outside the running task")
        return task

    def _switch_to_driver(self, task: SchedTask) -> None:
        task._baton.give(_TASK)
        task._baton.wait(_TASK)

    def park(self, horizon: Optional[Callable[[], Optional[float]]] = None,
             deadline_ns: Optional[float] = None,
             watch: Sequence[object] = ()) -> bool:
        """Block the current task.

        ``horizon`` is a closure returning the earliest instant the
        awaited condition could hold (None = unknowable yet).
        ``watch`` names the channels it reads — objects with
        ``add_watcher``/``remove_watcher`` that fire on every event able
        to make the horizon earlier (a delivery, a FIN, a listener
        enqueue, an epoll re-arm).  The driver re-evaluates the horizon
        when a declared channel fires or the clock reaches its cached
        instant; without ``watch`` the park is polled, re-evaluated every
        iteration, so readiness produced by *other* tasks still wakes the
        sleeper.  ``deadline_ns`` is an absolute timeout.  Returns True
        if woken by readiness, False on deadline or cancellation (a
        cancelled task never blocks again — see :meth:`cancel`).
        """
        task = self._current_checked()
        if task.cancelled:
            return False
        task.wait_horizon = horizon
        task.wait_deadline = deadline_ns
        faults = self.kernel.faults
        if faults.active and faults.spurious_wake():
            task.spurious_at = self.clock.monotonic_ns
        task.state = RunState.BLOCKED
        self._record_state(task)
        self.stats.parks += 1
        self._decision("park", task)
        task.park_gen += 1
        if horizon is not None and not watch:
            self._polled[task] = None
        elif horizon is not None:
            task.watch = tuple(watch)
            for channel in task.watch:
                channel.add_watcher(task.notify)
            self._mark_dirty(task)          # first evaluation
        else:
            self._set_timer(task, None)
        self._switch_to_driver(task)
        return task.wake_value

    def yield_now(self) -> None:
        """Voluntarily give up the slice (stays RUNNABLE)."""
        task = self._current_checked()
        self._enqueue(task)
        self._decision("yield", task)
        self._switch_to_driver(task)

    def maybe_preempt(self) -> None:
        """Preemption point (the kernel calls this at syscall entry):
        once the task has burned a full quantum of core-local time, it
        yields so lower-local-time cores catch up.  Cheap no-op for
        non-task contexts and coreless tasks."""
        task = self.current
        if task is None or threading.current_thread() is not task.thread:
            return
        core = task.core
        if core is None:
            return
        if core.local_ns - task.slice_start_ns < self.quantum_ns:
            return
        self.stats.preemptions += 1
        self._enqueue(task)
        self._decision("preempt", task)
        self._switch_to_driver(task)

    # -- introspection ------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "decisions": self.decisions,
            "digest": self.digest,
            "stats": self.stats.as_dict(),
            "cores": [c.local_ns for c in self.cores],
            "tasks": [(t.name, t.state.value) for t in self.tasks],
        }
