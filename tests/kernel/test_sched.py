"""Scheduler unit tests: park/wake, quanta, determinism, cancellation.

The scheduler contract (docs/architecture.md §11): every interleaving
decision is a pure function of machine state, blocking happens via
horizon closures, preemption is charged in virtual time only, and
cancellation is cooperative (no exceptions are thrown into tasks).
"""

import pytest

from repro.kernel import Kernel
from repro.kernel.faults import FaultSchedule
from repro.kernel.sched import (
    DEFAULT_QUANTUM_NS,
    RunState,
    Scheduler,
    SchedulerError,
    TaskCancelled,
)


@pytest.fixture
def sched(kernel):
    return Scheduler(kernel, cores=2)


def test_spawn_and_run_to_completion(kernel, sched):
    log = []
    task = sched.spawn("t", lambda: log.append("ran"))
    assert task.state is RunState.RUNNABLE
    status = sched.run_until(lambda: task.done)
    assert status == "done"
    assert log == ["ran"]
    assert task.state is RunState.ZOMBIE
    assert task.error is None


def test_run_until_idle_when_all_tasks_finish(kernel, sched):
    sched.spawn("a", lambda: None)
    sched.spawn("b", lambda: None)
    assert sched.run_until() == "idle"
    assert all(t.done for t in sched.tasks)


def test_one_scheduler_per_kernel(kernel, sched):
    with pytest.raises(SchedulerError):
        Scheduler(kernel)


def test_park_wakes_on_horizon_produced_by_another_task(kernel, sched):
    box = {"ready_at": None}
    woke = []

    def sleeper():
        woke.append(sched.park(horizon=lambda: box["ready_at"]))

    def producer():
        box["ready_at"] = kernel.clock.monotonic_ns

    sleeper_task = sched.spawn("sleeper", sleeper)
    sched.spawn("producer", producer)
    assert sched.run_until(lambda: sleeper_task.done) == "done"
    assert woke == [True]
    assert sched.stats.parks == 1
    assert sched.stats.wakeups == 1


def test_park_deadline_times_out_and_advances_clock(kernel, sched):
    deadline = kernel.clock.monotonic_ns + 5_000_000
    woke = []

    task = sched.spawn(
        "t", lambda: woke.append(
            sched.park(horizon=lambda: None, deadline_ns=deadline)))
    assert sched.run_until(lambda: task.done) == "done"
    # the timeout wake is the idle-advance path: nothing was runnable,
    # so the driver jumped the clock to the deadline
    assert woke == [False]
    assert kernel.clock.monotonic_ns >= deadline
    assert sched.stats.idle_advances >= 1


def test_unwakeable_park_is_a_stall_not_a_hang(kernel, sched):
    task = sched.spawn("t", lambda: sched.park(horizon=lambda: None))
    assert sched.run_until(lambda: task.done) == "stall"
    assert task.state is RunState.BLOCKED
    # cancellation is the harness's recovery path: the park reports
    # False and the task exits
    sched.cancel(task)
    assert sched.run_until(lambda: task.done) == "done"


def test_blocked_state_mirrors_into_task_table(kernel, sched):
    parent = kernel.tasks.spawn("parent")
    pid = kernel.tasks.spawn("child", parent)
    observed = []

    def body():
        sched.park(horizon=lambda: kernel.clock.monotonic_ns)

    task = sched.spawn("child", body, pid=pid)
    assert kernel.tasks.tasks[pid].state == "runnable"

    def watch():
        observed.append(kernel.tasks.tasks[pid].state)
        return task.done

    sched.run_until(watch)
    assert "blocked" in observed or "running" in observed
    # the scheduler exit flows into TaskManager.exit: the record is a
    # zombie until the parent reaps it
    assert kernel.tasks.tasks[pid].state == "zombie"
    assert kernel.tasks.wait(parent) == (pid, 0)


def test_yield_now_round_robins_fifo(kernel, sched):
    order = []

    def make(name):
        def body():
            for _ in range(3):
                order.append(name)
                sched.yield_now()
        return body

    a = sched.spawn("a", make("a"))
    b = sched.spawn("b", make("b"))
    sched.run_until(lambda: a.done and b.done)
    assert order == ["a", "b", "a", "b", "a", "b"]


def test_quantum_preemption_interleaves_core_bound_tasks(kernel, sched):
    order = []

    def make(name, core):
        def body():
            for _ in range(3):
                order.append(name)
                sched.cores[core].advance_ns(DEFAULT_QUANTUM_NS)
                sched.maybe_preempt()
        return body

    # both tasks on core 0: each burns a full quantum then hits the
    # preemption point, so they strictly alternate
    a = sched.spawn("a", make("a", 0), core=0)
    b = sched.spawn("b", make("b", 0), core=0)
    sched.run_until(lambda: a.done and b.done)
    assert order == ["a", "b", "a", "b", "a", "b"]
    assert sched.stats.preemptions >= 4
    assert sched.stats.context_switches >= 4


def test_preemption_needs_a_full_quantum(kernel, sched):
    def body():
        sched.cores[0].advance_ns(DEFAULT_QUANTUM_NS / 4)
        sched.maybe_preempt()

    task = sched.spawn("t", body, core=0)
    sched.run_until(lambda: task.done)
    assert sched.stats.preemptions == 0


def test_context_switch_charged_only_on_real_switch(kernel, sched):
    def body():
        for _ in range(4):
            sched.cores[0].advance_ns(10)
            sched.yield_now()

    task = sched.spawn("solo", body, core=0)
    sched.run_until(lambda: task.done)
    # re-dispatching the same task is not a context switch
    assert sched.stats.context_switches == 0
    assert sched.cores[0].local_ns == pytest.approx(40)


def test_dispatch_prefers_lowest_local_time_core(kernel, sched):
    order = []
    sched.cores[0].local_ns = 1_000_000        # core 0 is far ahead

    a = sched.spawn("on0", lambda: order.append("on0"), core=0)
    b = sched.spawn("on1", lambda: order.append("on1"), core=1)
    sched.run_until(lambda: a.done and b.done)
    assert order == ["on1", "on0"]


def test_coreless_tasks_dispatch_before_core_bound(kernel, sched):
    order = []
    a = sched.spawn("core0", lambda: order.append("core0"), core=0)
    b = sched.spawn("host", lambda: order.append("host"))
    sched.run_until(lambda: a.done and b.done)
    assert order == ["host", "core0"]


def test_core_clock_never_goes_backwards(kernel, sched):
    core = sched.cores[0]
    core.advance_ns(500)
    with pytest.raises(ValueError):
        core.advance_ns(-1)
    core.catch_up(100)          # older instant: no-op
    assert core.local_ns == 500
    core.catch_up(900)
    assert core.local_ns == 900


def test_core_advance_drags_global_clock_at_frontier_only(kernel, sched):
    start = kernel.clock.monotonic_ns
    sched.cores[0].advance_ns(10_000)
    assert kernel.clock.monotonic_ns == pytest.approx(start + 10_000)
    # core 1 catching up below the frontier does not move global time
    sched.cores[1].advance_ns(4_000)
    assert kernel.clock.monotonic_ns == pytest.approx(start + 10_000)


def test_cancel_wakes_blocked_task_with_false(kernel, sched):
    woke = []

    def body():
        woke.append(sched.park(horizon=lambda: None))
        # cooperative contract: later parks return False immediately
        woke.append(sched.park(horizon=lambda: None))

    task = sched.spawn("t", body)
    sched.run_until(lambda: task.state is RunState.BLOCKED,
                    max_decisions=100)
    sched.cancel(task)
    assert sched.run_until(lambda: task.done) == "done"
    assert woke == [False, False]
    assert task.error is None


def test_cancelled_task_never_blocks_again(kernel, sched):
    parks = []
    holder = {}

    def body():
        while not holder["task"].cancelled:
            sched.yield_now()
        parks.append(sched.park(horizon=lambda: None, deadline_ns=None))

    task = holder["task"] = sched.spawn("t", body)
    # let it run a few slices before cancelling, so cancellation lands
    # on a live (not merely spawned) task
    sched.run_until(lambda: sched.stats.dispatches >= 2, max_decisions=50)
    sched.cancel(task)
    assert sched.run_until(lambda: task.done) == "done"
    assert parks == [False]
    assert sched.stats.parks == 0          # the park never blocked


def test_task_cancelled_exception_is_a_clean_exit(kernel, sched):
    def body():
        raise TaskCancelled()

    task = sched.spawn("t", body)
    assert sched.run_until(lambda: task.done) == "done"
    assert task.error is None
    assert task.state is RunState.ZOMBIE


def test_task_error_propagates_to_the_driver(kernel, sched):
    def body():
        raise ValueError("guest bug")

    task = sched.spawn("t", body)
    with pytest.raises(ValueError, match="guest bug"):
        sched.run_until(lambda: task.done)
    assert task.done


def test_run_until_rejects_call_from_inside_a_task(kernel, sched):
    task = sched.spawn("t", lambda: sched.run_until())
    with pytest.raises(SchedulerError):
        sched.run_until(lambda: task.done)


def test_park_rejects_call_from_outside_a_task(kernel, sched):
    with pytest.raises(SchedulerError):
        sched.park()
    with pytest.raises(SchedulerError):
        sched.yield_now()


def test_run_until_decision_budget_fails_loudly(kernel, sched):
    def body():
        for _ in range(50):
            sched.yield_now()

    task = sched.spawn("t", body)
    with pytest.raises(SchedulerError, match="exceeded"):
        sched.run_until(lambda: task.done, max_decisions=10)
    # the budget failure is recoverable: a fresh run finishes the task
    assert sched.run_until(lambda: task.done) == "done"


def test_spurious_wake_fault_schedule(kernel, sched):
    kernel.faults.install(FaultSchedule(name="sw", spurious_wake_p=1.0))
    woke = []

    task = sched.spawn(
        "t", lambda: woke.append(sched.park(horizon=lambda: None)))
    assert sched.run_until(lambda: task.done) == "done"
    # the injected wake reports readiness (True) like a kernel-level
    # spurious epoll return; callers must re-check actual state
    assert woke == [True]
    assert sched.stats.spurious_wakeups == 1
    assert kernel.faults.injected_by_kind.get("spurious_wake") == 1
    kernel.faults.install(None)


def test_decision_stream_is_deterministic():
    def one_run():
        kernel = Kernel(seed="sched-det")
        sched = Scheduler(kernel, cores=2)
        box = {"ready_at": None}

        def sleeper():
            sched.park(horizon=lambda: box["ready_at"])
            sched.cores[0].advance_ns(1234)

        def producer():
            for _ in range(3):
                sched.cores[1].advance_ns(777)
                sched.yield_now()
            box["ready_at"] = kernel.clock.monotonic_ns

        a = sched.spawn("sleeper", sleeper, core=0)
        b = sched.spawn("producer", producer, core=1)
        sched.run_until(lambda: a.done and b.done)
        sched.join()
        return (sched.digest, sched.decisions, sched.stats.as_dict(),
                [c.local_ns for c in sched.cores],
                kernel.clock.monotonic_ns)

    assert one_run() == one_run()


def test_decision_hook_sees_the_full_stream(kernel, sched):
    seen = []
    sched.decision_hook = lambda kind, name, detail: \
        seen.append((kind, name, detail["core"]))
    task = sched.spawn("t", lambda: sched.yield_now())
    sched.run_until(lambda: task.done)
    kinds = [k for k, _, _ in seen]
    assert kinds[0] == "spawn"
    assert "dispatch" in kinds and "yield" in kinds and "exit" in kinds
    assert all(name == "t" for _, name, _ in seen)
    assert seen == [(k, n, -1) for k, n, _ in seen]   # coreless task


def test_snapshot_shape(kernel, sched):
    task = sched.spawn("t", lambda: None)
    sched.run_until(lambda: task.done)
    snap = sched.snapshot()
    assert snap["decisions"] == sched.decisions
    assert snap["digest"] == sched.digest
    assert snap["tasks"] == [("t", "zombie")]
    assert len(snap["cores"]) == 2


# -- idle hooks (chained, not clobbered) --------------------------------------


def test_idle_hooks_chain_and_all_run(kernel, sched):
    """Regression: registering a second idle hook must not silently
    replace the first (DistributedSmvx + sim harness coexisting)."""
    box = {"ready": None}
    ran = {"pump": 0, "probe": 0}

    def pump():                      # makes progress: wakes the sleeper
        ran["pump"] += 1
        box["ready"] = kernel.clock.monotonic_ns
        return True

    def probe():                     # observes idleness, no progress
        ran["probe"] += 1
        return False

    sched.add_idle_hook(probe)
    sched.add_idle_hook(pump)
    task = sched.spawn(
        "sleeper", lambda: sched.park(horizon=lambda: box["ready"]))
    assert sched.run_until(lambda: task.done) == "done"
    assert ran["pump"] >= 1
    assert ran["probe"] >= 1         # the first hook still ran


def test_remove_idle_hook(kernel, sched):
    hook = lambda: False
    sched.add_idle_hook(hook)
    sched.remove_idle_hook(hook)
    sched.remove_idle_hook(hook)     # removing twice is a no-op
    assert sched.idle_hooks == []


def test_apply_clock_skew_offsets_cores(kernel, sched):
    base = [core.local_ns for core in sched.cores]
    sched.apply_clock_skew([0, 5_000])
    assert sched.cores[0].local_ns == base[0]
    assert sched.cores[1].local_ns == base[1] + 5_000
    with pytest.raises(ValueError):
        sched.apply_clock_skew([-1, 0])
