"""The event-driven wake logic against the full scan it replaced.

``Scheduler`` re-evaluates a parked task's horizon only when a channel
the park declared fires, when the clock reaches the task's cached
instant, or every iteration for a park that declared no channel.  The
``full_scan_reference`` fixture wraps ``_wake_ready`` and
``_next_wake_ns`` and, on every driver iteration, recomputes the old full
scan over ``sched.tasks`` — each blocked task's live horizon, deadline
and spurious-wake instant, in spawn order — and asserts the same woken
``(task, value, instant, spurious)`` sequence and the same idle instant.
No runtime option selects the full scan; it lives only here.
"""

import inspect
from collections import Counter

import pytest

from repro.apps.littled import LittledServer
from repro.cluster.scenarios import build_littled_cluster
from repro.kernel import Kernel
from repro.kernel.epoll_impl import EPOLL_CTL_ADD, EPOLLIN, EpollInstance
from repro.kernel.faults import FaultSchedule, battery
from repro.kernel.sched import RunState, Scheduler
from repro.sim import OK_CLASSES, generate_matrix
from repro.sim.runner import run_scenario
from repro.workloads.ab import ApacheBench
from tests.kernel import test_sched as sched_shapes
from tests.workloads.test_sched_concurrency import scheduled_run

PORT = 8080


def full_scan_wakes(sched):
    """What the old ``_wake_ready`` woke, in order."""
    now = sched.clock.monotonic_ns
    wakes = []
    for task in sched.tasks:
        if task.state is not RunState.BLOCKED:
            continue
        horizon = task.wait_horizon() if task.wait_horizon else None
        if horizon is not None and horizon <= now:
            wakes.append((task, True, horizon, False))
        elif task.wait_deadline is not None and task.wait_deadline <= now:
            wakes.append((task, False, task.wait_deadline, False))
        elif task.spurious_at is not None and task.spurious_at <= now:
            wakes.append((task, True, task.spurious_at, True))
    return wakes


def full_scan_next_wake(sched):
    """What the old ``_next_wake_ns`` returned."""
    instants = []
    for task in sched.tasks:
        if task.state is not RunState.BLOCKED:
            continue
        instants += [
            task.wait_horizon() if task.wait_horizon else None,
            task.wait_deadline, task.spurious_at]
    return min((i for i in instants if i is not None), default=None)


@pytest.fixture
def full_scan_reference(monkeypatch):
    """Check every scheduler built in the test against the full scan;
    returns counters of the checked iterations, wakes and idle advances."""
    checked = Counter()
    wake_ready = Scheduler._wake_ready
    next_wake_ns = Scheduler._next_wake_ns
    wake = Scheduler._wake

    def checked_wake_ready(sched):
        expected = full_scan_wakes(sched)
        woken = []

        def recording_wake(task, value, instant, spurious=False):
            woken.append((task, value, instant, spurious))
            wake(sched, task, value, instant, spurious)

        sched._wake = recording_wake
        try:
            wake_ready(sched)
        finally:
            del sched._wake
        assert woken == expected
        checked["iterations"] += 1
        checked["wakes"] += len(woken)

    def checked_next_wake_ns(sched):
        expected = full_scan_next_wake(sched)
        instant = next_wake_ns(sched)
        assert instant == expected
        checked["idle"] += 1
        return instant

    monkeypatch.setattr(Scheduler, "_wake_ready", checked_wake_ready)
    monkeypatch.setattr(Scheduler, "_next_wake_ns", checked_next_wake_ns)
    return checked


# -- every shape of tests/kernel/test_sched.py ------------------------------------

SHAPES = sorted(name for name, fn in vars(sched_shapes).items()
                if name.startswith("test_") and inspect.isfunction(fn))


@pytest.mark.parametrize("shape", SHAPES)
def test_sched_shape_matches_full_scan(shape, full_scan_reference):
    fn = getattr(sched_shapes, shape)
    params = inspect.signature(fn).parameters
    kwargs = {}
    if params:
        kernel = Kernel()
        kwargs = {"kernel": kernel, "sched": Scheduler(kernel, cores=2)}
    fn(**{name: kwargs[name] for name in params})


# -- serving shapes ----------------------------------------------------------------

SPURIOUS = FaultSchedule(name="spurious-wakes", spurious_wake_p=0.3)


@pytest.mark.parametrize("schedule", [*battery(), SPURIOUS],
                         ids=lambda s: s.name)
def test_fault_battery_under_4_workers_matches_full_scan(
        schedule, full_scan_reference):
    kernel, server, result, injected = scheduled_run(
        requests=16, concurrency=4, smvx=True,
        protect="server_main_loop", fault_schedule=schedule)
    assert result.requests_completed == 16
    assert server.alarms.alarms == []
    assert full_scan_reference["wakes"] > 0
    if schedule is SPURIOUS:
        assert kernel.sched.stats.spurious_wakeups > 0


MATRIX = generate_matrix("wake-ref", 24)


def test_matrix_slice_covers_the_scheduler_shapes():
    assert any(s.worker_kill for s in MATRIX)
    assert any(s.reload for s in MATRIX)
    assert any(s.clock_skew_ns and s.workers for s in MATRIX)
    assert any(s.workload == "cluster" for s in MATRIX)
    assert any((s.schedule or {}).get("spurious_wake_p") and s.workers
               for s in MATRIX)


@pytest.mark.parametrize("scenario", MATRIX, ids=lambda s: str(s.index))
def test_matrix_scenario_matches_full_scan(scenario, full_scan_reference):
    outcome = run_scenario(scenario)
    assert outcome.klass in OK_CLASSES, outcome.detail
    if scenario.workers:
        assert full_scan_reference["iterations"] > 0


def test_scheduled_cluster_matches_full_scan(full_scan_reference):
    """Remote-variant littled: the cluster wire pump is an idle hook."""
    run = build_littled_cluster(seed="wake-ref", workers=2)
    kernel = run.cluster.host(0).kernel
    result = ApacheBench(kernel, run.leader).run(8, concurrency=4)
    assert result.status_counts == {200: 8}
    run.leader.shutdown()
    run.dsmvx.settle()
    assert run.leader.alarms.alarms == []
    assert full_scan_reference["idle"] > 0


def test_c200_keepalive_littled_matches_full_scan(full_scan_reference):
    kernel = Kernel(seed="wake-ref-c200")
    server = LittledServer(kernel, workers=4)
    server.start()
    bench = ApacheBench(kernel, server, pipeline=2, think_ns=100_000_000,
                        timeout_ns=2_000_000_000, connect_retries=200)
    result = bench.run(400, concurrency=200)
    server.shutdown()
    assert result.requests_completed == 400
    assert result.failures == 0
    assert full_scan_reference["idle"] > 0
    assert kernel.sched.horizon_evals <= kernel.sched.decisions


# -- channels ----------------------------------------------------------------------


def _connected_pair(kernel):
    """A client socket and its accepted server end."""
    network = kernel.network
    listener = network.listen(PORT)
    client = network.connect(PORT)
    kernel.clock.advance_ns(network.latency_ns)
    return client, listener.accept()


def _sleeper(sched, horizon, channel, woke):
    def body():
        woke.append((sched.park(horizon=horizon, watch=(channel,)),
                     sched.clock.monotonic_ns))
    return sched.spawn("sleeper", body)


def test_delivery_wakes_a_watched_sleeper(kernel, full_scan_reference):
    sched = Scheduler(kernel)
    client, server = _connected_pair(kernel)
    woke = []
    task = _sleeper(sched, client.next_ready_at, client, woke)
    sent_at = []

    def producer():
        for _ in range(50):
            sched.yield_now()             # 50 iterations, no event
        sent_at.append(kernel.clock.monotonic_ns)
        server.send(b"x")

    sched.spawn("producer", producer)
    assert sched.run_until(tasks=[task]) == "done"
    assert woke == [(True, sent_at[0] + kernel.network.latency_ns)]
    # the park, the delivery, and the idle advance to it: not one
    # evaluation per iteration
    assert sched.decisions > 100
    assert sched.horizon_evals <= 4


def test_fin_wakes_a_watched_sleeper(kernel, full_scan_reference):
    sched = Scheduler(kernel)
    client, server = _connected_pair(kernel)
    woke = []
    task = _sleeper(sched, client.next_ready_at, client, woke)
    sched.spawn("closer", server.shutdown_write)
    assert sched.run_until(tasks=[task]) == "done"
    assert woke == [(True, client.fin_at)]
    assert client.recv(16) == b""             # orderly EOF


def test_listener_enqueue_wakes_a_watched_sleeper(kernel,
                                                  full_scan_reference):
    sched = Scheduler(kernel)
    listener = kernel.network.listen(PORT)
    woke = []
    task = _sleeper(sched, listener.next_ready_at, listener, woke)
    sched.spawn("client", lambda: kernel.network.connect(PORT))
    assert sched.run_until(tasks=[task]) == "done"
    assert woke == [(True, listener.next_ready_at())]
    assert not isinstance(listener.accept(), int)


def test_epoll_rearm_wakes_a_watched_sleeper(kernel, full_scan_reference):
    sched = Scheduler(kernel)
    client, server = _connected_pair(kernel)
    instance = EpollInstance()
    instance.ctl(EPOLL_CTL_ADD, 5, EPOLLIN, 5, channel=server)

    def probe(fd):
        now = kernel.clock.monotonic_ns
        return (server.readable(now), False, False, server.next_ready_at())

    assert instance.poll(kernel.clock.monotonic_ns, probe, 8) == []
    assert instance.armed_fds == []           # idle, nothing in flight
    woke = []
    task = _sleeper(
        sched, lambda: instance.next_ready_at(
            lambda fd: server.next_ready_at()), instance, woke)
    sched.spawn("producer", lambda: client.send(b"ping"))
    assert sched.run_until(tasks=[task]) == "done"
    assert woke == [(True, server.next_ready_at())]
    assert instance.poll(kernel.clock.monotonic_ns, probe, 8) \
        == [(EPOLLIN, 5)]


def test_sibling_accept_that_delays_a_listener_horizon_wakes_nobody(
        kernel, full_scan_reference):
    """Consuming data only makes a horizon later, so it fires no
    channel: the stale cached instant comes due, is re-evaluated, and
    the sleeper keeps sleeping until the next connection is ready."""
    sched = Scheduler(kernel, cores=1)
    network = kernel.network
    latency = network.latency_ns
    listener = network.listen(PORT)
    network.connect(PORT)                     # ready at latency
    kernel.clock.advance_ns(latency // 2)
    network.connect(PORT)                     # ready at 1.5 x latency
    first, second = latency, latency + latency // 2
    assert listener.next_ready_at() == first
    woke = []
    sleeper = _sleeper(sched, listener.next_ready_at, listener, woke)
    accepted = []

    def sibling():
        sched.cores[0].advance_ns(first + latency // 4)   # past `first`
        accepted.append(listener.accept())

    sibling_task = sched.spawn("sibling", sibling, core=0)
    assert sched.run_until(tasks=[sibling_task]) == "done"
    assert not isinstance(accepted[0], int)
    assert kernel.clock.monotonic_ns > first
    assert sleeper.state is RunState.BLOCKED   # no wake on the stale cache
    assert sched.stats.wakeups == 0
    assert sched.run_until(tasks=[sleeper]) == "done"
    assert woke == [(True, second)]
    assert sched.stats.wakeups == 1


def test_idle_advance_refreshes_a_stale_cached_horizon(
        kernel, full_scan_reference):
    """Closing a listener drops its not-yet-ready connections without
    firing a channel, so the sleeper's cached instant is stale.  The
    idle advance must re-evaluate it (to None: a stall) instead of
    jumping the clock to the dropped connection."""
    sched = Scheduler(kernel)
    listener = kernel.network.listen(PORT)
    kernel.network.connect(PORT)
    start = kernel.clock.monotonic_ns
    woke = []
    sleeper = _sleeper(sched, listener.next_ready_at, listener, woke)
    sched.spawn("closer", listener.close)
    assert sched.run_until(tasks=[sleeper]) == "stall"
    assert kernel.clock.monotonic_ns == start
    assert sched.stats.idle_advances == 0
    sched.cancel(sleeper)
    assert sched.run_until(tasks=[sleeper]) == "done"
    assert woke == [(False, start)]


def test_compaction_keeps_the_timer_heap_bounded(kernel,
                                                 full_scan_reference):
    """Every read parks with a 2 s timeout and is woken by its delivery
    long before it: each park leaves a stale timer behind."""
    sched = Scheduler(kernel)
    client, server = _connected_pair(kernel)
    rounds = 300
    heap_sizes = []
    sched.decision_hook = lambda kind, name, detail: \
        heap_sizes.append(len(sched._timers))

    def reader():
        for _ in range(rounds):
            now = kernel.clock.monotonic_ns
            assert sched.park(horizon=client.next_ready_at,
                              deadline_ns=now + 2_000_000_000,
                              watch=(client,))
            assert client.recv(16) == b"x"

    def writer():
        for _ in range(rounds):
            server.send(b"x")
            sched.park(deadline_ns=kernel.clock.monotonic_ns + 1_000)

    task = sched.spawn("reader", reader)
    sched.spawn("writer", writer)
    assert sched.run_until(tasks=[task]) == "done"
    assert sched.stats.parks >= 2 * rounds
    assert max(heap_sizes) <= 100
