"""Explicit fault plans: validated specs, pinned injections, replay.

A probabilistic schedule samples faults from (seed, name, counter); a
*plan* schedule names exact events — ``{kind, nth}`` at the kind's
nth opportunity — so a failing draw sequence can be re-expressed as a
bisectable event list.  Contract under test:

* unknown fault kinds / malformed entries fail at construction,
* opportunity counters advance identically in both modes,
* ``plan_from_events`` turns a probabilistic run's ``injected_events``
  into a plan that replays the identical fault stream,
* link-kind entries apply only to their named link.
"""

import pytest

from repro.kernel.errno_codes import Errno
from repro.kernel.faults import (
    KNOWN_FAULT_KINDS,
    FaultPlane,
    FaultSchedule,
)


# -- construction-time validation (the ValueError gate) -----------------------

def test_plan_with_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="sigsegv"):
        FaultSchedule(name="t", plan=[{"kind": "sigsegv", "nth": 1}])


def test_plan_entry_without_nth_is_rejected():
    with pytest.raises(ValueError, match="nth"):
        FaultSchedule(name="t", plan=[{"kind": "eintr"}])


def test_plan_entry_with_bad_nth_is_rejected():
    for nth in (0, -3, "first", 1.5):
        with pytest.raises(ValueError, match="nth"):
            FaultSchedule(name="t",
                          plan=[{"kind": "eintr", "nth": nth}])


def test_from_dict_rejects_unknown_fields():
    raw = FaultSchedule(name="t").to_dict()
    raw["eintr_probability"] = 0.5          # typo'd field name
    with pytest.raises(ValueError, match="eintr_probability"):
        FaultSchedule.from_dict(raw)


def test_known_kinds_cover_both_planes():
    assert {"eintr", "short_read", "segment"} <= KNOWN_FAULT_KINDS
    assert {"link_delay", "link_drop"} <= KNOWN_FAULT_KINDS


def test_plan_schedule_round_trips_through_dict():
    schedule = FaultSchedule(name="t", backlog_cap=4, plan=[
        {"kind": "eintr", "nth": 2},
        {"kind": "short_read", "nth": 1, "granted": 3},
    ])
    again = FaultSchedule.from_dict(schedule.to_dict())
    assert again == schedule
    # probabilistic schedules don't serialize a plan key at all
    assert "plan" not in FaultSchedule(name="p").to_dict()


# -- plan execution -----------------------------------------------------------

def test_plan_injects_exactly_the_named_events():
    plane = FaultPlane(b"seed")
    plane.install(FaultSchedule(name="t", plan=[
        {"kind": "eintr", "nth": 2},
        {"kind": "short_read", "nth": 3, "granted": 4},
    ]))
    results = [plane.before_syscall("read") for _ in range(4)]
    assert results == [None, -Errno.EINTR, None, None]
    grants = [plane.clamp_io("read", 100) for _ in range(4)]
    assert grants == [100, 100, 4, 100]
    assert plane.injected_by_kind == {"eintr": 1, "short_read": 1}


def test_plan_granted_never_forges_eof():
    plane = FaultPlane(b"seed")
    plane.install(FaultSchedule(name="t", plan=[
        {"kind": "short_read", "nth": 1, "granted": 50},
        {"kind": "short_read", "nth": 2, "granted": 0},
    ]))
    assert plane.clamp_io("read", 10) == 10   # clamped to the request
    assert plane.clamp_io("read", 10) == 1    # never below one byte


HOST_KINDS = {"eintr", "eagain", "emfile", "enomem", "short_read",
              "short_write", "segment", "spurious_wake"}
LINK_KINDS = KNOWN_FAULT_KINDS - HOST_KINDS
HOST_ARMED = dict(eintr_p=0.2, eagain_p=0.3, short_read_p=0.4,
                  short_read_cap=5, short_write_p=0.4, short_write_cap=7,
                  emfile_every=4, enomem_every=3, segment_bytes=16,
                  segment_extra_delay_ns=500, spurious_wake_p=0.3)
LINK_ARMED = dict(link_delay_p=0.4, link_delay_ns=100_000,
                  link_drop_p=0.3, link_rto_ns=1_000_000,
                  link_reorder_p=0.3, link_reorder_ns=50_000,
                  link_partition_every=5, link_partition_ns=2_000_000)


def _host_run(plane):
    """Every host injection site, 48 times over."""
    names = ("read", "open", "recvfrom", "write", "accept4", "sendto")
    return [(plane.before_syscall(names[i % 6]),
             plane.clamp_io(names[i % 6], 64),
             plane.segment_delivery(bytes(range(40))),
             plane.spurious_wake()) for i in range(48)]


def _link_run(plane):
    return [plane.link_frame("h0->h1", seq, 100) for seq in range(1, 49)]


@pytest.mark.parametrize("schedule, kinds", [
    pytest.param(FaultSchedule(name="t", eintr_p=0.3, short_read_p=0.4,
                               short_read_cap=5),
                 {"eintr", "short_read"}, id="two-kinds"),
    pytest.param(FaultSchedule(name="host", **HOST_ARMED), HOST_KINDS,
                 id="host-kinds"),
    pytest.param(FaultSchedule(name="link", **LINK_ARMED), LINK_KINDS,
                 id="link-kinds"),
    pytest.param(FaultSchedule(name="all", **HOST_ARMED, **LINK_ARMED),
                 KNOWN_FAULT_KINDS, id="all-kinds"),
])
def test_plan_from_events_replays_the_probabilistic_stream(schedule, kinds):
    host, link = FaultPlane(b"seed"), FaultPlane(b"seed/link/h0->h1")
    host.install(schedule)
    link.install(schedule)
    host_trace, link_trace = _host_run(host), _link_run(link)
    assert set(host.injected_by_kind) | set(link.injected_by_kind) == kinds

    # the seed no longer matters: a plan draws nothing
    host_replay, link_replay = FaultPlane(b"other"), FaultPlane(b"other")
    host_replay.install(FaultSchedule.plan_from_events(host.injected_events))
    link_replay.install(FaultSchedule.plan_from_events(link.injected_events))

    # host plane: the same returns, kinds and digest
    assert _host_run(host_replay) == host_trace
    assert host_replay.injected_by_kind == host.injected_by_kind
    assert host_replay.digest == host.digest
    assert host_replay._counter == 0

    # link plane: the same delays and kinds, but a planned link event
    # records only the delay it adds (extra_ns), not the schedule figure
    # behind it (held_ns, delay_ns, rto_ns and nbytes, late_ns), so its
    # digest differs by design whenever a link fault fired
    assert _link_run(link_replay) == link_trace
    assert link_replay.injected_by_kind == link.injected_by_kind
    assert (link_replay.digest == link.digest) == (not link.injected_total)


def test_link_plan_entries_apply_only_to_their_link():
    plan = FaultSchedule(name="t", plan=[
        {"kind": "link_delay", "nth": 1, "target": "h0->h1",
         "extra_ns": 7_000},
    ])
    mine, other = FaultPlane(b"a"), FaultPlane(b"b")
    mine.install(plan)
    other.install(plan)
    assert mine.link_frame("h0->h1", 1, 100) == 7_000.0
    assert other.link_frame("h1->h0", 1, 100) == 0.0
    # a host plane sharing the plan never reaches link opportunities
    host = FaultPlane(b"c")
    host.install(plan)
    assert host.before_syscall("read") is None
    assert host.injected_total == 0
