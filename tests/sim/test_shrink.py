"""Shrinker end-to-end: find the seeded bug, minimize it, replay it.

The zero-read mutation is the known bug: every second short-read clamp
forges EOF.  The pipeline under test is the whole point of the sim
subsystem — a swarm catches the failure, the shrinker reduces it to a
minimal scenario with an explicit fault plan, and the capsule replays
bit-identically from its seeds alone.
"""

import pytest

from repro.kernel.faults import FaultSchedule
from repro.sim import OK_CLASSES, generate_matrix
from repro.sim.runner import deployment, run_scenario
from repro.sim.scenario import Scenario
from repro.sim.shrink import (
    _axis_candidates,
    _clone,
    _ddmin,
    shrink,
    signature_of,
)
from repro.trace.capsule import ScenarioCapsule

MASTER = "shrink-suite"


def _failing_scenario():
    for scenario in generate_matrix(MASTER, 60):
        if scenario.schedule is None \
                or not scenario.schedule.get("short_read_p"):
            continue
        scenario.mutation = "zero-read"
        if run_scenario(scenario).klass not in OK_CLASSES:
            return scenario
    raise AssertionError("matrix slice never tripped the mutation")


@pytest.fixture(scope="module")
def shrunk():
    scenario = _failing_scenario()
    return scenario, shrink(scenario)


def test_minimized_scenario_reproduces_signature(shrunk):
    scenario, result = shrunk
    assert signature_of(result.outcome) == result.signature
    assert result.signature["class"] not in OK_CLASSES
    assert result.runs > 1
    assert result.steps


def test_minimized_scenario_is_smaller(shrunk):
    scenario, result = shrunk
    mini = result.minimized
    assert mini.requests <= scenario.requests
    assert mini.concurrency <= scenario.concurrency
    # the probabilistic schedule became an explicit bisected plan
    schedule = mini.schedule_obj()
    assert schedule is not None and schedule.plan
    assert all(e["kind"] == "short_read" for e in schedule.plan)


def test_shrink_is_deterministic(shrunk):
    scenario, result = shrunk
    again = shrink(Scenario.from_dict(scenario.to_dict()))
    assert again.minimized.to_dict() == result.minimized.to_dict()
    assert again.outcome.digest == result.outcome.digest


def test_capsule_roundtrip_and_replay(shrunk, tmp_path):
    _, result = shrunk
    path = str(tmp_path / "capsule.json")
    result.capsule(meta={"suite": "pytest"}).save(path)
    capsule = ScenarioCapsule.load(path)
    assert capsule.meta["suite"] == "pytest"
    verdict = capsule.replay()
    assert verdict.reproduced and verdict.bit_identical
    assert verdict.ok
    assert not verdict.mismatches


def test_capsule_detects_digest_tampering(shrunk, tmp_path):
    _, result = shrunk
    capsule = result.capsule()
    capsule.digest = "0" * 64
    verdict = capsule.replay()
    assert verdict.reproduced and not verdict.bit_identical
    assert not verdict.ok


def test_capsule_version_gate(tmp_path):
    with pytest.raises(ValueError, match="version"):
        ScenarioCapsule.from_dict({"version": 99})


def test_shrink_refuses_healthy_scenario():
    for scenario in generate_matrix(MASTER, 20):
        if run_scenario(scenario).klass in OK_CLASSES:
            with pytest.raises(ValueError, match="does not fail"):
                shrink(scenario)
            return
    raise AssertionError("no healthy scenario in slice")


def test_plan_events_replay_the_probabilistic_run():
    scenario = _failing_scenario()
    outcome = run_scenario(scenario)
    schedule = scenario.schedule_obj()
    plan = FaultSchedule.plan_from_events(
        outcome.raw.fault_events, name="pinned",
        backlog_cap=schedule.backlog_cap)
    replayed = run_scenario(Scenario.from_dict(
        dict(scenario.to_dict(), schedule=plan.to_dict())))
    assert replayed.klass == outcome.klass
    assert replayed.raw.injected_by_kind == outcome.raw.injected_by_kind


def test_ddmin_finds_the_needed_subset():
    # failure needs items 3 AND 7 together
    def test_fn(items):
        return 3 in items and 7 in items

    result = _ddmin(list(range(10)), test_fn)
    assert sorted(result) == [3, 7]


@pytest.mark.parametrize("master,count", [("bench-swarm", 130),
                                          ("nightly-sweep", 200),
                                          ("ci-smoke", 25)])
def test_every_axis_candidate_changes_the_deployment(master, count):
    """A kept reduction that runs the same deployment would write a
    scenario into the capsule that is not the run it reproduced."""
    for scenario in generate_matrix(master, count):
        original = deployment(scenario)
        for overrides in _axis_candidates(scenario):
            assert deployment(_clone(scenario, **overrides)) != original, \
                f"{scenario.describe()}: {overrides} changes nothing"
