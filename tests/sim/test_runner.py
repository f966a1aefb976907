"""Per-scenario determinism: a scenario is a pure function of its dict.

For each workload family we run the same scenario twice and require the
*entire* digest bundle — fault stream, scheduler decisions, wire events,
response bytes, clock — to come back bit-identical; a different master
seed must change it.  This is the contract the shrinker and capsule
replay rely on.
"""

import pytest

from repro.deploy import build
from repro.sim import OK_CLASSES, generate_matrix
from repro.sim.runner import combined_digest, deployment, run_scenario
from repro.sim.scenario import Scenario

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _first(matrix, predicate):
    for scenario in matrix:
        if predicate(scenario):
            return scenario
    raise AssertionError("matrix slice lacks the wanted scenario shape")


@pytest.fixture(scope="module")
def matrix():
    return generate_matrix("digest-stability", 60)


@pytest.mark.parametrize("workload", ["minx", "littled", "cluster"])
def test_same_scenario_bit_identical_digests(matrix, workload):
    scenario = _first(matrix, lambda s: s.workload == workload
                      and s.schedule is not None and not s.recheck)
    first = run_scenario(scenario)
    second = run_scenario(Scenario.from_dict(scenario.to_dict()))
    assert first.klass == second.klass
    assert first.digests == second.digests
    assert first.digest == second.digest
    # the bundle carries the per-plane digests, not just the fold
    assert "fault" in first.digests
    assert "responses" in first.digests


def test_cluster_digests_include_wire_and_links(matrix):
    scenario = _first(matrix, lambda s: s.workload == "cluster"
                      and not s.recheck)
    outcome = run_scenario(scenario)
    assert "wire" in outcome.digests
    assert any(key.startswith("link") for key in outcome.digests)


def test_cluster_scenarios_run_the_mirror_they_name():
    """A cluster scenario's variant-strategy label is what its mirror
    runs, and cluster mirrors shift until aligned follower creation is
    cheap."""
    clusters = [s for s in generate_matrix("bench-swarm", 40)
                if s.workload == "cluster"]
    assert clusters
    for scenario in clusters:
        run = build(deployment(scenario))
        assert run.mirror.monitor.variant_strategy \
            == scenario.variant_strategy == "shift", scenario.describe()


def test_littled_digests_include_scheduler(matrix):
    scenario = _first(matrix, lambda s: s.workload == "littled"
                      and not s.recheck)
    outcome = run_scenario(scenario)
    assert "sched" in outcome.digests
    assert outcome.digests["sched_decisions"] > 0


def test_different_master_seed_different_digest(matrix):
    scenario = _first(matrix, lambda s: s.workload == "littled"
                      and not s.recheck)
    other = scenario.to_dict()
    other["master_seed"] = "digest-stability-b"
    a = run_scenario(scenario)
    b = run_scenario(Scenario.from_dict(other))
    assert a.digest != b.digest


def test_recheck_passes_on_healthy_scenario(matrix):
    scenario = _first(matrix, lambda s: s.recheck
                      and s.workload != "cluster")
    outcome = run_scenario(scenario)
    assert outcome.klass in OK_CLASSES     # not "divergence"


def test_crash_classification_is_contained():
    scenario = Scenario(index=0, master_seed="crash-test",
                        workload="minx", smvx=True,
                        variant_strategy="bogus")
    # an unknown variant strategy blows up inside the MVX engine; the
    # runner must classify, not raise
    outcome = run_scenario(scenario)
    assert outcome.klass == "crash"
    assert outcome.raw.error_kind == "MvxSetupError"


def test_worker_kill_scenario_survives(matrix):
    scenario = _first(matrix, lambda s: s.worker_kill and not s.recheck)
    outcome = run_scenario(scenario)
    assert outcome.klass in OK_CLASSES
    assert outcome.raw.completed >= 1


def test_combined_digest_is_order_insensitive():
    a = combined_digest({"x": 1, "y": "z"})
    b = combined_digest({"y": "z", "x": 1})
    assert a == b
    assert a != combined_digest({"x": 2, "y": "z"})


def test_zero_read_mutation_changes_outcome():
    matrix = generate_matrix("mut-ci", 40)
    flipped = 0
    for scenario in matrix:
        if scenario.schedule is None \
                or not scenario.schedule.get("short_read_p"):
            continue
        healthy = run_scenario(scenario)
        mutated = Scenario.from_dict(
            dict(scenario.to_dict(), mutation="zero-read"))
        sick = run_scenario(mutated)
        if sick.klass not in OK_CLASSES:
            assert healthy.klass in OK_CLASSES
            flipped += 1
    assert flipped >= 1
