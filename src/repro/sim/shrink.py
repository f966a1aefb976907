"""Automatic shrinking: from a failing scenario to a minimal capsule.

The shrinker exploits the determinism contract end to end — every
candidate is judged by *re-running it from scratch* and comparing its
failure signature (outcome class + first alarm kind/site + exception
class + whether the attack payload landed) against the original.  A
reduction is kept only if the re-run reproduces the signature, so the
minimized scenario is guaranteed to fail the same way, not merely to
fail.

Three passes, largest hammer first:

1. **Axis ablation** — each scenario axis is reduced toward its neutral
   value in a fixed order (requests → 1, concurrency → 1, client mode →
   normal, preludes/skew/kill/attack off, variant strategy → shift,
   workers → 2, schedule → None), repeated to a fixpoint.  Fixed order
   + deterministic re-runs ⇒ the same failing scenario always shrinks
   to the same minimum.
2. **Plan conversion** — if a fault schedule survived, the failing
   run's ``injected_events`` (every injection with its per-site
   opportunity index) are converted into an explicit
   ``FaultSchedule(plan=[...])`` that replays exactly those events.
   Opportunity counters advance identically in both modes, so the plan
   run is the probabilistic run, re-expressed.
3. **ddmin over the plan** — classic delta-debugging minimization of
   the plan's event list: only events the failure actually needs
   survive.  (Link-fault events carry their link name, so cluster
   scenarios bisect across host and link planes in one list.)

The result is a :class:`repro.trace.capsule.ScenarioCapsule` whose
``replay()`` re-derives the minimized run and must reproduce the same
class with bit-identical digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.kernel.faults import FaultSchedule
from repro.sim.runner import ScenarioOutcome, run_scenario
from repro.sim.scenario import OK_CLASSES, Scenario
from repro.trace.capsule import ScenarioCapsule

#: axis-ablation passes before the shrinker settles for what it has
MAX_ROUNDS = 3


def signature_of(outcome: ScenarioOutcome) -> Dict:
    """The identity of a failure: what any reduction must preserve."""
    raw = outcome.raw
    first_alarm = raw.alarms[0] if raw.alarms else None
    return {
        "class": outcome.klass,
        "alarm_kind": first_alarm["kind"] if first_alarm else None,
        "alarm_libc": first_alarm["libc_name"] if first_alarm else None,
        "error_kind": raw.error_kind,
        "payload_landed": bool(raw.attack
                               and raw.attack["directory_created"]),
    }


@dataclass
class ShrinkResult:
    original: Scenario
    minimized: Scenario
    signature: Dict
    outcome: ScenarioOutcome          # final run of the minimized form
    steps: List[Dict] = field(default_factory=list)
    runs: int = 0

    def capsule(self, meta: Optional[Dict] = None) -> ScenarioCapsule:
        return ScenarioCapsule(
            scenario=self.minimized.to_dict(),
            original=self.original.to_dict(),
            signature=self.signature,
            digest=self.outcome.digest,
            digests=self.outcome.digests,
            shrink_steps=self.steps,
            meta=dict(meta or {}, runs=self.runs))


def _clone(scenario: Scenario, **overrides) -> Scenario:
    raw = scenario.to_dict()
    raw.update(overrides)
    return Scenario.from_dict(raw)


def _axis_candidates(scenario: Scenario) -> List[Dict]:
    """Reductions to try against ``scenario``, in fixed order.  Each is
    a dict of field overrides; only changes are listed."""
    out: List[Dict] = []
    if scenario.requests > 1:
        out.append({"requests": 1})
        if scenario.requests > 3:
            out.append({"requests": scenario.requests // 2})
    if scenario.concurrency > 1:
        out.append({"concurrency": 1})
    if scenario.partial_preludes:
        out.append({"partial_preludes": 0})
    if scenario.client_mode != "normal":
        out.append({"client_mode": "normal"})
    if scenario.clock_skew_ns:
        out.append({"clock_skew_ns": 0})
    if scenario.worker_kill:
        out.append({"worker_kill": False})
    if scenario.attack != "none":
        out.append({"attack": "none"})
    if scenario.variant_strategy != "shift":
        out.append({"variant_strategy": "shift"})
    if scenario.workers > 2:
        out.append({"workers": 2})
    if scenario.smvx and scenario.attack == "none" \
            and scenario.workload != "cluster":
        # a cluster always runs protected minx (runner.deployment)
        out.append({"smvx": False, "protect": None})
    if scenario.schedule is not None:
        out.append({"schedule": None})
    return out


def _ddmin(items: List, test: Callable[[List], bool]) -> List:
    """Zeller's ddmin: the smallest sublist (under chunk removal) for
    which ``test`` still holds.  ``test(items)`` must already hold."""
    n = 2
    while len(items) >= 2:
        chunk_len = max(1, len(items) // n)
        reduced = False
        for start in range(0, len(items), chunk_len):
            candidate = items[:start] + items[start + chunk_len:]
            if candidate and test(candidate):
                items = candidate
                n = max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if chunk_len == 1:
                break
            n = min(len(items), n * 2)
    if len(items) == 1 and not test(items):
        # degenerate guard: never return a non-failing singleton
        return items
    return items


def shrink(scenario: Scenario,
           log: Optional[Callable[[str], None]] = None) -> ShrinkResult:
    """Minimize ``scenario`` (which must fail) to a reproducing capsule.

    Raises ``ValueError`` if the scenario does not fail to begin with.
    """
    say = log or (lambda message: None)
    state = {"runs": 0}
    steps: List[Dict] = []

    def run(candidate: Scenario) -> ScenarioOutcome:
        state["runs"] += 1
        return run_scenario(candidate)

    baseline = run(scenario)
    if baseline.klass in OK_CLASSES:
        raise ValueError(
            f"scenario {scenario.index} does not fail "
            f"(classified {baseline.klass}); nothing to shrink")
    signature = signature_of(baseline)
    say(f"shrinking {scenario.describe()} — signature {signature}")

    current, outcome = scenario, baseline
    if current.recheck and signature["class"] != "divergence":
        # the recheck axis doubles every probe; drop it first unless the
        # failure *is* the recheck
        candidate = _clone(current, recheck=False)
        trial = run(candidate)
        if signature_of(trial) == signature:
            current, outcome = candidate, trial
            steps.append({"step": "recheck=False", "kept": True})

    # pass 1: axis ablation to a fixpoint
    for _ in range(MAX_ROUNDS):
        any_kept = False
        for overrides in _axis_candidates(current):
            label = ",".join(f"{k}={v!r}" for k, v in overrides.items())
            candidate = _clone(current, **overrides)
            trial = run(candidate)
            kept = signature_of(trial) == signature
            steps.append({"step": label, "kept": kept})
            if kept:
                say(f"  kept {label}")
                current, outcome = candidate, trial
                any_kept = True
        if not any_kept:
            break

    # pass 2: probabilistic schedule -> explicit plan
    schedule = current.schedule_obj()
    if schedule is not None and schedule.plan is None \
            and outcome.raw.fault_events:
        plan = FaultSchedule.plan_from_events(
            outcome.raw.fault_events, name=f"{schedule.name}-plan",
            backlog_cap=schedule.backlog_cap)
        candidate = _clone(current, schedule=plan.to_dict())
        trial = run(candidate)
        kept = signature_of(trial) == signature
        steps.append({"step": f"plan({len(plan.plan)} events)",
                      "kept": kept})
        if kept:
            say(f"  converted to explicit plan "
                f"({len(plan.plan)} events)")
            current, outcome = candidate, trial

    # pass 3: ddmin the plan's event list
    schedule = current.schedule_obj()
    if schedule is not None and schedule.plan:
        def still_fails(events: List[Dict]) -> bool:
            sub = FaultSchedule(name=schedule.name,
                                backlog_cap=schedule.backlog_cap,
                                plan=list(events))
            trial = run(_clone(current, schedule=sub.to_dict()))
            return signature_of(trial) == signature

        before = len(schedule.plan)
        minimal = _ddmin(list(schedule.plan), still_fails)
        if len(minimal) < before:
            sub = FaultSchedule(name=schedule.name,
                                backlog_cap=schedule.backlog_cap,
                                plan=minimal)
            current = _clone(current, schedule=sub.to_dict())
            outcome = run(current)
            steps.append({"step": f"ddmin {before}->{len(minimal)}",
                          "kept": True})
            say(f"  ddmin: {before} -> {len(minimal)} fault event(s)")

    say(f"minimized to: {current.describe()} "
        f"({state['runs']} probe runs)")
    return ShrinkResult(original=scenario, minimized=current,
                        signature=signature, outcome=outcome,
                        steps=steps, runs=state["runs"])
