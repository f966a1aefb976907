"""Scenario matrix generation for deterministic simulation testing.

One *master seed* derives an arbitrarily long matrix of scenarios, each
a point in the space (workload × fault schedule × variant strategy ×
worker count × concurrency × client behaviour × attack × worker kill ×
clock skew).  Generation uses the same SHA-256 counter-stream idiom as
the fault plane (`repro.kernel.faults.FaultPlane._draw`), keyed by
``(master_seed, scenario index)``: the matrix is a pure function of the
master seed, so two swarms from the same seed sample the *same* points
and every scenario can be re-derived from ``(master_seed, index)``
alone — the precondition for deterministic shrinking.

Axis constraints are encoded here, not in the runner:

* attacks only run against a protected sMVX deployment (the oracle's
  "expected alarm" needs a monitor to raise it);
* the benign chunked-upload axis requires whole-delivery schedules
  (no segmentation, no short reads, no spurious EAGAIN): the guest's
  discard loop treats any empty read as end-of-body, so those faults
  would leave body bytes on the socket and poison the next keep-alive
  request — a guest fidelity limit, not a sim bug;
* worker kills need a scheduled multi-worker littled with a spare
  worker to absorb the load;
* chunked uploads target minx (littled has no chunked parser).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.kernel.faults import FaultSchedule, battery

WORKLOADS = ("minx", "littled", "cluster")
CLASSES = ("clean", "expected-alarm", "unexpected-alarm", "divergence",
           "conformance-failure", "crash")
#: outcome classes a healthy swarm is allowed to produce.
OK_CLASSES = frozenset(("clean", "expected-alarm"))

MINX_PROTECT = "minx_http_process_request_line"
LITTLED_PROTECT = "server_main_loop"

#: known code mutations for validating the bug-finding pipeline
#: ("zero-read" forges EOF on every second short-read clamp — exactly
#: the bug class the fault plane's never-below-1-byte rule exists to
#: avoid).  "none" is the production setting.
MUTATIONS = ("none", "zero-read")


class SeedStream:
    """Deterministic uniform draws keyed by (master seed, index)."""

    def __init__(self, master_seed: str, index: "int | str"):
        self._key = f"{master_seed}|sim|{index}".encode()
        self._counter = 0

    def draw(self) -> float:
        block = hashlib.sha256(
            self._key + b"|" + self._counter.to_bytes(8, "little")
        ).digest()
        self._counter += 1
        return int.from_bytes(block[:8], "little") / float(1 << 64)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi]."""
        return lo + int(self.draw() * (hi - lo + 1))

    def choice(self, options: Sequence):
        return options[int(self.draw() * len(options))]

    def chance(self, p: float) -> bool:
        return self.draw() < p


def schedule_palette() -> List[FaultSchedule]:
    """The schedules a scenario may install: the standard battery plus
    sim-only entries for axes the battery never armed (spurious wakes,
    tight backlogs)."""
    return battery() + [
        FaultSchedule(name="spurious-wakes", spurious_wake_p=0.3),
        FaultSchedule(name="wakes-and-eintr", spurious_wake_p=0.15,
                      eintr_p=0.15),
        FaultSchedule(name="tight-backlog", backlog_cap=3,
                      eintr_p=0.05),
    ]


def _chunked_safe(schedule: Optional[FaultSchedule]) -> bool:
    if schedule is None:
        return True
    return (not schedule.segment_bytes and not schedule.short_read_p
            and not schedule.eagain_p)


@dataclass
class Scenario:
    """One fully-specified simulation run (plain data, serializable)."""

    index: int
    master_seed: str
    workload: str = "minx"
    protect: Optional[str] = MINX_PROTECT
    smvx: bool = True
    variant_strategy: str = "shift"
    workers: int = 0                 # littled only; 0 = classic pump
    concurrency: int = 1
    requests: int = 3
    #: FaultSchedule spec dict, or None for the happy path.
    schedule: Optional[Dict] = None
    client_mode: str = "normal"
    partial_preludes: int = 0
    chunk_bytes: int = 256
    attack: str = "none"             # "none" | "cve"
    worker_kill: bool = False
    #: run under the production control plane (supervisor restarts
    #: crashed workers); littled multi-worker only.
    supervise: bool = False
    #: schedule a graceful reload mid-run (requires ``supervise``).
    reload: bool = False
    clock_skew_ns: int = 0
    #: run the scenario twice and require bit-identical digests.
    recheck: bool = False
    #: injected known-bug mutation (validation of the pipeline itself).
    mutation: str = "none"

    @property
    def seed(self) -> str:
        """The kernel/cluster seed this scenario runs under."""
        return f"{self.master_seed}/sc{self.index}"

    def schedule_obj(self) -> Optional[FaultSchedule]:
        if self.schedule is None:
            return None
        return FaultSchedule.from_dict(self.schedule)

    def to_dict(self) -> Dict:
        return asdict(self)

    @staticmethod
    def from_dict(raw: Dict) -> "Scenario":
        known = Scenario.__dataclass_fields__
        unknown = [key for key in raw if key not in known]
        if unknown:
            raise ValueError(
                f"unknown scenario field(s) {', '.join(sorted(unknown))}")
        scenario = Scenario(**raw)
        if scenario.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {scenario.workload!r}")
        if scenario.mutation not in MUTATIONS:
            raise ValueError(f"unknown mutation {scenario.mutation!r}")
        scenario.schedule_obj()      # validates the embedded schedule
        return scenario

    def describe(self) -> str:
        bits = [self.workload,
                self.schedule["name"] if self.schedule else "no-faults",
                f"c{self.concurrency}", f"n{self.requests}"]
        if self.workers:
            bits.append(f"w{self.workers}")
        if self.smvx:
            bits.append(self.variant_strategy)
        if self.client_mode != "normal":
            bits.append(self.client_mode)
        if self.partial_preludes:
            bits.append(f"partial×{self.partial_preludes}")
        if self.attack != "none":
            bits.append(self.attack)
        if self.worker_kill:
            bits.append("kill")
        if self.supervise:
            bits.append("supervised")
        if self.reload:
            bits.append("reload")
        if self.clock_skew_ns:
            bits.append(f"skew{self.clock_skew_ns}")
        if self.recheck:
            bits.append("recheck")
        if self.mutation != "none":
            bits.append(f"mut:{self.mutation}")
        return " ".join(bits)


def generate_scenario(master_seed: str, index: int) -> Scenario:
    """Derive scenario ``index`` of ``master_seed``'s matrix."""
    stream = SeedStream(master_seed, index)
    workload = stream.choice(WORKLOADS)
    palette: List[Optional[FaultSchedule]] = [None] + schedule_palette()
    schedule = stream.choice(palette)

    scenario = Scenario(index=index, master_seed=master_seed,
                        workload=workload,
                        schedule=schedule.to_dict() if schedule else None)
    scenario.requests = stream.randint(2, 6)
    scenario.concurrency = stream.randint(1, 3)
    scenario.variant_strategy = stream.choice(("shift", "aligned"))

    if workload == "cluster":
        # the distributed deployment is always protected (leader plain,
        # mirror sMVX — that is the deployment under test) and its
        # mirror shifts: aligned mirrors wait until aligned follower
        # creation is cheap.  The strategy draw above still happens, so
        # no other axis moves.
        scenario.smvx = True
        scenario.protect = MINX_PROTECT
        scenario.variant_strategy = "shift"
    elif workload == "littled":
        scenario.workers = stream.randint(2, 3)
        scenario.smvx = stream.chance(0.7)
        scenario.protect = LITTLED_PROTECT if scenario.smvx else None
    else:
        scenario.smvx = stream.chance(0.7)
        scenario.protect = MINX_PROTECT if scenario.smvx else None

    modes = ["normal", "normal", "slowloris"]
    if workload != "littled" and _chunked_safe(schedule):
        modes.append("chunked")
    scenario.client_mode = stream.choice(modes)
    if scenario.client_mode == "chunked":
        scenario.chunk_bytes = stream.randint(32, 1024)
    if stream.chance(0.25):
        scenario.partial_preludes = stream.randint(1, 2)
    if schedule is not None and schedule.backlog_cap is not None:
        # a capped backlog refuses legitimate connects when the accept
        # queue saturates; keep offered load under the cap so refusals
        # stay a fault-plane behaviour, not an oracle false positive
        scenario.concurrency = min(scenario.concurrency,
                                   schedule.backlog_cap - 1)
        scenario.partial_preludes = 0

    if workload in ("minx", "cluster") and scenario.smvx \
            and stream.chance(0.3):
        scenario.attack = "cve"
    if workload == "littled" and scenario.workers >= 2 \
            and stream.chance(0.2):
        scenario.worker_kill = True
    if stream.chance(0.25) and workload != "minx":
        # classic minx has no scheduler or peer host to skew
        scenario.clock_skew_ns = stream.randint(50_000, 500_000)
    scenario.recheck = stream.chance(0.25)
    if workload == "littled" and scenario.workers >= 2:
        # production control plane: a supervisor watches the fleet (and
        # restarts a killed worker); half the supervised runs also take
        # a graceful reload mid-load
        scenario.supervise = stream.chance(0.35)
        scenario.reload = scenario.supervise and stream.chance(0.5)
    return scenario


def generate_matrix(master_seed: str, count: int,
                    start: int = 0) -> List[Scenario]:
    """The first ``count`` scenarios of the matrix (from ``start``)."""
    return [generate_scenario(master_seed, index)
            for index in range(start, start + count)]
