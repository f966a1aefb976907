"""One deployment spec and one builder.

A run is a pure function of its seed and its deployment: the server
and its options, on one host or as a leader/mirror pair on a two-host
cluster; the host- and link-plane fault schedules; the control plane;
the workload; the attack; the clock skew.  :class:`Deployment` holds all
of it, and :func:`build` turns it into a :class:`Run` the same way for
the recorder, replay, the cluster scenarios and ``repro.sim``, which add
only what is their own (replay's recorded ``/dev/urandom`` stream, the
sim's mutation and wire taps).  Every run takes the same steps::

    run = build(spec)     # kernel or cluster, servers, faults, recorders
    run.start()           # the server, the clock skew, the control plane
    run.drive()           # the workload, then the attack
    run.finish()          # drain the wire, close the recorders, tear down
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps import LittledServer, MinxServer
from repro.kernel.faults import FaultSchedule
from repro.kernel.kernel import Kernel

SERVERS = {"minx": MinxServer, "littled": LittledServer}

#: ApacheBench options a workload may set; the rest keep their defaults.
_BENCH_KEYS = ("path", "keepalive", "max_stalls", "timeout_ns", "pipeline",
               "connect_retries", "client_mode", "chunk_bytes",
               "partial_preludes")


@dataclass
class Deployment:
    """Everything a run is a pure function of (plain data)."""

    app: str = "minx"                        # a key of SERVERS
    seed: str = "smvx-repro"
    #: server options; a cluster's leader runs them with ``smvx=False``
    #: and its mirror with ``smvx=True``
    kwargs: Dict = field(default_factory=dict)
    faults: Optional[FaultSchedule] = None   # the (leader's) host plane
    link_faults: Optional[FaultSchedule] = None
    control: Optional[Dict] = None           # see Run.arm_control_plane
    workload: Optional[Dict] = None          # see drive_workload
    attack: str = "none"                     # "none" | "cve"
    clock_skew_ns: int = 0
    #: a two-host cluster: leader on host 0, mirror on host 1
    cluster: bool = False
    latency_ns: float = 100_000
    sensitive: Optional[Sequence[str]] = None

    def to_dict(self) -> Dict:
        """The ``meta["scenario"]`` of this deployment's traces.  A
        cluster's names the deployment only: ``replay_cluster`` re-drives
        its traffic from the seeds."""
        if self.cluster:
            return {"app": f"{self.app}-cluster", "seed": self.seed,
                    "latency_ns": self.latency_ns, **self.kwargs,
                    "fault_schedule": (self.link_faults.to_dict()
                                       if self.link_faults else None)}
        out = {"app": self.app, "seed": self.seed,
               "kwargs": dict(self.kwargs)}
        for key, value in (("workload", self.workload),
                           ("control", self.control)):
            if value is not None:
                out[key] = dict(value)
        if self.faults is not None:
            out["faults"] = self.faults.to_dict()
        return out

    @staticmethod
    def from_dict(raw: Dict) -> "Deployment":
        """Rebuild a single-host deployment from its dict form."""
        faults = raw.get("faults")
        return Deployment(
            app=raw.get("app", "minx"), seed=raw.get("seed", "smvx-repro"),
            kwargs=dict(raw.get("kwargs", {})),
            faults=FaultSchedule.from_dict(faults) if faults else None,
            control=raw.get("control"), workload=raw.get("workload"))


def drive_workload(kernel, server, workload: Dict):
    """Run a workload's ApacheBench against a (scheduled or classic)
    server and return its result.  Record and replay drive the same dict
    the same way, so a scheduled run is replayed *by reproduction*: the
    same client tasks re-derive the same interleaving."""
    from repro.workloads.ab import ApacheBench

    bench = ApacheBench(kernel, server, **{
        key: workload[key] for key in _BENCH_KEYS if key in workload})
    return bench.run(workload.get("requests", 8),
                     paths=workload.get("paths"),
                     concurrency=workload.get("concurrency", 1))


class Run:
    """A built deployment.  ``leader`` is the server clients talk to (the
    only one, on a single host) and ``kernel`` its host's; ``result`` and
    ``exploit`` hold what :meth:`drive` got back."""

    def __init__(self, spec: Deployment):
        self.spec = spec
        self.kernel = self.leader = self.cluster = self.mirror = None
        self.dsmvx = self.supervisor = self.result = self.exploit = None
        self.recorders: List = []
        self._down = False

    def start(self) -> "Run":
        """Start the server, skewing the clocks (a mirror host boots
        ahead of its leader, a scheduled server's cores out of phase) and
        arming the control plane."""
        skew = self.spec.clock_skew_ns
        if self.cluster is not None:
            if skew:
                clock = self.cluster.host(1).clock
                clock.advance_to(clock.monotonic_ns + skew)
            self.leader.start()
            return self
        self.leader.start()
        sched = self.kernel.sched
        if skew and sched is not None:
            sched.apply_clock_skew([i * skew
                                    for i in range(len(sched.cores))])
        self.arm_control_plane()
        return self

    def arm_control_plane(self) -> None:
        """A supervisor (unless ``supervise`` is false) and chaos worker
        kills, re-derived identically on the record and replay sides.
        Each instant is absolute (``at_ns``) or counts from the arming
        (``after_ns``): ``{"restart_budget": 2, "tick_ns": 1e6,
        "restart_on_alarm": False, "reload_at_ns": t, "worker_kills":
        [{"slot": s, "at_ns": t}, ...]}``."""
        control = self.spec.control
        if not control:
            return
        from repro.apps.control import Supervisor, spawn_worker_kill

        now = self.kernel.clock.monotonic_ns

        def instant(entry: Dict, prefix: str = "") -> Optional[float]:
            if f"{prefix}after_ns" in entry:
                return now + entry[f"{prefix}after_ns"]
            return entry.get(f"{prefix}at_ns")

        if control.get("supervise", True):
            supervisor = Supervisor(
                self.leader,
                restart_budget=control.get("restart_budget", 2),
                tick_ns=control.get("tick_ns", 1_000_000),
                restart_on_alarm=control.get("restart_on_alarm", False),
                reload_at_ns=instant(control, "reload_"))
            for recorder in self.recorders:
                recorder.attach_supervisor(supervisor)
            self.supervisor = supervisor.start()
        for kill in control.get("worker_kills") or []:
            spawn_worker_kill(self.leader, kill["slot"], instant(kill))

    def drive(self) -> "Run":
        """Drive the workload, then fire the attack."""
        if self.spec.workload is not None:
            self.result = drive_workload(self.kernel, self.leader,
                                         self.spec.workload)
        if self.spec.attack == "cve":
            from repro.attacks import run_exploit
            self.exploit = run_exploit(self.leader)
        return self

    def finish(self) -> List:
        """Drain in-flight frames, close every recorder and tear down;
        returns the traces."""
        if self.dsmvx is not None:
            self.dsmvx.settle()
        traces = [recorder.finish() for recorder in self.recorders]
        self.shutdown()
        return traces

    def shutdown(self) -> None:
        """Stop a scheduled server's tasks (its supervisor and chaos
        kills too) and drain the wire; a second call does nothing."""
        if self._down:
            return
        self._down = True
        if isinstance(self.leader, LittledServer):
            self.leader.shutdown()
        if self.dsmvx is not None:
            self.dsmvx.settle()


def build(spec: Deployment, record: Optional[Dict] = None) -> Run:
    """Build ``spec``'s kernel or cluster, servers and fault planes, and
    one flight recorder per host when ``record`` (the
    :class:`~repro.trace.record.Recorder` options) is given."""
    if spec.app not in SERVERS:
        raise ValueError(f"cannot build unknown app {spec.app!r}")
    run, server_class = Run(spec), SERVERS[spec.app]
    if spec.cluster:
        from repro.cluster.host import Cluster
        from repro.cluster.remote import DistributedSmvx

        run.cluster = Cluster(seed=spec.seed, hosts=2,
                              latency_ns=spec.latency_ns)
        run.kernel = run.cluster.host(0).kernel
        run.leader = server_class(run.kernel,
                                  **dict(spec.kwargs, smvx=False))
        run.mirror = server_class(run.cluster.host(1).kernel,
                                  **dict(spec.kwargs, smvx=True))
        run.dsmvx = DistributedSmvx(run.cluster, run.leader, run.mirror,
                                    sensitive=spec.sensitive)
        _attach_recorders(run, record, (run.leader, run.mirror))
        if spec.link_faults is not None:
            run.cluster.install_link_faults(spec.link_faults)
        if spec.faults is not None:
            run.kernel.faults.install(spec.faults)
        return run
    run.kernel = Kernel(seed=spec.seed)
    run.leader = server_class(run.kernel, **spec.kwargs)
    if spec.faults is not None:
        # armed after set-up, so the server's boot is never faulted
        run.kernel.faults.install(spec.faults)
    _attach_recorders(run, record, (run.leader,))
    return run


def _attach_recorders(run: Run, record: Optional[Dict], servers) -> None:
    if record is None:
        return
    from repro.trace.record import Recorder

    scenario = run.spec.to_dict()
    for host_id, server in enumerate(servers):
        recorder = Recorder(server.kernel, scenario=(
            dict(scenario, host=host_id) if run.cluster else scenario),
            **record)
        recorder.attach_server(server)
        run.recorders.append(recorder)
