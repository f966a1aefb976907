"""Harness for running nbench vanilla vs under sMVX (Figure 6).

Mirrors the paper's procedure: each workload's main logic is enclosed in
``mvx_start``/``mvx_end``, three separate runs are taken for each
configuration, and mean execution (virtual wall) times are compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.apps.nbench.workloads import (
    NBENCH_WORKLOADS,
    build_nbench_image,
    provision_nbench_files,
)
from repro.core import (
    AlarmLog,
    SmvxMonitor,
    attach_smvx,
    build_smvx_stub_image,
)
from repro.kernel import Kernel
from repro.libc import build_libc_image
from repro.loader.loader import LoadedImage
from repro.machine.costs import DEFAULT_COSTS, CostModel
from repro.process import GuestProcess
from repro.process.context import to_signed


def boot_nbench(kernel: Kernel, protect: Optional[str] = None,
                smvx: bool = False, costs: CostModel = DEFAULT_COSTS,
                **smvx_kwargs
                ) -> Tuple[GuestProcess, LoadedImage, Optional[SmvxMonitor]]:
    """Boot nbench on ``kernel``: provision its files, load libc, libsmvx
    and the nbench image into a 128-page-heap process, set the app
    config to protect ``protect``, and attach the sMVX monitor (given
    ``smvx_kwargs``) when ``smvx``.  Returns the process, the nbench
    image and the monitor (None without ``smvx``)."""
    provision_nbench_files(kernel.vfs)
    process = GuestProcess(kernel, "nbench", heap_pages=128, costs=costs)
    process.load_image(build_libc_image(), tag="libc")
    process.load_image(build_smvx_stub_image(), tag="libsmvx")
    target = process.load_image(build_nbench_image(), main=True)
    process.app_config = {"protect": protect}
    monitor = attach_smvx(process, target, **smvx_kwargs) if smvx else None
    return process, target, monitor


@dataclass
class NbenchResult:
    name: str
    vanilla_ns: float
    smvx_ns: float
    checksum_vanilla: int
    checksum_smvx: int

    @property
    def overhead(self) -> float:
        """Normalized slowdown: 0.07 == 7% (the Figure 6 y-axis)."""
        if self.vanilla_ns == 0:
            return 0.0
        return self.smvx_ns / self.vanilla_ns - 1.0

    @property
    def consistent(self) -> bool:
        return self.checksum_vanilla == self.checksum_smvx


class NbenchHarness:
    """Runs the suite in both configurations on fresh machines."""

    def __init__(self, runs: int = 3, costs: CostModel = DEFAULT_COSTS,
                 variant_strategy: str = "shift", fault_schedule=None):
        self.runs = runs
        self.costs = costs
        self.variant_strategy = variant_strategy
        #: optional :class:`repro.kernel.faults.FaultSchedule` armed on
        #: every fresh machine (the adversarial-battery conformance runs).
        self.fault_schedule = fault_schedule

    def _run_once(self, index: int, smvx: bool) -> "tuple[float, int]":
        kernel = Kernel()
        if self.fault_schedule is not None:
            kernel.faults.install(self.fault_schedule)
        spec = NBENCH_WORKLOADS[index]
        alarms = AlarmLog()
        process, _target, _monitor = boot_nbench(
            kernel, protect=spec.func if smvx else None, smvx=smvx,
            costs=self.costs, alarm_log=alarms,
            variant_strategy=self.variant_strategy)
        before = process.counter.total_ns
        checksum = to_signed(process.call_function("nb_main", index))
        elapsed = process.counter.total_ns - before
        if smvx and alarms.triggered:
            raise AssertionError(
                f"unexpected divergence in {spec.name}: {alarms.alarms}")
        return elapsed, checksum

    def run_workload(self, index: int) -> NbenchResult:
        spec = NBENCH_WORKLOADS[index]
        vanilla = [self._run_once(index, smvx=False)
                   for _ in range(self.runs)]
        protected = [self._run_once(index, smvx=True)
                     for _ in range(self.runs)]
        return NbenchResult(
            name=spec.name,
            vanilla_ns=sum(t for t, _ in vanilla) / self.runs,
            smvx_ns=sum(t for t, _ in protected) / self.runs,
            checksum_vanilla=vanilla[0][1],
            checksum_smvx=protected[0][1],
        )

    def run_suite(self) -> List[NbenchResult]:
        return [self.run_workload(i) for i in range(len(NBENCH_WORKLOADS))]
