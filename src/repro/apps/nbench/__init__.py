"""nbench / BYTEmark (Figure 6).

Ten single-threaded workloads with the original suite's character:
integer/FP/memory-system heavy, minimal I/O — except Neural Net, which
loads its model from a file (the paper attributes its ~16% overhead, the
suite's highest, to exactly that I/O).

Each workload's "main logic" is enclosed in ``mvx_start``/``mvx_end``
when run under sMVX, matching §4.1.
"""

from repro.apps.nbench.workloads import (
    NBENCH_WORKLOADS,
    WorkloadSpec,
    build_nbench_image,
    provision_nbench_files,
)
from repro.apps.nbench.harness import NbenchHarness, NbenchResult, boot_nbench

__all__ = [
    "NBENCH_WORKLOADS",
    "NbenchHarness",
    "NbenchResult",
    "WorkloadSpec",
    "boot_nbench",
    "build_nbench_image",
    "provision_nbench_files",
]
