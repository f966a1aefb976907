"""Differential interpreter tests: the fast path (decoded-page cache +
TLB + batched charging) and the forced precise path must agree
bit-for-bit on every observable — register state, virtual-cycle totals,
instructions retired, libc call counts, alarm PCs, and full record/replay
traces — across the real workloads: the protected minx server under
traffic, the CVE-2013-2028 exploit, and nbench.

The only footer field allowed to differ across tiers is ``cpu_tiers``
(the per-tier execution-count split — that it differs is the point);
within one tier it is part of the replay-pinned ground truth.
"""

import pytest

from repro.apps.minx import MinxServer
from repro.apps.nbench.harness import NbenchHarness
from repro.attacks import run_exploit
from repro.kernel import Kernel
from repro.machine.cpu import CPU
from repro.trace import Recorder
from repro.workloads import ApacheBench

PROTECT = "minx_http_process_request_line"
SEED = "fast-slow-diff"
TIERS = ("precise", "fast")


@pytest.fixture(params=list(TIERS))
def path(request, monkeypatch):
    if request.param == "precise":
        monkeypatch.setattr(CPU, "force_slow_path", True)
    return request.param


def _minx_cve_run():
    """Protected minx + ab traffic + the CVE exploit; every observable
    end state (mirrors the determinism audit)."""
    kernel = Kernel(seed=SEED)
    server = MinxServer(kernel, protect=PROTECT, smvx=True)
    server.start()
    ab = ApacheBench(kernel, server).run(3)
    outcome = run_exploit(server)
    return {
        "status_counts": ab.status_counts,
        "counter_total_ns": server.process.counter.total_ns,
        "total_cpu_ns": server.process.total_cpu_ns(),
        "instructions_retired": server.process.cpu.instructions_retired,
        "libc_call_counts": dict(server.process.libc_call_counts),
        "clock_end_ns": kernel.clock.monotonic_ns,
        "detected": outcome.divergence_detected,
        "alarms": [(r.kind.name, r.seq, r.libc_name, r.task_id, r.guest_pc)
                   for r in server.alarms.alarms],
        "registers": server.process.main_thread().state.regs.snapshot(),
    }


_RESULTS = {}


def test_minx_cve_identical_under_all_tiers(path):
    _RESULTS[path] = _minx_cve_run()
    if len(_RESULTS) == len(TIERS):
        for tier in TIERS:
            assert _RESULTS[tier] == _RESULTS["precise"], tier
        assert _RESULTS["precise"]["detected"]


_NBENCH = {}


def test_nbench_workload_identical_under_all_tiers(path):
    result = NbenchHarness(runs=1).run_workload(0)
    _NBENCH[path] = (result.vanilla_ns, result.smvx_ns,
                     result.checksum_vanilla, result.checksum_smvx)
    assert result.consistent
    if len(_NBENCH) == len(TIERS):
        for tier in TIERS:
            assert _NBENCH[tier] == _NBENCH["precise"], tier


_TRACES = {}


def test_recorded_trace_bit_identical_under_all_tiers(path):
    """A full flight-recorder trace (stimulus script, event ring,
    footer digests) must serialize to the same bytes on every tier once
    the per-tier ``cpu_tiers`` split is stripped."""
    kernel = Kernel(seed=SEED)
    server = MinxServer(kernel, protect=PROTECT, smvx=True)
    recorder = Recorder(kernel, scenario={"app": "minx", "seed": SEED,
                                          "kwargs": {"protect": PROTECT,
                                                     "smvx": True}})
    recorder.attach_server(server)
    server.start()
    ApacheBench(kernel, server).run(2)
    trace = recorder.finish()
    tiers = trace.footer.pop("cpu_tiers")
    # the tier split itself must match the pinned interpreter mode
    assert set(tiers) == {"precise_insns", "fast_insns",
                          "instructions_retired", "tlb_fills",
                          "tlb_hit_rate"}
    assert tiers["precise_insns"] + tiers["fast_insns"] == \
        tiers["instructions_retired"]
    if path == "precise":
        assert tiers["fast_insns"] == 0
    else:
        assert tiers["fast_insns"] > 0
    _TRACES[path] = (trace.dumps(), trace.footer)
    if len(_TRACES) == len(TIERS):
        for tier in TIERS:
            assert _TRACES[tier][1] == _TRACES["precise"][1], tier
            assert _TRACES[tier][0] == _TRACES["precise"][0], tier
