"""Interpreter throughput: guest MIPS and host time per interpreter tier,
reported per workload in ``BENCH_interp.json``.

Tiers (see docs/architecture.md §8 for the two-tier contract):

* **fast**     — the default interpreter: per-page decoded-instruction
  cache, the handler table ``step()`` runs, software TLB, batched
  charging;
* **precise**  — ``force_slow_path=True``: per-instruction ``step()``
  (still decode-cached — this is what tracing/taint pay);
* **baseline** — precise plus a per-fetch re-decode ``_fetch`` override,
  reproducing the interpreter before the fast path (the historical
  "before"; lcg-checksum only).

Workloads:

* **lcg-checksum** — the nbench-flavoured compute loop, run
  ``LCG_RUNS`` times per tier in interleaved order; every run must retire
  the same instruction count, produce the same checksum and charge
  identical virtual cycles, and the fast path's median MIPS must stay at
  least 3x the baseline's;
* **the paper workloads** — each of the ten nbench kernels (one vanilla
  plus one sMVX run, Fig. 6), ApacheBench against sMVX-protected minx
  and against littled (Fig. 7), and the CVE-2013-2028 exploit against
  protected minx (§4.2).  Every run on either tier must reproduce the
  same virtual-time result.  Host time is one warm-up run per tier, then
  the median of ``REPEATS`` runs per tier taken in alternating order;
  server boot is outside the timed section.
"""

import json
import os
import platform
import statistics
import time
from contextlib import contextmanager

from conftest import make_littled, make_minx
from repro.apps.nbench.harness import NbenchHarness
from repro.apps.nbench.workloads import NBENCH_WORKLOADS
from repro.attacks import run_exploit
from repro.errors import InvalidInstruction
from repro.machine import (
    INSTR_SIZE,
    PAGE_SIZE,
    PROT_RW,
    PROT_RX,
    AddressSpace,
    Assembler,
    CPU,
    Instruction,
)
from repro.machine.cpu import ExecState, HOST_RETURN_ADDRESS
from repro.machine.registers import RegisterFile
from repro.workloads import ApacheBench

CODE_BASE = 0x40_0000
DATA_BASE = 0x50_0000
STACK_TOP = 0x7000_0000
#: iteration count for the three-tier equality proof (precise and the
#: re-decode baseline are slow; this keeps them to well under a second)
ITERATIONS = 12_000
#: timed lcg runs per tier; a tier's MIPS is their median
LCG_RUNS = 3
#: timed runs per tier and workload, after one warm-up run per tier
REPEATS = 5
REQUESTS = 20
PROTECT = "minx_http_process_request_line"
TIERS = ("fast", "precise")
BENCH_JSON = os.path.join(os.path.dirname(__file__), os.pardir,
                          "BENCH_interp.json")


class PreciseCPU(CPU):
    force_slow_path = True


class BaselineCPU(PreciseCPU):
    """The pre-fast-path interpreter: precise stepping with a full
    fetch + decode from raw page bytes on every instruction."""

    def _fetch(self, state):
        addr = state.regs.rip
        page = self.space.fetch_check(addr)
        offset = addr % PAGE_SIZE
        if offset + INSTR_SIZE <= PAGE_SIZE:
            raw = bytes(page.data[offset:offset + INSTR_SIZE])
        else:
            head = bytes(page.data[offset:])
            next_page = self.space.fetch_check(addr + (PAGE_SIZE - offset))
            raw = head + bytes(next_page.data[:INSTR_SIZE - len(head)])
        try:
            return Instruction.decode(raw)
        except InvalidInstruction as exc:  # pragma: no cover
            exc.address = addr
            raise


def lcg_checksum_kernel(iterations):
    """nbench-flavoured compute loop: an LCG stream written through a
    512-word working set, read back and mixed into a checksum —
    MUL/ADD/AND/SHL/STORE/LOAD/XOR/CMP/JNE per iteration."""
    a = Assembler()
    a.mov_ri("rax", 0x5DEECE66D)       # LCG state
    a.mov_ri("r8", 6364136223846793005)
    a.mov_ri("rbx", 0)                 # checksum
    a.mov_ri("rcx", 0)                 # i
    a.label("loop")
    a.mul_rr("rax", "r8")
    a.add_ri("rax", 1442695040888963407)
    a.mov_rr("rsi", "rcx")
    a.and_ri("rsi", 511)
    a.shl_ri("rsi", 3)
    a.add_ri("rsi", DATA_BASE)
    a.store("rsi", "rax", 0)
    a.load("rdx", "rsi", 0)
    a.xor_rr("rbx", "rdx")
    a.add_rr("rbx", "rcx")
    a.add_ri("rcx", 1)
    a.cmp_ri("rcx", iterations)
    a.jne("loop")
    a.mov_rr("rax", "rbx")
    a.ret()
    return a


def _run(cpu_cls):
    space = AddressSpace()
    code = lcg_checksum_kernel(ITERATIONS).assemble(CODE_BASE)
    space.mmap(CODE_BASE, len(code), prot=PROT_RX, tag="text")
    for offset in range(0, len(code), PAGE_SIZE):
        page = space.page_at(CODE_BASE + offset)
        chunk = code[offset:offset + PAGE_SIZE]
        page.data[:len(chunk)] = chunk
    space.mmap(DATA_BASE, 512 * 8, prot=PROT_RW, tag="data")
    space.mmap(STACK_TOP - 4 * PAGE_SIZE, 4 * PAGE_SIZE, prot=PROT_RW,
               tag="stack")
    cpu = cpu_cls(space)
    state = ExecState(RegisterFile())
    state.regs.rip = CODE_BASE
    state.regs.set("rsp", STACK_TOP - 64)
    cpu._push(state, HOST_RETURN_ADDRESS)
    host_t0 = time.perf_counter()
    reason = cpu.run(state)
    host_s = time.perf_counter() - host_t0
    assert reason == "host-return"
    return {
        "checksum": state.regs.get("rax"),
        "instructions": cpu.instructions_retired,
        "virtual_ns": cpu.counter.total_ns,
        "host_s": host_s,
        "mips": cpu.instructions_retired / host_s / 1e6,
        "stats": cpu.stats(),
    }


def _bench_lcg():
    """Run each tier ``LCG_RUNS`` times, interleaved; returns per tier
    its median-time run."""
    classes = {"fast": CPU, "precise": PreciseCPU, "baseline": BaselineCPU}
    runs = {name: [] for name in classes}
    reference = None
    for _ in range(LCG_RUNS):
        for name, cpu_cls in classes.items():
            run = _run(cpu_cls)
            reference = reference or run
            # identical architectural results in every configuration
            assert run["checksum"] == reference["checksum"], name
            assert run["instructions"] == reference["instructions"], name
            assert run["virtual_ns"] == reference["virtual_ns"], name
            runs[name].append(run)
    assert all(run["stats"]["precise_insns"] == 0 for run in runs["fast"])
    assert all(run["stats"]["fast_insns"] == 0 for run in runs["precise"])
    return {name: sorted(tier_runs, key=lambda run: run["host_s"])
            [len(tier_runs) // 2] for name, tier_runs in runs.items()}


# -- the paper workloads, timed warm per tier --------------------------------
#
# A unit builds whatever it needs, times its workload, and returns
# (host seconds, virtual result); the virtual result must not depend on
# the tier.


@contextmanager
def _tier(name):
    """Pin every CPU constructed in the block to one interpreter tier
    (the server/nbench harnesses build their machines internally)."""
    saved = CPU.force_slow_path
    CPU.force_slow_path = name == "precise"
    try:
        yield
    finally:
        CPU.force_slow_path = saved


def _nbench_unit(index):
    def unit():
        harness = NbenchHarness(runs=1)
        host_t0 = time.perf_counter()
        vanilla = harness._run_once(index, smvx=False)
        smvx = harness._run_once(index, smvx=True)
        host_s = time.perf_counter() - host_t0
        assert vanilla[1] == smvx[1]
        return host_s, {"virtual_ns_vanilla": vanilla[0],
                        "virtual_ns_smvx": smvx[0], "checksum": vanilla[1]}
    return unit


def _serve_unit(make, **kwargs):
    def unit():
        kernel, server = make(**kwargs)
        bench = ApacheBench(kernel, server)
        host_t0 = time.perf_counter()
        result = bench.run(REQUESTS)
        host_s = time.perf_counter() - host_t0
        assert result.failures == 0
        return host_s, {"virtual_busy_per_request_ns":
                        result.busy_per_request_ns}
    return unit


def _cve_unit():
    kernel, server = make_minx(smvx=True, protect=PROTECT)
    host_t0 = time.perf_counter()
    outcome = run_exploit(server)
    host_s = time.perf_counter() - host_t0
    assert outcome.attack_detected_and_blocked
    report = server.alarms.alarms[0]
    return host_s, {"virtual_end_ns": kernel.clock.monotonic_ns,
                    "alarm_kind": report.kind.name,
                    "alarm_guest_pc": hex(report.guest_pc)}


def _workloads():
    units = {f"nbench/{spec.name}": _nbench_unit(index)
             for index, spec in enumerate(NBENCH_WORKLOADS)}
    units["minx-smvx"] = _serve_unit(make_minx, smvx=True, protect=PROTECT)
    units["littled"] = _serve_unit(make_littled)
    units["cve-2013-2028"] = _cve_unit
    return units


def _measure(unit):
    """One warm-up run per tier, then ``REPEATS`` runs per tier in
    alternating tier order; returns the workload's row: host-time
    median/min/max per tier and the (tier-independent) virtual result."""
    samples = {tier: [] for tier in TIERS}
    reference = None
    for repeat in range(REPEATS + 1):
        for tier in (TIERS if repeat % 2 else TIERS[::-1]):
            with _tier(tier):
                host_s, virtual = unit()
            if reference is None:
                reference = virtual
            assert virtual == reference, tier
            if repeat:                     # repeat 0 is the warm-up
                samples[tier].append(host_s)
    row = {}
    for tier, runs in samples.items():
        row[f"{tier}_host_s_median"] = round(statistics.median(runs), 4)
        row[f"{tier}_host_s_min"] = round(min(runs), 4)
        row[f"{tier}_host_s_max"] = round(max(runs), 4)
    row["fast_speedup_vs_precise"] = round(
        row["precise_host_s_median"] / row["fast_host_s_median"], 2)
    return {**row, **reference}


def test_interp_throughput(table):
    lcg = _bench_lcg()
    speedup_vs_baseline = lcg["fast"]["mips"] / lcg["baseline"]["mips"]
    lcg_row = {"iterations": ITERATIONS,
               "guest_instructions": lcg["fast"]["instructions"]}
    for name, run in lcg.items():
        lcg_row[f"{name}_mips"] = round(run["mips"], 3)
        lcg_row[f"{name}_host_s"] = round(run["host_s"], 4)
    lcg_row["fast_speedup_vs_baseline"] = round(speedup_vs_baseline, 2)
    workloads = {"lcg-checksum": lcg_row}
    for name, unit in _workloads().items():
        workloads[name] = _measure(unit)

    payload = {
        "python": platform.python_version(),
        "repeats": REPEATS,
        "requests": REQUESTS,
        "workloads": workloads,
    }
    with open(BENCH_JSON, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    table(f"Interpreter throughput (lcg-checksum, {ITERATIONS:,} "
          f"iterations)",
          ("tier", "guest MIPS", "host time"),
          [(name, f"{run['mips']:.2f}", f"{run['host_s'] * 1e3:,.1f} ms")
           for name, run in lcg.items()])
    table(f"Per-workload fast vs precise (host time, median of {REPEATS} "
          f"warm runs)",
          ("workload", "fast", "precise", "fast speedup"),
          [(name, f"{row['fast_host_s_median'] * 1e3:,.1f} ms",
            f"{row['precise_host_s_median'] * 1e3:,.1f} ms",
            f"{row['fast_speedup_vs_precise']:.2f}x")
           for name, row in workloads.items()
           if "fast_speedup_vs_precise" in row])

    assert speedup_vs_baseline >= 3.0, \
        f"fast path is only {speedup_vs_baseline:.2f}x the pre-PR " \
        f"interpreter (need >= 3x); see {BENCH_JSON}"
