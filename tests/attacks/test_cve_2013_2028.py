"""The §4.2 security experiment: CVE-2013-2028 vs vanilla and sMVX minx."""

import pytest

from repro.apps.minx import MinxServer
from repro.attacks import Cve20132028Exploit, build_mkdir_chain, run_exploit
from repro.attacks.cve_2013_2028 import VICTIM_DIRECTORY
from repro.core import DivergenceKind
from repro.kernel import Kernel
from repro.workloads import ApacheBench


@pytest.fixture
def kernel():
    return Kernel()


def test_gadgets_harvested_from_minx_text(kernel):
    server = MinxServer(kernel)
    server.start()
    chain = build_mkdir_chain(server.process, server.loaded)
    # the paper's chain: 3 gadgets + 3 values (we add the post-mkdir word)
    assert len(chain.words) == 6
    base, end = server.loaded.base, \
        server.loaded.base + server.loaded.image.load_size
    assert base <= chain.words[0] < end      # pop rdi gadget in app text
    assert base <= chain.words[2] < end      # pop rsi gadget
    assert chain.words[1] == \
        server.loaded.symbol_address("upstream_tmp_path")
    assert chain.words[4] == server.loaded.symbol_address("mkdir@plt")


def test_exploit_succeeds_against_vanilla_minx(kernel):
    """Baseline: the memory-corruption attack works on unprotected minx —
    the ROP chain runs, mkdir() creates the directory, and the worker
    crashes afterwards."""
    server = MinxServer(kernel)
    server.start()
    assert not kernel.vfs.is_dir(VICTIM_DIRECTORY)
    outcome = run_exploit(server)
    assert outcome.attack_succeeded
    assert outcome.directory_created
    assert outcome.server_crashed          # falls off the chain into 0x0
    assert not outcome.divergence_detected


def test_exploit_detected_and_blocked_by_smvx(kernel):
    """The headline result: under sMVX the follower faults on the
    leader-space gadget addresses, the monitor raises the alarm, and the
    attack's effect (mkdir) never happens."""
    server = MinxServer(kernel, protect="minx_http_process_request_line",
                        smvx=True)
    server.start()
    outcome = run_exploit(server)
    assert outcome.attack_detected_and_blocked
    assert not outcome.directory_created
    assert outcome.divergence_detected
    assert outcome.alarm_count == 1
    report = server.alarms.alarms[0]
    assert report.kind in (DivergenceKind.FOLLOWER_FAULT,
                           DivergenceKind.CALL_COUNT)
    # the fault is an execute fault at a leader-space address
    assert "fetch" in report.detail or "unmapped" in report.detail


def test_smvx_server_survives_normal_traffic_before_exploit(kernel):
    """Protection does not break benign traffic served just before the
    attack on the same process (region per request)."""
    server = MinxServer(kernel, protect="minx_http_process_request_line",
                        smvx=True)
    server.start()
    result = ApacheBench(kernel, server).run(3)
    assert result.status_counts == {200: 3}
    outcome = run_exploit(server)
    assert outcome.attack_detected_and_blocked


def test_exploit_also_detected_when_protecting_event_loop(kernel):
    """Coarser region (whole event loop) still catches the attack."""
    server = MinxServer(kernel, protect="minx_process_events_and_timers",
                        smvx=True)
    server.start()
    outcome = run_exploit(server)
    assert not outcome.directory_created
    assert outcome.divergence_detected


def test_mid_subtree_region_reports_emulation_fault_at_once(kernel):
    """Protecting ``minx_http_handler`` leaves the follower's copy of the
    discard buffer in a follower stack page that was never mapped.  The
    monitor faults copying the leader's ``recv`` result into it, and that
    is a follower fault reported at the call — not a lockstep stall the
    watchdog ends."""
    server = MinxServer(kernel, protect="minx_http_handler", smvx=True)
    server.start()
    outcome = run_exploit(server)
    assert outcome.attack_detected_and_blocked
    assert outcome.alarm_count == 1
    report = server.alarms.alarms[0]
    assert report.kind is DivergenceKind.FOLLOWER_FAULT
    assert report.libc_name == "recv"
    assert report.seq >= 1 and report.task_id >= 0
    assert report.guest_pc > 0                  # the faulting address
    assert f"{report.guest_pc:#x}" in report.detail
    assert "lockstep timeout" not in report.detail


def test_exploit_misses_unprotected_region(kernel):
    """False-negative surface the paper discusses (§5): if the annotation
    protects a function whose subtree does NOT contain the vulnerable
    path, sMVX cannot see the attack; it succeeds like on vanilla."""
    server = MinxServer(kernel, protect="minx_http_log_access", smvx=True)
    server.start()
    outcome = run_exploit(server)
    assert outcome.directory_created        # attack went through
    assert not outcome.divergence_detected


def test_payload_shape(kernel):
    server = MinxServer(kernel)
    server.start()
    exploit = Cve20132028Exploit(server)
    head, body = exploit.build_payloads()
    assert b"Transfer-Encoding: chunked" in head
    assert b"fffffffffffffff0" in head
    assert len(body) == 4096 + 6 * 8
