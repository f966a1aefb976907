"""Distributed sMVX end to end: serving, state sync, CVE equality,
per-host record/replay, and the causally-merged trace (the ISSUE
acceptance battery)."""

import pytest

from repro.cluster.remote import snapshot_hashes
from repro.cluster.scenarios import (
    MINX_PROTECT,
    build_littled_cluster,
    build_minx_cluster,
    compare_cve_alarms,
    replay_cluster,
    run_distributed_ab,
    run_distributed_cve,
)
from repro.core.divergence import DivergenceKind
from repro.deploy import Deployment, build
from repro.errors import MvxSetupError
from repro.trace.merge import merge_digest, merge_summary, merge_traces
from repro.workloads.ab import ApacheBench


# -- benign serving ------------------------------------------------------------


def test_distributed_minx_serves_requests():
    session = run_distributed_ab(requests=3)
    assert session["result"].status_counts == {200: 3}
    assert session["alarms"] == 0
    monitor = session["run"].dsmvx.monitor
    assert monitor.stats.regions_entered == 3
    assert monitor.stats.leader_calls > 0
    # every region's events crossed the wire and every frame drained
    assert session["run"].cluster.frames_delivered > 0
    assert session["run"].cluster.pending_frames() == 0


def test_only_region_events_cross_the_network():
    """dMVX selective replication: with a narrow protected region only
    its events ship; with no region selected, nothing ships at all."""
    narrow = build_minx_cluster(seed="narrow",
                                protect="minx_http_log_access")
    result = ApacheBench(narrow.cluster.host(0).kernel,
                         narrow.leader).run(2)
    assert result.status_counts == {200: 2}
    narrow.dsmvx.settle()
    frames_narrow = sum(l.frames_sent
                        for l in narrow.cluster.links.values())
    assert frames_narrow > 0
    # the narrow region replays far fewer calls than the hot-path one
    hot = build_minx_cluster(seed="hot")
    ApacheBench(hot.cluster.host(0).kernel, hot.leader).run(2)
    hot.dsmvx.settle()
    assert narrow.dsmvx.runners[0].events_played \
        < hot.dsmvx.runners[0].events_played

    cold = build_minx_cluster(seed="cold", protect=None)
    ApacheBench(cold.cluster.host(0).kernel, cold.leader).run(2)
    frames_none = sum(l.frames_sent
                      for l in cold.cluster.links.values())
    assert frames_none == 0                      # no region, no traffic


def test_common_checkpoint_and_state_delta():
    """The dMVX state-sync contract: leader and mirror are bit-identical
    at the common checkpoint; serving ships only dirtied pages, and the
    heap bookkeeping survives the JSON round trip."""
    run = build_minx_cluster(start=False)
    leader, mirror = run.leader.process, run.mirror.process
    # built identically: every syncable page hashes the same
    assert snapshot_hashes(leader) == snapshot_hashes(mirror)

    run.leader.start()
    ApacheBench(run.cluster.host(0).kernel, run.leader).run(1)
    run.dsmvx.settle()
    monitor = run.dsmvx.monitor
    assert monitor._page_hashes                  # checkpoint taken
    assert run.dsmvx.runners[0].events_played > 0
    # the delta against the monitor's own snapshot is now empty — the
    # snapshot was advanced at the last region entry
    ApacheBench(run.cluster.host(0).kernel, run.leader).run(1)
    run.dsmvx.settle()
    from repro.cluster.remote import adopt_heap_book, heap_book
    # heap bookkeeping round-trips through the wire encoding
    book = heap_book(leader)
    adopt_heap_book(mirror, book)
    assert heap_book(mirror) == book


def test_littled_multiworker_distributed():
    run = build_littled_cluster(workers=2)
    kernel = run.cluster.host(0).kernel
    result = ApacheBench(kernel, run.leader).run(6, concurrency=3)
    assert result.sched_status == "done"
    assert result.status_counts == {200: 6}
    assert len(run.leader.alarms.alarms) == 0
    # both worker channels opened regions over their own wire channel
    regions = [m.stats.regions_entered for m in run.dsmvx.monitors]
    assert all(r >= 1 for r in regions)
    run.leader.shutdown()
    run.dsmvx.settle()
    assert run.cluster.pending_frames() == 0
    for monitor in run.dsmvx.monitors:
        assert monitor.region is None            # all regions closed


def test_leader_must_be_built_without_smvx():
    from repro.apps.minx import MinxServer
    from repro.cluster import Cluster, DistributedSmvx
    cluster = Cluster()
    leader = MinxServer(cluster.host(0).kernel, smvx=True,
                        protect="minx_http_process_request_line")
    mirror = MinxServer(cluster.host(1).kernel, smvx=True,
                        protect="minx_http_process_request_line")
    with pytest.raises(MvxSetupError):
        DistributedSmvx(cluster, leader, mirror)


# -- the security experiment ---------------------------------------------------


def test_cve_detected_remotely_and_blocked():
    session = run_distributed_cve()
    assert session["outcome"].divergence_detected
    assert not session["directory_created"]      # mkdir never executed
    alarm = session["alarm"]
    assert alarm.kind is DivergenceKind.FOLLOWER_FAULT
    assert alarm.libc_name == "mkdir"
    assert alarm.guest_pc > 0                    # the gadget address
    assert alarm.pid == session["run"].leader.process.pid


def test_cve_alarm_location_identical_to_inprocess():
    """Acceptance criterion: same alarm, same guest PC, remote as
    in-process."""
    comparison = compare_cve_alarms()
    assert comparison["match"], comparison
    assert comparison["in_process_blocked"]
    assert comparison["distributed_blocked"]
    pc = comparison["fields"]["guest_pc"]
    assert pc["in_process"] == pc["distributed"]


def test_aligned_mirror_catches_the_cve():
    """An aligned mirror, built through the one deployment builder, still
    stops CVE-2013-2028 at ``mkdir``.  Its follower faults at its own
    address: the shift mirror's fault is at 0x55550002e000."""
    from repro.attacks.cve_2013_2028 import VICTIM_DIRECTORY

    run = build(Deployment(
        app="minx", seed="smvx-cluster", attack="cve", cluster=True,
        kwargs={"protect": MINX_PROTECT, "variant_strategy": "aligned"}))
    run.start().drive()
    run.finish()
    assert run.mirror.monitor.variant_strategy == "aligned"
    assert run.exploit.attack_detected_and_blocked
    report, = run.leader.alarms.alarms
    assert report.kind is DivergenceKind.FOLLOWER_FAULT
    assert report.libc_name == "mkdir"
    assert report.guest_pc == 0x5555_0002_E020
    assert not run.kernel.vfs.is_dir(VICTIM_DIRECTORY)


def test_cve_leader_survives_and_serves_after_alarm():
    """After the remote verdict kills the region, the leader process
    keeps serving benign traffic (the sMVX recovery story)."""
    session = run_distributed_cve()
    run = session["run"]
    result = ApacheBench(run.cluster.host(0).kernel, run.leader).run(1)
    assert result.status_counts == {200: 1}
    assert len(run.leader.alarms.alarms) == 1    # no new alarms


# -- record / replay / merge ---------------------------------------------------


def test_cluster_records_one_trace_per_host():
    session = run_distributed_ab(requests=2, record=True)
    traces = session["traces"]
    assert [t.footer["host_id"] for t in traces] == [0, 1]
    for trace in traces:
        assert trace.footer["wire_frames"] > 0
        assert trace.footer["lamport_max"] > 0
        assert len(trace.footer["wire_digest"]) == 64
    # both hosts saw the same number of frames (every send delivered)
    assert traces[0].footer["wire_frames"] == \
        traces[1].footer["wire_frames"]


def test_cluster_replays_bit_identically_per_host_and_merged():
    outcome = replay_cluster(requests=2)
    assert outcome["ok"], outcome["problems"]


def test_merged_order_is_stable_across_runs():
    def merged():
        session = run_distributed_ab(requests=2, record=True)
        return merge_traces(session["traces"])

    first, second = merged(), merged()
    assert merge_digest(first) == merge_digest(second)
    summary = merge_summary(first)
    assert summary["hosts"] == [0, 1]
    assert summary["wire_events"] > 0


def test_merge_respects_causality():
    """Every recv is ordered after its matching send in the merge."""
    session = run_distributed_ab(requests=2, record=True)
    merged = merge_traces(session["traces"])
    sends = {}
    for position, event in enumerate(merged):
        if event["kind"] != "wire":
            continue
        name = event.get("name", "")
        frame = event["data"]["frame"]
        direction, link = name.split(":", 1)
        if direction == "send":
            sends[(link, frame)] = position
        else:
            assert (link, frame) in sends, f"recv before send: {event}"
            assert sends[(link, frame)] < position


def test_mid_subtree_region_reports_remote_emulation_fault_at_once():
    """Protecting ``minx_http_handler`` leaves the follower's copy of the
    discard buffer in a follower stack page that was never mapped.  The
    mirror's runner faults writing the leader's ``recv`` bytes into it:
    that is a follower fault reported at the call on both hosts, not a
    lockstep stall the watchdog ends."""
    from repro.attacks import run_exploit
    from repro.attacks.cve_2013_2028 import VICTIM_DIRECTORY

    run = build_minx_cluster(protect="minx_http_handler")
    outcome = run_exploit(run.leader)
    run.finish()
    assert outcome.attack_detected_and_blocked
    assert outcome.alarm_count == 1
    for server in (run.leader, run.mirror):
        report, = server.alarms.alarms
        assert report.kind is DivergenceKind.FOLLOWER_FAULT
        assert report.libc_name == "recv"
        assert report.guest_pc == 0x7FFD_FFFE_F000   # the unmapped page
        assert f"{report.guest_pc:#x}" in report.detail
        assert "lockstep timeout" not in report.detail
    for host in (0, 1):
        assert not run.cluster.host(host).kernel.vfs.is_dir(VICTIM_DIRECTORY)


def test_distributed_cve_recorded_alarm_in_leader_trace():
    session = run_distributed_cve(record=True)
    leader_trace = session["traces"][0]
    alarms = leader_trace.footer["alarms"]
    assert len(alarms) == 1
    assert alarms[0]["kind"] == "FOLLOWER_FAULT"
    assert alarms[0]["libc_name"] == "mkdir"
    # the mirror host logged the same divergence on its own log
    mirror_trace = session["traces"][1]
    assert mirror_trace.footer["alarms"], \
        "mirror host kept no operational record of the divergence"


def test_pump_hook_coexists_with_prior_idle_hook():
    """Regression: DistributedSmvx used to skip registering its frame
    pump when any idle hook was already installed (and, before that, the
    single-slot ``idle_hook`` attribute silently clobbered one of the
    two).  Both hooks must run: the observer sees idle points AND the
    pump still drains verdict frames, so scheduled serving completes."""
    from repro.cluster import Cluster
    from repro.apps.littled import LittledServer
    from repro.cluster.remote import DistributedSmvx
    from repro.cluster.scenarios import LITTLED_PROTECT

    cluster = Cluster(seed="hook-coexist", hosts=2)
    kernel = cluster.host(0).kernel
    leader = LittledServer(kernel, protect=LITTLED_PROTECT,
                           smvx=False, workers=2)
    observed = {"idle": 0}

    def observer():
        observed["idle"] += 1
        return False

    kernel.sched.add_idle_hook(observer)      # sim-style instrumentation
    mirror = LittledServer(cluster.host(1).kernel,
                           protect=LITTLED_PROTECT, smvx=True, workers=2)
    dsmvx = DistributedSmvx(cluster, leader, mirror)
    assert kernel.sched.idle_hooks == [observer, cluster.pump_one]

    leader.start()
    result = ApacheBench(kernel, leader).run(4, concurrency=2)
    assert result.status_counts == {200: 4}
    assert observed["idle"] >= 1
    leader.shutdown()
    dsmvx.settle()
