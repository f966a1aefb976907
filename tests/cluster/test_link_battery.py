"""The full link-fault battery against distributed serving: delay,
drop/retransmit, reorder, and partition schedules must inject faults
without ever producing a spurious divergence (the link is a reliable
in-order transport; faults only move delivery times)."""

from repro.cluster.scenarios import (
    build_littled_cluster,
    run_distributed_ab,
    run_link_battery,
)
from repro.kernel.faults import FaultSchedule, battery


def test_battery_zero_spurious_divergences():
    results = run_link_battery(requests=3)
    assert len(results) == len(battery())
    for entry in results:
        assert entry["completed"] == entry["requested"], entry
        assert entry["alarms"] == 0, entry
    # the battery as a whole actually exercised the fault plane
    assert sum(sum(e["link_faults"].values()) for e in results) > 0


def test_partition_heals_and_serving_resumes():
    schedule = FaultSchedule(name="hard-partition",
                             link_partition_every=2,
                             link_partition_ns=5_000_000)
    session = run_distributed_ab(seed="partition",
                                 fault_schedule=schedule, requests=4)
    assert session["result"].status_counts == {200: 4}
    assert session["alarms"] == 0
    injected = {}
    for link in session["run"].cluster.links.values():
        for kind, count in link.faults.injected_by_kind.items():
            injected[kind] = injected.get(kind, 0) + count
    assert injected.get("link_partition", 0) > 0
    assert session["run"].cluster.pending_frames() == 0


def test_faulted_run_still_replays_bit_identically():
    """Link faults are drawn from the per-link plane, so a faulted run
    is as deterministic as a clean one."""
    schedule = FaultSchedule(name="mix", link_delay_p=0.4,
                             link_delay_ns=80_000, link_reorder_p=0.3,
                             link_reorder_ns=40_000)

    def footers():
        session = run_distributed_ab(seed="faulted-replay",
                                     fault_schedule=schedule,
                                     requests=3, record=True)
        return [t.footer for t in session["traces"]]

    first, second = footers(), footers()
    for host_id, (want, got) in enumerate(zip(first, second)):
        assert want == got, f"host{host_id} footer diverged"
    assert first[0]["wire_digest"] == second[0]["wire_digest"]


def test_recorded_cluster_traces_keep_their_link_fault_schedule():
    """``build_minx_cluster`` and ``build_littled_cluster`` store the
    schedule in every host trace's meta, in the form
    ``FaultSchedule.from_dict`` rebuilds; a run without one stores None."""
    schedule = FaultSchedule(name="mix", link_delay_p=0.4,
                             link_delay_ns=80_000)
    minx = run_distributed_ab(seed="x", fault_schedule=schedule,
                              requests=1, record=True)["traces"]
    littled = build_littled_cluster(seed="x", fault_schedule=schedule,
                                    record=True).finish()
    for traces in (minx, littled):
        assert len(traces) == 2
        for trace in traces:
            meta = trace.meta["scenario"]["fault_schedule"]
            assert FaultSchedule.from_dict(meta) == schedule
    for trace in build_littled_cluster(seed="x", record=True).finish():
        assert trace.meta["scenario"]["fault_schedule"] is None
