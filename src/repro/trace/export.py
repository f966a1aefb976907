"""Export trace events as Chrome trace-event JSON (chrome://tracing,
Perfetto).

Each :class:`~repro.trace.events.TraceEvent` becomes an instant event
(``"ph": "i"``) on a per-kind "thread", timestamped in microseconds of
virtual time, so the flight recorder's ring can be scrubbed visually:
libc interceptions, rendezvous, syscalls, and the alarm all line up on
one shared virtual-time axis.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Union

from repro.trace.events import EventKind, TraceEvent

#: stable per-kind lane ids so the viewer groups rows deterministically.
_KIND_LANE = {kind: index for index, kind in enumerate(EventKind)}


def _as_dict(event: Union[TraceEvent, Dict]) -> Dict:
    return event.to_dict() if isinstance(event, TraceEvent) else event


def to_chrome_trace(events: Iterable[Union[TraceEvent, Dict]]) -> Dict:
    """Convert events (TraceEvent objects or their dicts) to the Chrome
    trace-event container format."""
    rows: List[Dict] = []
    lanes_used: Dict[str, int] = {}
    for raw in events:
        event = _as_dict(raw)
        kind = event["kind"]
        lane = _KIND_LANE.get(EventKind(kind), len(_KIND_LANE))
        lanes_used[kind] = lane
        name = event.get("name", "") or kind
        rows.append({
            "ph": "i",                       # instant event
            "s": "t",                        # thread-scoped
            "name": f"{kind}:{name}",
            "cat": kind,
            "ts": event["t_ns"] / 1000.0,    # Chrome wants microseconds
            "pid": 1,
            "tid": lane,
            "args": {"seq": event["seq"], **event.get("data", {})},
        })
    meta = [{"ph": "M", "pid": 1, "name": "process_name",
             "args": {"name": "repro"}}]
    meta += [{"ph": "M", "pid": 1, "tid": lane, "name": "thread_name",
              "args": {"name": kind}}
             for kind, lane in sorted(lanes_used.items(),
                                      key=lambda item: item[1])]
    return {"traceEvents": meta + rows, "displayTimeUnit": "ns"}


def write_chrome_trace(path: str,
                       events: Iterable[Union[TraceEvent, Dict]]) -> int:
    """Write the Chrome trace JSON to ``path``; returns the event count
    (excluding metadata rows)."""
    doc = to_chrome_trace(events)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return sum(1 for row in doc["traceEvents"] if row["ph"] != "M")
