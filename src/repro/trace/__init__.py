"""repro.trace — the flight recorder.

Structured tracing, deterministic record/replay, and divergence capsules
for the sMVX reproduction.  The simulated machine makes the rr/DiOS
observation (nondeterminism enters at the OS boundary) directly
actionable: the virtual clock, ``/dev/urandom``, socket ingress, and
task-creation order are the *only* nondeterminism sources, and all of
them are owned by ``repro.kernel``.  Recording that boundary yields a
trace whose replay re-executes a guest run bit-for-bit; a divergence
alarm additionally snapshots a self-contained, replayable "capsule".

Modules:

* :mod:`repro.trace.events`  — typed trace events, bounded ring recorder,
  metrics registry;
* :mod:`repro.trace.record`  — record mode (kernel-boundary taps →
  versioned trace file);
* :mod:`repro.trace.replay`  — replay mode (consume recorded
  nondeterminism, assert bit-identical re-execution);
* :mod:`repro.trace.capsule` — divergence capsules snapshotted at
  ``AlarmLog.raise_alarm``;
* :mod:`repro.trace.export`  — Chrome trace-event JSON export;
* :mod:`repro.trace.cli`     — ``python -m repro.trace.cli``.
"""

from repro.trace.events import (
    EventKind,
    MetricsRegistry,
    RingRecorder,
    TraceEvent,
)
from repro.trace.record import (
    TRACE_VERSION,
    Recorder,
    Trace,
    record_littled,
    record_minx,
)
from repro.deploy import drive_workload as drive_littled_workload
from repro.trace.replay import ReplayResult, replay_trace
from repro.trace.capsule import DivergenceCapsule
from repro.trace.export import to_chrome_trace, write_chrome_trace

__all__ = [
    "EventKind",
    "MetricsRegistry",
    "RingRecorder",
    "TraceEvent",
    "TRACE_VERSION",
    "Recorder",
    "Trace",
    "drive_littled_workload",
    "record_littled",
    "record_minx",
    "ReplayResult",
    "replay_trace",
    "DivergenceCapsule",
    "to_chrome_trace",
    "write_chrome_trace",
]
