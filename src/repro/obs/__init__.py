"""Unified telemetry: typed instruments, run manifests, ambient scoping.

One registry (:class:`~repro.obs.instruments.Telemetry`) collects every
number a run produces — counters, gauges, fixed-bucket histograms and
span timers — and one document (:class:`~repro.obs.manifest.RunTelemetry`)
carries them out of the process as a JSONL manifest the
``python -m repro.tools.obs`` tooling can render and diff.

The disabled state is the shared :data:`~repro.obs.instruments.NULL_TELEMETRY`
singleton, following the hoisted-gate pattern of the flight recorder's
:data:`~repro.obs.tracer.NULL_TRACER`: hot call sites check
``telemetry.enabled`` once per run and skip all instrument work when it
is off, so the slot-loop fast path stays allocation-free.

The *v2 ops plane* layers three live views on the same substrate: the
flight recorder (:mod:`repro.obs.tracer` — a bounded ring of causally
linked trace events and the repository's one trace substrate),
the streaming exporter (:mod:`repro.obs.export` — Prometheus text file +
JSONL delta stream, rewritten/appended while a service runs), and the
SLO engine (:mod:`repro.obs.slo` — declarative objectives evaluated as
multi-window burn rates over existing instruments).
"""

from repro.obs.context import (
    current_telemetry,
    current_tracer,
    use_telemetry,
    use_tracer,
)
from repro.obs.export import StreamExporter, iter_jsonl_tail
from repro.obs.instruments import (
    NULL_TELEMETRY,
    Counter,
    Gauge,
    Histogram,
    Telemetry,
)
from repro.obs.manifest import (
    RunTelemetry,
    git_rev,
    read_manifests,
    write_manifests,
)
from repro.obs.slo import Breach, Objective, SloEngine
from repro.obs.tracer import NULL_TRACER, FlightRecorder, TraceEvent

__all__ = [
    "Breach",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "Objective",
    "RunTelemetry",
    "SloEngine",
    "StreamExporter",
    "Telemetry",
    "TraceEvent",
    "current_telemetry",
    "current_tracer",
    "git_rev",
    "iter_jsonl_tail",
    "read_manifests",
    "use_telemetry",
    "use_tracer",
    "write_manifests",
]
