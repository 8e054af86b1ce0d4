"""Typed telemetry instruments and the :class:`Telemetry` registry.

Four instrument kinds cover everything the stack measures:

* :class:`Counter` — monotonically increasing event counts (slot
  outcomes, fault firings, cache writes);
* :class:`Gauge` — last-value-wins observations (cache hit totals at the
  end of a run);
* :class:`Histogram` — fixed-bucket distributions (per-class latency,
  search depth).  Buckets are fixed at creation, so merging and diffing
  two histograms of the same name is always well defined and recording
  never allocates;
* span timers (:meth:`Telemetry.span`) — nested wall-clock sections
  forming a call tree (spec resolve / cache lookup / execute).

Determinism contract: counters, gauges and histograms are pure functions
of the simulated run, so two engines driving the same run must produce
byte-identical snapshots (the differential suite asserts this).  Span
*structure* (names, nesting, call counts) is deterministic too; span
*durations* are wall-clock and excluded from the determinism contract.

The disabled state is :data:`NULL_TELEMETRY`, a process-wide singleton
whose instruments are inert.  Hot loops follow the hoisted-gate idiom
of :data:`~repro.obs.tracer.NULL_TRACER`: check ``telemetry.enabled``
once, outside the loop, and skip instrument calls entirely when it is
off — the null instruments exist only so that unconditioned call sites
stay safe.
"""

from __future__ import annotations

import bisect
import time
import typing
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager

__all__ = [
    "Counter",
    "DECISION_LATENCY_EDGES",
    "Gauge",
    "Histogram",
    "LATENCY_EDGES",
    "NULL_TELEMETRY",
    "SEARCH_DEPTH_EDGES",
    "SpanNode",
    "Telemetry",
    "snapshot_quantile",
]

#: Default latency bucket upper bounds, in bit-times: powers of two from
#: one slot-ish (64) up past the longest deadlines the workloads use.
#: Geometric buckets keep relative quantile error bounded (~2x) across
#: five orders of magnitude without per-workload tuning.
LATENCY_EDGES: tuple[int, ...] = tuple(1 << k for k in range(6, 26))

#: Admission-decision latency bucket upper bounds, in *microseconds of
#: wall clock* (the one instrument measuring real time, not simulated
#: bit-times): powers of two from 1 us to ~1 s.  Wall-clock values are
#: telemetry only — they never enter the decision log, which must stay a
#: pure function of the request stream.
DECISION_LATENCY_EDGES: tuple[int, ...] = tuple(1 << k for k in range(0, 21))

#: Default search-depth bucket upper bounds, in wasted slots per search
#: run.  Linear at the bottom (where the paper's xi bounds live), then
#: doubling; anything above 256 is pathological and lands in overflow.
SEARCH_DEPTH_EDGES: tuple[int, ...] = (
    0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256,
)


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A last-value-wins observation."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """A fixed-bucket histogram with exact count/sum/min/max.

    ``edges`` are inclusive upper bounds of the finite buckets, strictly
    increasing; one implicit overflow bucket catches everything above the
    last edge.  Quantiles are estimated as the upper edge of the bucket
    containing the target rank, clamped to the exact observed max, so a
    quantile never under-reports — the conservative direction for
    deadline analysis.
    """

    __slots__ = ("name", "edges", "counts", "count", "total", "min", "max")

    kind = "histogram"

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        edges = tuple(edges)
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"bucket edges must strictly increase: {edges}")
        self.name = name
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0
        self.min: float | None = None
        self.max: float | None = None

    def record(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def quantile(self, q: float) -> float | None:
        """Estimate of the ``q``-quantile (see :func:`snapshot_quantile`)."""
        return snapshot_quantile(self.snapshot(), q)

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def snapshot(self) -> dict[str, object]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }


def snapshot_quantile(
    snapshot: Mapping[str, typing.Any], q: float
) -> float | None:
    """Estimate the ``q``-quantile (``0 <= q <= 1``) of a histogram snapshot.

    The one estimator: :meth:`Histogram.quantile` and every reader of
    serialised snapshots (manifests, campaign roll-ups) call it.  Edge
    cases are pinned down (the SLO engine leans on them): out-of-range
    ``q`` (including NaN) raises ``ValueError``; an empty histogram
    returns ``None``; ``q=0.0`` and ``q=1.0`` return the *exact*
    observed min/max.  An interior quantile is the upper edge of the
    bucket holding the target rank, clamped to [min, max] (the overflow
    bucket reports the max), so it never under-reports and never lies
    outside the observed range.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    count = snapshot["count"]
    if count == 0:
        return None
    low, high = snapshot["min"], snapshot["max"]
    if q == 0.0:
        return low
    if q == 1.0:
        return high
    edges = snapshot["edges"]
    rank = q * (count - 1)
    seen = 0
    for index, bucket in enumerate(snapshot["counts"]):
        seen += bucket
        if bucket and seen > rank:
            if index >= len(edges):
                return high
            return max(low, min(edges[index], high))
    return high  # pragma: no cover - rank always reached above


class SpanNode:
    """One node of the span call tree: a named timed section."""

    __slots__ = ("name", "calls", "seconds", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.seconds = 0.0
        self.children: dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    def snapshot(self, timings: bool = True) -> dict[str, object]:
        """Serialisable form; ``timings=False`` drops wall-clock seconds
        (the deterministic projection the differential tests compare)."""
        doc: dict[str, object] = {"name": self.name, "calls": self.calls}
        if timings:
            doc["seconds"] = self.seconds
        if self.children:
            doc["children"] = [
                child.snapshot(timings) for child in self.children.values()
            ]
        return doc


class Telemetry:
    """Registry of named instruments plus the active span stack.

    Instruments are created on first use and looked up by name after
    that, so a re-built hot loop (a channel's next ``run`` call) resumes
    the same counters rather than resetting them.  A name is
    bound to one instrument kind for the registry's lifetime; reusing it
    as a different kind is a programming error and raises.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        #: Root of the span tree; never reported itself.
        self.root = SpanNode("")
        self._span_stack = [self.root]

    # -- instruments -----------------------------------------------------

    def _get(self, name: str, kind: type, *args) -> object:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name, *args)
            self._instruments[name] = instrument
        elif type(instrument) is not kind:
            raise TypeError(
                f"instrument {name!r} already registered as "
                f"{type(instrument).kind}, not {kind.kind}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def histogram(
        self, name: str, edges: Sequence[float] = LATENCY_EDGES
    ) -> Histogram:
        """Get-or-create; ``edges`` only applies on first creation."""
        return self._get(name, Histogram, edges)  # type: ignore[return-value]

    def instruments(self) -> Iterator[Counter | Gauge | Histogram]:
        """All instruments, in sorted-name order (stable serialisation)."""
        for name in sorted(self._instruments):
            yield self._instruments[name]

    # -- spans -----------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a section; nested spans build a call tree."""
        node = self._span_stack[-1].child(name)
        self._span_stack.append(node)
        started = time.perf_counter()
        try:
            yield
        finally:
            node.seconds += time.perf_counter() - started
            node.calls += 1
            self._span_stack.pop()

    def span_snapshots(self, timings: bool = True) -> list[dict[str, object]]:
        return [
            child.snapshot(timings) for child in self.root.children.values()
        ]


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def record(self, value: float) -> None:
        pass


class _NullTelemetry(Telemetry):
    """The shared always-disabled registry (see :data:`NULL_TELEMETRY`).

    Hands out inert singleton instruments and a reusable no-op span, so
    call sites that did not hoist the ``enabled`` gate stay correct and
    allocation-free; it records nothing, ever.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("<null>")
        self._null_gauge = _NullGauge("<null>")
        self._null_histogram = _NullHistogram("<null>", (1,))

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(
        self, name: str, edges: Sequence[float] = LATENCY_EDGES
    ) -> Histogram:
        return self._null_histogram

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


#: Process-wide disabled telemetry: components default to sharing this
#: singleton instead of allocating a throwaway registry each run.
NULL_TELEMETRY = _NullTelemetry()
