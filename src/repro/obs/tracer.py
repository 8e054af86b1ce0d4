"""The flight recorder: a bounded ring of causally linked trace events.

Telemetry instruments (:mod:`repro.obs.instruments`) answer *how much*;
the flight recorder answers *what happened, in what order, caused by
what*.  It keeps the last N structured events in a
:class:`collections.deque` ring, each carrying a monotonically assigned
id and the id of its causal parent — the innermost open span at emit
time — so a serve request's whole causal chain (request -> engine
mutation -> rollback -> decision, plus any counter-check simulation's
slot outcomes) is reconstructible by a parent-id walk.

Determinism contract: events carry **no wall-clock fields** — ids, kinds
and payloads are a pure function of the traced run, so two recordings of
the same request stream dump byte-identical JSONL.

The disabled state is :data:`NULL_TRACER`, a process-wide singleton
whose :meth:`~FlightRecorder.emit`, :meth:`~FlightRecorder.coalesce` and
:meth:`~FlightRecorder.span` are inert — the same hoisted-gate idiom as
:data:`~repro.obs.instruments.NULL_TELEMETRY`: hot loops check
``tracer.enabled`` once, outside the loop, and skip event construction
entirely when it is off.

The ring is a *black box* in the avionics sense: bounded memory no
matter how long the service runs, dumpable on demand
(:meth:`~FlightRecorder.dump_jsonl`) or snapshotted automatically when
an incident lands (the admission service attaches the last N events to
the structured :class:`~repro.serve.model.Incident`).

It is the repository's one trace substrate.  Channels record busy slots
as ``channel/slot`` events and each run of silent slots as one
``channel/idle`` event whose count grows in place
(:meth:`~FlightRecorder.coalesce`), so an idle stretch costs one event
whether an engine leapt it or stepped it slot by slot.
"""

from __future__ import annotations

import collections
import json
import pathlib
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = [
    "FlightRecorder",
    "NULL_TRACER",
    "TraceEvent",
    "load_trace",
]

#: Default ring capacity: enough to hold a full serve request's chain
#: plus a counter-check simulation's recent slots, small enough that a
#: dump stays human-greppable.
DEFAULT_CAPACITY = 4096


class TraceEvent:
    """One recorded event: id, causal parent id, kind, payload."""

    __slots__ = ("id", "parent", "kind", "data")

    def __init__(
        self, event_id: int, parent: int | None, kind: str, data: dict
    ) -> None:
        self.id = event_id
        self.parent = parent
        self.kind = kind
        self.data = data

    def to_dict(self) -> dict[str, object]:
        doc: dict[str, object] = {"id": self.id, "kind": self.kind}
        if self.parent is not None:
            doc["parent"] = self.parent
        if self.data:
            # A copy: a run-length event may still grow after the snapshot.
            doc["data"] = dict(self.data)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, doc: dict) -> "TraceEvent":
        return cls(
            int(doc["id"]),
            doc.get("parent"),
            str(doc["kind"]),
            dict(doc.get("data", {})),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TraceEvent(id={self.id}, parent={self.parent}, "
            f"kind={self.kind!r}, data={self.data!r})"
        )


class FlightRecorder:
    """Bounded ring buffer of :class:`TraceEvent` with causal parenting.

    ``capacity`` bounds memory: once full, the oldest events fall off —
    exactly the black-box property (the *last* N events before a failure
    are the ones worth keeping).  Ids keep counting past evictions, so a
    dumped window is unambiguous about what it no longer contains: a
    ``parent`` id below the window's first id points at an evicted
    ancestor.

    :meth:`span` opens a causal scope: every event emitted inside it
    (including nested spans) is parented to the span's own event.  The
    parent stack is per-recorder, not per-thread — the repro stack is
    single-threaded by design (worker *processes*, never threads).
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: collections.deque[TraceEvent] = collections.deque(
            maxlen=capacity
        )
        self._next_id = 0
        self._stack: list[int] = []
        #: Id of the newest event that is not a run (:meth:`emit`,
        #: :meth:`span`): no run recorded before it grows again.
        self._barrier = -1
        #: Total events ever emitted (>= len(self) once the ring wraps).
        self.emitted = 0

    # -- recording -------------------------------------------------------

    def _record(self, kind: str, data: dict) -> TraceEvent:
        event = TraceEvent(
            self._next_id, self._stack[-1] if self._stack else None, kind,
            data,
        )
        self._next_id += 1
        self.emitted += 1
        self._events.append(event)
        return event

    def emit(self, kind: str, /, **data: object) -> int:
        """Record one event under the innermost open span; returns its id.

        The event kind is positional-only so payloads may themselves
        carry a ``kind`` key (e.g. a request's kind).
        """
        self._barrier = self._record(kind, data).id
        return self._barrier

    def coalesce(
        self, run: TraceEvent | None, kind: str, n: int, /, **data: object
    ) -> TraceEvent:
        """Add ``n`` to the run-length event ``run``, or start a new one.

        ``run`` grows (``data["n"] += n``) while every event recorded
        after it is another run under the same parent, and it still has
        the innermost open span as its parent: any :meth:`emit` or
        :meth:`span` ends it, and so does a parent change; a new ``kind``
        event carrying ``n`` and ``data`` then starts the next run.  So
        channels sharing one clock, whose silent slots interleave, each
        grow their own run, and one leap per channel records the same
        dump as the per-slot interleaving.  The caller keeps the
        returned event and passes it back next time, so only the caller
        that started a run ever extends it.  Growing a run records no
        event: ids and :attr:`emitted` count events, not slots.
        """
        parent = self._stack[-1] if self._stack else None
        if (
            run is not None
            and run.id > self._barrier
            and run.parent == parent
        ):
            run.data["n"] += n
            return run
        return self._record(kind, {"n": n, **data})

    @contextmanager
    def span(self, kind: str, /, **data: object) -> Iterator[int]:
        """Emit an event and parent everything inside to it."""
        event_id = self.emit(kind, **data)
        self._stack.append(event_id)
        try:
            yield event_id
        finally:
            self._stack.pop()

    # -- inspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> list[TraceEvent]:
        """The retained window, oldest first."""
        return list(self._events)

    def last(self, n: int) -> list[TraceEvent]:
        """The newest ``n`` retained events, oldest first."""
        if n <= 0:
            return []
        window = self._events
        if n >= len(window):
            return list(window)
        return list(window)[-n:]

    def snapshot(self, last: int | None = None) -> list[dict[str, object]]:
        """JSON-ready dicts of the retained (or last ``last``) events."""
        events = self.events() if last is None else self.last(last)
        return [event.to_dict() for event in events]

    def chain(self, event_id: int) -> list[TraceEvent]:
        """The causal chain ending at ``event_id``, root first.

        Walks ``parent`` links through the retained window; stops (without
        error) when an ancestor has been evicted from the ring.
        """
        by_id = {event.id: event for event in self._events}
        chain: list[TraceEvent] = []
        current = by_id.get(event_id)
        while current is not None:
            chain.append(current)
            current = (
                by_id.get(current.parent)
                if current.parent is not None
                else None
            )
        chain.reverse()
        return chain

    # -- persistence -----------------------------------------------------

    def dump_jsonl(
        self, path: "str | pathlib.Path", last: int | None = None
    ) -> int:
        """Write the retained window as JSONL; returns events written."""
        events = self.events() if last is None else self.last(last)
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(event.to_json() + "\n")
        return len(events)


class _NullRecorder(FlightRecorder):
    """The shared always-disabled recorder (see :data:`NULL_TRACER`).

    ``emit`` and ``coalesce`` record nothing and ``span`` opens no
    scope, so call sites that did not hoist the ``enabled`` gate stay
    correct and allocation-free.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)

    def emit(self, kind: str, /, **data: object) -> int:
        return -1

    def coalesce(
        self, run: TraceEvent | None, kind: str, n: int, /, **data: object
    ) -> TraceEvent | None:
        return run

    @contextmanager
    def span(self, kind: str, /, **data: object) -> Iterator[int]:
        yield -1


#: Process-wide disabled recorder: components default to sharing this
#: singleton instead of allocating a throwaway ring each run.
NULL_TRACER = _NullRecorder()


def load_trace(path: "str | pathlib.Path") -> list[TraceEvent]:
    """Parse a :meth:`FlightRecorder.dump_jsonl` file back into events."""
    events: list[TraceEvent] = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: not valid JSON: {error}"
                ) from None
            events.append(TraceEvent.from_dict(doc))
    return events
