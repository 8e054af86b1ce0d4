"""Stations: arrival feed + local EDF queue (LA) + a MAC protocol.

A station owns the waiting queue Q of its source, serviced in EDF order by
algorithm LA (:class:`~repro.protocols.edf_queue.EDFQueue`), and delegates
medium access to a pluggable :class:`~repro.protocols.base.MACProtocol`.
Arrivals are materialised ahead of the run (sorted per class) and delivered
when the channel polls — deterministic, with no event-ordering races at
slot boundaries.
"""

from __future__ import annotations

import dataclasses
import heapq
import random
from collections.abc import Iterator

from repro.model.arrival import ArrivalProcess, take_until
from repro.model.message import MessageClass, MessageInstance
from repro.protocols.base import MACProtocol
from repro.protocols.edf_queue import EDFQueue

__all__ = ["Station", "CompletionRecord"]


@dataclasses.dataclass(frozen=True, slots=True)
class CompletionRecord:
    """One delivered (or dropped) message, for the metrics layer.

    ``started`` is when the successful transmission began on the wire
    (equal to ``completion`` for drops); the inversion analysis needs it to
    separate avoidable inversions from non-preemption ones.
    """

    message: MessageInstance
    completion: int
    started: int = -1
    dropped: bool = False

    @property
    def on_time(self) -> bool:
        return not self.dropped and self.completion <= self.message.absolute_deadline

    @property
    def latency(self) -> int:
        """Completion minus arrival (the bound B_DDCR constrains this)."""
        return self.completion - self.message.arrival


class Station:
    """One source attached to the broadcast channel."""

    def __init__(
        self,
        station_id: int,
        mac: MACProtocol,
        static_indices: tuple[int, ...] = (0,),
        seq_source: Iterator[int] | None = None,
    ) -> None:
        """``seq_source`` supplies message-instance sequence numbers.

        The simulation layer hands all stations of one run a shared
        run-local counter, making instance identity (and thus completion
        records) deterministic across runs and engines; without one,
        instances draw from the process-global counter.
        """
        self.station_id = station_id
        self.static_indices = tuple(sorted(static_indices))
        if not self.static_indices:
            raise ValueError("station needs at least one static index")
        self.queue = EDFQueue()
        self.completions: list[CompletionRecord] = []
        self._pending_arrivals: list[tuple[int, int, MessageClass]] = []
        self._arrival_seq = 0
        self._seq_source = seq_source
        self.arrivals_delivered = 0
        self.mac = mac
        mac.attach(self)

    # -- arrival plumbing --------------------------------------------------

    def load_arrivals(
        self,
        msg_class: MessageClass,
        process: ArrivalProcess,
        horizon: int,
        rng: random.Random | None = None,
    ) -> int:
        """Materialise one class's arrivals up to ``horizon``.

        Returns the number of arrivals loaded.  May be called once per
        class; streams are merged in time order.  ``rng`` is handed to
        stochastic processes (the simulation passes a named registry
        stream so every (station, class) pair draws independently).
        """
        count = 0
        for time in take_until(process, horizon, rng):
            heapq.heappush(
                self._pending_arrivals, (time, self._arrival_seq, msg_class)
            )
            self._arrival_seq += 1
            count += 1
        return count

    def add_arrival(self, msg_class: MessageClass, time: int) -> None:
        """Inject a single arrival (used by adversarial scenario builders)."""
        heapq.heappush(
            self._pending_arrivals, (time, self._arrival_seq, msg_class)
        )
        self._arrival_seq += 1

    def deliver_due(self, now: int) -> int:
        """Move all arrivals with time <= now into the EDF queue (LA)."""
        delivered = 0
        seq_source = self._seq_source
        while self._pending_arrivals and self._pending_arrivals[0][0] <= now:
            time, _, msg_class = heapq.heappop(self._pending_arrivals)
            self.queue.push(
                MessageInstance.arrive(
                    msg_class,
                    time,
                    self.station_id,
                    seq=None if seq_source is None else next(seq_source),
                )
            )
            delivered += 1
        self.arrivals_delivered += delivered
        return delivered

    @property
    def undelivered_arrivals(self) -> int:
        return len(self._pending_arrivals)

    def pending_arrivals_of(self, class_names) -> int:
        """Scheduled-but-undelivered arrivals of the named classes.

        The bridge-conservation monitor's accounting seam: frames a
        bridge enqueued near the horizon may still sit here, neither
        forwarded nor backlogged, and must not count as lost.
        """
        names = set(class_names)
        return sum(
            1 for _, _, cls in self._pending_arrivals if cls.name in names
        )

    # -- state accessors (the seam engines read through) ---------------------

    def peek_next_arrival(self) -> int | None:
        """Time of the earliest undelivered arrival, or None when drained.

        The accessor seam the engines share: the batch kernel caches this
        per station to know when its struct-of-arrays columns next change,
        and the round drivers use it to decide whether ``deliver_due`` has
        work — so per-station and batch views of arrival state stay
        coherent.
        """
        return self._pending_arrivals[0][0] if self._pending_arrivals else None

    def queue_head(self) -> MessageInstance | None:
        """The EDF head of Q (the message LA would service next), or None."""
        return self.queue.peek()

    # -- completion bookkeeping (called by the MAC) -------------------------

    def complete(
        self, message: MessageInstance, completion: int, started: int | None = None
    ) -> None:
        """Record a successful transmission and remove it from Q."""
        self.queue.remove(message)
        self.completions.append(
            CompletionRecord(
                message=message,
                completion=completion,
                started=completion if started is None else started,
            )
        )

    def drop(self, message: MessageInstance, when: int) -> None:
        """Record a dropped message (e.g. BEB excessive collisions)."""
        self.queue.remove(message)
        self.completions.append(
            CompletionRecord(
                message=message, completion=when, started=when, dropped=True
            )
        )

    def backlog(self) -> list[MessageInstance]:
        """Messages still waiting (deadline misses if past due at horizon)."""
        return self.queue.snapshot()
