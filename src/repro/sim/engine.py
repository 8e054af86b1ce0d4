"""The simulation environment: clock + event queue + run loop.

:class:`Environment` owns simulated time (``now``), a priority queue of
triggered events, and factory helpers (``timeout``, ``process``, ``event``,
``all_of``, ``any_of``).  Time is whatever numeric type the caller uses —
the broadcast-network layer uses integer bit-times throughout so analytic
and simulated quantities compare exactly.
"""

from __future__ import annotations

import heapq
import itertools
import typing
from collections.abc import Iterable

from repro.sim.errors import SimulationError, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process, ProcessGenerator

__all__ = ["Environment"]

#: Queue priorities: interrupts preempt ordinary events at the same time.
_URGENT = 0
_NORMAL = 1


class Environment:
    """A discrete-event simulation environment.

    >>> env = Environment()
    >>> def hello(env):
    ...     yield env.timeout(3)
    ...     return env.now
    >>> proc = env.process(hello(env))
    >>> env.run()
    >>> proc.value
    3
    """

    def __init__(self, initial_time: int | float = 0) -> None:
        self._now = initial_time
        self._queue: list[tuple[int | float, int, int, Event]] = []
        self._eid = itertools.count()
        self._active_process: Process | None = None

    @property
    def now(self) -> int | float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently executing, if any."""
        return self._active_process

    @property
    def pending(self) -> bool:
        """True when any event is scheduled on the queue.

        Slot-synchronous fast loops (:meth:`BroadcastChannel.run
        <repro.net.channel.BroadcastChannel.run>` on ``fastloop`` or
        ``batch``) poll this to detect foreign processes: as long as it is
        False, the loop owns the clock and may advance it directly via
        :meth:`advance_to`.
        """
        return bool(self._queue)

    def advance_to(self, time: int | float) -> None:
        """Advance the clock directly, without processing any event.

        This is the slot-synchronous fast path's clock: a loop that is the
        sole time-advancing activity may skip the event queue entirely and
        move ``now`` forward itself.  Refuses to move backwards or to jump
        over a scheduled event (which would corrupt the event heap's
        causality).
        """
        if time < self._now:
            raise SimulationError(
                f"advance_to({time}) would move time backwards (now="
                f"{self._now})"
            )
        if self._queue and self._queue[0][0] < time:
            raise SimulationError(
                f"advance_to({time}) would skip over an event scheduled "
                f"at {self._queue[0][0]}"
            )
        self._now = time

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int | float, value: object = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    # -- scheduling --------------------------------------------------------

    def _schedule(
        self, event: Event, delay: int | float = 0, priority: int = _NORMAL
    ) -> None:
        heapq.heappush(
            self._queue, (self._now + delay, priority, next(self._eid), event)
        )

    def peek(self) -> int | float:
        """Time of the next scheduled event, or +inf when the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        when, _, _, event = heapq.heappop(self._queue)
        self._now = when
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise typing.cast(BaseException, event._value)

    def run(self, until: Event | int | float | None = None) -> object:
        """Run until the given event triggers, the given time, or exhaustion.

        Returns the until-event's value when an event is given.  Running
        until a time leaves ``now`` at exactly that time.
        """
        stop_value: object = None
        until_event: Event | None = None
        if until is not None:
            if isinstance(until, Event):
                until_event = until
                if until_event.callbacks is None:
                    return until_event._value
                until_event._add_callback(self._stop_callback)
            else:
                if until < self._now:
                    raise ValueError(
                        f"until={until} is in the past (now={self._now})"
                    )
                marker = Event(self)
                marker._ok = True
                marker._value = None
                marker.callbacks = [self._stop_callback]
                self._schedule(marker, delay=until - self._now)
        try:
            while self._queue:
                self.step()
        except StopSimulation as stop:
            stop_value = stop.value
            if until_event is not None:
                return until_event._value
            # Time-based stop: clamp now to the requested time.
            return stop_value
        if until_event is not None and not until_event.triggered:
            raise SimulationError("run() ended before its until-event fired")
        return stop_value

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopSimulation(event._value)
