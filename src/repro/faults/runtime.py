"""Arming fault plans onto a live channel: the :class:`FaultInjector`.

The injector translates the pure-data models of
:mod:`repro.faults.models` into per-round state the channel driver
consults: which stations are down, which drift-suppressed, which babble
frames ride the wire this round, and which noise gates corrupt the slot.
It is armed once per run (after stations attach, before the first round)
and then driven by :meth:`begin_round` from inside the round loop — under
either engine, at the same simulated times, so faulted runs remain
byte-identical across ``des`` and ``batch``.

All injector randomness (the Gilbert–Elliott chain) comes from the single
``rng`` handed in at construction; the simulation layer passes a dedicated
named registry stream, so arming faults never perturbs the arrival or
legacy-noise streams of an existing seed.
"""

from __future__ import annotations

import math
import random
import typing

from repro.faults.models import (
    ArrivalBurst,
    BabblingStation,
    BernoulliNoise,
    BusJam,
    ClockDrift,
    FaultPlan,
    GilbertElliottNoise,
    StationCrash,
)
from repro.model.message import DensityBound, MessageClass, MessageInstance
from repro.net.frames import Frame

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.model.message import MessageClass as _MessageClass
    from repro.net.channel import BroadcastChannel
    from repro.net.station import Station

__all__ = ["FaultInjector", "BernoulliGate", "GilbertElliottGate"]


class BernoulliGate:
    """Armed memoryless corruption gate (one RNG draw per eligible slot)."""

    __slots__ = ("rate", "random")

    def __init__(self, rate: float, rng: random.Random) -> None:
        self.rate = rate
        self.random = rng.random

    def __call__(self, now: int, wire: int) -> bool:
        # Draw order matches the channel's historical inline gate exactly:
        # one draw per non-jammed slot carrying fewer than two frames.
        return wire < 2 and self.random() < self.rate

    def quiet_run(self, n: int) -> int:
        """Draw ``n`` idle slots' gates in one loop, as ``n`` calls with
        nothing on the wire would, stopping at the first that fires;
        returns how many slots stayed quiet before it (``n``: none
        fired)."""
        draw = self.random
        rate = self.rate
        for quiet in range(n):
            if draw() < rate:
                return quiet
        return n


class GilbertElliottGate:
    """Armed two-state burst-error gate.

    One transition draw per active slot (the chain advances whether or not
    the slot is corruptible), plus one error draw on slots carrying fewer
    than two frames when the current state's rate is positive.
    """

    __slots__ = (
        "random", "p_enter", "p_exit", "bad_rate", "good_rate", "start",
        "bad",
    )

    def __init__(self, model: GilbertElliottNoise, rng: random.Random) -> None:
        self.random = rng.random
        self.p_enter = model.p_enter_bad
        self.p_exit = model.p_exit_bad
        self.bad_rate = model.bad_rate
        self.good_rate = model.good_rate
        self.start = model.start
        self.bad = model.start_bad

    def __call__(self, now: int, wire: int) -> bool:
        if now < self.start:
            return False
        draw = self.random()
        if self.bad:
            if draw < self.p_exit:
                self.bad = False
        elif draw < self.p_enter:
            self.bad = True
        rate = self.bad_rate if self.bad else self.good_rate
        if rate > 0.0 and wire < 2:
            return self.random() < rate
        return False


class _DriftState:
    __slots__ = ("station_id", "skew", "start", "stop", "threshold", "accum")

    def __init__(self, model: ClockDrift, threshold: float) -> None:
        self.station_id = model.station_id
        self.skew = model.skew_per_slot
        self.start = model.start
        self.stop = model.stop if model.stop is not None else math.inf
        self.threshold = (
            model.threshold if model.threshold is not None else threshold
        )
        self.accum = 0.0


class _BabblerState:
    __slots__ = ("start", "stop", "period", "counter", "msg_class", "sid")

    def __init__(self, model: BabblingStation, sid: int) -> None:
        self.start = model.start
        self.stop = model.stop
        self.period = model.period
        self.counter = 0
        self.sid = sid
        # The junk payload: decodable length, but never a real station's
        # message (negative source id; constant seq keeps runs allocation-
        # deterministic without touching the process-global instance ids).
        self.msg_class = MessageClass(
            name="<babble>",
            length=model.length,
            deadline=1,
            bound=DensityBound(a=1, w=1),
        )


class FaultInjector:
    """Run-time state of one armed :class:`FaultPlan`."""

    def __init__(
        self, plan: FaultPlan, rng: random.Random | None = None
    ) -> None:
        self.plan = plan
        self.rng = rng if rng is not None else random.Random(0)
        #: Station ids currently crashed (skip deliver/offer/observe).
        self.down: set[int] = set()
        #: Station ids that ever crashed: their replica state is no longer
        #: in lockstep with the survivors, so the consistency assertion
        #: must exempt them.
        self.desynced: set[int] = set()
        #: Station ids whose offer is drift-suppressed this round.
        self.suppressed: set[int] = set()
        #: Babble frames riding the wire this round.
        self.extra: tuple[Frame, ...] = ()
        #: Armed corruption gates, consulted by the channel driver after
        #: its own legacy gate.
        self.noise_gates: tuple = ()
        #: Fault-gate fire accounting, purely additive: how often each
        #: fault mechanism actually acted on the run.  The simulation
        #: layer copies these into the run's telemetry at finalize time
        #: (``faults/<kind>`` counters); noise-gate fires are counted by
        #: the channel driver, which is where gates are consulted.
        self.fire_counts: dict[str, int] = {
            "crash": 0,
            "restart": 0,
            "drift_suppression": 0,
            "babble_frame": 0,
        }
        self._events: list[tuple[int, int, str, int]] = []
        self._cursor = 0
        self._next_event: float = math.inf
        self._drift: list[_DriftState] = []
        self._babblers: list[_BabblerState] = []
        self._stations: dict[int, "Station"] = {}
        self._reset_mac: typing.Callable[["Station"], None] | None = None
        self._armed = False

    # -- arming ----------------------------------------------------------

    def arm(
        self,
        channel: "BroadcastChannel",
        *,
        reset_mac: typing.Callable[["Station"], None] | None = None,
        resolve_class: typing.Callable[
            ["Station", str | None], "_MessageClass"
        ] | None = None,
    ) -> None:
        """Bind the plan to a channel with its stations attached.

        ``reset_mac`` re-provisions a crashed station's MAC on restart
        (the simulation layer closes over its protocol factory); required
        iff the plan restarts anybody.  ``resolve_class`` maps a station
        and class name (or ``None`` for "first declared") to the
        :class:`MessageClass` an :class:`ArrivalBurst` floods; required
        iff the plan contains bursts.
        """
        if self._armed:
            raise RuntimeError("fault injector already armed")
        self._armed = True
        self._stations = {s.station_id: s for s in channel.stations}
        self._reset_mac = reset_mac
        order = 0
        gates: list = []
        jam: BusJam | None = None
        for event in self.plan.events:
            if isinstance(event, StationCrash):
                self._known(event.station_id)
                self._events.append(
                    (event.at, order, "crash", event.station_id)
                )
                order += 1
                if event.restart_at is not None:
                    if reset_mac is None:
                        raise ValueError(
                            "fault plan restarts a station but no reset_mac "
                            "was provided (run through NetworkSimulation, "
                            "or pass one when arming by hand)"
                        )
                    self._events.append(
                        (event.restart_at, order, "restart", event.station_id)
                    )
                    order += 1
            elif isinstance(event, ClockDrift):
                self._known(event.station_id)
                self._drift.append(
                    _DriftState(event, channel.medium.slot_time / 2)
                )
            elif isinstance(event, BabblingStation):
                self._babblers.append(
                    _BabblerState(event, self._babbler_id(event))
                )
            elif isinstance(event, BernoulliNoise):
                if event.rate > 0.0:
                    gates.append(BernoulliGate(event.rate, self.rng))
            elif isinstance(event, GilbertElliottNoise):
                gates.append(GilbertElliottGate(event, self.rng))
            elif isinstance(event, BusJam):
                if jam is not None:
                    raise ValueError("fault plan has more than one bus jam")
                jam = event
                channel.jam_from = event.start
                channel.jam_until = event.stop
            elif isinstance(event, ArrivalBurst):
                station = self._known(event.station_id)
                if resolve_class is None:
                    raise ValueError(
                        "fault plan injects arrival bursts but no "
                        "resolve_class was provided (run through "
                        "NetworkSimulation, or pass one when arming by hand)"
                    )
                msg_class = resolve_class(station, event.class_name)
                for _ in range(event.count):
                    station.add_arrival(msg_class, event.at)
            else:  # pragma: no cover - models and runtime move together
                raise TypeError(f"unhandled fault model {event!r}")
        self._events.sort()
        if self._events:
            self._next_event = self._events[0][0]
        self.noise_gates = tuple(gates)

    def _known(self, station_id: int) -> "Station":
        station = self._stations.get(station_id)
        if station is None:
            raise ValueError(
                f"fault plan targets unknown station {station_id} "
                f"(attached: {sorted(self._stations)})"
            )
        return station

    def _babbler_id(self, model: BabblingStation) -> int:
        if model.station_id is not None:
            if model.station_id in self._stations:
                raise ValueError(
                    f"babbler id {model.station_id} collides with an "
                    "attached station (babblers are virtual transmitters)"
                )
            return model.station_id
        taken = set(self._stations) | {b.sid for b in self._babblers}
        sid = -1
        while sid in taken:
            sid -= 1
        return sid

    # -- per-round driving (called from _RoundDriver) --------------------

    def begin_round(self, now: int) -> None:
        """Advance fault state to the round starting at ``now``."""
        if now >= self._next_event:
            self._fire_events(now)
        if self._drift:
            self.suppressed.clear()
            for state in self._drift:
                if state.start <= now < state.stop:
                    state.accum += state.skew
                    if state.accum >= state.threshold:
                        state.accum -= state.threshold
                        self.suppressed.add(state.station_id)
                        self.fire_counts["drift_suppression"] += 1
        if self._babblers:
            frames: list[Frame] = []
            for babbler in self._babblers:
                if babbler.start <= now < babbler.stop:
                    fire = babbler.counter % babbler.period == 0
                    babbler.counter += 1
                    if fire:
                        self.fire_counts["babble_frame"] += 1
                        frames.append(
                            Frame(
                                station_id=babbler.sid,
                                message=MessageInstance.arrive(
                                    babbler.msg_class,
                                    now,
                                    babbler.sid,
                                    seq=-1,
                                ),
                            )
                        )
            self.extra = tuple(frames)

    def _fire_events(self, now: int) -> None:
        events = self._events
        while self._cursor < len(events) and events[self._cursor][0] <= now:
            _, _, action, station_id = events[self._cursor]
            self._cursor += 1
            if action == "crash":
                self.down.add(station_id)
                self.desynced.add(station_id)
                self.fire_counts["crash"] += 1
            else:  # restart
                self.down.discard(station_id)
                self.fire_counts["restart"] += 1
                assert self._reset_mac is not None  # checked at arm time
                self._reset_mac(self._stations[station_id])
        self._next_event = (
            events[self._cursor][0] if self._cursor < len(events) else math.inf
        )
