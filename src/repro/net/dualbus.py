"""Dual-bus fault tolerance (sections 3.2 and 5).

The paper notes that "many such media can be used in parallel" and that the
industrial CSMA/DCR deployments of the 80s ran *dual bus* Ethernets.  This
module provides the redundancy layer: every station is dual-homed, traffic
runs on the active bus, and when a bus fails (jams), all stations fail over
to the standby — *without any exchange of messages*, because the jam is
observed identically by everyone and the failover rule is deterministic
(K consecutive collision slots on the active bus).

Structure: each station owns one message queue; per bus it exposes a
:class:`BusPort` (a MAC adapter) wrapping an independent protocol replica.
Only the active bus's port may transmit; both ports observe their own bus
continuously, so the standby replicas are warm and consistent the moment
traffic arrives.

The failover threshold must exceed the longest run of *legitimate*
consecutive collisions the protocol can produce (a full collision-resolution
descent), else a busy bus is mistaken for a dead one; see
:func:`suggested_jam_threshold`.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Callable, Mapping

from repro.model.arrival import ArrivalProcess, GreedyBurstArrivals
from repro.model.problem import HRTDMProblem
from repro.model.source import SourceSpec
from repro.net.channel import BroadcastChannel, ChannelStats
from repro.net.phy import MediumProfile
from repro.net.station import Station
from repro.obs.context import current_telemetry
from repro.protocols.base import (
    UNBOUNDED,
    ChannelState,
    MACProtocol,
    SlotObservation,
)
from repro.protocols.ddcr.config import DDCRConfig
from repro.protocols.edf_queue import EDFQueue
from repro.sim.engine import Environment
from repro.sim.invariants import (
    InvariantReport,
    MonitorSuite,
    MutualExclusionMonitor,
)

__all__ = [
    "BusFailoverController",
    "BusPort",
    "DualBusResult",
    "DualBusSimulation",
    "suggested_jam_threshold",
]

#: The queue a standby port's replica is asked its room against: never
#: filled (see :meth:`BusPort.idle_steady`).
_NO_QUEUE = EDFQueue()


def suggested_jam_threshold(config: DDCRConfig, margin: int = 8) -> int:
    """A safe jam-detection threshold for CSMA/DDCR.

    The longest legitimate consecutive-collision run is a full descent of
    the time tree followed by a full descent of the static tree (every
    probe on the path colliding); delegate to
    :meth:`~repro.protocols.ddcr.config.DDCRConfig.collision_run_bound`,
    which the search-length invariant monitor shares, so the two
    consumers of this bound can never drift apart.
    """
    return config.collision_run_bound(margin)


class BusFailoverController:
    """Shared failover state of one dual-homed station.

    Failover is a pure function of the observed slot states on the active
    bus, so all stations' controllers switch in the same slot — the
    standby bus starts clean with every station present.
    """

    def __init__(self, jam_threshold: int) -> None:
        if jam_threshold < 2:
            raise ValueError(
                f"jam threshold must be >= 2, got {jam_threshold}"
            )
        self.jam_threshold = jam_threshold
        self.active_bus = 0
        self.failovers = 0
        self._consecutive_collisions = 0

    def note(self, bus_index: int, state: ChannelState, n: int = 1) -> None:
        """Digest ``n`` slots of bus ``bus_index`` in ``state``.

        Once the collision run reaches the threshold the bus is standby,
        so any collisions after that slot change nothing."""
        if bus_index != self.active_bus:
            return
        if state is ChannelState.COLLISION:
            self._consecutive_collisions += n
            if self._consecutive_collisions >= self.jam_threshold:
                self.active_bus = 1 - self.active_bus
                self.failovers += 1
                self._consecutive_collisions = 0
        else:
            self._consecutive_collisions = 0

    def jam_room(self, bus_index: int) -> int:
        """How many collision slots of bus ``bus_index`` leave the active
        bus as it is: one short of the threshold on the active bus, any
        number on the standby one."""
        if bus_index != self.active_bus:
            return UNBOUNDED
        return self.jam_threshold - 1 - self._consecutive_collisions

    def state_key(self) -> tuple[int, int, int]:
        return (
            self.active_bus,
            self.failovers,
            self._consecutive_collisions,
        )


class BusPort(MACProtocol):
    """The per-bus face of a dual-homed station.

    Wraps an inner protocol replica: offers pass through only while this
    port's bus is active; observations always pass through (warm standby).
    An idle stretch is the inner replica's (:meth:`idle_steady`,
    :meth:`leap_idle`), plus what its silent slots do to the shared
    controller: they end the active bus's collision run.  A jammed
    stretch is the inner replica's too (:meth:`jam_steady`,
    :meth:`leap_jammed`), plus what its collisions do to the controller:
    they extend the active bus's collision run, so an active port ends
    the stretch one slot before the run would reach the threshold, and
    the failover slot runs as a round in which every station flips.

    A standby port is :meth:`muted`: its offers never reach the wire, so
    its room (:meth:`idle_steady`) is its replica's with an empty queue,
    whatever the shared queue stranded in it holds.  A queue stands
    beside a leapt stretch only where the active port's replica sits it
    out (DDCR's compressed-time wait, a BEB backoff) or beside a jammed
    active bus, whose replicas are then jam-steady, hence DDCR.  Both of
    a station's ports wrap replicas of one protocol factory, so the
    standby replica is of the same kind, whose :meth:`offer` changes
    nothing but the offer itself, which the port retracts: skipping
    those offers changes nothing.  A replica whose offer draws (slotted
    ALOHA) would break this, and none sits a queued message out or is
    ever jam-steady.
    """

    def __init__(
        self,
        controller: BusFailoverController,
        bus_index: int,
        inner: MACProtocol,
    ) -> None:
        super().__init__()
        self.controller = controller
        self.bus_index = bus_index
        self.inner = inner

    def attach(self, station: Station) -> None:
        super().attach(station)
        self.inner.attach(station)

    def offer(self, now: int):
        message = self.inner.offer(now)
        if self.muted():
            if message is not None:
                # The replica must not believe it transmitted this slot.
                self.inner.suppress_offer()
            return None
        return message

    def observe(self, observation: SlotObservation) -> None:
        # Note the slot BEFORE the inner protocol digests it, so every
        # station flips in the same slot and the inner replica's reaction
        # to this very slot is already on the new regime.
        self.controller.note(self.bus_index, observation.state)
        self.inner.observe(observation)

    def idle_steady(self) -> int:
        room = self.inner.idle_steady()
        if room == UNBOUNDED or not self.muted() or not self.station.queue:
            return room
        # Every offer of a standby port is retracted, so its replica
        # digests a silent slot as it would with an empty queue: the room
        # is the one it has then, whatever the stranded queue holds.
        station = self.station
        queue = station.queue
        station.queue = _NO_QUEUE
        try:
            return self.inner.idle_steady()
        finally:
            station.queue = queue

    def leap_idle(self, n: int, end: int) -> None:
        # n silent slots: the first resets the collision run if this
        # port's bus is active, the rest change nothing more.
        self.controller.note(self.bus_index, ChannelState.SILENCE)
        self.inner.leap_idle(n, end)

    def muted(self) -> bool:
        return self.controller.active_bus != self.bus_index

    def jam_steady(self) -> int:
        return min(
            self.inner.jam_steady(), self.controller.jam_room(self.bus_index)
        )

    def leap_jammed(self, n: int, end: int) -> None:
        # n collision slots, at most jam_steady() of them: the active
        # port's run grows by n and stays short of the threshold, the
        # standby port's leaves the controller alone.
        self.controller.note(self.bus_index, ChannelState.COLLISION, n)
        self.inner.leap_jammed(n, end)

    def wants_burst_continuation(self, now: int) -> bool:
        return self.inner.wants_burst_continuation(now)

    def contention_tag(self, now: int):
        return self.inner.contention_tag(now)

    def public_state(self) -> tuple[object, ...]:
        return (
            self.controller.state_key()
            + (self.bus_index,)
            + self.inner.public_state()
        )


@dataclasses.dataclass
class DualBusResult:
    """Outcome of a dual-bus run."""

    horizon: int
    stations: list[Station]
    bus_stats: tuple[ChannelStats, ChannelStats]
    failovers: int
    #: Per-bus invariant reports (``monitors=True``), else ``None``.
    invariants: tuple[InvariantReport, InvariantReport] | None = None
    #: Why the batch kernel did not run (the channel's fallback note),
    #: ``None`` when it ran or was not requested.
    engine_fallback: str | None = None

    @property
    def completions(self):
        records = [
            record
            for station in self.stations
            for record in station.completions
        ]
        records.sort(key=lambda r: r.completion)
        return records

    def backlog(self):
        return [
            message
            for station in self.stations
            for message in station.backlog()
        ]


class DualBusSimulation:
    """A dual-homed network: one queue per source, two busses.

    ``protocol_factory`` builds one *inner* protocol replica per
    (source, bus); ``fail_bus_at`` jams bus A at that time (None = no
    failure).  Arrival handling mirrors
    :class:`~repro.net.network.NetworkSimulation`.

    A dual-bus network is two channels on one clock, run through the one
    entry point (:meth:`BroadcastChannel.run` with bus B as bus A's
    peer) on the ambient engine: ``des`` steps both busses' rounds on the
    clock's per-slot loop, bus A's first where two start together;
    ``batch`` runs the joint fast loop, which steps the bus whose round
    starts first in the same schedule order and leaps an idle stretch on
    both busses at once when every station of both is steady
    (:meth:`BusPort.idle_steady`).  The jammed bus takes part in such a
    stretch once its replicas are stuck re-probing a static-tree
    leaf (:meth:`BusPort.jam_steady`): the active bus's stretch stops one
    slot short of the failover, which runs as a round, and a queue
    stranded on the standby bus does not bar that bus's idle leap.  So
    a healthy run leaps end to end and a failed one too, but for the
    busy slots, the jam's descent and the failover slot.  ``batch``
    returns the kernel's ``batch engine unavailable (...): ran fastloop``
    note, kept on :attr:`DualBusResult.engine_fallback`.

    ``monitors=True`` arms a mutual-exclusion
    :class:`~repro.sim.invariants.MonitorSuite` on each bus (per-bus
    reports land in :attr:`DualBusResult.invariants`).  Only the
    slot-level safety invariant applies per bus: deadline and
    work-conservation accounting spans both busses (shared queues), so
    those monitors belong to single-bus runs.

    Both busses record into the ambient telemetry registry
    (:func:`repro.obs.context.use_telemetry`), their instruments
    prefixed ``bus0/`` and ``bus1/``, beside a ``failovers`` gauge.

    A flight recorder scoped around :meth:`run`
    (:func:`repro.obs.context.use_tracer`) records both busses into one
    dump, their event kinds prefixed like their instruments
    (``bus0/channel/slot``, ``bus1/channel/idle``).  Each bus's silent
    slots grow its own ``channel/idle`` run, and its jammed slots its
    own ``channel/jammed`` run, past the other bus's runs, so a joint
    leap and the per-slot ``des`` loop record the same dump.
    """

    def __init__(
        self,
        problem: HRTDMProblem,
        medium: MediumProfile,
        protocol_factory: Callable[[SourceSpec], MACProtocol],
        jam_threshold: int,
        arrivals: Mapping[str, ArrivalProcess] | None = None,
        fail_bus_at: int | None = None,
        check_consistency: bool = False,
        monitors: bool = False,
    ) -> None:
        self.problem = problem
        self.medium = medium
        self.protocol_factory = protocol_factory
        self.jam_threshold = jam_threshold
        self.arrivals = dict(arrivals) if arrivals else {}
        self.fail_bus_at = fail_bus_at
        self.check_consistency = check_consistency
        self.monitors = monitors

    def _arrival_process(self, class_name: str, source: SourceSpec):
        if class_name in self.arrivals:
            return self.arrivals[class_name]
        return GreedyBurstArrivals(
            bound=source.class_named(class_name).bound
        )

    def run(self, horizon: int) -> DualBusResult:
        env = Environment()
        telemetry = current_telemetry()
        busses = tuple(
            BroadcastChannel(
                env,
                self.medium,
                check_consistency=self.check_consistency,
                telemetry=telemetry,
                telemetry_prefix=f"bus{i}/",
            )
            for i in range(2)
        )
        if self.fail_bus_at is not None:
            busses[0].jam_from = self.fail_bus_at
        suites: tuple[MonitorSuite, MonitorSuite] | None = None
        if self.monitors:
            suites = tuple(
                MonitorSuite([MutualExclusionMonitor()]) for _ in range(2)
            )
            for bus, suite in zip(busses, suites):
                bus.monitors = suite
        primary_stations: list[Station] = []
        bus_stations: tuple[list[Station], list[Station]] = ([], [])
        controllers: list[BusFailoverController] = []
        seq_source = itertools.count()  # run-local instance ids (see Station)
        for source in self.problem.sources:
            controller = BusFailoverController(self.jam_threshold)
            controllers.append(controller)
            ports = tuple(
                BusPort(controller, i, self.protocol_factory(source))
                for i in range(2)
            )
            station_a = Station(
                station_id=source.source_id,
                mac=ports[0],
                static_indices=source.static_indices,
                seq_source=seq_source,
            )
            # The bus-B station shares queue and completion log with A:
            # one message store, two network attachments.
            station_b = Station(
                station_id=source.source_id,
                mac=ports[1],
                static_indices=source.static_indices,
            )
            station_b.queue = station_a.queue
            station_b.completions = station_a.completions
            for msg_class in source.message_classes:
                station_a.load_arrivals(
                    msg_class,
                    self._arrival_process(msg_class.name, source),
                    horizon,
                )
            busses[0].attach(station_a)
            busses[1].attach(station_b)
            primary_stations.append(station_a)
            bus_stations[0].append(station_a)
            bus_stations[1].append(station_b)
        # Two channels on one clock, both through the one entry point:
        # ``des`` steps both on the per-slot loop, bus A's first; ``batch``
        # runs the joint fast loop with the kernel's fallback note.
        engine_fallback = busses[0].run(horizon, peers=busses[1:])
        invariants = None
        if suites is not None:
            invariants = tuple(
                suite.finalize(horizon, stations, down=None)
                for suite, stations in zip(suites, bus_stations)
            )
        failovers = max(c.failovers for c in controllers)
        if telemetry.enabled:
            telemetry.gauge("failovers").set(failovers)
        return DualBusResult(
            horizon=horizon,
            stations=primary_stations,
            bus_stats=(busses[0].stats, busses[1].stats),
            failovers=failovers,
            invariants=invariants,
            engine_fallback=engine_fallback,
        )
