"""Multi-segment broadcast fabric: staged execution of a Topology.

The paper's protocol and proofs live on one broadcast segment; a
:class:`~repro.net.topology.Topology` chains several through
store-and-forward bridges.  This module is the executable half: a
:class:`Fabric` runs every segment and moves frames across bridges,
producing per-segment :class:`~repro.net.network.RunResult` s plus the
fabric-level views — bridge reports, end-to-end journey records and the
``fabric/...`` instruments in the ambient telemetry registry.

Execution model — staged, not co-simulated
------------------------------------------
The bridge graph is feed-forward (validated by the topology), so the
fabric runs segments *sequentially in topological order*.  After a
segment finishes, each outgoing bridge reads the completions it heard
(broadcast: every success of a mapped class), stamps each with its
fixed ``forwarding_latency``, and the resulting ready times become a
:class:`~repro.model.arrival.TraceArrivals` process feeding the relay
class on the target segment.  Every segment run is therefore a plain
single-bus :class:`~repro.net.network.NetworkSimulation` — the batch
kernel stays eligible per segment, engines remain byte-identical, and
a one-segment fabric is *by construction* the very same run as
``NetworkSimulation.from_scenario`` (the differential suite holds the
two surfaces together byte for byte, telemetry content included).

The price of staging is that a bridge's forwarding schedule is fixed
before the target segment runs — which is exactly right for this
model: the bridge's egress contention is the target segment's MAC, and
that is simulated, not scheduled.  Bridge queue capacity is enforced
by the online :class:`~repro.sim.invariants.BridgeConservationMonitor`
(no-loss, per-class FIFO, bounded occupancy) rather than by silent
ingress drops.

End-to-end accounting
---------------------
Each forwarded message's journey is tracked across hops by matching
the bridge's enqueue journal against the target segment's completions
(ready time == relay arrival time, unique per class by construction).
:meth:`Fabric.route_bounds` composes the analytic end-to-end bound —
``sum B_DDCR + sum forwarding latencies``
(:func:`repro.core.composition.compose_route_bound`) — which the
FABRIC experiment checks against :meth:`FabricResult.worst_latency`.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

from repro.core.composition import (
    RouteBound,
    SegmentAnalysis,
    compose_route_bound,
)
from repro.core.feasibility import TreeParameters
from repro.model.arrival import TraceArrivals
from repro.model.route import Route
from repro.net.network import NetworkSimulation, RunResult
from repro.net.scenario import Scenario
from repro.net.topology import BridgeSpec, Topology
from repro.obs.context import current_telemetry, current_tracer
from repro.sim.invariants import BridgeConservationMonitor

__all__ = [
    "BridgeReport",
    "EndToEndRecord",
    "Fabric",
    "FabricResult",
    "HopCompletion",
]


@dataclasses.dataclass(frozen=True, slots=True)
class HopCompletion:
    """One achieved hop of a journey: broadcast completed on a segment."""

    segment: str
    class_name: str
    completion: int


@dataclasses.dataclass(frozen=True, slots=True)
class EndToEndRecord:
    """One message's realized journey across the fabric.

    ``route`` is the planned chain from the topology; ``hops`` are the
    hops actually completed before the horizon (a journey still queued
    or in a bridge at the horizon is *in flight*, not delivered).
    """

    route: Route
    origin_arrival: int
    hops: tuple[HopCompletion, ...]
    dropped: bool = False

    @property
    def delivered(self) -> bool:
        return not self.dropped and len(self.hops) == len(self.route.hops)

    @property
    def completion(self) -> int:
        """Completion time of the last achieved hop."""
        return self.hops[-1].completion

    @property
    def latency(self) -> int:
        """End-to-end: last achieved completion minus origin arrival."""
        return self.completion - self.origin_arrival


@dataclasses.dataclass(frozen=True, slots=True)
class BridgeReport:
    """What one bridge did during a fabric run."""

    bridge: str
    source: str
    target: str
    station_id: int
    forwarding_latency: int
    queue_capacity: int
    #: Successes of mapped classes heard on the source segment.
    heard: int
    #: Frames whose ready time fell before the horizon (journalled).
    enqueued: int
    #: Frames still in the forwarding latency window at the horizon.
    expired: int
    #: Relay broadcasts completed on the target segment.
    forwarded: int
    #: Relay frames the target segment's MAC dropped (loss!).
    dropped: int
    #: Peak instantaneous queue occupancy (entered minus left).
    max_occupancy: int

    @property
    def backlog(self) -> int:
        """Frames enqueued but neither forwarded nor dropped."""
        return self.enqueued - self.forwarded - self.dropped


@dataclasses.dataclass
class _Journey:
    """Mutable tracking state; frozen into EndToEndRecord at the end."""

    route: Route
    origin_arrival: int
    hops: list[HopCompletion]
    dropped: bool = False


@dataclasses.dataclass
class _BridgeState:
    """One bridge's journal while the fabric runs."""

    spec: BridgeSpec
    #: (relay class, ready time) -> journey, in enqueue order.
    journal: dict[tuple[str, int], _Journey] = dataclasses.field(
        default_factory=dict
    )
    heard: int = 0
    enqueued: int = 0
    expired: int = 0
    forwarded: int = 0
    dropped: int = 0
    entries: list[int] = dataclasses.field(default_factory=list)
    exits: list[int] = dataclasses.field(default_factory=list)

    def schedule(self) -> dict[str, tuple[int, ...]]:
        """Per-relay-class ready times, sorted — the monitor's oracle
        and the TraceArrivals feed."""
        per_class: dict[str, list[int]] = {
            name: [] for name in self.spec.relay_classes
        }
        for (relay, ready) in self.journal:
            per_class[relay].append(ready)
        return {
            name: tuple(sorted(times))
            for name, times in per_class.items()
        }

    def max_occupancy(self) -> int:
        """Peak of entered-minus-left over the run (frames leave at the
        completion of their relay broadcast or drop)."""
        events = [(t, 1) for t in self.entries] + [
            (t, -1) for t in self.exits
        ]
        events.sort()
        peak = occupancy = 0
        for _, delta in events:
            occupancy += delta
            peak = max(peak, occupancy)
        return peak

    def report(self) -> BridgeReport:
        return BridgeReport(
            bridge=self.spec.name,
            source=self.spec.source,
            target=self.spec.target,
            station_id=self.spec.station_id,
            forwarding_latency=self.spec.forwarding_latency,
            queue_capacity=self.spec.queue_capacity,
            heard=self.heard,
            enqueued=self.enqueued,
            expired=self.expired,
            forwarded=self.forwarded,
            dropped=self.dropped,
            max_occupancy=self.max_occupancy(),
        )


@dataclasses.dataclass
class FabricResult:
    """Everything a fabric run produced.

    ``segments`` maps segment name to its ordinary single-bus
    :class:`~repro.net.network.RunResult`, in topological order; the
    fabric-level views sit alongside.  For a one-segment topology the
    single RunResult (and the telemetry it records) are byte-identical
    to a bare ``NetworkSimulation.from_scenario(...)`` run of the same
    scenario.
    """

    horizon: int
    segments: dict[str, RunResult]
    bridges: tuple[BridgeReport, ...]
    journeys: tuple[EndToEndRecord, ...]
    #: Per-segment engine notes (each segment's
    #: :attr:`RunResult.engine_fallback`; ``None`` where the batch kernel
    #: ran or was not requested), one entry per segment.
    engine_fallbacks: dict[str, str | None]

    @property
    def invariants_ok(self) -> bool:
        """True when no armed monitor on any segment recorded a
        violation (segments without monitors count as ok)."""
        return all(
            result.invariants is None or result.invariants.ok
            for result in self.segments.values()
        )

    def delivered(self) -> list[EndToEndRecord]:
        return [j for j in self.journeys if j.delivered]

    def in_flight(self) -> list[EndToEndRecord]:
        return [
            j for j in self.journeys if not j.delivered and not j.dropped
        ]

    def worst_latency(self, route: Route | None = None) -> int | None:
        """Worst observed end-to-end latency over delivered journeys
        (optionally only those on ``route``); None when none delivered."""
        latencies = [
            j.latency
            for j in self.journeys
            if j.delivered and (route is None or j.route == route)
        ]
        return max(latencies) if latencies else None


class Fabric:
    """Staged executor of a :class:`~repro.net.topology.Topology`.

    ``Fabric(scenario.as_topology())`` runs one scenario as a fabric.
    Each :meth:`run` stages the segments fresh (same-seed repeats are
    identical); every segment runs on the ambient engine
    (:func:`repro.net.engine.use_engine`).
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology

    # -- analysis ------------------------------------------------------

    def route_bounds(
        self, trees: TreeParameters | Mapping[str, TreeParameters]
    ) -> tuple[RouteBound, ...]:
        """Composed end-to-end bounds, one per multi-hop route.

        ``trees`` supplies each segment's :class:`TreeParameters`
        (the analytic tree shape the protocol runs with) — one value
        for a homogeneous fabric, or a name-keyed mapping.
        """
        topology = self.topology
        if isinstance(trees, TreeParameters):
            tree_map: Mapping[str, TreeParameters] = {
                seg.name: trees for seg in topology.segments
            }
        else:
            tree_map = trees
        analyses = {
            seg.name: SegmentAnalysis(
                problem=seg.problem,
                medium=seg.medium,
                trees=tree_map[seg.name],
            )
            for seg in topology.segments
        }
        bounds = []
        for route in topology.routes():
            latencies = []
            for hop in route.hops[:-1]:
                bridge = self._forwarding_bridge(hop.segment, hop.class_name)
                latencies.append(bridge.forwarding_latency)
            bounds.append(compose_route_bound(route, analyses, latencies))
        return tuple(bounds)

    def _forwarding_bridge(self, segment: str, class_name: str) -> BridgeSpec:
        for bridge in self.topology.bridges_from(segment):
            if class_name in bridge.class_map:
                return bridge
        raise KeyError(
            f"no bridge forwards {class_name!r} out of {segment!r}"
        )

    # -- execution -----------------------------------------------------

    def run(self, horizon: int) -> FabricResult:
        topology = self.topology
        order = topology.segment_order()
        single = len(topology.segments) == 1
        tracer = current_tracer()
        declaration = {
            seg.name: index for index, seg in enumerate(topology.segments)
        }
        states = {
            bridge.name: _BridgeState(spec=bridge)
            for bridge in topology.bridges
        }
        #: (segment, class, arrival, seq) -> journey, for chaining hops.
        index: dict[tuple[str, str, int, int | None], _Journey] = {}
        journeys: list[_Journey] = []
        results: dict[str, RunResult] = {}
        fallbacks: dict[str, str | None] = {}
        for name in order:
            segment = topology.segment(name)
            inbound = topology.bridges_into(name)
            arrivals = dict(segment.arrivals) if segment.arrivals else {}
            extra_monitors = []
            for bridge in inbound:
                state = states[bridge.name]
                schedule = state.schedule()
                # Relay classes are fed exclusively by their bridge: an
                # empty journal still overrides the greedy default.
                for relay, times in sorted(schedule.items()):
                    arrivals[relay] = TraceArrivals(times)
                if topology.monitors is not False:
                    extra_monitors.append(
                        BridgeConservationMonitor(
                            bridge=bridge.name,
                            station_id=bridge.station_id,
                            schedule=schedule,
                            capacity=bridge.queue_capacity,
                        )
                    )
            scenario = Scenario(
                problem=segment.problem,
                medium=segment.medium,
                protocol_factory=segment.protocol_factory,
                arrivals=arrivals if arrivals else None,
                check_consistency=topology.check_consistency,
                noise_rate=segment.noise_rate,
                noise_seed=segment.noise_seed,
                # Per-segment seed offset by declaration index: segment
                # streams decorrelate, and a one-segment fabric (offset
                # zero) keeps the scenario's exact seed — byte identity.
                root_seed=topology.root_seed + declaration[name],
                faults=topology.faults,
                monitors=topology.monitors,
                telemetry_prefix="" if single else f"{name}/",
            )
            simulation = NetworkSimulation.from_scenario(scenario)
            if extra_monitors:
                simulation.extra_monitors = tuple(extra_monitors)
            tracer.emit(
                "fabric/segment",
                segment=name,
                inbound=len(inbound),
                horizon=horizon,
            )
            result = simulation.run(horizon)
            results[name] = result
            fallbacks[name] = result.engine_fallback
            self._match_inbound(name, inbound, states, result, index)
            self._forward_outbound(
                name,
                topology.bridges_from(name),
                states,
                result,
                index,
                journeys,
                horizon,
                tracer,
            )
        reports = tuple(
            states[bridge.name].report() for bridge in topology.bridges
        )
        records = tuple(
            EndToEndRecord(
                route=j.route,
                origin_arrival=j.origin_arrival,
                hops=tuple(j.hops),
                dropped=j.dropped,
            )
            for j in journeys
        )
        self._finalize(single, reports, records)
        return FabricResult(
            horizon=horizon,
            segments=results,
            bridges=reports,
            journeys=records,
            engine_fallbacks=fallbacks,
        )

    def _match_inbound(
        self,
        name: str,
        inbound,
        states: dict[str, _BridgeState],
        result: RunResult,
        index: dict,
    ) -> None:
        """Match this segment's relay completions against the bridge
        journals: the journey gains a hop, the bridge logs the exit."""
        for bridge in inbound:
            state = states[bridge.name]
            relay_names = bridge.relay_classes
            for record in result.completions:
                message = record.message
                class_name = message.msg_class.name
                if class_name not in relay_names:
                    continue
                journey = state.journal.get((class_name, message.arrival))
                if journey is None:
                    continue  # not this bridge's frame (never happens:
                    # one bridge per relay class, unique ready times)
                state.exits.append(record.completion)
                if record.dropped:
                    journey.dropped = True
                    state.dropped += 1
                    continue
                state.forwarded += 1
                journey.hops.append(
                    HopCompletion(
                        segment=name,
                        class_name=class_name,
                        completion=record.completion,
                    )
                )
                index[(name, class_name, message.arrival, message.seq)] = (
                    journey
                )

    def _forward_outbound(
        self,
        name: str,
        outbound,
        states: dict[str, _BridgeState],
        result: RunResult,
        index: dict,
        journeys: list[_Journey],
        horizon: int,
        tracer,
    ) -> None:
        """Journal every heard completion onto its outgoing bridge."""
        topology = self.topology
        for bridge in outbound:
            state = states[bridge.name]
            class_map = bridge.class_map
            for record in result.completions:
                if record.dropped:
                    continue
                message = record.message
                class_name = message.msg_class.name
                if class_name not in class_map:
                    continue
                state.heard += 1
                key = (name, class_name, message.arrival, message.seq)
                journey = index.get(key)
                if journey is None:
                    journey = _Journey(
                        route=topology.route_for(name, class_name),
                        origin_arrival=message.arrival,
                        hops=[
                            HopCompletion(
                                segment=name,
                                class_name=class_name,
                                completion=record.completion,
                            )
                        ],
                    )
                    journeys.append(journey)
                    index[key] = journey
                relay = class_map[class_name]
                ready = record.completion + bridge.forwarding_latency
                tracer.emit(
                    "fabric/hop",
                    bridge=bridge.name,
                    msg_class=class_name,
                    relay_class=relay,
                    completion=record.completion,
                    ready=ready,
                )
                if ready >= horizon:
                    state.expired += 1
                    continue
                state.journal[(relay, ready)] = journey
                state.entries.append(ready)
                state.enqueued += 1

    def _finalize(
        self,
        single: bool,
        reports: tuple[BridgeReport, ...],
        records: tuple[EndToEndRecord, ...],
    ) -> None:
        """Fold the fabric-level instruments into the ambient registry.

        A one-segment fabric adds *no* instruments, keeping its
        telemetry content byte-identical to the bare simulation's;
        multi-segment fabrics add the ``fabric/...`` aggregates beside
        the per-segment prefixed instruments.
        """
        registry = current_telemetry()
        if single or not registry.enabled:
            return
        for report in reports:
            registry.counter(f"fabric/{report.bridge}/forwarded").inc(
                report.forwarded
            )
            registry.gauge(f"fabric/{report.bridge}/max_occupancy").set(
                report.max_occupancy
            )
        delivered = [r for r in records if r.delivered]
        registry.counter("fabric/journeys/delivered").inc(len(delivered))
        registry.counter("fabric/journeys/in_flight").inc(
            sum(1 for r in records if not r.delivered and not r.dropped)
        )
        if delivered:
            registry.gauge("fabric/end_to_end/worst_latency").set(
                max(r.latency for r in delivered)
            )
