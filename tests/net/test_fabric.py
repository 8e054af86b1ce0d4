"""Fabric: topologies, staged execution, composed end-to-end bounds.

The two load-bearing claims of the multi-segment API:

* a one-segment :class:`~repro.net.fabric.Fabric` is byte-identical to
  the bare ``NetworkSimulation.from_scenario`` run — stats, completions,
  flight-recorder events, invariants and telemetry content — under either
  engine;
* at feasible loads, the composed route bound (sum of per-hop B_DDCR
  plus bridge forwarding latencies) dominates every observed end-to-end
  journey latency.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.harness import build_chain_topology
from repro.model.workloads import relay_chain_problems, uniform_problem
from repro.net.engine import use_engine
from repro.net.fabric import Fabric
from repro.net.network import NetworkSimulation, Scenario
from repro.net.phy import ideal_medium
from repro.net.topology import (
    BridgeSpec,
    SegmentSpec,
    Topology,
    TopologyError,
)
from repro.obs.context import use_telemetry, use_tracer
from repro.obs.instruments import Telemetry
from repro.obs.manifest import RunTelemetry
from repro.obs.tracer import FlightRecorder
from repro.protocols.csma_cd import CSMACDProtocol
from repro.protocols.ddcr import DDCRConfig, DDCRProtocol
from repro.sim.invariants import BridgeConservationMonitor

_MS = 1_000_000
ENGINES = ("des", "batch")
_HORIZON = 250_000


def _ddcr_factory(problem):
    config = DDCRConfig(
        time_f=16,
        time_m=2,
        class_width=65_536,
        static_q=problem.static_q,
        static_m=problem.static_m,
    )
    return lambda source: DDCRProtocol(config)


def _segment(name="seg0", z=4, **overrides):
    problem = uniform_problem(
        z=z, length=1_000, deadline=400_000, a=1, w=200_000
    )
    params = dict(
        name=name,
        problem=problem,
        medium=ideal_medium(slot_time=64),
        protocol_factory=_ddcr_factory(problem),
    )
    params.update(overrides)
    return SegmentSpec(**params)


def _chain_segment(name, problem, medium=None):
    return SegmentSpec(
        name=name,
        problem=problem,
        medium=medium if medium is not None else ideal_medium(slot_time=64),
        protocol_factory=_ddcr_factory(problem),
    )


def _two_segment_topology(**bridge_overrides):
    """seg0 -> seg1 forwarding local-0 onto relay-1."""
    problems = relay_chain_problems(
        2, z=3, length=1_000, deadline=400_000, a=1, w=200_000
    )
    bridge = dict(
        source="seg0",
        target="seg1",
        station_id=0,
        class_map={"local-0": "relay-1"},
        forwarding_latency=1_024,
    )
    bridge.update(bridge_overrides)
    return Topology(
        segments=(
            _chain_segment("seg0", problems[0]),
            _chain_segment("seg1", problems[1]),
        ),
        bridges=(BridgeSpec(**bridge),),
    )


class TestTopologyValidation:
    def test_duplicate_segment_names_rejected(self):
        with pytest.raises(TopologyError, match="duplicate segment names"):
            Topology(segments=(_segment("seg0"), _segment("seg0")))

    def test_bridge_to_unknown_segment_rejected(self):
        with pytest.raises(TopologyError, match="not in the topology"):
            Topology(
                segments=(_segment("seg0"),),
                bridges=(
                    BridgeSpec(
                        source="seg0",
                        target="nowhere",
                        station_id=0,
                        class_map={"uniform-0": "uniform-0"},
                    ),
                ),
            )

    def test_self_bridge_rejected(self):
        with pytest.raises(TopologyError, match="onto itself"):
            BridgeSpec(
                source="seg0",
                target="seg0",
                station_id=0,
                class_map={"a": "b"},
            )

    def test_empty_class_map_rejected(self):
        with pytest.raises(TopologyError, match="forwards no classes"):
            BridgeSpec(
                source="seg0", target="seg1", station_id=0, class_map={}
            )

    def test_unknown_heard_class_rejected(self):
        with pytest.raises(TopologyError, match="unknown class"):
            _two_segment_topology(class_map={"nonesuch": "relay-1"})

    def test_relay_class_must_belong_to_bridge_station(self):
        # relay-1 is owned by station 0; station 1 only has local-1.
        with pytest.raises(TopologyError, match="not owned by station"):
            _two_segment_topology(station_id=1)

    def test_unknown_station_rejected(self):
        with pytest.raises(TopologyError, match="no station 99"):
            _two_segment_topology(station_id=99)

    def test_cycle_rejected(self):
        problems = relay_chain_problems(
            3, z=3, length=1_000, deadline=400_000, a=1, w=200_000
        )
        # seg1 and seg2 both own relay classes; close the loop 1->2->1.
        with pytest.raises(TopologyError, match="cyclic"):
            Topology(
                segments=(
                    _chain_segment("seg1", problems[1]),
                    _chain_segment("seg2", problems[2]),
                ),
                bridges=(
                    BridgeSpec(
                        source="seg1",
                        target="seg2",
                        station_id=0,
                        class_map={"local-0": "relay-2"},
                    ),
                    BridgeSpec(
                        source="seg2",
                        target="seg1",
                        station_id=0,
                        class_map={"local-0": "relay-1"},
                    ),
                ),
            )

    def test_multiply_fed_relay_class_rejected(self):
        problems = relay_chain_problems(
            3, z=3, length=1_000, deadline=400_000, a=1, w=200_000
        )
        with pytest.raises(TopologyError, match="fed by more than one"):
            Topology(
                segments=(
                    _chain_segment("seg0", problems[0]),
                    _chain_segment("seg1", problems[1]),
                    _chain_segment("seg2", problems[2]),
                ),
                bridges=(
                    BridgeSpec(
                        source="seg0",
                        target="seg2",
                        station_id=0,
                        class_map={"local-0": "relay-2"},
                    ),
                    BridgeSpec(
                        source="seg1",
                        target="seg2",
                        station_id=0,
                        class_map={"local-1": "relay-2"},
                    ),
                ),
            )

    def test_multiply_forwarded_class_rejected(self):
        problems = relay_chain_problems(
            3, z=3, length=1_000, deadline=400_000, a=1, w=200_000
        )
        with pytest.raises(TopologyError, match="more than one bridge"):
            Topology(
                segments=(
                    _chain_segment("seg0", problems[0]),
                    _chain_segment("seg1", problems[1]),
                    _chain_segment("seg2", problems[2]),
                ),
                bridges=(
                    BridgeSpec(
                        source="seg0",
                        target="seg1",
                        station_id=0,
                        class_map={"local-0": "relay-1"},
                    ),
                    BridgeSpec(
                        source="seg0",
                        target="seg2",
                        station_id=0,
                        class_map={"local-0": "relay-2"},
                    ),
                ),
            )

    def test_explicit_arrivals_for_relay_class_rejected(self):
        from repro.model.arrival import TraceArrivals

        problems = relay_chain_problems(
            2, z=3, length=1_000, deadline=400_000, a=1, w=200_000
        )
        with pytest.raises(TopologyError, match="fed exclusively"):
            Topology(
                segments=(
                    _chain_segment("seg0", problems[0]),
                    SegmentSpec(
                        name="seg1",
                        problem=problems[1],
                        medium=ideal_medium(slot_time=64),
                        protocol_factory=_ddcr_factory(problems[1]),
                        arrivals={"relay-1": TraceArrivals((0,))},
                    ),
                ),
                bridges=(
                    BridgeSpec(
                        source="seg0",
                        target="seg1",
                        station_id=0,
                        class_map={"local-0": "relay-1"},
                    ),
                ),
            )

    def test_segment_order_follows_edges_not_declaration(self):
        problems = relay_chain_problems(
            2, z=3, length=1_000, deadline=400_000, a=1, w=200_000
        )
        # Declare the downstream segment first; order must still put
        # the feeder before its target.
        topology = Topology(
            segments=(
                _chain_segment("seg1", problems[1]),
                _chain_segment("seg0", problems[0]),
            ),
            bridges=(
                BridgeSpec(
                    source="seg0",
                    target="seg1",
                    station_id=0,
                    class_map={"local-0": "relay-1"},
                ),
            ),
        )
        assert topology.segment_order() == ("seg0", "seg1")

    def test_route_for_follows_the_chain(self):
        topology, _ = build_chain_topology(segments=3, z=3)
        route = topology.route_for("seg0", "local-0")
        assert [(h.segment, h.class_name) for h in route.hops] == [
            ("seg0", "local-0"),
            ("seg1", "relay-1"),
            ("seg2", "relay-2"),
        ]
        assert route.bridge_count == 2
        # Unforwarded classes are single-hop routes.
        assert topology.route_for("seg0", "local-1").bridge_count == 0
        # Relay classes are mid-chain, not origins.
        with pytest.raises(TopologyError, match="relay class"):
            topology.route_for("seg1", "relay-1")
        # One multi-hop route in the whole chain.
        assert topology.routes() == (route,)


class TestSingleSegmentByteIdentity:
    """The 1-segment fabric IS the bare simulation, engine by engine."""

    def _scenario(self):
        problem = uniform_problem(
            z=5, length=1_000, deadline=400_000, a=1, w=200_000
        )
        return Scenario(
            problem=problem,
            medium=ideal_medium(slot_time=64),
            protocol_factory=_ddcr_factory(problem),
            noise_rate=0.01,
            noise_seed=3,
            root_seed=3,
            monitors=True,
        )

    @staticmethod
    def _digest(result, recorder):
        # The fabric adds one ``fabric/segment`` event ahead of the
        # channel's, so compare the channel events without their ids.
        assert recorder.emitted == len(recorder)
        channel_events = [
            (event.kind, event.parent, event.data)
            for event in recorder.events()
            if event.kind.startswith("channel/")
        ]
        return pickle.dumps(
            (
                result.stats,
                result.completions,
                channel_events,
                result.invariants,
            )
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_results_byte_identical(self, engine):
        bare_recorder = FlightRecorder(capacity=100_000)
        with use_tracer(bare_recorder), use_engine(engine):
            bare = NetworkSimulation.from_scenario(self._scenario()).run(
                _HORIZON
            )
        fabric_recorder = FlightRecorder(capacity=100_000)
        with use_tracer(fabric_recorder), use_engine(engine):
            fabric = Fabric(self._scenario().as_topology()).run(_HORIZON)
        assert len(fabric.segments) == 1
        (segment_result,) = fabric.segments.values()
        assert self._digest(segment_result, fabric_recorder) == self._digest(
            bare, bare_recorder
        )
        assert fabric.bridges == () and fabric.journeys == ()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_telemetry_content_identical(self, engine):
        def manifest(run):
            registry = Telemetry()
            with use_engine(engine), use_telemetry(registry):
                run(_HORIZON)
            return RunTelemetry.from_registry(registry, run_id="run")

        bare = manifest(NetworkSimulation.from_scenario(self._scenario()).run)
        fabric = manifest(Fabric(self._scenario().as_topology()).run)
        assert fabric.counters and fabric.histograms
        assert fabric.content_json() == bare.content_json()
        # Single segment: no fabric/... instruments, no prefixes.
        assert not any(
            name.startswith("fabric/") for name in fabric.counters
        )


class TestMultiSegmentExecution:
    def test_chain_delivers_and_accounts(self):
        topology, trees = build_chain_topology(
            segments=3, z=4, monitors=True
        )
        fabric = Fabric(topology)
        (route_bound,) = fabric.route_bounds(trees)
        assert route_bound.feasible
        result = fabric.run(40 * _MS)
        assert result.invariants_ok
        delivered = result.delivered()
        assert delivered
        assert result.worst_latency(route_bound.route) <= route_bound.bound
        for journey in delivered:
            hops = journey.hops
            assert [h.segment for h in hops] == ["seg0", "seg1", "seg2"]
            # Completions advance strictly along the chain.
            assert all(
                earlier.completion < later.completion
                for earlier, later in zip(hops, hops[1:])
            )
            assert journey.latency > 0
        for report in result.bridges:
            assert report.heard == report.enqueued + report.expired
            assert report.dropped == 0
            assert 0 <= report.backlog
            assert report.max_occupancy <= report.queue_capacity
        # The per-segment notes are collected with or without telemetry,
        # and every segment here is batch-eligible, so none has a note.
        assert result.engine_fallbacks == {
            "seg0": None, "seg1": None, "seg2": None,
        }

    def test_engine_notes_without_telemetry(self):
        """A segment the batch kernel cannot run reports why on the
        fabric result, with no telemetry registry in scope."""
        topology = Topology(
            segments=(
                _segment("seg0"),
                _segment(
                    "seg1",
                    protocol_factory=lambda s: CSMACDProtocol(
                        seed=s.source_id
                    ),
                ),
            ),
        )
        result = Fabric(topology).run(_HORIZON)
        assert result.engine_fallbacks == {
            "seg0": None,
            "seg1": "batch engine unavailable (station MACs are not "
            "all DDCRProtocol, DCRProtocol or TDMAProtocol (station 0: "
            "CSMACDProtocol)): ran fastloop",
        }
        assert result.segments["seg1"].engine_fallback == (
            result.engine_fallbacks["seg1"]
        )

    def test_multi_segment_telemetry_namespaces(self):
        registry = Telemetry()
        topology, _ = build_chain_topology(segments=2, z=3)
        with use_telemetry(registry):
            Fabric(topology).run(20 * _MS)
        counters = RunTelemetry.from_registry(
            registry, run_id="fabric"
        ).counters
        assert counters["seg0/slots/success"] > 0
        assert counters["seg1/slots/success"] > 0
        assert counters["fabric/journeys/delivered"] > 0
        assert counters["fabric/seg0->seg1/forwarded"] > 0

    def test_relay_classes_fed_only_by_their_bridge(self):
        # A forwarding latency beyond the horizon expires every frame:
        # the relay class must then see *zero* arrivals (the empty
        # journal still overrides the greedy default).
        topology = _two_segment_topology(forwarding_latency=10**9)
        result = Fabric(topology).run(2 * _MS)
        (report,) = result.bridges
        assert report.heard > 0
        assert report.expired == report.heard and report.enqueued == 0
        relayed = [
            record
            for record in result.segments["seg1"].completions
            if record.message.msg_class.name == "relay-1"
        ]
        assert relayed == []
        assert result.delivered() == []
        assert result.in_flight()  # journeys exist, stuck at hop 1

    def test_relay_deliveries_match_bridge_journal(self):
        topology = _two_segment_topology()
        result = Fabric(topology).run(4 * _MS)
        (report,) = result.bridges
        relayed = [
            record
            for record in result.segments["seg1"].completions
            if record.message.msg_class.name == "relay-1"
            and not record.dropped
        ]
        assert report.forwarded == len(relayed) > 0
        # Every relay arrival equals a journalled ready time.
        schedule = {
            record.message.arrival for record in relayed
        }
        assert len(schedule) == len(relayed)  # unique ready times

    def test_traced_chain_records_hops_and_prefixed_slots(self):
        """One recorder for the whole chain: each segment's slot events
        carry its name, and every forwarded frame is one ``fabric/hop``
        event with its completion and ready time."""
        topology = _two_segment_topology()
        recorder = FlightRecorder(capacity=100_000)
        with use_tracer(recorder):
            result = Fabric(topology).run(4 * _MS)
        assert recorder.emitted == len(recorder)
        events = recorder.events()
        kinds = {event.kind for event in events}
        assert {
            "seg0/channel/slot", "seg0/channel/idle",
            "seg1/channel/slot", "seg1/channel/idle",
        } <= kinds
        assert not any(kind.startswith("channel/") for kind in kinds)
        for name, segment in result.segments.items():
            slots = sum(e.kind == f"{name}/channel/slot" for e in events)
            idle = sum(
                e.data["n"] for e in events if e.kind == f"{name}/channel/idle"
            )
            assert slots + idle == segment.stats.rounds
        hops = [event.data for event in events if event.kind == "fabric/hop"]
        (report,) = result.bridges
        assert len(hops) == report.heard > 0
        heard = sorted(
            record.completion
            for record in result.segments["seg0"].completions
            if record.message.msg_class.name == "local-0"
            and not record.dropped
        )
        assert sorted(hop["completion"] for hop in hops) == heard
        assert all(hop["ready"] == hop["completion"] + 1_024 for hop in hops)

    def test_same_seed_repeats_are_identical(self):
        topology, _ = build_chain_topology(segments=2, z=3)

        def digest():
            result = Fabric(topology).run(10 * _MS)
            return pickle.dumps(
                [
                    (name, seg.stats, seg.completions)
                    for name, seg in result.segments.items()
                ]
                + [result.journeys]
            )

        assert digest() == digest()


class TestComposedBound:
    @settings(max_examples=8, deadline=None)
    @given(
        depth=st.integers(min_value=2, max_value=3),
        scale=st.sampled_from([0.5, 1.0, 2.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_bound_dominates_observed_latency_when_feasible(
        self, depth, scale, seed
    ):
        topology, trees = build_chain_topology(
            segments=depth, z=3, scale=scale, root_seed=seed, monitors=True
        )
        fabric = Fabric(topology)
        (route_bound,) = fabric.route_bounds(trees)
        if not route_bound.feasible:
            return  # the composition theorem only speaks at feasible loads
        result = fabric.run(30 * _MS)
        assert result.invariants_ok
        worst = result.worst_latency(route_bound.route)
        assert worst is not None
        assert worst <= route_bound.bound
        assert sum(report.dropped for report in result.bridges) == 0

    def test_route_bound_shape(self):
        topology, trees = build_chain_topology(segments=3, z=4)
        (route_bound,) = Fabric(topology).route_bounds(trees)
        assert len(route_bound.hops) == 3
        # First hop has no ingress latency; later hops carry the bridge's.
        assert route_bound.hops[0].ingress_latency == 0
        assert all(h.ingress_latency > 0 for h in route_bound.hops[1:])
        assert route_bound.bound == pytest.approx(
            sum(h.contribution for h in route_bound.hops)
        )
        assert route_bound.slack == pytest.approx(
            route_bound.end_to_end_deadline - route_bound.bound
        )


class TestBridgeConservationMonitor:
    def test_clean_on_a_healthy_chain(self):
        topology, _ = build_chain_topology(segments=2, z=3, monitors=True)
        result = Fabric(topology).run(20 * _MS)
        report = result.segments["seg1"].invariants
        assert report is not None and report.ok

    def test_bogus_schedule_breaks_conservation(self):
        # Arm the monitor against a schedule the run never satisfies:
        # the claimed frame (ready=12_345) never arrives, so the real
        # successes of local-0 mismatch FIFO order and the horizon
        # count comes up short.
        problem = uniform_problem(
            z=3, length=1_000, deadline=400_000, a=1, w=200_000
        )
        simulation = NetworkSimulation.from_scenario(
            Scenario(
                problem=problem,
                medium=ideal_medium(slot_time=64),
                protocol_factory=_ddcr_factory(problem),
            )
        )
        simulation.extra_monitors = (
            BridgeConservationMonitor(
                bridge="ghost->here",
                station_id=0,
                schedule={"uniform-0": (12_345,)},
                capacity=4,
            ),
        )
        result = simulation.run(_HORIZON)
        assert result.invariants is not None
        assert not result.invariants.ok
        text = " ".join(v.message for v in result.invariants.violations)
        assert "FIFO" in text or "conservation" in text

