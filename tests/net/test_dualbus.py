"""Tests for the dual-bus redundancy layer."""

from __future__ import annotations

import itertools

import pytest

from repro.model.workloads import uniform_problem
from repro.net.channel import BroadcastChannel, _leap, _RoundDriver
from repro.net.dualbus import (
    BusFailoverController,
    BusPort,
    DualBusSimulation,
    suggested_jam_threshold,
)
from repro.net.engine import use_engine
from repro.net.phy import ideal_medium
from repro.net.station import Station
from repro.protocols.base import (
    UNBOUNDED,
    ChannelState,
    MACProtocol,
    SlotObservation,
)
from repro.protocols.ddcr import DDCRConfig, DDCRProtocol
from repro.sim.engine import Environment
from tests.protocols.conftest import make_class


def _problem():
    return uniform_problem(
        z=4, length=1_000, deadline=600_000, a=1, w=300_000
    )


def _config(problem) -> DDCRConfig:
    return DDCRConfig(
        time_f=16,
        time_m=2,
        class_width=65_536,
        static_q=problem.static_q,
        static_m=problem.static_m,
        theta_factor=1.0,
    )


def _simulate(fail_at=None, jam_threshold=None, horizon=4_000_000):
    problem = _problem()
    config = _config(problem)
    threshold = (
        jam_threshold
        if jam_threshold is not None
        else suggested_jam_threshold(config)
    )
    simulation = DualBusSimulation(
        problem,
        ideal_medium(slot_time=64),
        protocol_factory=lambda src: DDCRProtocol(config),
        jam_threshold=threshold,
        fail_bus_at=fail_at,
        check_consistency=True,
    )
    return simulation.run(horizon)


class TestController:
    def test_failover_after_threshold(self):
        controller = BusFailoverController(jam_threshold=3)
        for _ in range(2):
            controller.note(0, ChannelState.COLLISION)
        assert controller.active_bus == 0
        controller.note(0, ChannelState.COLLISION)
        assert controller.active_bus == 1
        assert controller.failovers == 1

    def test_counter_resets_on_good_slot(self):
        controller = BusFailoverController(jam_threshold=3)
        controller.note(0, ChannelState.COLLISION)
        controller.note(0, ChannelState.COLLISION)
        controller.note(0, ChannelState.SILENCE)
        controller.note(0, ChannelState.COLLISION)
        controller.note(0, ChannelState.COLLISION)
        assert controller.active_bus == 0

    def test_standby_slots_ignored(self):
        controller = BusFailoverController(jam_threshold=2)
        for _ in range(10):
            controller.note(1, ChannelState.COLLISION)
        assert controller.active_bus == 0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            BusFailoverController(jam_threshold=1)


class _Steady(MACProtocol):
    """An inner replica that is always jam-steady, idle-steady without
    limit but for a queued message, which it would offer at once, never
    offers, and logs its leaps and the slots it observes."""

    def __init__(self):
        super().__init__()
        self.leaps = []
        self.jam_leaps = []
        self.observed = []

    def offer(self, now):
        return None

    def observe(self, observation):
        self.observed.append(observation.start)

    def idle_steady(self):
        if self.station is not None and self.station.queue:
            return 0
        return UNBOUNDED

    def leap_idle(self, n, end):
        self.leaps.append((n, end))

    def jam_steady(self):
        return UNBOUNDED

    def leap_jammed(self, n, end):
        self.jam_leaps.append((n, end))


def _collide(port, times):
    for _ in range(times):
        port.observe(SlotObservation(
            state=ChannelState.COLLISION, start=0, duration=64,
        ))


class TestBusPortIdle:
    """A leapt idle stretch acts on the controller as its silent slots
    would: it ends the active bus's collision run, and the standby
    bus's stretch leaves it alone."""

    def _ports(self, threshold=4):
        controller = BusFailoverController(jam_threshold=threshold)
        return controller, [
            BusPort(controller, index, _Steady()) for index in range(2)
        ]

    def test_idle_methods_delegate_to_the_inner_replica(self):
        _, (active, standby) = self._ports()
        assert active.idle_steady() and standby.idle_steady()
        standby.leap_idle(7, 448)
        assert standby.inner.leaps == [(7, 448)]

    def test_active_ports_leap_clears_the_collision_run(self):
        controller, (active, _) = self._ports(threshold=4)
        _collide(active, 3)
        assert controller.state_key() == (0, 0, 3)
        active.leap_idle(5, 320)
        assert controller.state_key() == (0, 0, 0)

    def test_standby_ports_leap_leaves_the_count_alone(self):
        controller, (active, standby) = self._ports(threshold=4)
        _collide(active, 3)
        standby.leap_idle(5, 320)
        assert controller.state_key() == (0, 0, 3)

    def test_after_a_leap_threshold_minus_one_collisions_do_not_fail_over(
        self,
    ):
        stepped, (stepped_port, _) = self._ports(threshold=4)
        leapt, (leapt_port, _) = self._ports(threshold=4)
        _collide(stepped_port, 3)
        _collide(leapt_port, 3)
        for _ in range(5):
            stepped_port.observe(SlotObservation(
                state=ChannelState.SILENCE, start=0, duration=64,
            ))
        leapt_port.leap_idle(5, 320)
        _collide(stepped_port, 3)
        _collide(leapt_port, 3)
        assert leapt.state_key() == stepped.state_key() == (0, 0, 3)
        _collide(leapt_port, 1)
        assert leapt.active_bus == 1 and leapt.failovers == 1


class TestBusPortJam:
    """A leapt jammed stretch acts on the controller as its collision
    slots would, and never crosses a failover: an active port's stretch
    stops one slot short of it, and the failover slot runs as a round."""

    def _ports(self, threshold=4):
        controller = BusFailoverController(jam_threshold=threshold)
        return controller, [
            BusPort(controller, index, _Steady()) for index in range(2)
        ]

    def test_jam_methods_delegate_to_the_inner_replica(self):
        _, (active, standby) = self._ports()
        assert standby.jam_steady() == UNBOUNDED
        standby.leap_jammed(7, 448)
        active.leap_jammed(2, 128)
        assert standby.inner.jam_leaps == [(7, 448)]
        assert active.inner.jam_leaps == [(2, 128)]

    def test_an_active_port_stops_one_slot_short_of_failover(self):
        controller, (active, _) = self._ports(threshold=4)
        assert active.jam_steady() == 3
        _collide(active, 1)
        assert active.jam_steady() == 2
        active.leap_jammed(2, 192)
        assert controller.state_key() == (0, 0, 3)
        assert active.jam_steady() == 0  # the next slot fails over
        _collide(active, 1)
        assert controller.state_key() == (1, 1, 0)

    def test_a_standby_ports_leap_leaves_the_count_alone(self):
        controller, (active, standby) = self._ports(threshold=4)
        _collide(active, 2)
        standby.leap_jammed(50, 3_200)
        assert controller.state_key() == (0, 0, 2)
        assert standby.jam_steady() == UNBOUNDED

    def _busses(self, stations=3, threshold=4, queued=False):
        """Two channels on one clock, one dual-homed station each per
        source (stub replicas), bus A jammed from 0."""
        env = Environment()
        busses = [
            BroadcastChannel(env, ideal_medium(slot_time=64))
            for _ in range(2)
        ]
        controllers = []
        for station_id in range(stations):
            controller = BusFailoverController(jam_threshold=threshold)
            controllers.append(controller)
            queue = None
            for index, bus in enumerate(busses):
                station = Station(
                    station_id, BusPort(controller, index, _Steady()),
                    static_indices=(station_id,),
                )
                if queue is None:
                    queue = station.queue
                    if queued:
                        station.add_arrival(make_class(), 0)
                        station.deliver_due(0)
                station.queue = queue
                bus.attach(station)
        busses[0].jam_from = 0
        return busses, controllers

    def _try_leap(self, busses, horizon=6_400):
        drivers = [_RoundDriver(bus) for bus in busses]
        pending = [(0, i, i) for i in range(len(busses))]
        leapt = _leap(drivers, pending, horizon, itertools.count(2))
        return leapt, sorted(pending, key=lambda entry: entry[2])

    def test_a_standby_port_with_a_queue_is_steady_an_active_one_not(self):
        busses, controllers = self._busses(queued=True)
        # Bus A is jammed and active; the queue on standby bus B does not
        # bar its idle leap, which ends with bus A's one slot short of
        # the failover.
        leapt, pending = self._try_leap(busses)
        assert leapt and [start for start, _, _ in pending] == [192, 192]
        assert all(c.state_key() == (0, 0, 3) for c in controllers)
        for station in busses[1].stations:
            assert station.queue and station.mac.muted()
            assert station.mac.inner.leaps == [(3, 192)]
        # With bus B active, its queue bars the leap.
        busses, controllers = self._busses(queued=True)
        for controller in controllers:
            controller.active_bus = 1
        assert not any(s.mac.muted() for s in busses[1].stations)
        assert self._try_leap(busses) == (
            False, [(0, 0, 0), (0, 1, 1)]
        )

    def test_the_stepped_failover_slot_flips_every_controller(self):
        """The joint fast loop (what ``batch`` runs) leaps to the slot
        before the failover, runs that slot, in which every station
        flips, and leaps on; the DES steps every slot to the same
        controllers."""
        runs = {}
        for engine in ("des", "batch"):
            busses, controllers = self._busses()
            with use_engine(engine):
                busses[0].run(640, peers=busses[1:])
            runs[engine] = [c.state_key() for c in controllers]
            observed = [s.mac.inner.observed for s in busses[0].stations]
            if engine == "batch":
                assert observed == [[192]] * 3  # the failover slot
                jam_leaps = [s.mac.inner.jam_leaps for s in busses[0].stations]
                assert jam_leaps == [[(3, 192), (6, 640)]] * 3
            else:
                assert observed == [list(range(0, 640, 64))] * 3
        assert runs["des"] == runs["batch"] == [(1, 1, 0)] * 3


class TestSuggestedThreshold:
    def test_exceeds_tree_depths(self):
        config = _config(_problem())
        threshold = suggested_jam_threshold(config)
        # log2(16) + log2(4) + 1 + margin 8 = 4 + 2 + 1 + 8.
        assert threshold == 15


class TestDualBusRuns:
    def test_healthy_never_fails_over(self):
        result = _simulate()
        assert result.failovers == 0
        assert result.bus_stats[1].successes == 0  # standby stayed silent
        delivered = sum(1 for r in result.completions if not r.dropped)
        assert delivered == 4 * 14  # one per 300k window per station

    def test_failure_triggers_single_failover(self):
        result = _simulate(fail_at=1_500_000)
        assert result.failovers == 1
        assert result.bus_stats[0].jammed_slots > 0
        assert result.bus_stats[1].successes > 0

    def test_no_message_lost_across_failover(self):
        healthy = _simulate()
        failed = _simulate(fail_at=1_500_000)
        assert len(failed.completions) == len(healthy.completions)
        assert all(r.on_time for r in failed.completions)
        assert failed.backlog() == []

    def test_unreachable_threshold_means_no_failover(self):
        result = _simulate(fail_at=1_500_000, jam_threshold=10**9)
        assert result.failovers == 0
        # Messages arriving after the failure are stranded.
        assert len(result.backlog()) > 0

    def test_failed_run_keeps_the_engine_note(self):
        """The note on why the kernel did not run rides on the result,
        with no telemetry in scope: ``batch`` runs two busses on one clock
        in the joint fast loop, the per-slot ``des`` reference has none."""
        result = _simulate(fail_at=500_000, horizon=1_000_000)
        assert result.failovers == 1
        assert result.engine_fallback == (
            "batch engine unavailable (2 channels share one clock): "
            "ran fastloop"
        )
        with use_engine("des"):
            reference = _simulate(fail_at=500_000, horizon=1_000_000)
        assert reference.failovers == 1
        assert reference.engine_fallback is None

    def test_completions_unique_across_busses(self):
        result = _simulate(fail_at=1_500_000)
        seqs = [r.message.seq for r in result.completions]
        assert len(seqs) == len(set(seqs))
