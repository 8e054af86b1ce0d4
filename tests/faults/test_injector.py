"""Unit tests for the fault-injector runtime: gates, arming, per-round
state.  These drive :class:`FaultInjector` directly against a hand-built
channel, without a simulation loop, so each fault model's mechanics are
observable in isolation."""

from __future__ import annotations

import itertools
import random

import pytest

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
from repro.faults.runtime import (
    BernoulliGate,
    FaultInjector,
    GilbertElliottGate,
)
from repro.model.workloads import uniform_problem
from repro.net.channel import BroadcastChannel
from repro.net.phy import ideal_medium
from repro.net.station import Station
from repro.protocols.tdma import TDMAProtocol
from repro.sim.engine import Environment


def _build_channel(z=3):
    """A channel with z attached TDMA stations (no arrivals loaded)."""
    problem = uniform_problem(
        z=z, length=1_000, deadline=400_000, a=1, w=200_000
    )
    env = Environment()
    channel = BroadcastChannel(env, ideal_medium(slot_time=64))
    roster = tuple(source.source_id for source in problem.sources)
    seq = itertools.count()
    stations = []
    for source in problem.sources:
        station = Station(
            station_id=source.source_id,
            mac=TDMAProtocol(roster),
            static_indices=source.static_indices,
            seq_source=seq,
        )
        channel.attach(station)
        stations.append(station)
    return channel, stations, problem


class TestGates:
    def test_bernoulli_matches_legacy_draw_order(self):
        """Same seed, same decisions as the historical inline gate —
        including NOT drawing on slots already carrying >= 2 frames."""
        gate = BernoulliGate(0.3, random.Random(7))
        reference = random.Random(7)
        outcomes = []
        for wire in [0, 1, 2, 1, 3, 0, 1]:
            got = gate(0, wire)
            if wire < 2:
                outcomes.append((got, reference.random() < 0.3))
            else:
                assert got is False  # and no draw consumed
        assert all(got == want for got, want in outcomes)

    @pytest.mark.parametrize("seed", range(6))
    def test_bernoulli_quiet_run_draws_as_per_slot_calls(self, seed):
        """One ``quiet_run`` over n idle slots makes the draws n calls
        with nothing on the wire make, and stops where they first fire:
        same count of quiet slots, same RNG state after."""
        for n in (1, 7, 40, 400):
            rng, reference_rng = random.Random(seed), random.Random(seed)
            reference = BernoulliGate(0.05, reference_rng)
            quiet = next(
                (slot for slot in range(n) if reference(slot * 64, 0)), n
            )
            assert BernoulliGate(0.05, rng).quiet_run(n) == quiet
            assert rng.getstate() == reference_rng.getstate()

    def test_gilbert_elliott_inactive_before_start(self):
        rng = random.Random(1)
        gate = GilbertElliottGate(
            GilbertElliottNoise(
                p_enter_bad=1.0, p_exit_bad=0.0, bad_rate=1.0, start=100
            ),
            rng,
        )
        state = rng.getstate()
        assert gate(0, 1) is False
        assert rng.getstate() == state  # no draws consumed before start
        assert gate(100, 1) is True  # enters BAD, corrupts at rate 1

    def test_gilbert_elliott_degenerates_to_bernoulli(self):
        """Frozen in BAD with no transitions, the chain is memoryless."""
        model = GilbertElliottNoise(
            p_enter_bad=0.0, p_exit_bad=0.0, bad_rate=0.25, start_bad=True
        )
        gate = GilbertElliottGate(model, random.Random(3))
        reference = random.Random(3)
        for _ in range(200):
            got = gate(0, 1)
            reference.random()  # the transition draw
            assert got == (reference.random() < 0.25)

    def test_gilbert_elliott_chain_advances_on_busy_slots(self):
        """The weather does not care about the traffic: transitions are
        drawn even on slots with >= 2 frames (which are never corrupted)."""
        gate = GilbertElliottGate(
            GilbertElliottNoise(p_enter_bad=1.0, p_exit_bad=0.0, bad_rate=1.0),
            random.Random(0),
        )
        assert gate(0, 2) is False  # collision slot: transition only
        assert gate.bad is True  # ... but the chain entered BAD
        assert gate(1, 1) is True

    def test_bursts_cluster_relative_to_bernoulli(self):
        """Same long-run argument the model exists for: with matched
        average rate, GE errors arrive in visibly longer runs."""
        ge = GilbertElliottGate(
            GilbertElliottNoise(p_enter_bad=0.01, p_exit_bad=0.2, bad_rate=0.9),
            random.Random(5),
        )
        outcomes = [ge(i, 1) for i in range(20_000)]

        def longest_run(bits):
            best = run = 0
            for bit in bits:
                run = run + 1 if bit else 0
                best = max(best, run)
            return best

        rate = sum(outcomes) / len(outcomes)
        bernoulli = random.Random(5)
        reference = [bernoulli.random() < rate for _ in range(20_000)]
        assert longest_run(outcomes) > longest_run(reference)


class TestArming:
    def test_unknown_station_rejected(self):
        channel, _, _ = _build_channel()
        injector = FaultInjector(
            FaultPlan((StationCrash(station_id=99, at=10),))
        )
        with pytest.raises(ValueError, match="unknown station 99"):
            injector.arm(channel)

    def test_restart_requires_reset_mac(self):
        channel, _, _ = _build_channel()
        injector = FaultInjector(
            FaultPlan((StationCrash(station_id=0, at=10, restart_at=20),))
        )
        with pytest.raises(ValueError, match="reset_mac"):
            injector.arm(channel)

    def test_burst_requires_resolve_class(self):
        channel, _, _ = _build_channel()
        injector = FaultInjector(
            FaultPlan((ArrivalBurst(station_id=0, at=10, count=2),))
        )
        with pytest.raises(ValueError, match="resolve_class"):
            injector.arm(channel)

    def test_double_arm_rejected(self):
        channel, _, _ = _build_channel()
        injector = FaultInjector(FaultPlan((BusJam(start=0),)))
        injector.arm(channel)
        with pytest.raises(RuntimeError, match="already armed"):
            injector.arm(channel)

    def test_single_jam_only(self):
        channel, _, _ = _build_channel()
        injector = FaultInjector(
            FaultPlan((BusJam(start=0), BusJam(start=10)))
        )
        with pytest.raises(ValueError, match="more than one bus jam"):
            injector.arm(channel)

    def test_jam_sets_channel_window(self):
        channel, _, _ = _build_channel()
        FaultInjector(FaultPlan((BusJam(start=128, stop=256),))).arm(channel)
        assert channel.jam_from == 128
        assert channel.jam_until == 256

    def test_babbler_id_collision_rejected(self):
        channel, _, _ = _build_channel()
        injector = FaultInjector(
            FaultPlan((BabblingStation(start=0, stop=10, station_id=0),))
        )
        with pytest.raises(ValueError, match="collides"):
            injector.arm(channel)

    def test_babbler_ids_auto_assigned_negative_and_distinct(self):
        channel, _, _ = _build_channel()
        injector = FaultInjector(
            FaultPlan(
                (
                    BabblingStation(start=0, stop=10),
                    BabblingStation(start=0, stop=10),
                )
            )
        )
        injector.arm(channel)
        sids = [b.sid for b in injector._babblers]
        assert sids == sorted(sids, reverse=True)
        assert len(set(sids)) == 2
        assert all(sid < 0 for sid in sids)

    def test_burst_loads_pending_arrivals(self):
        channel, stations, problem = _build_channel()
        injector = FaultInjector(
            FaultPlan((ArrivalBurst(station_id=0, at=500, count=5),))
        )
        injector.arm(
            channel,
            resolve_class=lambda station, name: problem.sources[
                station.station_id
            ].message_classes[0],
        )
        assert stations[0].undelivered_arrivals == 5
        stations[0].deliver_due(500)
        assert len(stations[0].backlog()) == 5


class TestPerRound:
    def test_crash_and_restart_lifecycle(self):
        channel, stations, _ = _build_channel()
        resets = []
        injector = FaultInjector(
            FaultPlan((StationCrash(station_id=1, at=100, restart_at=300),))
        )
        injector.arm(channel, reset_mac=resets.append)
        injector.begin_round(0)
        assert injector.down == set()
        injector.begin_round(100)
        assert injector.down == {1}
        assert injector.desynced == {1}
        injector.begin_round(200)
        assert injector.down == {1}
        injector.begin_round(300)
        assert injector.down == set()
        assert injector.desynced == {1}  # desync outlives the restart
        assert resets == [stations[1]]

    def test_drift_suppression_cadence(self):
        channel, _, _ = _build_channel()
        injector = FaultInjector(
            FaultPlan(
                (ClockDrift(station_id=0, skew_per_slot=4.0, threshold=32.0),)
            )
        )
        injector.arm(channel)
        pattern = []
        for round_index in range(24):
            injector.begin_round(round_index * 64)
            pattern.append(0 in injector.suppressed)
        # skew 4/slot against threshold 32: every 8th round mis-times.
        assert pattern.count(True) == 3
        assert [i for i, hit in enumerate(pattern) if hit] == [7, 15, 23]

    def test_drift_window_respected(self):
        channel, _, _ = _build_channel()
        injector = FaultInjector(
            FaultPlan(
                (
                    ClockDrift(
                        station_id=0,
                        skew_per_slot=64.0,
                        threshold=32.0,
                        start=128,
                        stop=256,
                    ),
                )
            )
        )
        injector.arm(channel)
        injector.begin_round(0)
        assert not injector.suppressed  # before start: clock still true
        injector.begin_round(128)
        assert injector.suppressed == {0}
        injector.begin_round(256)
        assert not injector.suppressed  # window closed

    def test_babbler_fires_on_period_within_window(self):
        channel, _, _ = _build_channel()
        injector = FaultInjector(
            FaultPlan((BabblingStation(start=128, stop=512, period=2),))
        )
        injector.arm(channel)
        fired = []
        for now in range(0, 768, 64):
            injector.begin_round(now)
            fired.append(len(injector.extra))
        # Rounds at 128..448 are in-window; every 2nd fires.
        assert fired == [0, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0]

    def test_babble_frame_shape(self):
        channel, _, _ = _build_channel()
        injector = FaultInjector(
            FaultPlan((BabblingStation(start=0, stop=64, length=777),))
        )
        injector.arm(channel)
        injector.begin_round(0)
        (frame,) = injector.extra
        assert frame.station_id < 0
        assert frame.message.length == 777
        assert frame.message.seq == -1  # never touches the global counter
