"""Tests for the CSMA/DDCR protocol."""

from __future__ import annotations

import copy

import pytest

from repro.core.search_cost import simulate_search
from repro.net.station import Station
from repro.protocols.base import UNBOUNDED, ChannelState, SlotObservation
from repro.protocols.ddcr.config import DDCRConfig
from repro.protocols.ddcr.indexing import raw_class, time_index
from repro.protocols.ddcr.protocol import DDCRMode, DDCRProtocol
from tests.protocols.conftest import make_class, run_network


def _config(**overrides) -> DDCRConfig:
    defaults = dict(
        time_f=16,
        time_m=2,
        class_width=100_000,
        static_q=8,
        static_m=2,
        alpha=0,
        theta_factor=1.0,
    )
    defaults.update(overrides)
    return DDCRConfig(**defaults)


def _macs(count: int, config: DDCRConfig | None = None) -> list[DDCRProtocol]:
    config = config if config is not None else _config()
    return [DDCRProtocol(config) for _ in range(count)]


class TestConfig:
    def test_horizon(self):
        assert _config().horizon == 1_600_000

    def test_theta(self):
        assert _config(theta_factor=0.5).theta == 50_000
        assert _config(theta_factor=0.0).theta == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            _config(time_f=12)
        with pytest.raises(ValueError):
            _config(static_q=6)
        with pytest.raises(ValueError):
            _config(class_width=0)
        with pytest.raises(ValueError):
            _config(alpha=-1)
        with pytest.raises(ValueError):
            _config(theta_factor=-1.0)

    def test_tree_parameters_bridge(self):
        trees = _config().tree_parameters()
        assert trees.time_f == 16 and trees.static_q == 8


class TestIndexing:
    def test_raw_class_floor(self):
        config = _config()
        assert raw_class(0, 250_000, config) == 2
        assert raw_class(0, 50_000, config) == 0

    def test_negative_raw_class_for_late_messages(self):
        config = _config(alpha=50_000)
        assert raw_class(100_000, 40_000, config) < 0

    def test_clamped_to_frontier(self):
        config = _config()
        assert time_index(0, 250_000, config, frontier=0) == 2
        assert time_index(0, 250_000, config, frontier=5) == 5

    def test_beyond_horizon_is_none(self):
        config = _config()
        beyond = config.horizon + config.class_width
        assert time_index(0, beyond, config, frontier=0) is None

    def test_frontier_can_push_beyond_horizon(self):
        config = _config()
        assert time_index(0, 100, config, frontier=16) is None


class TestSingleStation:
    def test_free_mode_transmits_immediately(self):
        macs = _macs(1)
        channel, stations = run_network(macs, {0: [0, 5_000]}, horizon=500_000)
        assert len(stations[0].completions) == 2
        assert channel.stats.collision_slots == 0
        assert macs[0].mode is DDCRMode.FREE

    def test_no_arrivals_stays_free_and_silent(self):
        macs = _macs(1)
        channel, _ = run_network(macs, {}, horizon=100_000)
        assert channel.stats.successes == 0
        assert macs[0].mode is DDCRMode.FREE


class TestCollisionEntry:
    def test_collision_starts_tts(self):
        macs = _macs(2)
        channel, stations = run_network(
            macs, {0: [0], 1: [0]}, horizon=2_000_000
        )
        assert channel.stats.collision_slots >= 1
        assert sum(len(s.completions) for s in stations) == 2
        assert len(macs[0].tts_records) >= 1
        first = macs[0].tts_records[0]
        assert first.triggered_by_collision
        assert first.out

    def test_reft_set_at_entry(self):
        macs = _macs(2)
        run_network(macs, {0: [0], 1: [0]}, horizon=2_000_000)
        assert macs[0].reft > 0

    def test_same_class_collision_resolved_by_sts(self):
        # Same deadline => same equivalence class => time-leaf collision.
        macs = _macs(2)
        channel, stations = run_network(
            macs, {0: [0], 1: [0]}, horizon=2_000_000
        )
        assert len(macs[0].sts_records) == 1
        record = macs[0].sts_records[0]
        assert record.successes == 2

    def test_different_classes_resolved_in_time_tree(self):
        # Deadlines two classes apart: TTs isolates without any STs.
        config = _config()
        macs = _macs(2, config)
        cls_near = make_class(name="near", deadline=150_000)
        cls_far = make_class(name="far", deadline=550_000)
        from repro.model.arrival import TraceArrivals
        from repro.net.channel import BroadcastChannel
        from repro.net.engine import use_engine
        from repro.net.phy import ideal_medium
        from repro.net.station import Station
        from repro.sim.engine import Environment

        env = Environment()
        channel = BroadcastChannel(
            env, ideal_medium(slot_time=64), check_consistency=True
        )
        stations = []
        for sid, (mac, cls) in enumerate(
            zip(macs, (cls_near, cls_far))
        ):
            station = Station(station_id=sid, mac=mac, static_indices=(sid,))
            station.load_arrivals(cls, TraceArrivals(trace=(0,)), 2_000_000)
            channel.attach(station)
            stations.append(station)
        with use_engine("des"):
            channel.run(2_000_000)
        assert sum(len(s.completions) for s in stations) == 2
        assert macs[0].sts_records == []
        # Near-deadline message must be transmitted first (EDF emulation).
        all_completions = sorted(
            (r.completion, r.message.msg_class.name)
            for s in stations
            for r in s.completions
        )
        assert all_completions[0][1] == "near"


class TestStaticTreeSearch:
    def test_sts_cost_matches_reference(self):
        # Three stations with known static indices all in one class.
        macs = _macs(3)
        indices = {0: (1,), 1: (4,), 2: (6,)}
        channel, stations = run_network(
            macs, {i: [0] for i in range(3)}, horizon=2_000_000,
            static_indices=indices,
        )
        record = macs[0].sts_records[0]
        assert record.successes == 3
        assert record.wasted_slots == simulate_search([1, 4, 6], 8, 2).cost

    def test_nu_messages_per_sts(self):
        # A station with two static indices clears two same-class messages
        # in a single static search.
        macs = _macs(2)
        indices = {0: (0, 4), 1: (2,)}
        channel, stations = run_network(
            macs, {0: [0, 0], 1: [0]}, horizon=2_000_000,
            static_indices=indices,
        )
        record = macs[0].sts_records[0]
        assert record.successes == 3
        assert len(stations[0].completions) == 2

    def test_exhausted_indices_wait_for_next_round(self):
        # Station 0 has one index but two same-class messages: the second
        # cannot ride the same STs and is delivered afterwards.
        macs = _macs(2)
        indices = {0: (0,), 1: (2,)}
        channel, stations = run_network(
            macs, {0: [0, 0], 1: [0]}, horizon=4_000_000,
            static_indices=indices,
        )
        assert len(stations[0].completions) == 2
        first_sts = macs[0].sts_records[0]
        assert first_sts.successes == 2  # one per station


class TestCompressedTime:
    def test_theta_zero_starves_beyond_horizon(self):
        # Deadlines beyond c*F and theta = 0: after the entry collision the
        # protocol loops empty TTs forever and never delivers.
        config = _config(theta_factor=0.0)
        macs = _macs(2, config)
        cls = make_class(deadline=3_000_000)  # horizon is 1.6e6
        channel, stations = run_network(
            macs, {0: [0], 1: [0]}, horizon=3_000_000, msg_class=cls
        )
        assert sum(len(s.completions) for s in stations) == 0
        assert macs[0].mode is DDCRMode.TTS

    def test_theta_positive_pulls_messages_in(self):
        config = _config(theta_factor=1.0)
        macs = _macs(2, config)
        cls = make_class(deadline=3_000_000)
        channel, stations = run_network(
            macs, {0: [0], 1: [0]}, horizon=3_000_000, msg_class=cls
        )
        assert sum(len(s.completions) for s in stations) == 2

    def test_exit_to_free_restores_csma_cd(self):
        config = _config(theta_factor=0.0, exit_to_free_on_idle=True)
        macs = _macs(2, config)
        cls = make_class(deadline=3_000_000)
        channel, stations = run_network(
            macs, {0: [0], 1: [0]}, horizon=3_000_000, msg_class=cls
        )
        assert sum(len(s.completions) for s in stations) == 2

    def test_empty_tts_runs_counted(self):
        macs = _macs(2)
        channel, _ = run_network(macs, {0: [0], 1: [0]}, horizon=2_000_000)
        assert macs[0].empty_tts_runs > 0, (
            "idle periods must produce empty TTs runs"
        )
        # Stored records are the non-trivial ones only.
        for record in macs[0].tts_records:
            assert (
                record.successes
                or record.nested_sts_runs
                or record.triggered_by_collision
                or record.wasted_slots > 1
            )


class TestLateArrivals:
    def test_late_message_clamped_to_frontier(self):
        # A message arriving mid-search with an already-passed class is
        # serviced in the same TTs via the f*+1 clamp.
        config = _config(class_width=10_000)  # horizon 160k
        macs = _macs(3, config)
        cls = make_class(deadline=20_000)
        channel, stations = run_network(
            macs, {0: [0], 1: [0], 2: [900]}, horizon=1_000_000,
            msg_class=cls,
        )
        assert sum(len(s.completions) for s in stations) == 3
        for station in stations:
            for record in station.completions:
                assert record.on_time


class TestLockstep:
    def test_public_state_consistency_under_load(self):
        # run_network asserts slot-by-slot consistency internally.
        macs = _macs(4)
        run_network(
            macs,
            {i: [0, 40_000, 80_000] for i in range(4)},
            horizon=4_000_000,
        )
        states = {mac.mode for mac in macs}
        assert len(states) == 1

    def test_reft_agrees_across_stations(self):
        macs = _macs(3)
        run_network(macs, {i: [0, 30_000] for i in range(3)}, horizon=2_000_000)
        assert len({mac.reft for mac in macs}) == 1


class TestEDFEmulation:
    def test_no_inversions_in_feasible_run(self):
        from repro.analysis.metrics import count_inversions
        from repro.net.network import RunResult

        macs = _macs(4)
        channel, stations = run_network(
            macs, {i: [0, 50_000] for i in range(4)}, horizon=4_000_000
        )
        result = RunResult(
            horizon=4_000_000,
            stations=stations,
            stats=channel.stats,
        )
        assert count_inversions(result) == 0


class TestJammed:
    """Under a jam every slot is a frameless collision.  A replica fed
    collisions descends the time tree to a leaf and then the static
    tree to a leaf, which it re-probes for good: jam-steady, where n
    jammed slots are one ``leap_jammed`` call."""

    _SLOT = 64

    def _idle_replica(self, queued):
        """A replica in the fresh-TTs idle cycle, with a message in its
        queue or not."""
        mac = DDCRProtocol(_config())
        station = Station(station_id=3, mac=mac, static_indices=(3,))
        t = 0
        for state in (ChannelState.COLLISION,) + (ChannelState.SILENCE,) * 40:
            self._slot(mac, t, state)
            t += self._SLOT
        assert mac.mode is DDCRMode.TTS and mac.idle_steady()
        if queued:
            station.add_arrival(make_class(deadline=150_000), t)
            station.deliver_due(t)
        return mac, t

    def _slot(self, mac, t, state=ChannelState.COLLISION):
        mac.offer(t)
        mac.observe(SlotObservation(state=state, start=t, duration=self._SLOT))

    def _snapshot(self, mac):
        return (
            mac.public_state(),
            mac.tts_records,
            mac.sts_records,
            mac.empty_tts_runs,
            mac._sts_member,
            mac._sts_cursor,
            mac._offered,
        )

    @pytest.mark.parametrize("queued", [False, True])
    def test_collisions_from_the_idle_cycle_reach_jam_steady(self, queued):
        mac, t = self._idle_replica(queued)
        descent = 0
        while not mac.jam_steady():
            self._slot(mac, t)
            t += self._SLOT
            descent += 1
        # One probe per level of the binary time tree (16 leaves) and of
        # the static tree (8 leaves); the time leaf's is the static
        # root's.
        assert descent == 4 + 3
        assert mac.mode is DDCRMode.STS
        assert mac.sts.search.current.is_leaf()
        assert mac.jam_steady() == UNBOUNDED

    @pytest.mark.parametrize("queued", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 37])
    def test_leap_jammed_equals_observed_collisions(self, queued, n):
        mac, t = self._idle_replica(queued)
        while not mac.jam_steady():
            self._slot(mac, t)
            t += self._SLOT
        stepped = copy.deepcopy(mac)
        for k in range(n):
            self._slot(stepped, t + k * self._SLOT)
        mac.leap_jammed(n, t + n * self._SLOT)
        assert self._snapshot(mac) == self._snapshot(stepped)
        assert mac.jam_steady() and stepped.jam_steady()

    def test_not_jam_steady_off_a_static_leaf(self):
        mac, t = self._idle_replica(queued=False)
        assert mac.jam_steady() == 0  # the idle cycle
        self._slot(mac, t)
        assert mac.mode is DDCRMode.TTS and mac.jam_steady() == 0
