"""Tests for the broadcast channel and station plumbing."""

from __future__ import annotations

import pytest

from repro.model.arrival import PeriodicArrivals, TraceArrivals
from repro.net.channel import BroadcastChannel, _RoundDriver
from repro.net.engine import ENGINES, use_engine
from repro.net.phy import GIGABIT_ETHERNET, ideal_medium
from repro.net.station import CompletionRecord, Station
from repro.obs.tracer import FlightRecorder
from repro.protocols.csma_cd import CSMACDProtocol
from repro.protocols.ddcr import DDCRConfig, DDCRProtocol
from repro.protocols.tdma import TDMAProtocol
from repro.sim.engine import Environment
from tests.protocols.conftest import make_class, run_network


class TestChannelAccounting:
    def test_slot_kinds_partition_rounds(self):
        macs = [CSMACDProtocol(seed=i) for i in range(3)]
        channel, _ = run_network(
            macs, {i: [0] for i in range(3)}, horizon=1_000_000,
            check_consistency=False,
        )
        stats = channel.stats
        assert (
            stats.silence_slots + stats.collision_slots + stats.successes
            == stats.rounds
        )
        assert stats.rounds == channel.observations

    def test_time_accounting_covers_horizon(self):
        macs = [TDMAProtocol((0,))]
        channel, _ = run_network(macs, {0: [0, 100]}, horizon=64_000)
        stats = channel.stats
        total = stats.busy_time + stats.idle_time + stats.collision_time
        # The last round may overshoot the horizon by < one duration.
        assert total >= 64_000

    def test_payload_counts_dl_pdu_bits(self):
        macs = [TDMAProtocol((0,))]
        cls = make_class(length=5_000)
        channel, _ = run_network(
            macs, {0: [0]}, horizon=500_000, msg_class=cls
        )
        assert channel.stats.payload_bits == 5_000

    def test_utilization_below_one(self):
        macs = [TDMAProtocol((0,))]
        channel, _ = run_network(
            macs, {0: [0, 1, 2]}, horizon=500_000
        )
        assert 0 < channel.stats.utilization(500_000) < 1

    def test_carrier_extension_on_destructive_media(self):
        # A short frame on GigE occupies at least one 4096-bit slot.
        macs = [TDMAProtocol((0,))]
        cls = make_class(length=100)
        channel, stations = run_network(
            macs, {0: [0]}, horizon=200_000, medium=GIGABIT_ETHERNET,
            msg_class=cls,
        )
        record = stations[0].completions[0]
        assert record.completion - record.started >= 4096

    def test_duplicate_station_rejected(self):
        env = Environment()
        channel = BroadcastChannel(env, ideal_medium())
        channel.attach(Station(0, CSMACDProtocol()))
        with pytest.raises(ValueError):
            channel.attach(Station(0, CSMACDProtocol()))

    def test_running_without_stations_rejected(self):
        env = Environment()
        channel = BroadcastChannel(env, ideal_medium())
        with pytest.raises(RuntimeError):
            channel.run(1000)

    def test_peers_must_share_the_environment(self):
        channels = [_idle_channel() for _ in range(2)]
        with pytest.raises(ValueError, match="one environment"):
            channels[0].run(1000, peers=channels[1:])

    @pytest.mark.parametrize("engine", ENGINES)
    def test_horizon_before_the_clock_rejected(self, engine):
        channel = _idle_channel()
        with use_engine(engine):
            channel.run(1_000)
            rounds = channel.stats.rounds
            with pytest.raises(ValueError, match=r"=500 .*\(now=1000\)"):
                channel.run(500)
        assert channel.env.now == 1_000
        assert channel.stats.rounds == rounds

    def test_trace_records_slots(self):
        env = Environment()
        recorder = FlightRecorder()
        channel = BroadcastChannel(
            env, ideal_medium(slot_time=64), tracer=recorder
        )
        station = Station(0, TDMAProtocol((0,)))
        station.load_arrivals(make_class(), TraceArrivals(trace=(0,)), 10_000)
        channel.attach(station)
        with use_engine("des"):
            channel.run(10_000)
        events = recorder.events()
        states = {
            event.data["state"]
            for event in events
            if event.kind == "channel/slot"
        }
        assert "success" in states
        idle = [event for event in events if event.kind == "channel/idle"]
        assert idle and sum(event.data["n"] for event in idle) == (
            channel.stats.silence_slots
        )


_IDLE_HORIZON = 64_000  # 1,000 slots


def _idle_channel(env=None, tracer=None, prefix=""):
    """Three DDCR stations with nothing to send: every slot is silent."""
    config = DDCRConfig(
        time_f=16, time_m=2, class_width=65_536, static_q=4, static_m=2
    )
    channel = BroadcastChannel(
        env if env is not None else Environment(),
        ideal_medium(slot_time=64),
        tracer=tracer,
        telemetry_prefix=prefix,
    )
    for i in range(3):
        channel.attach(Station(i, DDCRProtocol(config), static_indices=(i,)))
    return channel


def _events(recorder):
    return [
        (event.kind, event.data, event.parent) for event in recorder.events()
    ]


class TestIdleRuns:
    """The run-length rule for silent slots, on hand-built channels."""

    @pytest.mark.parametrize("engine", ["des", "batch"])
    def test_leap_and_per_slot_slots_give_one_event(self, engine, monkeypatch):
        leaps = []
        driver_leap = _RoundDriver.leap

        def driver_spy(self, now, end):
            duration = driver_leap(self, now, end)
            leaps.append((self.kernel is not None, duration // self.slot_time))
            return duration

        monkeypatch.setattr(_RoundDriver, "leap", driver_spy)
        recorder = FlightRecorder()
        with use_engine(engine):
            _idle_channel(tracer=recorder).run(_IDLE_HORIZON)
        # The kernel crosses all 1,000 slots in one leap; the DES steps
        # them one by one.
        assert leaps == ([] if engine == "des" else [(True, 1_000)])
        assert _events(recorder) == [
            ("channel/idle", {"n": 1_000, "t": 0, "slot": 64}, None)
        ]
        assert recorder.emitted == 1

    @pytest.mark.parametrize("engine", ["des", "batch"])
    def test_any_event_in_between_starts_a_new_run(self, engine):
        recorder = FlightRecorder()
        channel = _idle_channel(tracer=recorder)
        with use_engine(engine):
            channel.run(6_400)
            recorder.emit("mark")
            channel.run(12_800)
            # A span that closed in between changes the parent: new run
            # too.
            with recorder.span("scope") as scope:
                channel.run(19_200)
            channel.run(25_600)
        assert _events(recorder) == [
            ("channel/idle", {"n": 100, "t": 0, "slot": 64}, None),
            ("mark", {}, None),
            ("channel/idle", {"n": 100, "t": 6_400, "slot": 64}, None),
            ("scope", {}, None),
            ("channel/idle", {"n": 100, "t": 12_800, "slot": 64}, scope),
            ("channel/idle", {"n": 100, "t": 19_200, "slot": 64}, None),
        ]

    @pytest.mark.parametrize("engine", ["des", "batch"])
    def test_channels_sharing_a_recorder_never_extend_each_others_runs(
        self, engine
    ):
        recorder = FlightRecorder()
        # One after the other: the second channel's first silent slot is
        # the newest-event candidate, yet it is not this channel's run.
        with use_engine(engine):
            for _ in range(2):
                _idle_channel(tracer=recorder).run(6_400)
        assert _events(recorder) == [
            ("channel/idle", {"n": 100, "t": 0, "slot": 64}, None),
        ] * 2

    def test_two_channels_on_one_clock_alternate(self):
        """The two busses' silent slots alternate on the clock, yet each
        bus's slots grow its own run past the other bus's run: the
        per-slot interleaving of ``des`` and the joint fast loop ``batch``
        runs record one event per bus."""

        def events(engine):
            recorder = FlightRecorder()
            env = Environment()
            busses = [
                _idle_channel(env, tracer=recorder, prefix=f"bus{i}/")
                for i in range(2)
            ]
            with use_engine(engine):
                busses[0].run(320, peers=busses[1:])
            assert env.now == 320
            return _events(recorder)

        expected = [
            (f"bus{i}/channel/idle", {"n": 5, "t": 0, "slot": 64}, None)
            for i in range(2)
        ]
        for engine in ("des", "batch"):
            assert events(engine) == expected


class TestStation:
    def test_deliver_due_moves_arrivals(self):
        station = Station(0, CSMACDProtocol())
        station.load_arrivals(
            make_class(), TraceArrivals(trace=(5, 10, 20)), horizon=100
        )
        assert station.deliver_due(10) == 2
        assert len(station.queue) == 2
        assert station.undelivered_arrivals == 1

    def test_periodic_loading(self):
        station = Station(0, CSMACDProtocol())
        loaded = station.load_arrivals(
            make_class(), PeriodicArrivals(period=100), horizon=1000
        )
        assert loaded == 10

    def test_complete_records_latency(self):
        station = Station(0, CSMACDProtocol())
        station.load_arrivals(make_class(), TraceArrivals(trace=(5,)), 100)
        station.deliver_due(5)
        message = station.queue.peek()
        station.complete(message, completion=500, started=400)
        record = station.completions[0]
        assert record.latency == 495
        assert record.started == 400
        assert not record.dropped

    def test_drop_records_miss(self):
        station = Station(0, CSMACDProtocol())
        station.add_arrival(make_class(deadline=10), 0)
        station.deliver_due(0)
        message = station.queue.peek()
        station.drop(message, when=50)
        record = station.completions[0]
        assert record.dropped
        assert not record.on_time

    def test_needs_static_index(self):
        with pytest.raises(ValueError):
            Station(0, CSMACDProtocol(), static_indices=())

    def test_backlog_snapshot(self):
        station = Station(0, CSMACDProtocol())
        station.add_arrival(make_class(), 0)
        station.add_arrival(make_class(), 0)
        station.deliver_due(0)
        assert len(station.backlog()) == 2


class TestCompletionRecord:
    def test_on_time_boundary(self):
        cls = make_class(deadline=100)
        from repro.model.message import MessageInstance

        message = MessageInstance.arrive(cls, 0, 0)
        exactly = CompletionRecord(message=message, completion=100, started=50)
        late = CompletionRecord(message=message, completion=101, started=50)
        assert exactly.on_time
        assert not late.on_time
