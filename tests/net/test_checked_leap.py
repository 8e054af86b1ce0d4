"""Consistency-checked runs keep the idle leap, and the check stays whole.

With ``check_consistency`` on, the fast loop crosses a provably idle
stretch by advancing every station's *own* replica in O(1)
(:meth:`MACProtocol.leap_idle`: DDCR's and the four baselines') and
asserts lockstep at the stretch's first and last slot.  Under noise the
leap stops at the first slot a gate fires and runs it as a corrupted
round, checked like any stepped slot.  This file holds that path to the
per-slot DES (byte-identical results, replica state and flight-recorder
dumps), shows the leap engages, and desynchronises one replica around a
stretch to show the lockstep check still fails the run wherever the
desync happens.  The byte-identity runs arm a flight recorder, which
keeps the leap on: a leapt stretch and a stepped one are both one
``channel/idle`` event.
"""

from __future__ import annotations

import itertools
import pickle

import pytest

from repro.core.trees import BalancedTree
from repro.model.arrival import GreedyBurstArrivals
from repro.model.workloads import uniform_problem
from repro.net import channel as channel_module
from repro.net.channel import BroadcastChannel, _RoundDriver
from repro.net.engine import use_engine
from repro.net.phy import ideal_medium
from repro.net.station import Station
from repro.obs.tracer import FlightRecorder
from repro.protocols.base import ChannelState, SlotObservation
from repro.protocols.csma_cd import CSMACDProtocol
from repro.protocols.dcr import DCRProtocol
from repro.protocols.ddcr import DDCRConfig, DDCRProtocol
from repro.protocols.ddcr.protocol import DDCRMode
from repro.protocols.slotted_aloha import SlottedAlohaProtocol
from repro.protocols.tdma import TDMAProtocol
from repro.sim.engine import Environment
from repro.sim.invariants import (
    MonitorSuite,
    MutualExclusionMonitor,
    standard_suite,
)

_HORIZON = 250_000
_SLOT = 64


def _mac_factory(protocol, problem, config):
    if protocol == "ddcr":
        ddcr = DDCRConfig(
            time_f=16,
            time_m=2,
            class_width=65_536,
            static_q=problem.static_q,
            static_m=problem.static_m,
            **config,
        )
        return lambda source: DDCRProtocol(ddcr)
    if protocol == "dcr":
        tree = BalancedTree.of(m=problem.static_m, leaves=problem.static_q)
        return lambda source: DCRProtocol(tree)
    if protocol == "tdma":
        roster = tuple(source.source_id for source in problem.sources)
        return lambda source: TDMAProtocol(roster)
    if protocol == "csma_cd":
        return lambda source: CSMACDProtocol(seed=source.source_id)
    assert protocol == "slotted_aloha"
    return lambda source: SlottedAlohaProtocol(seed=source.source_id)


def _build_channel(
    a=1, destructive=True, monitors=False, jam=None, load=True, tracer=None,
    protocol="ddcr", noise=0.0, **config,
):
    """A checked channel on the bursty uniform workload (DDCR unless
    ``protocol`` names a baseline)."""
    problem = uniform_problem(
        z=5, length=1_000, deadline=400_000, a=a, w=200_000
    )
    mac_factory = _mac_factory(protocol, problem, config)
    channel = BroadcastChannel(
        Environment(),
        ideal_medium(slot_time=_SLOT, destructive=destructive),
        check_consistency=True,
        noise_rate=noise,
        noise_seed=3,
        tracer=tracer,
    )
    seq_source = itertools.count()
    for source in problem.sources:
        station = Station(
            station_id=source.source_id,
            mac=mac_factory(source),
            static_indices=source.static_indices,
            seq_source=seq_source,
        )
        if load:
            for msg_class in source.message_classes:
                station.load_arrivals(
                    msg_class,
                    GreedyBurstArrivals(bound=msg_class.bound),
                    _HORIZON,
                )
        channel.attach(station)
    if monitors:
        channel.monitors = standard_suite(channel.stations)
    if jam is not None:
        channel.jam_from, channel.jam_until = jam
    return channel


def _run(engine, **case):
    """One checked, traced run; returns (digest, ``observe`` calls,
    rounds)."""
    recorder = FlightRecorder(capacity=100_000)
    channel = _build_channel(tracer=recorder, **case)
    calls = [0]
    for station in channel.stations:
        observe = station.mac.observe

        def counted(observation, _observe=observe):
            calls[0] += 1
            _observe(observation)

        station.mac.observe = counted
    with use_engine(engine):
        channel.run(_HORIZON)
    assert channel.env.now == _HORIZON
    report = (
        channel.monitors.finalize(_HORIZON, channel.stations)
        if channel.monitors is not None
        else None
    )
    assert recorder.emitted == len(recorder) < channel.stats.rounds
    digest = pickle.dumps(
        (
            recorder.snapshot(),
            channel.stats,
            channel.observations,
            [list(station.completions) for station in channel.stations],
            [station.backlog() for station in channel.stations],
            report,
            [
                (
                    station.mac.public_state(),
                    getattr(station.mac, "tts_records", None),
                    getattr(station.mac, "sts_records", None),
                    getattr(station.mac, "empty_tts_runs", None),
                )
                for station in channel.stations
            ],
        )
    )
    return digest, calls[0], channel.stats.rounds


_CASES = {
    "plain": {},
    "bursting": {"a": 3, "burst_limit": 3_000},
    "non-destructive": {"destructive": False},
    "monitors": {"monitors": True},
    "jam-window": {"jam": (80_000, 120_000)},
    "jam-tail": {"jam": (125_000, None)},
    "exit-to-free": {"exit_to_free_on_idle": True},
    "noisy": {"noise": 0.02},
    "noisy-monitors": {"noise": 0.02, "monitors": True},
    "dcr": {"protocol": "dcr", "monitors": True},
    "dcr-noisy": {"protocol": "dcr", "noise": 0.02, "monitors": True},
    "tdma": {"protocol": "tdma"},
    "tdma-noisy": {"protocol": "tdma", "noise": 0.02},
    "csma-cd": {"protocol": "csma_cd"},
    "csma-cd-noisy": {"protocol": "csma_cd", "noise": 0.02},
    "slotted-aloha": {"protocol": "slotted_aloha"},
    "slotted-aloha-noisy": {"protocol": "slotted_aloha", "noise": 0.02},
}


@pytest.mark.parametrize("case", list(_CASES.values()), ids=list(_CASES))
def test_checked_leap_is_byte_identical(case):
    """des vs batch: stats, completions, invariant reports, recorder dumps
    and every station's replica state and run records agree; the fast
    loop (what ``batch`` runs for checked channels) leaps with the
    recorder armed, noise or not."""
    runs = {engine: _run(engine, **case) for engine in ("des", "batch")}
    assert len({digest for digest, _, _ in runs.values()}) == 1
    des_calls, (_, fast_calls, rounds) = runs["des"][1], runs["batch"]
    assert des_calls == rounds * 5  # the reference digests every slot
    assert fast_calls < des_calls // 4


def test_checked_leap_engages():
    """An idle-heavy checked run makes far fewer ``DDCRProtocol.observe``
    calls than rounds x stations, and none at all on an idle channel."""
    _, calls, rounds = _run("batch")
    assert rounds > 3_000 and calls < rounds * 5 // 20
    _, calls, rounds = _run("batch", load=False)
    assert rounds == -(-_HORIZON // _SLOT) and calls == 0


@pytest.mark.parametrize("noise", [0.0, 0.02])
@pytest.mark.parametrize(
    "protocol", ["ddcr", "dcr", "tdma", "csma_cd", "slotted_aloha"]
)
def test_checked_leap_engages_for_every_protocol(
    protocol, noise, monkeypatch
):
    """Every protocol's checked runs leap multi-slot idle stretches, and
    under noise the leaps run the slots a gate corrupts as rounds."""
    corrupted = []
    original = _RoundDriver.round

    def spy(self, now, fired=0):
        if fired:
            corrupted.append(now)
        return original(self, now, fired)

    monkeypatch.setattr(_RoundDriver, "round", spy)
    leaps, _ = _stretches(protocol=protocol, noise=noise)
    assert max(end - start for start, end in leaps) > 16 * _SLOT
    assert bool(corrupted) == (noise > 0)


class _SlotOnlyExclusion(MutualExclusionMonitor):
    """Overrides ``on_slot`` but inherits ``on_jammed``: the inherited
    digest no longer describes this class's per-slot behaviour."""

    def on_slot(self, *args):
        super().on_slot(*args)


@pytest.mark.parametrize("suite, leaps", [
    (None, True),
    (lambda ch: [MutualExclusionMonitor()], True),
    (lambda ch: standard_suite(ch.stations).monitors, False),
    (lambda ch: [_SlotOnlyExclusion()], False),
], ids=["unmonitored", "exclusion", "standard", "slot-only"])
def test_jammed_leap_needs_a_suite_that_digests_jammed_slots(
    suite, leaps, monkeypatch
):
    """A checked channel jammed from mid-run leaps its jam only when its
    monitors digest jammed slots (``on_jammed`` from the class of their
    ``on_slot``); otherwise the jam steps while idle stretches still
    leap.  Either way the run, replicas and reports match the DES."""
    jammed = []
    original = _RoundDriver.leap

    def spy(self, now, end):
        duration = original(self, now, end)
        if self.channel._jammed(now):
            jammed.append(duration // _SLOT)
        return duration

    monkeypatch.setattr(_RoundDriver, "leap", spy)
    runs = []
    for engine in ("des", "batch"):
        jammed.clear()
        channel = _build_channel(jam=(125_000, None))
        if suite is not None:
            channel.monitors = MonitorSuite(suite(channel))
        with use_engine(engine):
            channel.run(_HORIZON)
        if engine == "batch":
            assert bool(jammed) == leaps
            if leaps:
                assert sum(jammed) > 1_900
        report = (
            channel.monitors.finalize(_HORIZON, channel.stations)
            if channel.monitors is not None
            else None
        )
        if report is not None:
            assert report.ok and report.slots_checked == channel.stats.rounds
        runs.append(pickle.dumps((
            channel.stats,
            report,
            [station.mac.public_state() for station in channel.stations],
            [list(station.completions) for station in channel.stations],
        )))
    assert runs[0] == runs[1]


# -- the check still fails a desynchronised replica ---------------------------


def _stretches(**case):
    """(first slot, end) of every leap a checked run makes, and the
    channel it ran on (a leap ended by a corrupted slot includes it)."""
    leaps = []
    original = _RoundDriver.leap

    def spy(self, now, end):
        duration = original(self, now, end)
        if duration:
            leaps.append((now, now + duration))
        return duration

    _RoundDriver.leap = spy
    try:
        channel = _build_channel(**case)
        with use_engine("batch"):
            channel.run(_HORIZON)
    finally:
        _RoundDriver.leap = original
    return leaps, channel


def _stretch(**case):
    """The idle stretch between the workload's two bursts: multi-slot, in
    the fresh-TTs cycle for DDCR, and ended by an arrival (the second
    stretch runs to the horizon)."""
    leaps, _ = _stretches(**case)
    assert len(leaps) == 2
    start, end = leaps[0]
    assert end - start > 2 * _SLOT and end < _HORIZON
    return start, end


def _desync(station):
    station.mac.reft += 1  # idle-steady still, but out of lockstep


def _leap_hook(monkeypatch, start, before):
    """Call ``before(channel)`` as the fast loop reaches ``start``, before
    it checks whether the stretch may be leapt (the stretch rule,
    ``channel._stretch_end``); returns the stretch lengths seen there
    (0 = no leap)."""
    seen = []
    original = channel_module._stretch_end

    def hooked(driver, now, end):
        if now == start:
            before(driver.channel)
        stretch_end = original(driver, now, end)
        if now == start:
            seen.append(
                stretch_end - now
                if stretch_end is not None and stretch_end > now else 0
            )
        return stretch_end

    monkeypatch.setattr(channel_module, "_stretch_end", hooked)
    return seen


def test_desync_just_before_a_stretch_fails(monkeypatch):
    start, _ = _stretch()
    _leap_hook(monkeypatch, start, lambda ch: _desync(ch.stations[2]))
    with pytest.raises(AssertionError, match=f"t={start}: stations disagree"):
        with use_engine("batch"):
            _build_channel().run(_HORIZON)


def test_desync_at_a_stretchs_first_slot_fails():
    start, _ = _stretch()
    channel = _build_channel()
    mac = channel.stations[3].mac
    leap_idle = mac.leap_idle

    def desynced(n, end):
        leap_idle(n, end)
        if end == start + _SLOT:
            mac.reft += 1

    mac.leap_idle = desynced
    with pytest.raises(AssertionError, match=f"t={start}: stations disagree"):
        with use_engine("batch"):
            channel.run(_HORIZON)


def test_desync_inside_a_stretch_fails_at_its_last_slot():
    _, end = _stretch()
    channel = _build_channel()
    mac = channel.stations[1].mac
    leap_idle = mac.leap_idle

    def desynced(n, stretch_end):
        leap_idle(n, stretch_end)
        if stretch_end == end:
            mac.reft += 1

    mac.leap_idle = desynced
    with pytest.raises(
        AssertionError, match=f"t={end - _SLOT}: stations disagree"
    ):
        with use_engine("batch"):
            channel.run(_HORIZON)


def test_tdma_desync_inside_a_stretch_fails_at_its_last_slot():
    """A TDMA replica whose turn slips inside a stretch is only caught
    at the stretch's last slot, the next point the check looks at."""
    _, end = _stretch(protocol="tdma")
    channel = _build_channel(protocol="tdma")
    mac = channel.stations[2].mac
    leap_idle = mac.leap_idle

    def desynced(n, stretch_end):
        leap_idle(n, stretch_end)
        if stretch_end == end:
            mac._turn = (mac._turn + 1) % len(mac.roster)

    mac.leap_idle = desynced
    with pytest.raises(
        AssertionError, match=f"t={end - _SLOT}: stations disagree"
    ):
        with use_engine("batch"):
            channel.run(_HORIZON)


def test_desync_right_after_a_stretch_fails():
    _, end = _stretch()
    channel = _build_channel()
    assert_lockstep = channel._assert_lockstep

    def desync_after_last_slot(now):
        assert_lockstep(now)
        if now == end - _SLOT:
            _desync(channel.stations[0])

    channel._assert_lockstep = desync_after_last_slot
    with pytest.raises(AssertionError, match=f"t={end}: stations disagree"):
        with use_engine("batch"):
            channel.run(_HORIZON)


def test_replica_out_of_steady_state_blocks_the_leap(monkeypatch):
    """One replica digests a phantom root collision right before a
    stretch: it is mid-search while the others are idle-steady, so no
    leap happens and the per-slot check fails the run at that slot."""
    start, _ = _stretch()

    def phantom_collision(channel):
        mac = channel.stations[4].mac
        assert mac.mode is DDCRMode.TTS and mac.idle_steady()
        mac.observe(
            SlotObservation(
                state=ChannelState.COLLISION,
                start=start - _SLOT,
                duration=_SLOT,
            )
        )
        assert not mac.idle_steady()
        assert all(s.mac.idle_steady() for s in channel.stations[:4])

    seen = _leap_hook(monkeypatch, start, phantom_collision)
    with pytest.raises(AssertionError, match=f"t={start}: stations disagree"):
        with use_engine("batch"):
            _build_channel().run(_HORIZON)
    assert seen == [0]
