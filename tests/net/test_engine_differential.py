"""Differential tests: both engines are byte-identical.

The default ``batch`` engine — the struct-of-arrays kernel on eligible
channels, the fast loop on every station's own replica elsewhere — must
be indistinguishable from the per-slot ``des`` reference by results:
same :class:`ChannelStats`, same completion records, same flight-recorder
dump, same final clock — across protocols, noise, jamming, bursting,
channels sharing a clock (the dual bus, whose two busses the fast loop
runs as one), and the automatic fallback on structural batch
ineligibility.  Most runs here arm a flight recorder, which keeps the
idle leap on: a leapt stretch and a stepped one both record one
``channel/idle`` event, so every protocol's runs hold the kernel's leap
(DDCR, DCR, TDMA) or the fast loop's (the baselines, checked runs,
channels sharing a clock) to the per-slot DES oracle.  Noise keeps the
leap too: a leap draws the gates slot by slot and stops at the first
slot one fires, which then runs as a corrupted round, so the noisy cases
hold that rule to the DES as well.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trees import BalancedTree
from repro.experiments.harness import csma_cd_factory
from repro.faults.models import (
    BabblingStation,
    ClockDrift,
    FaultPlan,
    GilbertElliottNoise,
    StationCrash,
)
from repro.model.arrival import GreedyBurstArrivals, TraceArrivals
from repro.model.workloads import uniform_problem
from repro.net import channel as channel_module
from repro.net.channel import BroadcastChannel, _RoundDriver
from repro.net.dualbus import DualBusSimulation, suggested_jam_threshold
from repro.experiments.harness import build_chain_topology
from repro.net.batch import BatchKernel
from repro.net.engine import ENGINES as ALL_ENGINES
from repro.net.engine import default_engine, resolve_engine, use_engine
from repro.net.fabric import Fabric
from repro.net.network import NetworkSimulation, Scenario
from repro.net.phy import GIGABIT_ETHERNET, ideal_medium
from repro.net.station import Station
from repro.obs.context import use_telemetry, use_tracer
from repro.obs.instruments import Telemetry
from repro.obs.manifest import RunTelemetry
from repro.obs.tracer import FlightRecorder
from repro.protocols.csma_cd import CSMACDProtocol
from repro.protocols.dcr import DCRProtocol
from repro.protocols.ddcr import DDCRConfig, DDCRProtocol
from repro.protocols.slotted_aloha import SlottedAlohaProtocol
from repro.protocols.tdma import TDMAProtocol
from repro.sim.engine import Environment
from tests.protocols.conftest import make_class

#: The reference first: the loops below compare later engines with it.
ENGINES = ("des", "batch")
#: ``tdma_gap`` is TDMA over a roster that lists an id no station has.
PROTOCOLS = ("ddcr", "csma_cd", "tdma", "dcr", "slotted_aloha", "tdma_gap")
#: The protocols whose eligible channels run the batch kernel.
KERNEL_PROTOCOLS = ("ddcr", "dcr", "tdma", "tdma_gap")
_HORIZON = 250_000


def _ddcr_config(problem, burst_limit=0):
    return DDCRConfig(
        time_f=16,
        time_m=2,
        class_width=65_536,
        static_q=problem.static_q,
        static_m=problem.static_m,
        burst_limit=burst_limit,
    )


def _protocol_factory(protocol: str, problem, burst_limit=0):
    if protocol == "ddcr":
        config = _ddcr_config(problem, burst_limit)
        return lambda source: DDCRProtocol(config)
    if protocol == "csma_cd":
        return lambda source: CSMACDProtocol(seed=source.source_id)
    if protocol == "dcr":
        tree = BalancedTree.of(m=problem.static_m, leaves=problem.static_q)
        return lambda source: DCRProtocol(tree)
    if protocol == "slotted_aloha":
        return lambda source: SlottedAlohaProtocol(seed=source.source_id)
    roster = tuple(source.source_id for source in problem.sources)
    if protocol == "tdma_gap":
        # The absent id's turns stay silent on every engine.
        roster = roster[:2] + (max(roster) + 1,) + roster[2:]
    return lambda source: TDMAProtocol(roster)


def _recorder():
    """A ring large enough to keep every event of one run here."""
    return FlightRecorder(capacity=100_000)


def _dump(recorder):
    """The recorder's events, after checking the ring dropped none."""
    assert recorder.emitted == len(recorder)
    return recorder.snapshot()


def _snapshot(stats, completions, recorder):
    """Picklable byte-for-byte digest of one run's observable output."""
    return pickle.dumps((stats, completions, _dump(recorder)))


def _run_network(
    engine, protocol, z=6, noise=0.0, burst_limit=0, seed=0,
    faults=None, horizon=_HORIZON, monitors=False,
):
    problem = uniform_problem(
        z=z, length=1_000, deadline=400_000, a=1, w=200_000
    )
    recorder = _recorder()
    with use_tracer(recorder), use_engine(engine):
        simulation = NetworkSimulation.from_scenario(
            Scenario(
                problem,
                ideal_medium(slot_time=64),
                protocol_factory=_protocol_factory(
                    protocol, problem, burst_limit
                ),
                noise_rate=noise,
                noise_seed=seed,
                root_seed=seed,
                faults=faults,
                monitors=None if faults is not None else monitors,
            )
        )
        result = simulation.run(horizon)
    return pickle.dumps(
        (
            result.stats,
            result.completions,
            _dump(recorder),
            result.invariants,
        )
    )


def _spy_leaps(monkeypatch):
    """Count the multi-slot leaps of each leaping engine (the kernel's
    are the round driver's leaps on a batch run), and the slots a leap
    ran as corrupted rounds (a noise gate fired inside its stretch)."""
    seen: collections.Counter = collections.Counter()
    driver_leap, driver_round = _RoundDriver.leap, _RoundDriver.round

    def driver_leap_spy(self, now, end):
        duration = driver_leap(self, now, end)
        if duration > self.slot_time:
            seen["fastloop" if self.kernel is None else "batch"] += 1
        return duration

    def driver_round_spy(self, now, fired=0):
        if fired:
            seen["fired"] += 1
        return driver_round(self, now, fired)

    monkeypatch.setattr(_RoundDriver, "leap", driver_leap_spy)
    monkeypatch.setattr(_RoundDriver, "round", driver_round_spy)
    return seen


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("noise", [0.0, 0.02])
def test_engines_identical_across_protocols(protocol, noise, monkeypatch):
    """Stats, completions, recorder dumps and the standard suite's
    invariant reports match byte-for-byte, noise or not, and the leaps
    engage: the kernel leaps DDCR's, DCR's and TDMA's idle stretches, the
    fast loop (``batch``'s fallback) BEB's and slotted ALOHA's on every
    station's own replica, and under noise both leap up to a fired gate
    and run that slot as a corrupted round."""
    seen = _spy_leaps(monkeypatch)
    runs = []
    for engine in ENGINES:
        seen.clear()
        runs.append(
            _run_network(engine, protocol, noise=noise, monitors=True)
        )
        if engine == "des":
            assert not seen  # the reference steps every slot
            continue
        kernel_ran = engine == "batch" and protocol in KERNEL_PROTOCOLS
        assert seen["batch" if kernel_ran else "fastloop"] > 0, (engine, seen)
        assert seen["fastloop" if kernel_ran else "batch"] == 0, (engine, seen)
        assert (seen["fired"] > 0) == (noise > 0), (engine, seen)
    assert len(set(runs)) == 1


def test_engines_identical_with_bursting():
    """DDCR packet bursting (section 5) follows the same slot sequence."""
    runs = [
        _run_network(engine, "ddcr", noise=0.01, burst_limit=3_000)
        for engine in ENGINES
    ]
    assert len(set(runs)) == 1


def _far_deadline_problem(spread=False):
    """Five stations whose 400 µs deadlines lie far beyond the time
    tree's horizon c*F = 32,768 bit-times (ABL-THETA's shape, scaled to
    the ideal medium): a queued message sits out the fresh-TTs cycle
    until compressed time pulls its class in.  ``spread`` gives station
    i the deadline 300 + 140 i µs instead, so the waits end one station
    at a time, the least deadline's first."""
    problem = uniform_problem(
        z=5, length=1_000, deadline=400_000, a=1, w=200_000
    )
    if not spread:
        return problem
    return dataclasses.replace(problem, sources=tuple(
        dataclasses.replace(source, message_classes=tuple(
            dataclasses.replace(
                msg_class, deadline=300_000 + 140_000 * source.source_id
            )
            for msg_class in source.message_classes
        ))
        for source in problem.sources
    ))


def _far_deadline_config(problem, theta_factor):
    return DDCRConfig(
        time_f=16,
        time_m=2,
        class_width=2_048,
        static_q=problem.static_q,
        static_m=problem.static_m,
        theta_factor=theta_factor,
    )


#: Runs whose queued messages sit silent slots out: case name ->
#: (DDCR theta factor, or None for BEB; consistency-checked; noise rate).
_BACKLOGGED_CASES = {
    "ddcr-theta-0": (0.0, False, 0.0),
    "ddcr-theta-c": (1.0, False, 0.0),
    "ddcr-spread-deadlines": (1.0, False, 0.0),
    "ddcr-checked-noisy": (1.0, True, 0.01),
    "beb-proto-scale-8": (None, False, 0.0),
}


def _run_backlogged(engine, case):
    """One monitored run of a :data:`_BACKLOGGED_CASES` entry; returns
    the result and the byte digest of its stats, completions and
    invariant report."""
    theta, checked, noise = _BACKLOGGED_CASES[case]
    if theta is None:
        # PROTO's BEB load at scale 8: backoffs that queued messages
        # sit out.
        problem = uniform_problem(
            z=8, length=16_000, deadline=2_000_000, a=2, w=4_000_000,
            scale=8.0,
        )
        medium = GIGABIT_ETHERNET
        factory = csma_cd_factory(7)
        horizon = 8_000_000
    else:
        problem = _far_deadline_problem(spread=case == "ddcr-spread-deadlines")
        medium = ideal_medium(slot_time=64)
        config = _far_deadline_config(problem, theta)
        factory = lambda source: DDCRProtocol(config)  # noqa: E731
        horizon = 600_000
    with use_engine(engine):
        result = NetworkSimulation.from_scenario(
            Scenario(
                problem,
                medium,
                protocol_factory=factory,
                check_consistency=checked,
                noise_rate=noise,
                noise_seed=3,
                root_seed=3,
                monitors=True,
            )
        ).run(horizon)
    return result, pickle.dumps(
        (result.stats, result.completions, result.invariants)
    )


def _spy_backlogged_leaps(monkeypatch):
    """Record the slots of every idle stretch a channel leaps while some
    queue holds a message, and count the slots such a leap ran as a
    corrupted round."""
    leaps: list[int] = []
    fired = collections.Counter()
    leap = _RoundDriver.leap

    def spy(self, now, end):
        backlogged = any(station.queue for station in self.stations)
        duration = leap(self, now, end)
        if backlogged and not self.channel._jammed(now):
            leaps.append(duration // self.slot_time)
        return duration

    round_ = _RoundDriver.round

    def round_spy(self, now, fired_gates=0):
        if fired_gates and any(station.queue for station in self.stations):
            fired["backlogged"] += 1
        return round_(self, now, fired_gates)

    monkeypatch.setattr(_RoundDriver, "leap", spy)
    monkeypatch.setattr(_RoundDriver, "round", round_spy)
    return leaps, fired


@pytest.mark.parametrize("case", _BACKLOGGED_CASES)
def test_backlogged_stretches_leap_identically(case, monkeypatch):
    """Silence that queued messages sit out — DDCR's compressed-time wait
    for a class beyond the horizon, at theta = 0 and theta = c, with the
    stations' deadlines spread (the kernel's room is the least head
    deadline's), checked and noisy too (on the fast loop), and BEB's
    backoffs at PROTO's scale 8 — leaps, and the runs stay
    byte-identical to the per-slot DES, monitors' reports included.  The
    DES leaps none."""
    leaps, fired = _spy_backlogged_leaps(monkeypatch)
    digests = set()
    for engine in ENGINES:
        leaps.clear()
        fired.clear()
        result, digest = _run_backlogged(engine, case)
        digests.add(digest)
        if engine == "des":
            assert not leaps
            continue
        assert leaps, (engine, case)
        if case in ("ddcr-theta-0", "ddcr-theta-c", "ddcr-spread-deadlines"):
            assert max(leaps) > 100, (engine, leaps)
        if case == "ddcr-checked-noisy":
            # A gate fired inside a backlogged stretch: the leap stopped
            # there and ran the slot as a corrupted round.
            assert fired["backlogged"] > 0
        if case == "ddcr-theta-c" and engine == "batch":
            assert result.engine_fallback is None  # the kernel leapt
    assert len(digests) == 1


def test_work_conservation_crossing_inside_a_leap(monkeypatch):
    """The standard suite with a small work-conservation limit: the
    streak of silent backlogged slots crosses the limit inside a leapt
    stretch, and every engine reports the same violation at the crossing
    slot, with the text and ``since`` the per-slot path gives."""
    from repro.sim.invariants import standard_suite

    problem = _far_deadline_problem()
    config = _far_deadline_config(problem, 1.0)
    limit = 40
    leapt = []
    leap = _RoundDriver.leap

    def spy(self, now, end):
        duration = leap(self, now, end)
        if any(station.queue for station in self.stations):
            leapt.append((now, now + duration))
        return duration

    monkeypatch.setattr(_RoundDriver, "leap", spy)
    violations = {}
    for engine in ENGINES:
        leapt.clear()
        # The suite standard_suite arms for these stations' protocol.
        probe = Station(0, DDCRProtocol(config))
        suite = standard_suite([probe], work_conservation_limit=limit)
        with use_engine(engine):
            result = NetworkSimulation.from_scenario(
                Scenario(
                    problem,
                    ideal_medium(slot_time=64),
                    protocol_factory=lambda source: DDCRProtocol(config),
                    monitors=suite,
                )
            ).run(600_000)
        (violation,) = result.invariants.by_invariant("work_conservation")
        violations[engine] = violation
        if engine != "des":
            assert any(
                start < violation.time < stop for start, stop in leapt
            ), (engine, leapt, violation)
    des = violations["des"]
    assert des.message == (
        f"channel idle for {limit + 1} consecutive slots with queued "
        "messages"
    )
    assert des.time - des.detail("since") == limit * 64
    assert violations["batch"] == des


#: Static indices (nu > 1) and traffic (arrival times, deadline) per
#: station of the hand-built kernel channel below: all six collide at
#: time 0, station 3's later deadline class keeps it out of the static
#: search that resolves the others' time leaf, and colliders left
#: without a rank or a message sit the rest of that search out while
#: their indices are probed.
_OWNERS = (
    ((0, 5), (0, 0, 0), 300_000),
    ((1, 9, 13), (0, 0), 300_000),
    ((2, 3), (0,), 300_000),
    ((8, 12), (0, 0), 900_000),
    ((4,), (0, 3_000), 300_000),
    ((6, 7, 10), (0, 0, 0), 300_000),
)


def _run_owned_indices(engine, offers, mac_factory=None):
    """The :data:`_OWNERS` channel, on DDCR or with each station's MAC
    from ``mac_factory()``; ``offers`` maps each stepped round's start
    to the ids of the stations that offered in it."""
    config = DDCRConfig(
        time_f=16, time_m=2, class_width=65_536, static_q=16, static_m=2
    )
    channel = BroadcastChannel(Environment(), ideal_medium(slot_time=64))
    seq_source = itertools.count()
    for station_id, (indices, trace, deadline) in enumerate(_OWNERS):
        mac = (
            DDCRProtocol(config) if mac_factory is None else mac_factory()
        )
        station = Station(
            station_id, mac, static_indices=indices, seq_source=seq_source
        )
        station.load_arrivals(
            make_class(deadline=deadline), TraceArrivals(trace=trace),
            100_000,
        )
        if engine != "batch":
            offer = mac.offer

            def spy(now, offer=offer, station_id=station_id):
                message = offer(now)
                if message is not None:
                    offers[now].append(station_id)
                return message

            mac.offer = spy
        channel.attach(station)
    with use_engine(engine):
        assert channel.run(100_000) is None
    completions = [
        record for station in channel.stations
        for record in station.completions
    ]
    return pickle.dumps((channel.stats, completions))


def test_sts_offers_from_owners_match_per_station_offers(monkeypatch):
    """The kernel's static-tree offers come from the owners of the probed
    node's indices.  On a channel where stations own several indices and
    some colliders sit the search out, every stepped round's offerers
    equal those of every station's own replica, and the runs are
    byte-identical."""
    from repro.protocols.ddcr.protocol import DDCRMode

    kernel_offers: dict[int, list[int]] = {}
    probes = collections.Counter()
    offers = BatchKernel.offers

    def spy(self, now):
        result = offers(self, now)
        kernel_offers[now] = sorted(
            self.stations[i].station_id for i in self._offers
        )
        if self.replica.mode is DDCRMode.STS:
            node = self.replica.sts.search.agenda[-1]
            probes["wide"] += node.hi - node.lo > 1
            probes["sat_out"] += any(
                self.member[i]
                and i not in self._offers
                and any(node.lo <= x < node.hi for x in self.statics[i])
                for i in range(self.z)
            )
        return result

    monkeypatch.setattr(BatchKernel, "offers", spy)
    station_offers = collections.defaultdict(list)
    digests = {
        _run_owned_indices(
            engine, station_offers if engine == "des" else None
        )
        for engine in ENGINES
    }
    assert len(digests) == 1
    assert probes["wide"] > 0 and probes["sat_out"] > 0, probes
    offered = {now: ids for now, ids in kernel_offers.items() if ids}
    assert station_offers == offered


def test_dcr_offers_from_owners_match_per_station_offers(monkeypatch):
    """DCR's search offers come from the owners of the probed node's
    indices whose rank cursor is on that index: DDCR's static-search rule
    without the time-leaf test.  On the :data:`_OWNERS` channel, where
    stations own one to three indices, transmit again on a later index
    of the same search and sit it out once their ranks or messages run
    out, every stepped round's kernel offerers equal those of every
    station's own replica, and the runs are byte-identical."""
    from repro.protocols.dcr import DCRMode

    tree = BalancedTree.of(m=2, leaves=16)
    kernel_offers: dict[int, list[int]] = {}
    probes = collections.Counter()
    offers = BatchKernel.offers

    def spy(self, now):
        result = offers(self, now)
        kernel_offers[now] = sorted(
            self.stations[i].station_id for i in self._offers
        )
        if self.replica.mode is DCRMode.SEARCH:
            node = self.replica.search.agenda[-1]
            probes["wide"] += node.hi - node.lo > 1
            probes["sat_out"] += any(
                i not in self._offers
                and any(node.lo <= x < node.hi for x in self.statics[i])
                for i in range(self.z)
            )
            probes["again"] += any(self.cursor[i] > 0 for i in self._offers)
        return result

    monkeypatch.setattr(BatchKernel, "offers", spy)
    station_offers = collections.defaultdict(list)
    digests = {
        _run_owned_indices(
            engine,
            station_offers if engine == "des" else None,
            lambda: DCRProtocol(tree),
        )
        for engine in ENGINES
    }
    assert len(digests) == 1
    assert all(probes[key] > 0 for key in ("wide", "sat_out", "again")), (
        probes
    )
    offered = {now: ids for now, ids in kernel_offers.items() if ids}
    assert station_offers == offered


def test_a_shared_static_index_falls_back_to_the_fast_loop():
    """Two stations sharing a static index is a channel the kernel's
    owner map cannot hold: the run falls back and says why."""
    config = DDCRConfig(
        time_f=16, time_m=2, class_width=65_536, static_q=4, static_m=2
    )
    channel = BroadcastChannel(Environment(), ideal_medium(slot_time=64))
    for station_id, indices in enumerate([(0, 1), (1,)]):
        channel.attach(
            Station(station_id, DDCRProtocol(config), static_indices=indices)
        )
    with use_engine("batch"):
        note = channel.run(10_000)
    assert note == (
        "batch engine unavailable (stations share static index 1): "
        "ran fastloop"
    )


def _run_manual_channel(
    engine, jam_from=None, noise=0.0, protocol="ddcr", jam_until=None,
    problem=None, horizons=(_HORIZON,),
):
    """Hand-built channel (no NetworkSimulation) with optional jamming,
    run by one ``run`` call per horizon in ``horizons`` on ``engine``
    (``None``: the ambient one); an unchecked channel of a kernel
    protocol runs the kernel under ``batch``."""
    if problem is None:
        problem = uniform_problem(
            z=5, length=1_000, deadline=400_000, a=1, w=200_000
        )
    factory = _protocol_factory(protocol, problem)
    env = Environment()
    recorder = _recorder()
    channel = BroadcastChannel(
        env,
        ideal_medium(slot_time=64),
        tracer=recorder,
        noise_rate=noise,
        noise_seed=11,
    )
    seq_source = itertools.count()
    stations = []
    for source in problem.sources:
        station = Station(
            station_id=source.source_id,
            mac=factory(source),
            static_indices=source.static_indices,
            seq_source=seq_source,
        )
        for msg_class in source.message_classes:
            station.load_arrivals(
                msg_class, GreedyBurstArrivals(bound=msg_class.bound), _HORIZON
            )
        channel.attach(station)
        stations.append(station)
    channel.jam_from = jam_from
    channel.jam_until = jam_until
    # The unified entry point owns the dispatch for both engines.
    with use_engine(engine):
        for horizon in horizons:
            note = channel.run(horizon)
            assert (note is None) == (
                default_engine() == "des" or protocol in KERNEL_PROTOCOLS
            ), note
            assert env.now == horizon
    completions = [
        record for station in stations for record in station.completions
    ]
    return _snapshot(channel.stats, completions, recorder)


def _spy_jammed_leaps(monkeypatch):
    """Record ``(channel prefix, first slot, slots)`` of every jammed
    stretch a channel leaps, on the fast loop or the kernel."""
    leaps: list[tuple[str, int, int]] = []
    leap = _RoundDriver.leap

    def spy(self, now, end):
        jammed = self.channel._jammed(now)
        duration = leap(self, now, end)
        if jammed:
            leaps.append((
                self.channel.telemetry_prefix, now,
                duration // self.slot_time,
            ))
        return duration

    monkeypatch.setattr(_RoundDriver, "leap", spy)
    return leaps


@pytest.mark.parametrize("noise", [0.0, 0.03])
def test_engines_identical_under_mid_run_jamming(noise, monkeypatch):
    """A bus jammed from mid-run on: every later slot collides,
    identically, and the kernel leaps the jam once the replica is stuck
    re-probing a static-tree leaf: all of it but the descent and the slot
    an arrival ends a stretch at, noise or not (a jammed slot draws no
    gate)."""
    leaps = _spy_jammed_leaps(monkeypatch)
    runs = []
    for engine in ENGINES:
        leaps.clear()
        runs.append(
            _run_manual_channel(engine, jam_from=_HORIZON // 2, noise=noise)
        )
        if engine == "des":
            assert not leaps  # the DES steps
            continue
        assert len(leaps) == 2
        jammed_slots = -(-(_HORIZON - _HORIZON // 2) // 64)
        assert jammed_slots - 10 < sum(n for *_, n in leaps)
    assert len(set(runs)) == 1


@pytest.mark.parametrize("protocol", ["dcr", "tdma"])
@pytest.mark.parametrize("noise", [0.0, 0.03])
def test_kernel_protocols_identical_under_a_jam_window(protocol, noise):
    """DCR and TDMA channels jammed over a window in the middle of a
    burst: the jammed slots open DCR searches and re-probe its leaves,
    and pass TDMA's turn as noisy slots; the kernel, which steps them
    (neither protocol is jam-steady), matches the per-slot DES."""
    runs = {
        _run_manual_channel(
            engine, jam_from=3_000, jam_until=9_000, noise=noise,
            protocol=protocol,
        )
        for engine in ENGINES
    }
    assert len(runs) == 1


@pytest.mark.parametrize("protocol", ["ddcr", "tdma"])
def test_a_leapt_noisy_stretch_draws_the_des_gates(protocol, monkeypatch):
    """A lone Bernoulli gate draws a leapt idle stretch in one loop
    (:meth:`~repro.faults.runtime.BernoulliGate.quiet_run`): at every
    slot noise corrupts, the ones a leap stopped at included, the slot
    and the gate RNG's ``getstate()`` equal the DES's."""
    from repro.faults.runtime import BernoulliGate

    corrupted: list = []
    counts = collections.Counter()
    round_, quiet_run = _RoundDriver.round, BernoulliGate.quiet_run

    def round_spy(self, now, fired=0):
        before = self.stats.corrupted_slots
        duration = round_(self, now, fired)
        if self.stats.corrupted_slots > before:
            corrupted.append((now, self.channel._noise_rng.getstate()))
            counts["leapt"] += fired > 0
        return duration

    def quiet_run_spy(self, n):
        counts["quiet_run"] += 1
        return quiet_run(self, n)

    monkeypatch.setattr(_RoundDriver, "round", round_spy)
    monkeypatch.setattr(BernoulliGate, "quiet_run", quiet_run_spy)
    runs = {}
    for engine in ENGINES:
        corrupted.clear()
        counts.clear()
        snapshot = _run_manual_channel(engine, noise=0.02, protocol=protocol)
        runs[engine] = (snapshot, list(corrupted))
        if engine != "des":
            assert counts["leapt"] > 0 and counts["quiet_run"] > 0, counts
    assert runs["des"][1]
    assert runs["des"] == runs["batch"]


@pytest.mark.parametrize("protocol", ["ddcr", "dcr", "tdma"])
def test_kernel_runs_resume_a_channel_mid_search(protocol):
    """A channel run to the horizon in several ``run`` calls, each cut
    inside a collision resolution (DCR's first search has rank cursors
    advanced from 2,322 on): every kernel run starts its shadow replica
    and columns from the stations' own replicas, which the previous
    run wrote back, and the runs match the DES's, noise included."""
    problem = uniform_problem(
        z=5, length=1_000, deadline=400_000, a=3, w=200_000, nu=2
    )
    runs = {
        _run_manual_channel(
            engine, noise=0.02, protocol=protocol, problem=problem,
            horizons=(2_400, 4_500, 7_000, _HORIZON),
        )
        for engine in ENGINES
    }
    assert len(runs) == 1


def _two_channels(engine, noise=0.0):
    """Two independent DDCR channels on one clock, run through bus 0's
    entry point on ``engine`` (``None``: the ambient one)."""
    problem = uniform_problem(
        z=4, length=1_000, deadline=400_000, a=1, w=200_000
    )
    config = _ddcr_config(problem)
    env = Environment()
    recorder = _recorder()
    busses = [
        BroadcastChannel(
            env,
            ideal_medium(slot_time=64),
            noise_rate=noise,
            noise_seed=index + 1,
            tracer=recorder,
            telemetry_prefix=f"bus{index}/",
        )
        for index in range(2)
    ]
    seq_source = itertools.count()
    stations = []
    for index, bus in enumerate(busses):
        for source in problem.sources:
            station = Station(
                station_id=source.source_id,
                mac=DDCRProtocol(config),
                static_indices=source.static_indices,
                seq_source=seq_source,
            )
            for msg_class in source.message_classes:
                station.load_arrivals(
                    msg_class,
                    GreedyBurstArrivals(bound=msg_class.bound),
                    _HORIZON,
                )
            bus.attach(station)
            stations.append(station)
    with use_engine(engine):
        note = busses[0].run(_HORIZON, peers=busses[1:])
        assert (note is not None) == (default_engine() == "batch")
    assert env.now == _HORIZON
    completions = [
        record for station in stations for record in station.completions
    ]
    stats = [bus.stats for bus in busses]
    return _snapshot(stats, completions, recorder)


def test_noisy_channels_sharing_a_clock_step_every_slot(monkeypatch):
    """A gate fired on one channel would end the other channel's idle
    run mid-stretch, so noisy channels on one clock never leap, and
    match the DES."""
    leaps = _spy_joint_leaps(monkeypatch)
    runs = [_two_channels(engine, noise=0.02) for engine in ENGINES]
    assert not leaps
    assert len(set(runs)) == 1


def _order_probe(engine, case):
    """Two TDMA channels on one clock, idle but for a frame on one of
    them, which shows in the dump which channel's round ran first where
    both have one at the same time.

    ``later-start``: the silent channel is registered first; the
    sender's frame at 0 takes two slots, so from t = 64 on both are idle
    but their next slots differ on one grid, and the joint leap crosses
    15 slots of the silent one and 14 of the sender.  At 1,024 the
    sender's next frame runs first on the DES: the silent channel's
    round there was scheduled inside the stretch, the sender's by its
    own round at 960, which the leap crossed later.
    ``slot-times``: 64- and 96-bit slots, the sender registered first;
    at 1,152 the silent channel's round runs first on the DES, as its
    previous round (1,056) ran before the sender's (1,088).
    """
    env = Environment()
    recorder = _recorder()
    silent_slot, trace = (64, (0, 1_000)) if case == "later-start" else (
        96, (1_100,)
    )
    silent = BroadcastChannel(
        env, ideal_medium(slot_time=silent_slot), tracer=recorder,
        telemetry_prefix="silent/",
    )
    sender = BroadcastChannel(
        env, ideal_medium(slot_time=64), tracer=recorder,
        telemetry_prefix="sender/",
    )
    silent.attach(Station(0, TDMAProtocol((0,))))
    station = Station(0, TDMAProtocol((0,)))
    station.load_arrivals(
        make_class(length=127), TraceArrivals(trace=trace), 2_000
    )
    sender.attach(station)
    first, second = (
        (silent, sender) if case == "later-start" else (sender, silent)
    )
    with use_engine(engine):
        first.run(2_000, peers=[second])
    return _dump(recorder)


def _frame(t):
    return ("sender/channel/slot", {
        "t": t, "state": "success", "duration": 128, "source": 0,
        "msg": "c",
    })


@pytest.mark.parametrize("case, leap, dump", [
    ("later-start", (15, 14), [
        ("silent/channel/idle", {"n": 1, "t": 0, "slot": 64}),
        _frame(0),
        ("silent/channel/idle", {"n": 15, "t": 64, "slot": 64}),
        ("sender/channel/idle", {"n": 14, "t": 128, "slot": 64}),
        _frame(1_024),
        ("silent/channel/idle", {"n": 16, "t": 1_024, "slot": 64}),
        ("sender/channel/idle", {"n": 14, "t": 1_152, "slot": 64}),
    ]),
    ("slot-times", (18, 12), [
        ("sender/channel/idle", {"n": 18, "t": 0, "slot": 64}),
        ("silent/channel/idle", {"n": 13, "t": 0, "slot": 96}),
        _frame(1_152),
        ("silent/channel/idle", {"n": 8, "t": 1_248, "slot": 96}),
        ("sender/channel/idle", {"n": 12, "t": 1_280, "slot": 64}),
    ]),
], ids=["later-start", "slot-times"])
def test_joint_leap_keeps_the_des_schedule_order(
    case, leap, dump, monkeypatch
):
    """After a joint leap the channels' next rounds keep the DES's
    schedule order, which the dumps show where two rounds start
    together."""
    leaps = _spy_joint_leaps(monkeypatch)
    des = _order_probe("des", case)
    assert [(event["kind"], event["data"]) for event in des] == dump
    assert _order_probe("batch", case) == des
    assert leap in leaps


def _shared_clock_run(
    engine, channels, check, horizon=30_000, protocol="ddcr"
):
    """DDCR, DCR or TDMA channels on one clock, one ``(slot time,
    stations, jam)`` entry each, a station being its arrival times,
    frame length and relative deadline and ``jam`` None or the
    channel's ``(jam_from, jam_until)``."""
    config = DDCRConfig(
        time_f=16, time_m=2, class_width=65_536, static_q=4, static_m=2
    )
    tree = BalancedTree.of(m=2, leaves=4)
    env = Environment()
    recorder = _recorder()
    seq_source = itertools.count()
    busses = []
    for index, (slot_time, stations, jam) in enumerate(channels):
        bus = BroadcastChannel(
            env,
            ideal_medium(slot_time=slot_time),
            check_consistency=check,
            tracer=recorder,
            telemetry_prefix=f"bus{index}/",
        )
        if jam is not None:
            bus.jam_from, bus.jam_until = jam
        roster = tuple(range(len(stations)))
        for station_id, (trace, length, deadline) in enumerate(stations):
            if protocol == "ddcr":
                mac = DDCRProtocol(config)
            elif protocol == "dcr":
                mac = DCRProtocol(tree)
            else:
                mac = TDMAProtocol(roster)
            station = Station(
                station_id, mac,
                static_indices=(station_id,), seq_source=seq_source,
            )
            station.load_arrivals(
                make_class(length=length, deadline=deadline),
                TraceArrivals(trace=tuple(sorted(trace))),
                horizon,
            )
            bus.attach(station)
        busses.append(bus)
    with use_engine(engine):
        busses[0].run(horizon, peers=busses[1:])
    completions = [
        record
        for bus in busses
        for station in bus.stations
        for record in station.completions
    ]
    return _snapshot([bus.stats for bus in busses], completions, recorder)


#: One to three channels on one clock: a slot time, one to four
#: stations (arrival times, frame length, relative deadline) and a jam
#: each.
_SHARED_CLOCK_CHANNELS = st.lists(
    st.tuples(
        st.sampled_from([32, 64, 96]),
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 20_000), max_size=3, unique=True),
                st.integers(1, 500),
                # Within the time tree's horizon c*F = 1,048,576
                # bit-times, or beyond it: a message then sits out
                # the fresh-TTs cycle until compressed time pulls it
                # in, and the leap crosses that wait.
                st.sampled_from((400_000, 1_100_000, 2_000_000, 4_000_000)),
            ),
            min_size=1,
            max_size=4,
        ),
        st.none() | st.integers(0, 25_000).flatmap(
            lambda start: st.tuples(
                st.just(start),
                st.none() | st.integers(start + 1, start + 15_000),
            )
        ),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=60, deadline=None)
@given(channels=_SHARED_CLOCK_CHANNELS, check=st.booleans())
def test_channels_sharing_a_clock_match_the_des(channels, check):
    """One to three channels on one clock, with differing slot times,
    frames that shift their slot grids and jams (to the horizon or over
    a window) that start and end inside joint stretches, deadlines
    within and beyond the time tree's horizon, checked or not: every
    engine's joint run is byte-identical to the DES.  A lone unchecked
    channel runs the batch kernel under ``batch``."""
    runs = {
        _shared_clock_run(engine, channels, check) for engine in ENGINES
    }
    assert len(runs) == 1


@pytest.mark.parametrize("protocol", ["dcr", "tdma"])
@settings(max_examples=60, deadline=None)
@given(channels=_SHARED_CLOCK_CHANNELS, check=st.booleans())
def test_dcr_and_tdma_channels_sharing_a_clock_match_the_des(
    protocol, channels, check
):
    """The same property on DCR and TDMA channels: a lone unchecked
    channel runs the batch kernel under ``batch`` there too."""
    runs = {
        _shared_clock_run(engine, channels, check, protocol=protocol)
        for engine in ENGINES
    }
    assert len(runs) == 1


#: Dual-bus runs, each with its own bus-A failure and switches.
_DUAL_CASES = {
    "healthy": {},
    "failover": {"fail_bus_at": _HORIZON // 3},
    # The threshold is never reached, so the stations stay on the jammed
    # bus A: messages stranded in the shared queues keep bus B stepping
    # after the jam.
    "stranded": {"fail_bus_at": _HORIZON // 3, "jam_threshold": 10**9},
    "checked": {
        "fail_bus_at": _HORIZON // 3,
        "check_consistency": True,
        "monitors": True,
    },
    "stranded-checked": {
        "fail_bus_at": _HORIZON // 3,
        "jam_threshold": 10**9,
        "check_consistency": True,
        "monitors": True,
    },
}


def _manifest(registry, result, **provenance):
    """The manifest of one run, built as whoever scopes the registry
    builds it: the engine in scope and the run's fallback note."""
    return RunTelemetry.from_registry(
        registry,
        run_id="run",
        engine=default_engine(),
        engine_fallback=result.engine_fallback,
        **provenance,
    )


def _run_dualbus(engine, case):
    """One traced dual-bus run; returns the result, its manifest and the
    byte digest of everything it observed."""
    problem = uniform_problem(
        z=4, length=1_000, deadline=400_000, a=1, w=200_000
    )
    config = _ddcr_config(problem)
    options = {"jam_threshold": suggested_jam_threshold(config)}
    options.update(_DUAL_CASES[case])
    simulation = DualBusSimulation(
        problem,
        ideal_medium(slot_time=64),
        protocol_factory=lambda source: DDCRProtocol(config),
        **options,
    )
    recorder = _recorder()
    registry = Telemetry()
    with use_tracer(recorder), use_telemetry(registry), use_engine(engine):
        result = simulation.run(_HORIZON)
        manifest = _manifest(registry, result)
    dump = _dump(recorder)
    # One dump for both busses: each bus's kinds carry its prefix.  Bus B
    # carries traffic only after a failover; until then it is all idle.
    # A jammed bus A records runs of jammed slots.
    kinds = {"bus0/channel/slot", "bus0/channel/idle", "bus1/channel/idle"}
    if case != "healthy":
        kinds.add("bus0/channel/jammed")
    if case in ("failover", "checked"):
        kinds.add("bus1/channel/slot")
    assert {event["kind"] for event in dump} == kinds
    # Each bus's silent slots grow its own run, and bus A's jammed slots
    # their own, past the other bus's runs, so the dump is far smaller
    # than the round count (one event per slot or so if the busses ended
    # each other's runs).
    rounds = sum(stats.rounds for stats in result.bus_stats)
    assert len(dump) * 100 < rounds
    digest = pickle.dumps(
        (
            result.bus_stats,
            result.failovers,
            result.completions,
            result.backlog(),
            result.invariants,
            manifest.content_json(),
            dump,
        )
    )
    return result, manifest, digest


def _spy_joint_leaps(monkeypatch):
    """Record, per joint leap, each channel's slots leapt."""
    leaps: list[tuple[int, ...]] = []
    joint = channel_module._leap

    def spy(drivers, pending, horizon, order):
        before = {i: start for start, _, i in pending}
        leapt = joint(drivers, pending, horizon, order)
        if leapt:
            leaps.append(tuple(
                (start - before[i]) // drivers[i].slot_time
                for start, _, i in sorted(pending, key=lambda e: e[2])
            ))
        return leapt

    monkeypatch.setattr(channel_module, "_leap", spy)
    return leaps


@pytest.mark.parametrize("case", sorted(_DUAL_CASES))
def test_dualbus_engines_identical(case, monkeypatch):
    """Two busses on one clock: the joint fast loop (what ``batch`` runs,
    with the kernel's note) is byte-identical to the per-slot DES in
    stats, failovers, completions, backlog, invariant
    reports, telemetry content and recorder dump, and the fast path
    leaps both busses' idle stretches jointly where the DES leaps none;
    after a jam it leaps bus A's jammed tail too, beside bus B's idle
    stretches, stranded queue or not."""
    leaps = _spy_joint_leaps(monkeypatch)
    jammed = _spy_jammed_leaps(monkeypatch)
    results = {}
    for engine in ENGINES:
        leaps.clear()
        jammed.clear()
        results[engine] = _run_dualbus(engine, case)
        if engine == "des":
            assert not leaps and not jammed  # the reference steps
        elif case == "healthy":
            assert max(min(leap) for leap in leaps) > 1, leaps
            assert not jammed
        else:
            fail_at = _DUAL_CASES[case]["fail_bus_at"]
            assert max(
                n for prefix, start, n in jammed
                if prefix == "bus0/" and start >= fail_at
            ) > 100, jammed
    assert len({digest for _, _, digest in results.values()}) == 1
    (des, des_manifest, _), (_, batch_manifest, _) = (
        results["des"], results["batch"]
    )
    assert des_manifest.engine_fallback is None
    assert batch_manifest.engine_fallback == (
        "batch engine unavailable (2 channels share one clock): ran fastloop"
    )
    counters = des_manifest.counters
    assert counters["bus0/slots/success"] > 0
    assert des_manifest.gauges["failovers"] == des.failovers
    if case == "healthy":
        assert des.failovers == 0
        assert counters["bus1/slots/success"] == 0  # the standby is silent
    else:
        stranded = case.startswith("stranded")
        assert des.bus_stats[0].jammed_slots > 0
        assert des.failovers == (0 if stranded else 1)
        assert (counters["bus1/slots/success"] > 0) == (not stranded)
        assert bool(des.backlog()) == stranded
    if des.invariants is not None:
        assert all(report.ok for report in des.invariants)


def test_dualbus_engine_fallback_is_identical():
    """Two channels on one clock: ``batch`` falls back to the joint fast
    loop, says so, and still produces byte-identical results to the DES
    (failover included), which has no note."""
    runs = {engine: _run_dualbus(engine, "failover") for engine in ENGINES}
    assert len({digest for _, _, digest in runs.values()}) == 1
    assert runs["batch"][1].engine_fallback == (
        "batch engine unavailable (2 channels share one clock): ran fastloop"
    )
    assert runs["des"][1].engine_fallback is None


def test_dualbus_telemetry_identical_across_engines():
    """Per-bus instrument namespaces survive the joint fast loop."""

    def run(engine):
        problem = uniform_problem(
            z=4, length=1_000, deadline=400_000, a=1, w=200_000
        )
        config = _ddcr_config(problem)
        simulation = DualBusSimulation(
            problem,
            ideal_medium(slot_time=64),
            protocol_factory=lambda source: DDCRProtocol(config),
            jam_threshold=suggested_jam_threshold(config),
            fail_bus_at=_HORIZON // 3,
        )
        registry = Telemetry()
        with use_engine(engine), use_telemetry(registry):
            return _manifest(registry, simulation.run(_HORIZON))

    des, batch = (run(engine) for engine in ENGINES)
    assert des.content_json() == batch.content_json()
    assert des.counters["bus0/slots/success"] > 0
    assert des.counters["bus1/slots/success"] > 0
    assert des.gauges["failovers"] >= 1
    # Dual-bus shares one clock between two channels, so batch falls
    # back at entry to the joint fast loop and the manifest says so.
    assert "batch engine unavailable" in batch.engine_fallback


def test_seed_randomized_engine_equivalence():
    """Random z / noise / protocol / seed combos agree across engines."""
    rng = random.Random(0xDDC2)
    for _ in range(8):
        protocol = rng.choice(["ddcr", "csma_cd", "tdma"])
        z = rng.randint(2, 10)
        noise = rng.choice([0.0, 0.005, 0.02, 0.05])
        burst = rng.choice([0, 3_000]) if protocol == "ddcr" else 0
        seed = rng.randint(0, 2**31)
        runs = [
            _run_network(
                engine, protocol, z=z, noise=noise, burst_limit=burst,
                seed=seed,
            )
            for engine in ENGINES
        ]
        assert len(set(runs)) == 1, (protocol, z, noise, burst, seed)


def test_same_engine_repetition_is_deterministic():
    """Two identical runs on one engine are byte-identical (run-local
    sequence numbers: no process-global state leaks into results)."""
    for engine in ENGINES:
        assert _run_network(engine, "ddcr", noise=0.01) == _run_network(
            engine, "ddcr", noise=0.01
        )


@settings(max_examples=15)
@given(
    protocol=st.sampled_from(["ddcr", "csma_cd", "tdma"]),
    noise=st.sampled_from([0.0, 0.02]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_empty_fault_plan_is_byte_identical_to_fault_free(
    protocol, noise, seed
):
    """An empty FaultPlan must be indistinguishable from no plan at all —
    same RNG draw order, same results — under both engines.  (This is the
    premise that lets RunSpec normalise empty plans to fault-free hashes.)"""
    for engine in ENGINES:
        plain = _run_network(
            engine, protocol, z=3, noise=noise, seed=seed, horizon=60_000
        )
        empty = _run_network(
            engine, protocol, z=3, noise=noise, seed=seed, horizon=60_000,
            faults=FaultPlan(),
        )
        assert plain == empty


_FAULT_POOL = (
    FaultPlan((GilbertElliottNoise(
        p_enter_bad=0.002, p_exit_bad=0.05, bad_rate=0.5),)),
    FaultPlan((StationCrash(station_id=0, at=40_000, restart_at=120_000),)),
    FaultPlan((BabblingStation(start=40_000, stop=60_000, period=8),)),
    FaultPlan((ClockDrift(station_id=0, skew_per_slot=4.0),)),
    FaultPlan((
        GilbertElliottNoise(p_enter_bad=0.002, p_exit_bad=0.05, bad_rate=0.5),
        StationCrash(station_id=1, at=40_000, restart_at=120_000),
    )),
)


def test_seed_randomized_faulted_equivalence():
    """Random (plan, protocol, seed) combos agree across engines — stats,
    completions, recorder dumps AND invariant-violation reports
    byte-for-byte."""
    rng = random.Random(0xFA017)
    for _ in range(6):
        plan = rng.choice(_FAULT_POOL)
        protocol = rng.choice(["ddcr", "tdma"])
        seed = rng.randint(0, 2**31)
        runs = [
            _run_network(engine, protocol, seed=seed, faults=plan)
            for engine in ENGINES
        ]
        assert len(set(runs)) == 1, (plan, protocol, seed)


def _run_telemetry(engine, protocol="ddcr", noise=0.0, seed=0, faults=None):
    problem = uniform_problem(
        z=6, length=1_000, deadline=400_000, a=1, w=200_000
    )
    simulation = NetworkSimulation.from_scenario(
        Scenario(
            problem,
            ideal_medium(slot_time=64),
            protocol_factory=_protocol_factory(protocol, problem),
            noise_rate=noise,
            noise_seed=seed,
            root_seed=seed,
            faults=faults,
            monitors=False if faults is None else None,
        )
    )
    registry = Telemetry()
    with use_engine(engine), use_telemetry(registry):
        return _manifest(
            registry, simulation.run(_HORIZON), seed=seed, faults=faults
        )


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_telemetry_identical_across_engines(protocol):
    """The deterministic manifest projection — counters, gauges,
    histograms, span structure — is byte-identical across engines.
    (Wall-clock span durations and the engine label are excluded by
    :meth:`RunTelemetry.content_json`; they describe how the run was
    driven, not what it computed.)"""
    des, batch = (
        _run_telemetry(engine, protocol, noise=0.01) for engine in ENGINES
    )
    assert des.content_json() == batch.content_json()
    assert des.engine == "des" and batch.engine == "batch"
    if protocol in KERNEL_PROTOCOLS:
        # Eligible run: the kernel itself executed, so there is no note.
        assert batch.engine_fallback is None
    else:
        # Foreign MAC types: structural fallback, reason recorded.
        assert "batch engine unavailable" in batch.engine_fallback


def test_telemetry_identical_across_engines_under_faults():
    """Fault-gate fire counters and faulted slot outcomes agree too."""
    plan = _FAULT_POOL[4]  # burst noise + crash/restart
    des, batch = (
        _run_telemetry(engine, "ddcr", seed=7, faults=plan)
        for engine in ENGINES
    )
    assert des.content_json() == batch.content_json()
    assert des.counters["faults/crash"] == 1
    assert des.counters["faults/restart"] == 1
    assert des.fault_plan is not None
    # An armed injector is structurally ineligible for the batch kernel:
    # the run fell back and the manifest says why.
    assert "fault injector armed" in batch.engine_fallback
    assert des.engine_fallback is None


def test_flight_recorder_dumps_identical_across_engines(monkeypatch):
    """An armed flight recorder keeps the kernel's idle leap on: busy
    slots are one ``channel/slot`` event each and every run of silent
    slots is one ``channel/idle`` event, whether the kernel leapt it or
    the DES stepped it, so the dumps match event for event and account
    for every round."""
    leaps = []
    original = _RoundDriver.leap

    def spy(self, now, end):
        duration = original(self, now, end)
        if self.kernel is not None:
            leaps.append(duration // self.slot_time)
        return duration

    monkeypatch.setattr(_RoundDriver, "leap", spy)
    problem = uniform_problem(
        z=5, length=1_000, deadline=400_000, a=1, w=200_000
    )

    def dump(engine):
        recorder = _recorder()
        with use_tracer(recorder), use_engine(engine):
            result = NetworkSimulation.from_scenario(
                Scenario(
                    problem,
                    ideal_medium(slot_time=64),
                    protocol_factory=_protocol_factory("ddcr", problem),
                )
            ).run(_HORIZON)
        assert result.engine_fallback is None
        events = _dump(recorder)
        rounds = result.stats.rounds
        assert len(events) < rounds
        slots = sum(event["kind"] == "channel/slot" for event in events)
        idle = [e["data"]["n"] for e in events if e["kind"] == "channel/idle"]
        assert slots + sum(idle) == rounds
        assert max(idle) > 1
        return events

    des = dump("des")
    assert not leaps
    batch = dump("batch")
    assert leaps and max(leaps) > 1  # the kernel leapt, recorder armed
    assert {event["kind"] for event in des} == {
        "channel/slot", "channel/idle"
    }
    assert des == batch


def _default_run(protocol):
    """One hand-built channel run on the default engine; returns its
    note."""
    problem = uniform_problem(
        z=4, length=1_000, deadline=400_000, a=1, w=200_000
    )
    factory = _protocol_factory(protocol, problem)
    channel = BroadcastChannel(Environment(), ideal_medium(slot_time=64))
    seq_source = itertools.count()
    for source in problem.sources:
        channel.attach(
            Station(
                station_id=source.source_id,
                mac=factory(source),
                static_indices=source.static_indices,
                seq_source=seq_source,
            )
        )
    note = channel.run(60_000)
    assert channel.env.now == 60_000
    return note


#: What naming an engine that is not in ``ENGINES`` raises.
_UNKNOWN_ENGINE = r"unknown engine .*; choose one of batch, des$"


def test_engine_resolution_and_scoping(monkeypatch):
    """``batch`` is the default and ``des`` the one other engine; any
    other name (the removed ``auto`` and ``fastloop`` among them) is
    rejected, naming both.  A default run executes the batch kernel when
    eligible (no note) and otherwise runs the fast loop with the kernel's
    fallback note; a ``use_engine`` scope shadows the default."""
    # The kernel's tier is seen through ``run`` in the class's own
    # namespace (an inherited one would not be patchable there), the
    # per-slot reference's through ``Environment.run``, and each step of
    # a leaping loop through ``Environment.advance_to``.
    assert "run" in BatchKernel.__dict__
    assert "run" in Environment.__dict__
    assert "advance_to" in Environment.__dict__
    assert ALL_ENGINES == ("batch", "des")
    assert resolve_engine(None) == "batch"
    kernel_runs = []
    original = BatchKernel.run

    def spy(self, horizon):
        kernel_runs.append(horizon)
        return original(self, horizon)

    monkeypatch.setattr(BatchKernel, "run", spy)
    assert _default_run("ddcr") is None
    assert kernel_runs == [60_000]
    assert _default_run("csma_cd") == (
        "batch engine unavailable (station MACs are not all DDCRProtocol, "
        "DCRProtocol or TDMAProtocol (station 0: CSMACDProtocol)): "
        "ran fastloop"
    )
    assert kernel_runs == [60_000]  # the fast loop ran, not the kernel
    assert resolve_engine("des") == "des"
    for name in ("auto", "fastloop", "warp"):
        with pytest.raises(ValueError, match=_UNKNOWN_ENGINE):
            resolve_engine(name)
        with pytest.raises(ValueError, match=_UNKNOWN_ENGINE):
            with use_engine(name):
                pass
    with use_engine("des"):
        assert resolve_engine(None) == "des"
    assert resolve_engine(None) == "batch"


def _network_run():
    """One DDCR channel the kernel can take, built with no engine."""
    problem = uniform_problem(
        z=4, length=1_000, deadline=400_000, a=1, w=200_000
    )
    NetworkSimulation.from_scenario(
        Scenario(
            problem,
            ideal_medium(slot_time=64),
            protocol_factory=_protocol_factory("ddcr", problem),
        )
    ).run(60_000)


def _fabric_run():
    """Two bridged DDCR segments, each one the kernel can take."""
    topology, _ = build_chain_topology(segments=2, z=3)
    Fabric(topology).run(2_000_000)


#: Each build's run, with no engine named anywhere, its channel runs and
#: how many of them the kernel can take.
_CLOCK_LOOP_BUILDS = {
    "lone": (lambda: _run_manual_channel(None), 1, 1),
    "dual": (lambda: _two_channels(None), 1, 0),
    "network": (_network_run, 1, 1),
    "fabric": (_fabric_run, 2, 2),
    "dualbus": (lambda: _run_dualbus(None, "failover"), 1, 0),
}


@pytest.mark.parametrize("engine", [*ALL_ENGINES, "auto", "fastloop"])
@pytest.mark.parametrize("build", sorted(_CLOCK_LOOP_BUILDS), ids=str)
def test_only_des_runs_on_the_clock_loop(engine, build, monkeypatch):
    """Under ``use_engine("des")`` every channel run — a lone channel, two
    sharing a clock, a simulation, each segment of a fabric, a dual bus —
    calls ``Environment.run`` once, before its first round, and never the
    kernel; under the default ``batch`` nothing calls ``Environment.run``
    and the kernel runs every channel it can take.  ``auto`` and
    ``fastloop`` are no engines."""
    calls = []
    channel_run, env_run = BroadcastChannel.run, Environment.run
    kernel_run, round_ = BatchKernel.run, _RoundDriver.round

    def channel_spy(self, horizon, *, peers=()):
        calls.append("channel")
        return channel_run(self, horizon, peers=peers)

    def env_spy(self, until, rounds):
        calls.append("env")
        return env_run(self, until, rounds)

    def kernel_spy(self, horizon):
        calls.append("kernel")
        return kernel_run(self, horizon)

    def round_spy(self, now, fired=0):
        calls.append("round")
        return round_(self, now, fired)

    monkeypatch.setattr(BroadcastChannel, "run", channel_spy)
    monkeypatch.setattr(Environment, "run", env_spy)
    monkeypatch.setattr(BatchKernel, "run", kernel_spy)
    monkeypatch.setattr(_RoundDriver, "round", round_spy)
    run, runs, eligible = _CLOCK_LOOP_BUILDS[build]
    if engine not in ALL_ENGINES:
        with pytest.raises(ValueError, match=_UNKNOWN_ENGINE):
            with use_engine(engine):
                run()
        assert not calls
        return
    with use_engine(engine):
        run()
    assert "round" in calls
    assert calls.count("channel") == runs
    if engine == "des":
        # Each channel run enters the clock loop before its first round.
        assert calls.count("env") == runs and "kernel" not in calls
        assert all(
            calls[i + 1] == "env"
            for i, call in enumerate(calls) if call == "channel"
        )
    else:
        assert "env" not in calls
        assert calls.count("kernel") == eligible
