"""The batch-slot kernel's own contract: eligibility, leap, no numpy.

The engines' byte-identity oracle lives in
``test_engine_differential.py``; this file covers what is specific to
:mod:`repro.net.batch` — the structural eligibility matrix and its
recorded reasons, that nothing in the package imports numpy, and the
idle-leap fast path: its gate, and its byte identity with and without
invariant monitors and an armed flight recorder.
"""

from __future__ import annotations

import itertools
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from repro.core.trees import BalancedTree
from repro.faults.models import FaultPlan
from repro.faults.runtime import FaultInjector
from repro.model.arrival import GreedyBurstArrivals
from repro.model.workloads import uniform_problem
from repro.net.batch import BatchKernel, batch_unavailable_reason
from repro.net.channel import BroadcastChannel, _RoundDriver
from repro.net.engine import use_engine
from repro.net.phy import ATM_BUS, ideal_medium
from repro.net.station import Station
from repro.obs.tracer import FlightRecorder
from repro.protocols.csma_cd import CSMACDProtocol
from repro.protocols.dcr import DCRProtocol
from repro.protocols.ddcr import DDCRConfig, DDCRProtocol
from repro.protocols.tdma import TDMAProtocol
from repro.sim.engine import Environment
from repro.sim.invariants import (
    BridgeConservationMonitor,
    MonitorSuite,
    WorkConservationMonitor,
    standard_suite,
)

_HORIZON = 250_000


def _problem(z=5):
    return uniform_problem(z=z, length=1_000, deadline=400_000, a=1, w=200_000)


def _config(problem, **overrides):
    kwargs = dict(
        time_f=16,
        time_m=2,
        class_width=65_536,
        static_q=problem.static_q,
        static_m=problem.static_m,
    )
    kwargs.update(overrides)
    return DDCRConfig(**kwargs)


def _build_channel(
    problem=None,
    config=None,
    medium=None,
    mac_factory=None,
    load=True,
    horizon=_HORIZON,
    tracer=None,
    noise_rate=0.0,
):
    problem = problem if problem is not None else _problem()
    config = config if config is not None else _config(problem)
    env = Environment()
    channel = BroadcastChannel(
        env,
        medium if medium is not None else ideal_medium(slot_time=64),
        tracer=tracer,
        noise_rate=noise_rate,
    )
    seq_source = itertools.count()
    for source in problem.sources:
        mac = (
            mac_factory(source) if mac_factory is not None
            else DDCRProtocol(config)
        )
        station = Station(
            station_id=source.source_id,
            mac=mac,
            static_indices=source.static_indices,
            seq_source=seq_source,
        )
        if load:
            for msg_class in source.message_classes:
                station.load_arrivals(
                    msg_class,
                    GreedyBurstArrivals(bound=msg_class.bound),
                    horizon,
                )
        channel.attach(station)
    return channel


def _recorder():
    """A ring large enough to keep every event of one run here."""
    return FlightRecorder(capacity=100_000)


def _digest(channel):
    completions = [
        record
        for station in channel.stations
        for record in station.completions
    ]
    recorder = channel.tracer
    assert recorder.emitted == len(recorder)
    return pickle.dumps(
        (
            channel.stats,
            completions,
            recorder.snapshot(),
            channel.observations,
            [
                (s.mac.mode, s.mac.reft, s.mac.empty_tts_runs,
                 len(s.mac.tts_records), len(s.mac.sts_records),
                 s.mac._sts_member, s.mac._sts_cursor)
                for s in channel.stations
                if isinstance(s.mac, DDCRProtocol)
            ],
        )
    )


# -- eligibility matrix ------------------------------------------------------


def test_eligible_channel_has_no_reason():
    assert batch_unavailable_reason(_build_channel()) is None


_NOT_KERNEL_MACS = (
    "station MACs are not all DDCRProtocol, DCRProtocol or TDMAProtocol"
)


def _dcr_tree(problem=None):
    problem = problem if problem is not None else _problem()
    return BalancedTree.of(m=problem.static_m, leaves=problem.static_q)


def _roster(problem=None):
    problem = problem if problem is not None else _problem()
    return tuple(source.source_id for source in problem.sources)


def test_eligible_dcr_and_tdma_channels_have_no_reason():
    tree, roster = _dcr_tree(), _roster()
    for factory in (
        lambda source: DCRProtocol(tree),
        lambda source: TDMAProtocol(roster),
    ):
        assert batch_unavailable_reason(
            _build_channel(mac_factory=factory)
        ) is None


def test_foreign_mac_type_is_ineligible():
    channel = _build_channel(
        mac_factory=lambda source: CSMACDProtocol(seed=source.source_id)
    )
    assert batch_unavailable_reason(channel) == (
        f"{_NOT_KERNEL_MACS} (station 0: CSMACDProtocol)"
    )


def test_mixed_mac_types_are_ineligible():
    """Each kernel protocol on its own is eligible, a mix is not: the
    reason names the first station whose MAC differs from station 0's."""
    problem = _problem()
    config, tree = _config(problem), _dcr_tree(problem)
    channel = _build_channel(
        problem=problem,
        mac_factory=lambda source: (
            DCRProtocol(tree) if source.source_id == 2
            else DDCRProtocol(config)
        ),
    )
    assert batch_unavailable_reason(channel) == (
        f"{_NOT_KERNEL_MACS} (station 2: DCRProtocol)"
    )


def test_differing_dcr_trees_are_ineligible():
    problem = _problem()
    trees = iter(
        [_dcr_tree(problem)] * (len(problem.sources) - 1)
        + [BalancedTree.of(m=2, leaves=2 * problem.static_q)]
    )
    channel = _build_channel(
        problem=problem, mac_factory=lambda source: DCRProtocol(next(trees))
    )
    assert batch_unavailable_reason(channel) == (
        "stations run differing DCR trees"
    )


def test_differing_tdma_rosters_are_ineligible():
    roster = _roster()
    channel = _build_channel(
        mac_factory=lambda source: TDMAProtocol(
            roster if source.source_id else roster[::-1]
        )
    )
    assert batch_unavailable_reason(channel) == (
        "stations run differing TDMA rosters"
    )


def test_a_dcr_static_index_two_stations_share_is_ineligible():
    """The kernel asks each probed index's one owner, under DCR as under
    DDCR."""
    tree = BalancedTree.of(m=2, leaves=4)
    channel = BroadcastChannel(Environment(), ideal_medium(slot_time=64))
    for station_id, indices in enumerate([(0, 2), (2, 3)]):
        channel.attach(
            Station(station_id, DCRProtocol(tree), static_indices=indices)
        )
    assert batch_unavailable_reason(channel) == (
        "stations share static index 2"
    )


def test_differing_configs_are_ineligible():
    problem = _problem()
    configs = iter(
        [_config(problem)] * (len(problem.sources) - 1)
        + [_config(problem, time_f=32)]
    )
    channel = _build_channel(
        problem=problem,
        mac_factory=lambda source: DDCRProtocol(next(configs)),
    )
    assert "differing DDCR configurations" in batch_unavailable_reason(channel)


def test_bursting_is_ineligible():
    problem = _problem()
    channel = _build_channel(
        problem=problem, config=_config(problem, burst_limit=3_000)
    )
    assert "bursting" in batch_unavailable_reason(channel)


def test_non_destructive_medium_is_ineligible():
    channel = _build_channel(medium=ATM_BUS)
    assert "non-destructive" in batch_unavailable_reason(channel)


def test_armed_faults_are_ineligible():
    channel = _build_channel()
    channel.faults = object()  # any armed injector
    assert "fault injector" in batch_unavailable_reason(channel)


def test_consistency_checks_are_ineligible():
    channel = _build_channel()
    channel.check_consistency = True
    assert "consistency checks" in batch_unavailable_reason(channel)


def test_run_batch_falls_back_and_reports_why():
    """Ineligible runs execute on the fast loop, byte-identical to the
    per-slot reference."""
    reference = _build_channel(
        tracer=_recorder(),
        mac_factory=lambda source: CSMACDProtocol(seed=source.source_id),
    )
    with use_engine("des"):
        reference.run(_HORIZON)
    batched = _build_channel(
        tracer=_recorder(),
        mac_factory=lambda source: CSMACDProtocol(seed=source.source_id),
    )
    with use_engine("batch"):
        note = batched.run(_HORIZON)
    assert "batch engine unavailable" in note
    assert _NOT_KERNEL_MACS in note
    assert _digest(batched) == _digest(reference)


# -- plain-list columns, no numpy -------------------------------------------


def test_batch_run_imports_no_numpy(tmp_path):
    """Nothing in the package imports numpy, which would add ~12 MB of
    resident memory to every process: not the import sweep over every
    ``repro`` module, not a batch simulation (monitors armed, leaps on),
    not FC's grids nor SERVE-CHECK, and not an admission session with
    counter-checks, a journal and its replay."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    script = """
import sys
from repro.experiments.registry import run_spec
from repro.model.workloads import uniform_problem
from repro.net.network import NetworkSimulation, Scenario
from repro.net.phy import ideal_medium
from repro.protocols.ddcr import DDCRConfig, DDCRProtocol
from repro.runtime.spec import RunSpec
from repro.serve.service import AdmissionService, ServeConfig, replay_event_log
from repro.serve.traces import TraceConfig, generate_trace
from repro.tools.check import _import_all_modules

assert _import_all_modules() == []
problem = uniform_problem(z=5, length=1_000, deadline=400_000, a=1, w=200_000)
config = DDCRConfig(
    time_f=16, time_m=2, class_width=65_536,
    static_q=problem.static_q, static_m=problem.static_m,
)
result = NetworkSimulation.from_scenario(Scenario(
    problem, ideal_medium(slot_time=64),
    protocol_factory=lambda source: DDCRProtocol(config), monitors=True,
)).run(250_000)
assert result.engine_fallback is None, result.engine_fallback
assert result.invariants.ok and result.stats.successes > 0
for experiment_id in ("FC", "SERVE-CHECK"):
    experiment = run_spec(RunSpec.make(experiment_id))
    assert experiment.all_checks_pass, experiment.failed_checks()
trace = generate_trace(
    TraceConfig(events=120, stations=12, seed=21, template="city")
)
config = ServeConfig(static_q=64, check_every=25)
with AdmissionService(config, log_dir=sys.argv[1]) as service:
    service.run_trace(trace)
    assert not service.incidents
assert replay_event_log(sys.argv[1]).incidents == []
print("numpy" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "log")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# -- mid-run DES rejoin out of the kernel ------------------------------------


# -- the idle leap -----------------------------------------------------------


def _run_leaping(
    engine, config=None, jam=None, load=True, problem=None, tracer=None
):
    """No noise, monitors or telemetry — the leap-eligible regime, with
    or without a flight recorder armed."""
    channel = _build_channel(
        config=config, load=load, problem=problem, tracer=tracer
    )
    if jam is not None:
        channel.jam_from, channel.jam_until = jam
    with use_engine(engine):
        channel.run(_HORIZON)
    assert channel.env.now == _HORIZON
    return _digest(channel)


@pytest.mark.parametrize(
    "case",
    [
        {},  # bursty workload: long idle stretches between windows
        {"load": False},  # fully idle run: one leap to the horizon
        {"jam": (80_000, 120_000)},  # leap must stop at the jam window
        {"exit_on_idle": True},  # FREE-mode idle instead of fresh-TTs
    ],
    ids=["bursty", "all-idle", "jam-window", "exit-to-free"],
)
def test_idle_leap_is_byte_identical(case):
    problem = _problem()
    config = (
        _config(problem, exit_to_free_on_idle=True)
        if case.get("exit_on_idle")
        else None
    )
    for recorder in (lambda: None, _recorder):
        runs = {
            _run_leaping(
                engine,
                config=config,
                jam=case.get("jam"),
                load=case.get("load", True),
                problem=problem,
                tracer=recorder(),
            )
            for engine in ("des", "batch")
        }
        assert len(runs) == 1


def _leap_spy(monkeypatch):
    """Record every leap of the kernel (the round driver's leap on a
    batch run) as (first slot, end) of the skipped stretch."""
    leaps: list[tuple[int, int]] = []
    original = _RoundDriver.leap

    def spy(self, now, end):
        duration = original(self, now, end)
        if self.kernel is not None:
            leaps.append((now, now + duration))
        return duration

    monkeypatch.setattr(_RoundDriver, "leap", spy)
    return leaps


def test_idle_leap_actually_engages(monkeypatch):
    """The leap-identity tests are only meaningful if leaps happen: count
    them on the bursty workload and require multi-slot advances, with and
    without a flight recorder armed."""
    leaps = _leap_spy(monkeypatch)
    _run_leaping("batch")
    assert leaps and max(end - start for start, end in leaps) > 64
    untraced = list(leaps)
    leaps.clear()
    _run_leaping("batch", tracer=_recorder())
    assert leaps == untraced


class _SlotOnlyMonitor(WorkConservationMonitor):
    """Overrides ``on_slot`` but inherits ``on_idle``: the inherited
    summary no longer describes this class's per-slot behaviour."""

    def on_slot(self, *args):
        super().on_slot(*args)


def test_leap_gate_keeps_recorder_and_noise_blocks_faults_and_monitors():
    """An enabled flight recorder keeps the leap on (it records a stretch
    as one ``channel/idle`` event), as do noise (the leap draws the gates
    slot by slot and stops at the first slot one fires) and the standard
    suite and bridge-conservation monitors; per-slot side effects still
    turn it off — an armed fault injector, or any monitor whose
    ``on_idle`` does not come with its own ``on_slot``.  A kernel run's
    round driver keeps the fast loop's gate."""

    def leap_ok(monitors=None, faults=False, **kwargs):
        channel = _build_channel(**kwargs)
        if monitors is not None:
            channel.monitors = MonitorSuite(monitors(channel))
        if faults:
            injector = FaultInjector(FaultPlan())
            injector.arm(channel)
            channel.faults = injector
        allowed = _RoundDriver(channel).leap_ok
        assert _RoundDriver(channel, BatchKernel(channel)).leap_ok is allowed
        return allowed

    assert leap_ok()
    assert leap_ok(tracer=FlightRecorder())
    assert leap_ok(noise_rate=0.01)
    assert leap_ok(noise_rate=0.01, tracer=FlightRecorder())
    assert not leap_ok(faults=True)
    assert not leap_ok(faults=True, noise_rate=0.01)
    assert not leap_ok(monitors=lambda ch: [_SlotOnlyMonitor(limit=4)])
    assert not leap_ok(
        tracer=FlightRecorder(),
        monitors=lambda ch: [_SlotOnlyMonitor(limit=4)],
    )
    assert not leap_ok(
        noise_rate=0.01, monitors=lambda ch: [_SlotOnlyMonitor(limit=4)]
    )
    assert leap_ok(monitors=lambda ch: standard_suite(ch.stations).monitors)
    assert leap_ok(
        monitors=lambda ch: list(standard_suite(ch.stations).monitors)
        + [BridgeConservationMonitor("b", 0, {"uniform-0": (0,)}, 1)]
    )
    # One non-digesting monitor in an otherwise leap-safe suite is enough.
    assert not leap_ok(
        monitors=lambda ch: list(standard_suite(ch.stations).monitors)
        + [_SlotOnlyMonitor(limit=4)]
    )


# -- the idle leap with invariant monitors armed -----------------------------


def _run_monitored(engine, suite_factory, load=True):
    """Monitors and a flight recorder armed: leap-eligible since
    ``on_idle`` exists."""
    channel = _build_channel(load=load, tracer=_recorder())
    channel.monitors = MonitorSuite(suite_factory(channel))
    with use_engine(engine):
        channel.run(_HORIZON)
    assert channel.env.now == _HORIZON
    report = channel.monitors.finalize(_HORIZON, channel.stations)
    assert report.slots_checked == channel.stats.rounds
    return _digest(channel), report


def _assert_engines_agree(suite_factory, load=True):
    runs = {
        engine: _run_monitored(engine, suite_factory, load=load)
        for engine in ("des", "batch")
    }
    digests = {digest for digest, _ in runs.values()}
    assert len(digests) == 1
    reports = [report for _, report in runs.values()]
    assert reports[0] == reports[1]
    assert len({pickle.dumps(report) for report in reports}) == 1
    return reports[0]


@pytest.mark.parametrize("load", [True, False], ids=["bursty", "all-idle"])
def test_leap_under_standard_suite_is_identical(monkeypatch, load):
    """The standard suite armed: digest and the full report — violations,
    slots_checked, truncated — agree across engines, with leaps engaged."""
    leaps = _leap_spy(monkeypatch)
    _assert_engines_agree(
        lambda channel: standard_suite(channel.stations).monitors, load=load
    )
    assert leaps and max(end - start for start, end in leaps) > 64
    if not load:
        assert leaps == [(0, _HORIZON + (-_HORIZON) % 64)]  # one leap


#: Journal entries that fall inside the bursty workload's two idle
#: stretches (the first burst is served by ~6k bit-times, the second by
#: ~206k), past each leap's first slot.
_IDLE_ENTRIES = (50_000, 100_001, 150_007, 220_003)


def test_leap_under_bridge_monitor_over_capacity(monkeypatch):
    """Bridge-conservation monitors whose journal has entries inside idle
    stretches and whose capacity is exceeded there: the leap's
    ``on_idle`` counts each entry at the slot the per-slot path would and
    records the occupancy violations at the same times."""

    def monitors(channel):
        # Station 0's real arrivals (forwarded, FIFO) plus entries that
        # never arrive: occupancy only grows inside the idle stretches.
        schedule = {"uniform-0": (0, 200_000) + _IDLE_ENTRIES}
        return [
            BridgeConservationMonitor("tight", 0, schedule, capacity=1),
            BridgeConservationMonitor("loose", 0, schedule, capacity=3),
        ]

    leaps = _leap_spy(monkeypatch)
    report = _assert_engines_agree(monitors)
    for entry in _IDLE_ENTRIES:
        assert any(start < entry < end for start, end in leaps), entry
    over = [v for v in report.violations if "occupancy" in v.message]
    # tight: over once inside the first stretch and latched from then on;
    # loose: over at the slot counting the 200_000 entry, back under when
    # that frame is forwarded, over again inside the second stretch.
    assert [v.detail("bridge") for v in over] == ["tight", "loose", "loose"]
    assert any(start < over[0].time < end for start, end in leaps)
    assert any(start < over[2].time < end for start, end in leaps)
