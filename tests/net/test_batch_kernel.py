"""The batch-slot kernel's own contract: eligibility, backends, leap.

The three-way byte-identity oracle lives in
``test_engine_differential.py``; this file covers what is specific to
:mod:`repro.net.batch` — the structural eligibility matrix and its
recorded reasons, the numpy-absent degradation to the pure-Python
backend, backend parity, the mid-run DES rejoin out of the kernel
itself, and the idle-leap fast path (which the differential suite never
exercises, because its runs keep tracing on).
"""

from __future__ import annotations

import itertools
import pickle
import sys

import pytest

import repro.net.batch as batch_module
from repro.model.arrival import GreedyBurstArrivals
from repro.model.workloads import uniform_problem
from repro.net.batch import BatchKernel, batch_unavailable_reason
from repro.net.channel import BroadcastChannel
from repro.net.engine import batch_capability
from repro.net.network import NetworkSimulation, Scenario
from repro.net.phy import ATM_BUS, ideal_medium
from repro.net.station import Station
from repro.protocols.csma_cd import CSMACDProtocol
from repro.protocols.ddcr import DDCRConfig, DDCRProtocol
from repro.sim.engine import Environment
from repro.sim.invariants import InvariantMonitor, MonitorSuite
from repro.sim.trace import TraceLog

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
    trace=False,
    load=True,
    horizon=_HORIZON,
):
    problem = problem if problem is not None else _problem()
    config = config if config is not None else _config(problem)
    env = Environment()
    channel = BroadcastChannel(
        env,
        medium if medium is not None else ideal_medium(slot_time=64),
        trace=TraceLog(enabled=trace),
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


def _digest(channel):
    completions = [
        record
        for station in channel.stations
        for record in station.completions
    ]
    return pickle.dumps(
        (
            channel.stats,
            completions,
            list(channel.trace.records()),
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


def test_foreign_pending_process_is_ineligible():
    channel = _build_channel()

    def ticker():
        yield channel.env.timeout(1_000)

    channel.env.process(ticker())
    assert "foreign processes" in batch_unavailable_reason(channel)


def test_foreign_mac_type_is_ineligible():
    channel = _build_channel(
        mac_factory=lambda source: CSMACDProtocol(seed=source.source_id)
    )
    assert "not plain DDCRProtocol" in batch_unavailable_reason(channel)


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
    """Ineligible runs execute on the fast loop, byte-identically."""
    fast = _build_channel(
        trace=True,
        mac_factory=lambda source: CSMACDProtocol(seed=source.source_id),
    )
    fast.run(_HORIZON, engine="fastloop")
    batched = _build_channel(
        trace=True,
        mac_factory=lambda source: CSMACDProtocol(seed=source.source_id),
    )
    note = batched.run(_HORIZON, engine="batch")
    assert "batch engine unavailable" in note
    assert "not plain DDCRProtocol" in note
    assert _digest(batched) == _digest(fast)


# -- backend selection and parity --------------------------------------------


def test_pure_python_backend_is_byte_identical():
    reference = _build_channel(trace=True)
    reference.run(_HORIZON, engine="fastloop")
    forced = _build_channel(trace=True)
    kernel = BatchKernel(forced, force_python=True)
    assert kernel.backend_note == "pure-python backend (forced)"
    assert not kernel.backend.vectorized
    kernel.run(_HORIZON)
    assert forced.env.now == _HORIZON
    assert _digest(forced) == _digest(reference)


def test_numpy_absent_degrades_not_fails(monkeypatch):
    """With numpy unimportable, the batch engine still runs — on the
    pure-Python backend, byte-identically — and the run manifest records
    why the vectorized backend was unavailable."""
    from repro.obs.instruments import Telemetry

    real_numpy = pytest.importorskip("numpy")

    def run(engine, break_numpy):
        if break_numpy:
            monkeypatch.setitem(sys.modules, "numpy", None)
        else:
            monkeypatch.setitem(sys.modules, "numpy", real_numpy)
        monkeypatch.setattr(batch_module, "_NUMPY_STATE", None)
        problem = _problem()
        config = _config(problem)
        simulation = NetworkSimulation.from_scenario(
            Scenario(
                problem,
                ideal_medium(slot_time=64),
                protocol_factory=lambda source: DDCRProtocol(config),
                trace=True,
                root_seed=3,
                engine=engine,
                telemetry=Telemetry(),
            )
        )
        result = simulation.run(_HORIZON)
        return result, result.telemetry

    broken, broken_manifest = run("batch", break_numpy=True)
    assert "numpy unavailable" in broken_manifest.engine_fallback
    assert batch_capability() is not None  # the cached probe agrees
    reference, reference_manifest = run("fastloop", break_numpy=True)
    vectorized, vectorized_manifest = run("batch", break_numpy=False)
    assert vectorized_manifest.engine_fallback is None

    def digest(result):
        return pickle.dumps(
            (result.stats, result.completions, list(result.trace.records()))
        )

    assert digest(broken) == digest(reference) == digest(vectorized)
    assert (
        broken_manifest.content_json()
        == reference_manifest.content_json()
        == vectorized_manifest.content_json()
    )
    monkeypatch.setattr(batch_module, "_NUMPY_STATE", None)
    assert batch_capability() is None  # numpy restored, probe re-runs


# -- mid-run DES rejoin out of the kernel ------------------------------------


class _ProcessRegisteringMonitor(InvariantMonitor):
    """Monitor that spawns a foreign DES process mid-run.

    Monitors are supported inside the batch kernel, so this forces the
    kernel itself (not a structural fallback) onto the write-back +
    rejoin path partway through a run.
    """

    name = "process_registrar"

    def __init__(self, env, ticks, trigger_after=40):
        super().__init__()
        self._env = env
        self._ticks = ticks
        self._remaining = trigger_after

    def on_slot(
        self, now, duration, state, wire, frame, corrupted, jammed,
        stations, down,
    ):
        if self._remaining > 0:
            self._remaining -= 1
            if self._remaining == 0:
                self._env.process(self._ticker())

    def _ticker(self):
        for _ in range(5):
            yield self._env.timeout(10_000)
            self._ticks.append(self._env.now)


def _run_with_monitor_process(engine):
    channel = _build_channel(trace=True)
    env = channel.env
    ticks: list[float] = []
    channel.monitors = MonitorSuite(
        [_ProcessRegisteringMonitor(env, ticks)]
    )
    note = channel.run(_HORIZON, engine=engine)
    if engine == "batch":
        assert note == batch_capability()  # eligible: the kernel itself ran
    assert env.now == _HORIZON
    return ticks, _digest(channel)


def test_kernel_rejoins_des_mid_run():
    """A foreign process registered by a monitor mid-run makes the kernel
    write its state back and rejoin the DES — interleaved identically."""
    runs = {
        engine: _run_with_monitor_process(engine)
        for engine in ("des", "fastloop", "batch")
    }
    ticks = {engine: run[0] for engine, run in runs.items()}
    assert len(ticks["batch"]) == 5  # the ticker really ran to completion
    assert ticks["des"] == ticks["fastloop"] == ticks["batch"]
    digests = {run[1] for run in runs.values()}
    assert len(digests) == 1


# -- the idle leap -----------------------------------------------------------


def _run_untraced(engine, config=None, jam=None, load=True, problem=None):
    """Trace/monitors/telemetry all off — the leap-eligible regime."""
    channel = _build_channel(
        trace=False, config=config, load=load, problem=problem
    )
    if jam is not None:
        channel.jam_from, channel.jam_until = jam
    channel.run(_HORIZON, engine=engine)
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
    runs = {
        _run_untraced(
            engine,
            config=config,
            jam=case.get("jam"),
            load=case.get("load", True),
            problem=problem,
        )
        for engine in ("des", "fastloop", "batch")
    }
    assert len(runs) == 1


def test_idle_leap_actually_engages(monkeypatch):
    """The leap-identity tests are only meaningful if leaps happen: count
    them on the bursty workload and require multi-slot advances."""
    leaps = []
    original = BatchKernel._try_leap

    def spy(self, now, horizon):
        n = original(self, now, horizon)
        if n:
            leaps.append(n)
        return n

    monkeypatch.setattr(BatchKernel, "_try_leap", spy)
    _run_untraced("batch")
    assert leaps and max(leaps) > 1


def test_leap_disabled_under_trace_and_monitors():
    """Tracing (or monitors) force per-slot execution: no leap, and the
    traced run still matches the DES slot for slot (covered by the
    differential suite; here we just pin the gate)."""
    channel = _build_channel(trace=True)
    kernel = BatchKernel(channel)
    assert not kernel._leap_ok
    untraced = _build_channel(trace=False)
    assert BatchKernel(untraced)._leap_ok
