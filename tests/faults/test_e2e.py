"""End-to-end fault-injection tests through :class:`NetworkSimulation`.

The acceptance matrix of the fault subsystem:

* every in-bound faulted scenario (crash/restart, burst noise, babbler,
  drift, jam window) runs with the auto-armed standard monitor suite and
  reports **zero** violations under both engines, byte-identically;
* an overload plan that violates the declared ``a/w`` density bound makes
  the deadline monitor fire — the oracle's negative test;
* fault plans thread through :class:`RunSpec` content hashing and the
  experiments CLI flags.
"""

from __future__ import annotations

import pickle

import pytest

from repro.faults.context import current_fault_plan, use_fault_plan
from repro.faults.models import (
    ArrivalBurst,
    BabblingStation,
    BusJam,
    ClockDrift,
    FaultPlan,
    GilbertElliottNoise,
    StationCrash,
)
from repro.model.workloads import uniform_problem
from repro.net.engine import use_engine
from repro.net.network import NetworkSimulation, Scenario
from repro.net.phy import ideal_medium
from repro.obs.context import use_tracer
from repro.obs.tracer import NULL_TRACER, FlightRecorder
from repro.protocols.ddcr import DDCRConfig, DDCRProtocol
from repro.protocols.tdma import TDMAProtocol

ENGINES = ("des", "batch")
_HORIZON = 250_000

_GE = GilbertElliottNoise(p_enter_bad=0.002, p_exit_bad=0.05, bad_rate=0.5)
_CRASH = StationCrash(station_id=0, at=40_000, restart_at=120_000)


def _problem(z=6):
    return uniform_problem(
        z=z, length=1_000, deadline=400_000, a=1, w=200_000
    )


def _config(problem):
    return DDCRConfig(
        time_f=16, time_m=2, class_width=65_536,
        static_q=problem.static_q, static_m=problem.static_m,
    )


def _run(
    engine, plan, *, monitors=None, z=6, horizon=_HORIZON, tracer=NULL_TRACER
):
    problem = _problem(z)
    config = _config(problem)
    with use_tracer(tracer), use_engine(engine):
        simulation = NetworkSimulation.from_scenario(
            Scenario(
                problem,
                ideal_medium(slot_time=64),
                protocol_factory=lambda source: DDCRProtocol(config),
                faults=plan,
                monitors=monitors,
            )
        )
        return simulation.run(horizon)


IN_BOUND_PLANS = {
    "crash-restart": FaultPlan((_CRASH,)),
    "burst-noise": FaultPlan((_GE,)),
    "babbler": FaultPlan((BabblingStation(start=40_000, stop=60_000,
                                          period=8),)),
    "drift": FaultPlan((ClockDrift(station_id=0, skew_per_slot=4.0),)),
    "jam-window": FaultPlan((BusJam(start=40_000, stop=60_000),)),
    "noise+crash": FaultPlan((_GE, _CRASH)),
}


@pytest.mark.parametrize("name", sorted(IN_BOUND_PLANS))
def test_in_bound_faults_hold_all_invariants(name):
    """DDCR under every in-bound fault: monitors auto-arm, stay silent,
    and reports are byte-identical across engines."""
    plan = IN_BOUND_PLANS[name]
    reports = []
    for engine in ENGINES:
        result = _run(engine, plan)
        report = result.invariants
        assert report is not None, "faulted run must auto-arm monitors"
        assert report.ok, report.summary()
        assert report.slots_checked > 1_000
        reports.append(pickle.dumps(report))
    assert reports[0] == reports[1]


def test_mutual_exclusion_never_violated_under_noise_and_crash():
    """The tentpole e2e: burst noise over a crash/restart cycle never
    yields two simultaneous successful transmitters."""
    snapshots = []
    for engine in ENGINES:
        recorder = FlightRecorder(capacity=100_000)
        result = _run(engine, FaultPlan((_GE, _CRASH)), tracer=recorder)
        report = result.invariants
        assert report.by_invariant("mutual_exclusion") == ()
        assert recorder.emitted == len(recorder)
        snapshots.append(
            pickle.dumps(
                (result.stats, result.completions,
                 recorder.snapshot(), report)
            )
        )
    assert snapshots[0] == snapshots[1]


def test_overload_trips_deadline_monitor():
    """Negative test: an arrival burst far beyond the declared (a, w)
    bound must be *detected* — identically under both engines."""
    plan = FaultPlan((ArrivalBurst(station_id=0, at=20_000, count=600),))
    reports = []
    for engine in ENGINES:
        result = _run(engine, plan, horizon=900_000)
        report = result.invariants
        assert not report.ok
        deadline_violations = report.by_invariant("deadline")
        assert deadline_violations, "overload must miss deadlines"
        assert all(
            violation.detail("station") == 0
            for violation in deadline_violations
            if violation.message.startswith("message completed")
        )
        # No safety violation: the protocol stays correct, only late.
        assert report.by_invariant("mutual_exclusion") == ()
        reports.append(pickle.dumps(report))
    assert reports[0] == reports[1]


def test_fault_free_run_with_monitors_is_clean():
    result = _run("batch", None, monitors=True)
    report = result.invariants
    assert report is not None and report.ok
    assert report.monitors == (
        "mutual_exclusion", "deadline", "search_length", "work_conservation"
    )


def test_fault_free_run_without_monitors_has_no_report():
    assert _run("batch", None).invariants is None


def test_monitors_false_suppresses_even_when_faulted():
    result = _run("batch", FaultPlan((_GE,)), monitors=False)
    assert result.invariants is None


def test_crash_silences_station_until_restart():
    result = _run("batch", FaultPlan((_CRASH,)))
    mine = [r for r in result.completions if r.message.source_id == 0]
    assert mine, "station 0 must deliver before the crash and after restart"
    down_window = [
        r for r in mine if 41_000 < r.completion <= 120_000
    ]
    assert down_window == []
    assert any(r.completion > 120_000 for r in mine)  # restarted and drained


def test_tdma_under_crash_holds_its_invariants():
    """A non-DDCR protocol through the same fault path."""
    problem = _problem(z=4)
    roster = tuple(source.source_id for source in problem.sources)
    reports = []
    for engine in ENGINES:
        simulation = NetworkSimulation.from_scenario(
            Scenario(
                problem,
                ideal_medium(slot_time=64),
                protocol_factory=lambda source: TDMAProtocol(roster),
                faults=FaultPlan((_CRASH,)),
            )
        )
        with use_engine(engine):
            report = simulation.run(_HORIZON).invariants
        assert report.ok, report.summary()
        reports.append(pickle.dumps(report))
    assert reports[0] == reports[1]


def test_ambient_plan_scoping():
    plan = FaultPlan((_GE,))
    assert current_fault_plan() is None
    with use_fault_plan(plan):
        assert current_fault_plan() is plan
        with use_fault_plan(None):
            assert current_fault_plan() is None
        assert current_fault_plan() is plan
    assert current_fault_plan() is None


def test_simulation_picks_up_ambient_plan():
    with use_fault_plan(FaultPlan((_GE,))):
        result = _run("batch", None)
    assert result.invariants is not None  # plan reached the channel
    explicit = _run("batch", FaultPlan((_GE,)))
    assert pickle.dumps(result.invariants) == pickle.dumps(explicit.invariants)


def test_explicit_empty_plan_overrides_ambient():
    with use_fault_plan(FaultPlan((_GE,))):
        result = _run("batch", FaultPlan())
    assert result.invariants is None  # forced fault-free


class TestRunSpecIntegration:
    def test_faults_change_the_content_hash(self):
        from repro.runtime.spec import RunSpec

        clean = RunSpec.make("PROTO")
        faulted = RunSpec.make("PROTO", faults=FaultPlan((_GE,)))
        assert clean.spec_hash() != faulted.spec_hash()
        assert clean != faulted
        assert "[faulted]" in faulted.describe()

    def test_empty_plan_normalises_to_fault_free(self):
        from repro.runtime.spec import RunSpec

        clean = RunSpec.make("PROTO")
        empty = RunSpec.make("PROTO", faults=FaultPlan())
        assert clean.spec_hash() == empty.spec_hash()
        assert empty.faults is None

    def test_plan_forms_are_equivalent(self):
        from repro.runtime.spec import RunSpec

        plan = FaultPlan((_GE, _CRASH))
        by_object = RunSpec.make("PROTO", faults=plan)
        by_json = RunSpec.make("PROTO", faults=plan.dumps())
        by_dict = RunSpec.make("PROTO", faults=plan.to_dict())
        assert by_object == by_json == by_dict
        assert by_object.fault_plan() == plan

    def test_bad_faults_type_rejected(self):
        from repro.runtime.spec import RunSpec

        with pytest.raises(TypeError, match="faults"):
            RunSpec.make("PROTO", faults=42)


class TestExperimentsCLI:
    def test_fault_flags_are_mutually_exclusive(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["PROTO", "--fault", "crash", "--faults", "plan.json"])
        assert "not allowed with" in capsys.readouterr().err

    def test_bad_plan_file_is_a_usage_error(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        path = tmp_path / "plan.json"
        path.write_text('{"faults": [{"kind": "meteor_strike"}]}')
        with pytest.raises(SystemExit):
            main(["PROTO", "--faults", str(path)])
        assert "unknown fault kind" in capsys.readouterr().err

    def test_unknown_preset_rejected_by_choices(self, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["PROTO", "--fault", "asteroid"])
        assert "invalid choice" in capsys.readouterr().err


def test_dualbus_monitors_identical_across_engines():
    from repro.net.dualbus import DualBusSimulation, suggested_jam_threshold

    problem = _problem(z=4)
    config = _config(problem)
    reports = []
    for engine in ENGINES:
        simulation = DualBusSimulation(
            problem,
            ideal_medium(slot_time=64),
            protocol_factory=lambda source: DDCRProtocol(config),
            jam_threshold=suggested_jam_threshold(config),
            fail_bus_at=80_000,
            monitors=True,
        )
        with use_engine(engine):
            result = simulation.run(_HORIZON)
        assert result.failovers == 1
        assert result.invariants is not None
        for report in result.invariants:
            assert report.ok, report.summary()
            assert report.monitors == ("mutual_exclusion",)
        reports.append(pickle.dumps(result.invariants))
    assert reports[0] == reports[1]
