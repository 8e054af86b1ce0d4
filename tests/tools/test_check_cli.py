"""Tests for the feasibility-check CLI."""

from __future__ import annotations

import pytest

from repro.model.serialize import dump_problem
from repro.model.workloads import uniform_problem
from repro.tools import check
from repro.tools.check import (
    CIContext,
    _run_invariants_smoke,
    _run_obs_smoke,
    _run_perf_smoke,
    _run_perf_trend,
    _run_sweep_smoke,
    main,
)


def _context(cache_dir, history="unused-history.jsonl"):
    return CIContext(
        jobs=1,
        seed=None,
        history=history,
        cache_dir=None if cache_dir is None else str(cache_dir),
    )


@pytest.fixture
def instance_path(tmp_path):
    path = tmp_path / "instance.json"
    dump_problem(uniform_problem(z=4), str(path))
    return str(path)


@pytest.fixture
def infeasible_path(tmp_path):
    path = tmp_path / "bad.json"
    dump_problem(
        uniform_problem(
            z=8, length=500_000, deadline=1_000_000, a=4, w=1_000_000
        ),
        str(path),
    )
    return str(path)


class TestCheckCLI:
    def test_feasible_exit_zero(self, instance_path, capsys):
        assert main([instance_path]) == 0
        out = capsys.readouterr().out
        assert "FEASIBLE" in out
        assert "uniform-0" in out

    def test_infeasible_exit_two(self, infeasible_path, capsys):
        assert main([infeasible_path]) == 2
        assert "INFEASIBLE" in capsys.readouterr().out

    def test_missing_file_exit_one(self, capsys):
        assert main(["/nonexistent/instance.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_medium_selection(self, instance_path, capsys):
        assert main([instance_path, "--medium", "classic-ethernet"]) in (0, 2)
        assert "classic-ethernet" in capsys.readouterr().out

    def test_tree_overrides(self, instance_path, capsys):
        assert main([instance_path, "--time-f", "256", "--time-m", "4"]) == 0
        assert "F=256" in capsys.readouterr().out

    def test_simulation_spot_check(self, instance_path, capsys):
        assert main([instance_path, "--simulate", "10"]) == 0
        out = capsys.readouterr().out
        assert "misses=0" in out

    def test_no_instance_without_ci_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2


class TestCIFastPath:
    """--ci resolves the suite through the runtime cache (stubbed here:
    executing every experiment for real is the benchmark suite's job)."""

    @pytest.fixture
    def warm_cache(self, tmp_path):
        from repro.experiments.base import ExperimentResult
        from repro.experiments.registry import EXPERIMENTS
        from repro.runtime import ResultCache, RunSpec

        cache = ResultCache(tmp_path / "ci-cache")
        for experiment_id in EXPERIMENTS:
            cache.put(
                RunSpec.make(experiment_id),
                ExperimentResult(
                    experiment_id=experiment_id,
                    title="stub",
                    headers=["x"],
                    rows=[[0]],
                    checks={"ok": True},
                ),
            )
        return cache

    def test_ci_ok_on_warm_cache(self, warm_cache, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        assert (
            main(
                [
                    "--ci",
                    "--cache-dir", str(warm_cache.directory),
                    "--history", str(history),
                ]
            )
            == 0
        )
        from repro.experiments.registry import EXPERIMENTS

        out = capsys.readouterr().out
        assert "all repro modules import cleanly" in out
        assert f"0 executed, {len(EXPERIMENTS)} from cache" in out
        assert "invariants-smoke: default engine matched" in out
        assert "obs-smoke: telemetry round-trip ok" in out
        assert "perf-trend: not enough history" in out
        assert "sweep-smoke:" in out
        assert "serve-smoke:" in out
        assert "obs2-smoke: traced serve session ok" in out
        assert "0 resubmissions" in out
        assert "verdict: OK" in out
        assert history.exists()  # the run was recorded for next time

    def test_ci_runs_invariants_smoke(self, warm_cache, capsys):
        assert _run_invariants_smoke(_context(warm_cache.directory)) == []
        out = capsys.readouterr().out
        assert "invariants-smoke: ddcr+burst-noise+crash" in out
        assert "invariants-smoke: csma-cd+burst-noise" in out
        assert "invariants-smoke: dcr+clock-drift" in out
        assert "invariants-smoke: tdma+crash" in out
        assert "invariants-smoke: ddcr-clean+monitors" in out
        assert "invariants-smoke: ddcr-checked+monitors" in out
        assert "invariants-smoke: dcr-checked+noise" in out
        assert "invariants-smoke: dcr-kernel+noise+monitors" in out
        assert "invariants-smoke: tdma-kernel+monitors" in out
        assert "invariants-smoke: dualbus-checked+failover" in out
        assert (
            "invariants-smoke: ddcr-far-deadlines+limit: INVARIANT "
            "VIOLATIONS (work_conservation: 1) (as expected)"
        ) in out
        assert "invariants ok" in out
        assert "default engine matched the des reference on 11/11" in out

    def test_no_cache_skips_the_sweep_smoke(self, capsys):
        # The sweep smoke resumes against the result cache; without one
        # it reports the skip instead of failing.
        assert _run_sweep_smoke(_context(None)) == []
        assert "sweep-smoke: skipped" in capsys.readouterr().out

    def test_obs_smoke_round_trips_on_warm_cache(self, warm_cache, capsys):
        assert _run_obs_smoke(_context(warm_cache.directory)) == []
        out = capsys.readouterr().out
        assert "obs-smoke: telemetry round-trip ok" in out
        assert "source=cache" in out

    def test_ci_failing_experiment_exits_two(
        self, warm_cache, capsys, monkeypatch
    ):
        from repro.experiments.base import ExperimentResult
        from repro.runtime import RunSpec

        warm_cache.put(
            RunSpec.make("FIG1"),
            ExperimentResult(
                experiment_id="FIG1",
                title="stub",
                headers=["x"],
                rows=[[0]],
                checks={"ok": False},
            ),
        )
        monkeypatch.setattr(check, "STEPS", ())
        assert main(["--ci", "--cache-dir", str(warm_cache.directory)]) == 2
        captured = capsys.readouterr()
        assert "FAILED checks: FIG1" in captured.err


class TestStepTable:
    """Every row of the ``--ci`` table can fail the build (rows are
    stubbed: the real ones run once, in ``test_ci_ok_on_warm_cache``)."""

    @pytest.mark.parametrize("mode", ["returns", "raises"])
    @pytest.mark.parametrize("row", [name for name, _ in check.STEPS])
    def test_row_fails_the_build(
        self, row, mode, tmp_path, capsys, monkeypatch
    ):
        import repro.experiments.registry as registry

        ran = []

        def step(name):
            def run(context):
                ran.append(name)
                if name != row:
                    return []
                if mode == "raises":
                    raise AssertionError("boom")
                return ["boom"]

            return run

        monkeypatch.setattr(registry, "EXPERIMENTS", {})
        rows = tuple((name, step(name)) for name, _ in check.STEPS)
        monkeypatch.setattr(check, "STEPS", rows)
        history = str(tmp_path / "hist.jsonl")
        assert main(["--ci", "--no-cache", "--history", history]) == 2
        err = capsys.readouterr().err
        expected = "AssertionError: boom" if mode == "raises" else "boom"
        assert f"FAILED {row}: {expected}\n" in err
        assert err.count("FAILED") == 1
        assert ("Traceback" in err) == (mode == "raises")
        assert ran == [name for name, _ in check.STEPS]  # every row ran

    def test_crashing_bench_propagates_out_of_the_perf_row(
        self, tmp_path, monkeypatch
    ):
        import repro.tools.bench as bench

        def crash(**kwargs):
            raise AssertionError("no journey traversed the chain")

        monkeypatch.setattr(bench, "run_benches", crash)
        with pytest.raises(AssertionError, match="no journey"):
            _run_perf_smoke(_context(None, history=tmp_path / "h.jsonl"))


class TestPerfTrendGate:
    """The gate medians the bench history; driven directly (running the
    full perf smoke per case would dominate the suite's runtime)."""

    @staticmethod
    def _result(ops: float):
        from repro.tools.bench import BenchResult

        return BenchResult(
            name="channel_slot_rate_16_des",
            engine="des",
            unit="rounds",
            ops=1000.0,
            seconds=1000.0 / ops,
            ops_per_sec=ops,
            repeats=1,
            median_seconds=1000.0 / ops,
            median_ops_per_sec=ops,
        )

    @staticmethod
    def _seed_history(path, ops: float, entries: int = 3):
        from repro.tools.bench import append_history, history_entry

        for _ in range(entries):
            append_history(
                path,
                history_entry([TestPerfTrendGate._result(ops)], smoke=True),
            )

    def test_steady_throughput_passes(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        self._seed_history(history, ops=10_000)
        failures = _run_perf_trend([self._result(9_500)], history)
        assert failures == []
        assert "perf-trend: ok" in capsys.readouterr().out

    def test_regression_fails_the_gate(self, tmp_path, capsys):
        history = tmp_path / "hist.jsonl"
        self._seed_history(history, ops=10_000)
        failures = _run_perf_trend([self._result(5_000)], history)
        assert len(failures) == 1
        assert "below the history median" in failures[0]
        assert "perf-trend: FAILED" in capsys.readouterr().out

    def test_insufficient_history_skips_but_records(self, tmp_path, capsys):
        from repro.tools.bench import load_history

        history = tmp_path / "hist.jsonl"
        failures = _run_perf_trend([self._result(10_000)], history)
        assert failures == []
        assert "not enough history" in capsys.readouterr().out
        assert len(load_history(history)) == 1

    def test_run_is_recorded_after_comparison(self, tmp_path):
        """A regressed run must not median itself into the baseline."""
        from repro.tools.bench import load_history

        history = tmp_path / "hist.jsonl"
        self._seed_history(history, ops=10_000)
        _run_perf_trend([self._result(5_000)], history)
        entries = load_history(history)
        assert len(entries) == 4  # the bad run is recorded...
        # ...but the comparison above used only the three seeded entries
        bench = entries[-1]["benches"]["channel_slot_rate_16_des"]
        assert bench["ops_per_sec"] == 5_000

    def test_window_limits_the_baseline(self, tmp_path, monkeypatch):
        """Only the last N entries vote: old fast entries age out."""
        monkeypatch.setattr(check, "TREND_WINDOW", 3)
        history = tmp_path / "hist.jsonl"
        self._seed_history(history, ops=50_000, entries=2)  # ancient, fast
        self._seed_history(history, ops=10_000, entries=3)  # recent
        failures = _run_perf_trend([self._result(9_000)], history)
        assert failures == []

    def test_non_smoke_entries_are_ignored(self, tmp_path, capsys):
        import json

        history = tmp_path / "hist.jsonl"
        with open(history, "w") as handle:
            entry = {
                "smoke": False,
                "benches": {
                    "channel_slot_rate_16_des": {"ops_per_sec": 99_999}
                },
            }
            for _ in range(3):
                handle.write(json.dumps(entry) + "\n")
        failures = _run_perf_trend([self._result(1_000)], history)
        assert failures == []
        assert "not enough history" in capsys.readouterr().out
