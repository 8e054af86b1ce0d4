"""The micro-benchmark CLI (python -m repro.tools.bench)."""

from __future__ import annotations

import json
import time

import pytest

from repro.net.engine import use_engine
from repro.tools import bench


def test_list_names(capsys):
    assert bench.main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "xi_dp_table" in out
    assert "channel_slot_rate_16_des" in out
    assert "channel_slot_rate_256_batch" in out
    assert "fastloop" not in out
    assert "telemetry_overhead  (engine: des)" in out
    assert "tracer_overhead  (engine: des)" in out


def test_unknown_bench_rejected():
    with pytest.raises(SystemExit):
        bench.main(["--only", "nope", "--no-write"])


def test_smoke_run_writes_report(tmp_path, capsys):
    output = tmp_path / "bench.json"
    code = bench.main(
        [
            "--smoke",
            "--only", "divide_conquer_table",
            "--only", "channel_slot_rate_4_batch",
            "--output", str(output),
        ]
    )
    assert code == 0
    payload = json.loads(output.read_text())
    assert payload["schema"] == 1
    assert payload["smoke"] is True
    assert payload["git_rev"]
    assert payload["default_engine"] == "batch"
    by_name = {entry["name"]: entry for entry in payload["benches"]}
    assert set(by_name) == {
        "divide_conquer_table", "channel_slot_rate_4_batch"
    }
    slot_rate = by_name["channel_slot_rate_4_batch"]
    assert slot_rate["engine"] == "batch"
    assert slot_rate["unit"] == "rounds"
    assert slot_rate["ops_per_sec"] > 0
    assert slot_rate["repeats"] == 1
    out = capsys.readouterr().out
    assert "rounds/s" in out


def test_no_write_leaves_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = bench.main(
        ["--smoke", "--only", "divide_conquer_table", "--no-write"]
    )
    assert code == 0
    assert list(tmp_path.iterdir()) == []


def test_run_benches_returns_results():
    results = bench.run_benches(
        names=["divide_conquer_table"], smoke=True
    )
    assert len(results) == 1
    assert results[0].ops_per_sec > 0
    assert "tables/s" in results[0].describe()


def test_repeats_honored_with_min_and_median(tmp_path):
    output = tmp_path / "bench.json"
    code = bench.main(
        [
            "--smoke",
            "--repeats", "3",
            "--only", "divide_conquer_table",
            "--output", str(output),
            "--no-history",
        ]
    )
    assert code == 0
    (entry,) = json.loads(output.read_text())["benches"]
    assert entry["repeats"] == 3
    # min is the fastest sample, so it can never exceed the median
    assert 0 < entry["seconds"] <= entry["median_seconds"]
    assert entry["median_ops_per_sec"] <= entry["ops_per_sec"]


def test_median_reported_in_describe():
    (result,) = bench.run_benches(
        names=["divide_conquer_table"], smoke=True, repeats=3
    )
    assert result.repeats == 3
    assert "median" in result.describe()


def test_history_appended_per_run(tmp_path):
    output = tmp_path / "bench.json"
    history = tmp_path / "hist.jsonl"
    for _ in range(2):
        assert (
            bench.main(
                [
                    "--smoke",
                    "--only", "divide_conquer_table",
                    "--output", str(output),
                    "--history", str(history),
                ]
            )
            == 0
        )
    entries = bench.load_history(history)
    assert len(entries) == 2
    for entry in entries:
        assert entry["smoke"] is True
        assert entry["git_rev"]
        assert entry["benches"]["divide_conquer_table"]["ops_per_sec"] > 0


def test_history_defaults_next_to_output(tmp_path):
    output = tmp_path / "bench.json"
    assert (
        bench.main(
            [
                "--smoke",
                "--only", "divide_conquer_table",
                "--output", str(output),
            ]
        )
        == 0
    )
    assert (tmp_path / "BENCH_history.jsonl").exists()


def test_load_history_tolerates_missing_and_corrupt(tmp_path):
    assert bench.load_history(tmp_path / "nope.jsonl") == []
    path = tmp_path / "hist.jsonl"
    path.write_text('{"smoke": true}\ngarbage\n[1, 2]\n')
    assert bench.load_history(path) == [{"smoke": True}]


def test_list_includes_feasibility_fast_path_benches(capsys):
    assert bench.main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in (
        "xi_dp_table_cold",
        "xi_dp_table_warm_mem",
        "xi_dp_table_warm_disk",
        "feasibility_grid",
        "feasibility_grid_scalar",
    ):
        assert name in out


def test_xi_cache_tiers_order_as_expected():
    """Warm in-memory lookups must beat recomputing the DP from cold."""
    results = bench.run_benches(
        names=[
            "xi_dp_table_cold",
            "xi_dp_table_warm_mem",
            "xi_dp_table_warm_disk",
        ],
        smoke=True,
    )
    by_name = {result.name: result for result in results}
    for result in results:
        assert result.ops_per_sec > 0
        assert result.unit == "tables"
    assert (
        by_name["xi_dp_table_warm_mem"].ops_per_sec
        > by_name["xi_dp_table_cold"].ops_per_sec
    )
    assert (
        by_name["xi_dp_table_warm_disk"].ops_per_sec
        > by_name["xi_dp_table_cold"].ops_per_sec
    )


def test_feasibility_grid_bench_runs_in_smoke():
    (result,) = bench.run_benches(names=["feasibility_grid"], smoke=True)
    assert result.ops_per_sec > 0
    assert result.unit == "reports"


def _overhead_ratio(engine: str, **instrument) -> float:
    """Instrumented over plain throughput of the 16-station smoke workload
    (``bench._channel_slot_rate``, same run length as the benches), best
    against best.  After one warm-up of each side, plain and instrumented
    samples alternate, so a slow stretch of the host hits both sides."""

    def sample(**kwargs) -> float:
        started = time.perf_counter()
        with use_engine(engine):
            bench._channel_slot_rate(16, True, **kwargs)
        return time.perf_counter() - started

    sample()
    sample(**instrument)
    plain, instrumented = [], []
    for _ in range(7):
        plain.append(sample())
        instrumented.append(sample(**instrument))
    return min(plain) / min(instrumented)


@pytest.mark.parametrize("engine", ["des", "batch"])
def test_telemetry_overhead_within_budget(engine):
    """Enabled telemetry must stay within a modest fraction of the plain
    throughput (the budget is <=10%; the assertion allows 3x that to keep
    CI machines' scheduling noise from flaking the suite), and the
    disabled path IS the plain bench — NULL_TELEMETRY short-circuits
    before any instrument work.  The ``des`` case runs every slot through
    the round, so it bounds the per-slot instrument cost; on ``batch``
    the plain run leaps its idle stretches, so the instrumented one must
    too, and the per-run manifest must not pay a ``git`` subprocess each
    time."""
    assert _overhead_ratio(engine, telemetry=True) > 0.70


@pytest.mark.parametrize("engine", ["des", "batch"])
def test_tracer_overhead_within_budget(engine):
    """An armed flight recorder must stay within a modest fraction of the
    plain throughput (the budget is <=10%; the assertion allows 3x that
    for CI scheduling noise).  The disabled path needs no separate bench:
    the hoisted ``tracer_on`` gate makes it the plain ``channel_slot_rate``
    bench itself.  The ``des`` case records every slot from the round;
    on ``batch`` the recorder must keep the idle leap: a run of silent
    slots is one ``channel/idle`` event."""
    assert _overhead_ratio(engine, tracer=True) > 0.70
