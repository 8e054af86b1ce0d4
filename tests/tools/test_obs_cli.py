"""The manifest consumer CLI (python -m repro.tools.obs)."""

from __future__ import annotations

import pytest

import json

from repro.obs.instruments import Telemetry
from repro.obs.manifest import RunTelemetry, write_manifests
from repro.tools.obs import (
    main,
    render_delta_record,
    render_top,
    snapshot_quantile,
)


def make_manifest(
    run_id: str = "RUN",
    success: int = 100,
    latencies: tuple[int, ...] = (100, 200, 5_000),
    run_seconds: float = 2.0,
    engine_fallback: str | None = None,
) -> RunTelemetry:
    telemetry = Telemetry()
    telemetry.counter("slots/success").inc(success)
    telemetry.counter("slots/silence").inc(10)
    telemetry.gauge("failovers").set(1)
    hist = telemetry.histogram("latency/a")
    for value in latencies:
        hist.record(value)
    with telemetry.span("run"):
        with telemetry.span("spec/execute"):
            pass
    doc = RunTelemetry.from_registry(
        telemetry, run_id=run_id, engine="batch", seed=3,
        engine_fallback=engine_fallback,
    )
    # deterministic span timings for diff/ratio tests
    doc.spans[0]["seconds"] = run_seconds
    doc.spans[0]["children"][0]["seconds"] = run_seconds * 0.9
    return doc


class TestSnapshotQuantile:
    def test_matches_live_histogram(self):
        from repro.obs.instruments import Histogram

        hist = Histogram("h", edges=(10, 20, 30))
        for value in (1, 12, 25, 28, 40):
            hist.record(value)
        snap = hist.snapshot()
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert snapshot_quantile(snap, q) == hist.quantile(q)

    def test_empty_histogram(self):
        assert snapshot_quantile(
            {"edges": [10], "counts": [0, 0], "count": 0, "max": None}, 0.5
        ) is None

    def test_extremes_are_exact_min_max(self):
        snap = {"edges": [10], "counts": [2, 0], "count": 2,
                "min": 3, "max": 7}
        assert snapshot_quantile(snap, 0.0) == 3
        assert snapshot_quantile(snap, 1.0) == 7

    def test_out_of_range_raises(self):
        snap = {"edges": [10], "counts": [1, 0], "count": 1,
                "min": 1, "max": 1}
        for q in (-0.01, 1.01, float("nan")):
            with pytest.raises(ValueError, match="quantile"):
                snapshot_quantile(snap, q)


class TestSummarize:
    def test_renders_instruments_and_spans(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_manifests(path, [make_manifest()])
        assert main(["summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "run RUN" in out
        assert "engine=batch" in out
        assert "slots/success" in out
        assert "latency/a" in out
        assert "p50=" in out and "p99=" in out
        assert "spec/execute" in out
        assert "1 manifest(s)" in out

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["summarize", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_corrupt_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["summarize", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err


class TestDiff:
    def test_identical_manifests_diff_clean(self, tmp_path, capsys):
        path = tmp_path / "a.jsonl"
        write_manifests(path, [make_manifest()])
        assert main(["diff", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "run RUN" in out
        assert "(x1.00)" in out  # span ratios are reported even when flat

    def test_counter_and_quantile_deltas(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        # p99 of 100 samples: the tail moving out two decades must show
        write_manifests(
            a, [make_manifest(success=100, latencies=(100,) * 100)]
        )
        write_manifests(
            b,
            [
                make_manifest(
                    success=90, latencies=(100,) * 90 + (400_000,) * 10
                )
            ],
        )
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "slots/success" in out and "(-10)" in out
        assert "latency/a" in out and "p99" in out

    def test_fail_over_trips_on_span_regression(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_manifests(a, [make_manifest(run_seconds=2.0)])
        write_manifests(b, [make_manifest(run_seconds=3.0)])  # +50%
        assert main(["diff", str(a), str(b), "--fail-over", "25"]) == 2
        err = capsys.readouterr().err
        assert "REGRESSION" in err
        assert "run" in err

    def test_fail_over_tolerates_small_drift(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_manifests(a, [make_manifest(run_seconds=2.0)])
        write_manifests(b, [make_manifest(run_seconds=2.2)])  # +10%
        assert main(["diff", str(a), str(b), "--fail-over", "25"]) == 0

    def test_min_seconds_ignores_noise_spans(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_manifests(a, [make_manifest(run_seconds=0.0001)])
        write_manifests(b, [make_manifest(run_seconds=0.01)])  # 100x, tiny
        assert main(["diff", str(a), str(b), "--fail-over", "25"]) == 0

    def test_runs_paired_by_run_id(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_manifests(
            a, [make_manifest("X"), make_manifest("ONLY-IN-A")]
        )
        write_manifests(b, [make_manifest("X", success=101)])
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "run X" in out
        assert "unmatched run ids: ONLY-IN-A" in out

    def test_no_common_runs_exits_one(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_manifests(a, [make_manifest("A")])
        write_manifests(b, [make_manifest("B")])
        assert main(["diff", str(a), str(b)]) == 1
        assert "no runs in common" in capsys.readouterr().err

    def test_usage_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestEngineFallback:
    def test_summarize_surfaces_fallback_note(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_manifests(
            path,
            [make_manifest(engine_fallback="numpy unavailable")],
        )
        assert main(["summarize", str(path)]) == 0
        assert "engine fallback: numpy unavailable" in capsys.readouterr().out

    def test_summarize_silent_without_fallback(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        write_manifests(path, [make_manifest()])
        assert main(["summarize", str(path)]) == 0
        assert "engine fallback" not in capsys.readouterr().out

    def test_diff_reports_fallback_change(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_manifests(a, [make_manifest()])
        write_manifests(
            b, [make_manifest(engine_fallback="numpy unavailable")]
        )
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "engine fallback: - -> numpy unavailable" in out

    def test_diff_silent_when_fallback_unchanged(self, tmp_path, capsys):
        path = tmp_path / "a.jsonl"
        write_manifests(
            path, [make_manifest(engine_fallback="numpy unavailable")]
        )
        assert main(["diff", str(path), str(path)]) == 0
        assert "engine fallback" not in capsys.readouterr().out


def _stream_record(tick: int = 3) -> dict:
    return {
        "tick": tick,
        "counters": {"serve/requests": [2, 10]},
        "gauges": {"cache/entries": 5.0},
        "histograms": {
            "serve/decision_latency_us": {
                "count": 10, "delta": 2, "p50": 128, "p99": 4096,
            },
        },
    }


class TestRenderDeltaRecord:
    def test_renders_all_sections(self):
        line = render_delta_record(_stream_record())
        assert line.startswith("tick 3")
        assert "serve/requests +2=10" in line
        assert "cache/entries=5" in line
        assert "serve/decision_latency_us n=10 (+2)" in line
        assert "p50=128" in line and "p99=4096" in line

    def test_idle_record_is_just_the_tick(self):
        assert render_delta_record({"tick": 9}) == "tick 9"


class TestRenderTop:
    def test_table_sorted_with_histogram_summary(self):
        metrics = {
            "repro_b_count_total": {"type": "counter", "value": 4.0},
            "repro_a_lat": {
                "type": "histogram", "count": 2.0, "sum": 10.0,
                "buckets": [("10", 2.0)],
            },
        }
        lines = render_top(metrics)
        assert lines[0].startswith("repro_a_lat")
        assert "n=2" in lines[0] and "mean=5" in lines[0]
        assert lines[1].startswith("repro_b_count_total")
        assert "counter" in lines[1] and lines[1].rstrip().endswith("4")


class TestTailCommand:
    def test_tail_renders_stream(self, tmp_path, capsys):
        stream = tmp_path / "metrics.jsonl"
        stream.write_text(
            "".join(
                json.dumps(_stream_record(tick)) + "\n" for tick in (1, 2)
            )
        )
        assert main(["tail", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "tick 1" in out and "tick 2" in out
        assert "2 export record(s)" in out

    def test_tail_last_window(self, tmp_path, capsys):
        stream = tmp_path / "metrics.jsonl"
        stream.write_text(
            "".join(
                json.dumps({"tick": tick}) + "\n" for tick in range(5)
            )
        )
        assert main(["tail", str(stream), "--last", "2"]) == 0
        out = capsys.readouterr().out
        assert "tick 3" in out and "tick 4" in out
        assert "tick 2" not in out

    def test_tail_tolerates_truncated_final_line(self, tmp_path, capsys):
        stream = tmp_path / "metrics.jsonl"
        stream.write_text('{"tick":1}\n{"tick":2,"coun')
        assert main(["tail", str(stream)]) == 0
        out = capsys.readouterr().out
        assert "tick 1" in out
        assert "1 export record(s)" in out

    def test_tail_interior_corruption_exits_one(self, tmp_path, capsys):
        stream = tmp_path / "metrics.jsonl"
        stream.write_text('{"tick":1}\ngarbage\n{"tick":3}\n')
        assert main(["tail", str(stream)]) == 1
        assert "corrupt" in capsys.readouterr().err

    def test_tail_missing_stream_is_empty_not_fatal(self, tmp_path, capsys):
        assert main(["tail", str(tmp_path / "absent.jsonl")]) == 0
        assert "0 export record(s)" in capsys.readouterr().out


class TestTopCommand:
    def test_top_renders_prometheus_snapshot(self, tmp_path, capsys):
        from repro.obs.export import render_prometheus

        telemetry = Telemetry()
        telemetry.counter("serve/requests").inc(7)
        telemetry.histogram("serve/decision_latency_us", (64,)).record(10)
        prom = tmp_path / "metrics.prom"
        prom.write_text(render_prometheus(telemetry))
        assert main(["top", str(prom)]) == 0
        out = capsys.readouterr().out
        assert "repro_serve_requests" in out
        assert "repro_serve_decision_latency_us" in out
        assert "2 metric(s)" in out

    def test_top_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["top", str(tmp_path / "absent.prom")]) == 1
        assert "error" in capsys.readouterr().err
