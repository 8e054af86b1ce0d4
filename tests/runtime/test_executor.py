"""Executor semantics: ordering, caching, parallel/serial equivalence."""

from __future__ import annotations

import pickle

import pytest

from repro.net.engine import use_engine
from repro.obs.context import use_tracer
from repro.obs.tracer import FlightRecorder
from repro.runtime import ParallelExecutor, ResultCache, RunSpec

#: Small-parameter specs that run in well under a second each.
FAST_SPECS = [
    RunSpec.make("FIG1", m=2, t=8),
    RunSpec.make("FIG2", t=16),
    RunSpec.make("EQ2-8", shapes=((2, 8),)),
    RunSpec.make("EQ11-14", shapes=((2, 16),)),
]


class TestSerialExecution:
    def test_results_in_input_order(self):
        executor = ParallelExecutor(jobs=1)
        records = executor.run(FAST_SPECS)
        assert [r.spec.experiment_id for r in records] == [
            s.experiment_id for s in FAST_SPECS
        ]
        assert all(r.result.all_checks_pass for r in records)
        assert all(r.source == "serial" for r in records)
        assert executor.submissions == len(FAST_SPECS)

    def test_timing_recorded(self):
        records = ParallelExecutor(jobs=1).run([FAST_SPECS[0]])
        assert records[0].duration > 0.0
        assert not records[0].cached
        assert "FIG1" in records[0].describe()

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            ParallelExecutor(jobs=0)


class TestParallelExecution:
    def test_parallel_matches_serial_byte_for_byte(self):
        serial = ParallelExecutor(jobs=1).run(FAST_SPECS)
        parallel = ParallelExecutor(jobs=4).run(FAST_SPECS)
        assert [r.spec for r in parallel] == [r.spec for r in serial]
        for fast, slow in zip(parallel, serial):
            assert pickle.dumps(fast.result) == pickle.dumps(slow.result)

    def test_single_pending_spec_stays_serial(self):
        records = ParallelExecutor(jobs=4).run([FAST_SPECS[0]])
        assert records[0].source == "serial"


class TestCachedExecution:
    def test_warm_cache_needs_zero_submissions(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = ParallelExecutor(jobs=1, cache=cache)
        cold_records = cold.run(FAST_SPECS)
        assert cold.submissions == len(FAST_SPECS)

        warm = ParallelExecutor(jobs=2, cache=ResultCache(tmp_path))
        warm_records = warm.run(FAST_SPECS)
        assert warm.submissions == 0
        assert all(r.cached for r in warm_records)
        for cold_r, warm_r in zip(cold_records, warm_records):
            assert pickle.dumps(cold_r.result) == pickle.dumps(warm_r.result)

    def test_force_bypasses_cache_but_rewrites_it(self, tmp_path):
        cache = ResultCache(tmp_path)
        ParallelExecutor(jobs=1, cache=cache).run([FAST_SPECS[0]])
        forced = ParallelExecutor(jobs=1, cache=cache, force=True)
        records = forced.run([FAST_SPECS[0]])
        assert forced.submissions == 1
        assert not records[0].cached

    def test_changed_spec_misses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        ParallelExecutor(jobs=1, cache=cache).run([RunSpec.make("FIG2", t=16)])
        executor = ParallelExecutor(jobs=1, cache=cache)
        executor.run([RunSpec.make("FIG2", t=64)])
        assert executor.submissions == 1

    def test_corrupted_entry_recomputed_not_crashed(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = FAST_SPECS[0]
        ParallelExecutor(jobs=1, cache=cache).run([spec])
        cache.path_for(spec).write_bytes(b"corrupted beyond repair")
        executor = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
        records = executor.run([spec])
        assert executor.submissions == 1
        assert records[0].result.all_checks_pass
        # and the recomputed result healed the cache
        healed = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
        assert healed.run([spec])[0].cached

    def test_progress_callback_sees_every_record(self, tmp_path):
        seen: list[tuple[str, int, int]] = []
        executor = ParallelExecutor(
            jobs=1,
            cache=ResultCache(tmp_path),
            progress=lambda record, index, total: seen.append(
                (record.spec.experiment_id, index, total)
            ),
        )
        executor.run(FAST_SPECS[:2])
        assert sorted(seen) == [("FIG1", 0, 2), ("FIG2", 1, 2)]


class TestTelemetryCollection:
    def test_default_collects_nothing(self):
        records = ParallelExecutor(jobs=1).run([FAST_SPECS[0]])
        assert records[0].telemetry is None

    def test_executed_spec_carries_a_manifest(self):
        executor = ParallelExecutor(jobs=1, collect_telemetry=True)
        (record,) = executor.run([FAST_SPECS[0]])
        doc = record.telemetry
        assert doc is not None
        assert doc.run_id == "FIG1"
        assert doc.source == "serial"
        assert doc.wall_seconds > 0.0
        # the registry pipeline spans are present and nested under "run"
        (run_span,) = doc.spans
        assert run_span["name"] == "run"
        child_names = [c["name"] for c in run_span["children"]]
        assert child_names == ["spec/resolve", "spec/execute"]

    def test_cache_hit_carries_minimal_manifest(self, tmp_path):
        cache = ResultCache(tmp_path)
        ParallelExecutor(jobs=1, cache=cache).run([FAST_SPECS[0]])
        warm = ParallelExecutor(
            jobs=1, cache=ResultCache(tmp_path), collect_telemetry=True
        )
        (record,) = warm.run([FAST_SPECS[0]])
        doc = record.telemetry
        assert doc is not None
        assert doc.source == "cache"
        assert doc.counters == {}
        assert [s["name"] for s in doc.spans] == ["cache/lookup"]

    @pytest.mark.parametrize("engine", [None, "des"])
    def test_manifests_name_the_engine_in_scope(self, engine, tmp_path):
        """Executed and cache-hit manifests, and the ``executor/execute``
        span, name the engine the run took: ``batch`` outside any scope,
        ``des`` under ``use_engine("des")``."""
        recorder = FlightRecorder()
        with use_engine(engine), use_tracer(recorder):
            (executed,) = ParallelExecutor(
                jobs=1, cache=ResultCache(tmp_path), collect_telemetry=True
            ).run([FAST_SPECS[0]])
            # Cached without telemetry, so the hit builds its own manifest.
            ParallelExecutor(jobs=1, cache=ResultCache(tmp_path)).run(
                [FAST_SPECS[1]]
            )
            replayed, minimal = ParallelExecutor(
                jobs=1, cache=ResultCache(tmp_path), collect_telemetry=True
            ).run(FAST_SPECS[:2])
        expected = engine or "batch"
        assert [r.source for r in (executed, replayed, minimal)] == [
            "serial", "cache", "cache",
        ]
        assert [s["name"] for s in minimal.telemetry.spans] == [
            "cache/lookup"
        ]
        for record in (executed, replayed, minimal):
            assert record.telemetry.engine == expected
        spans = [
            event.data
            for event in recorder.events()
            if event.kind == "executor/execute"
        ]
        assert spans == [
            {"spec": "FIG1", "engine": expected},
            {"spec": "FIG2", "engine": expected},
        ]

    def test_pool_manifests_travel_back_by_pickle(self):
        executor = ParallelExecutor(jobs=2, collect_telemetry=True)
        records = executor.run(FAST_SPECS[:2])
        for record in records:
            assert record.telemetry is not None
            assert record.telemetry.run_id == record.spec.experiment_id
            assert record.telemetry.source in ("pool", "serial")

    def test_simulation_experiment_records_instruments(self):
        spec = RunSpec.make(
            "SIM-XI",
            root_seed=11,
            static_cases=((2, 8, 2),),
            time_cases=((2, 16, 2),),
            random_trials=1,
        )
        executor = ParallelExecutor(jobs=1, collect_telemetry=True)
        (record,) = executor.run([spec])
        doc = record.telemetry
        assert doc is not None
        assert doc.seed == 11
        assert doc.counters["slots/success"] > 0
        assert any(name.startswith("latency/") for name in doc.histograms)


class TestSpecResolution:
    def test_seed_injection_through_seed_param(self):
        from repro.experiments.registry import run_spec

        result = run_spec(
            RunSpec.make(
                "SIM-XI",
                root_seed=11,
                static_cases=((2, 8, 2),),
                time_cases=((2, 16, 2),),
                random_trials=1,
            )
        )
        assert result.all_checks_pass

    def test_seed_on_seedless_experiment_rejected(self):
        from repro.experiments.registry import run_spec

        with pytest.raises(ValueError, match="takes no seed"):
            run_spec(RunSpec.make("FIG1", root_seed=3))

    def test_unknown_experiment_rejected(self):
        from repro.experiments.registry import run_spec

        with pytest.raises(KeyError, match="unknown experiment"):
            run_spec(RunSpec.make("NOPE"))
