"""Engine choice is execution strategy, not result identity.

The engines are proven result-equivalent (tests/net/test_engine_differential),
so a RunSpec names no engine: the run takes the ambient one
(``use_engine``), a result cached under one engine satisfies the same spec
under any other, and ``--engine`` can never silently invalidate a warm
cache.
"""

from __future__ import annotations

import concurrent.futures
import functools
import multiprocessing
import pickle

import pytest

from repro.net.engine import default_engine, use_engine
from repro.runtime import ParallelExecutor, ResultCache, RunSpec
from repro.runtime import executor as executor_module


def test_warm_cache_hits_regardless_of_engine(tmp_path):
    """Cold run on one engine; the other engine replays from cache."""
    cold = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
    with use_engine("des"):
        cold_records = cold.run([RunSpec.make("FIG2", t=16)])
    assert cold.submissions == 1

    warm = ParallelExecutor(jobs=1, cache=ResultCache(tmp_path))
    with use_engine("batch"):
        warm_records = warm.run([RunSpec.make("FIG2", t=16)])
    assert warm.submissions == 0
    assert warm_records[0].cached
    assert pickle.dumps(warm_records[0].result) == pickle.dumps(
        cold_records[0].result
    )


def test_run_spec_results_identical_across_engines():
    """Executing the same spec under each engine yields equal results."""
    from repro.experiments.registry import run_spec

    spec = RunSpec.make("FIG2", t=16)
    with use_engine("des"):
        des = run_spec(spec)
    with use_engine("batch"):
        batch = run_spec(spec)
    assert pickle.dumps(des) == pickle.dumps(batch)


def _engine_in_worker(spec, collect_telemetry):
    """Stands in for ``execute_spec`` in a pool worker: the engine the
    worker's simulations would run on."""
    return default_engine(), 0.0, None


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_pool_workers_run_on_the_engine_in_scope(method, monkeypatch):
    """Only forked workers inherit the parent's ``use_engine`` scope; the
    pool hands workers started by ``spawn`` (macOS's default) or
    ``forkserver`` (Linux's from Python 3.14) the engine in scope too, so
    ``--engine des --jobs 2`` runs every spec on ``des``."""
    monkeypatch.setattr(
        concurrent.futures,
        "ProcessPoolExecutor",
        functools.partial(
            concurrent.futures.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context(method),
        ),
    )
    monkeypatch.setattr(executor_module, "execute_spec", _engine_in_worker)
    specs = [RunSpec.make("FIG2", t=t) for t in (8, 16)]
    with use_engine("des"):
        records = ParallelExecutor(jobs=2).run(specs)
    assert [record.source for record in records] == ["pool", "pool"]
    assert [record.result for record in records] == ["des", "des"]
