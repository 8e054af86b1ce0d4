"""Fan independent RunSpecs out over worker processes, cache-aware.

The executor is the single path every experiment run takes — the CLI, the
benchmark suite and the CI fast-path all resolve results through it:

* cache lookup first (unless forced), so warm suites cost no simulation;
* misses execute on a :class:`concurrent.futures.ProcessPoolExecutor`
  when ``jobs > 1``, serially otherwise, with automatic serial fallback
  when a pool cannot be created (restricted environments);
* results come back in **input order** regardless of completion order,
  so parallel runs are byte-identical to sequential ones;
* every run yields a :class:`RunRecord` carrying wall-clock timing and
  provenance (cached / serial / pool), surfaced by the CLI as progress.

``ParallelExecutor.submissions`` counts specs that actually executed
(i.e. cache misses); a warm-cache suite must leave it at zero.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
import sys
import time
import typing
from collections.abc import Callable, Sequence

from repro.obs.context import current_tracer, use_telemetry
from repro.obs.instruments import Telemetry
from repro.obs.manifest import RunTelemetry, fault_plan_hash, git_rev
from repro.runtime.cache import ResultCache
from repro.runtime.spec import RunSpec

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.base import ExperimentResult

__all__ = ["ParallelExecutor", "RunRecord", "execute_spec"]

#: Where a record's result came from.
SOURCE_CACHE = "cache"
SOURCE_SERIAL = "serial"
SOURCE_POOL = "pool"


@dataclasses.dataclass
class RunRecord:
    """One resolved spec: the result plus timing/provenance metadata."""

    spec: RunSpec
    result: "ExperimentResult"
    duration: float
    source: str
    #: Per-run telemetry manifest (:mod:`repro.obs`); collected when the
    #: executor was built with ``collect_telemetry=True``, else ``None``.
    #: Cache hits replay the manifest stored with the entry when the
    #: original run collected one, and fall back to a minimal manifest
    #: (provenance + the lookup span) otherwise.
    telemetry: RunTelemetry | None = None

    @property
    def cached(self) -> bool:
        return self.source == SOURCE_CACHE

    def describe(self) -> str:
        """One progress line: id, outcome, timing, provenance."""
        checks = "ok" if self.result.all_checks_pass else "FAILED CHECKS"
        return (
            f"{self.spec.experiment_id:<12} {checks:<13} "
            f"{self.duration:8.3f}s  [{self.source}]"
        )


def execute_spec(
    spec: RunSpec, collect_telemetry: bool = False
) -> "tuple[ExperimentResult, float, RunTelemetry | None]":
    """Run one spec to completion; top-level so worker processes can
    pickle it.  Returns the result, its wall-clock duration, and — when
    ``collect_telemetry`` is set — a :class:`RunTelemetry` manifest.

    Telemetry collection scopes a fresh registry as ambient for the
    whole execution (:func:`repro.obs.context.use_telemetry`), so every
    simulation the experiment builds records into one document; the
    registry adds ``spec/resolve`` / ``spec/execute`` spans around the
    runner (:func:`repro.experiments.registry.run_spec`).  The manifest
    and the ``executor/execute`` span name the engine in scope
    (:func:`repro.net.engine.default_engine`), the one the run took.
    """
    from repro.experiments.registry import run_spec
    from repro.net.engine import default_engine

    started = time.perf_counter()
    engine = default_engine()
    # The ambient flight recorder (if any) gets one span per execution;
    # simulations built inside pick the same recorder up at construction,
    # so their slot events parent under this span.  NULL_TRACER's span is
    # a no-op, and this is per-spec (not per-slot), so no gate is hoisted.
    tracer = current_tracer()
    if not collect_telemetry:
        with tracer.span(
            "executor/execute", spec=spec.experiment_id, engine=engine
        ):
            result = run_spec(spec)
        return result, time.perf_counter() - started, None
    telemetry = Telemetry()
    with use_telemetry(telemetry), telemetry.span("run"), tracer.span(
        "executor/execute", spec=spec.experiment_id, engine=engine
    ):
        result = run_spec(spec)
    duration = time.perf_counter() - started
    manifest = RunTelemetry.from_registry(
        telemetry,
        run_id=spec.experiment_id,
        engine=engine,
        seed=spec.root_seed,
        faults=spec.faults,
        source=SOURCE_SERIAL,
        wall_seconds=duration,
    )
    return result, duration, manifest


def _worker_init(extra_path: str, engine: str) -> None:
    """Make ``repro`` importable in spawned workers and run them on the
    engine in scope when the pool started (fork inherits both, spawn and
    forkserver neither)."""
    if extra_path not in sys.path:
        sys.path.insert(0, extra_path)
    from repro.net.engine import set_default_engine

    set_default_engine(engine)


class ParallelExecutor:
    """Resolve RunSpecs through the cache, fanning misses out to workers."""

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        force: bool = False,
        progress: Callable[[RunRecord, int, int], None] | None = None,
        collect_telemetry: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache
        self.force = force
        self.progress = progress
        #: When set, every record carries a :class:`RunTelemetry` manifest
        #: (cache hits get a minimal provenance-only document).
        self.collect_telemetry = collect_telemetry
        #: Specs actually executed (cache misses) over this executor's life.
        self.submissions = 0

    def run(self, specs: Sequence[RunSpec]) -> list[RunRecord]:
        """Resolve every spec; records come back in input order."""
        specs = list(specs)
        total = len(specs)
        records: list[RunRecord | None] = [None] * total
        pending: list[tuple[int, RunSpec]] = []
        tracer = current_tracer()
        for index, spec in enumerate(specs):
            cached = None
            lookup_started = time.perf_counter()
            if self.cache is not None and not self.force:
                cached = self.cache.get_entry(spec)
            lookup_seconds = time.perf_counter() - lookup_started
            if cached is not None:
                if tracer.enabled:
                    tracer.emit(
                        "executor/cache_hit", spec=spec.experiment_id
                    )
                manifest = None
                if self.collect_telemetry:
                    if cached.telemetry is not None:
                        # The original run collected telemetry: replay the
                        # stored document.  Only provenance is rewritten
                        # (source/wall time are excluded from the content
                        # projection), so a cache hit reproduces the cold
                        # run's instruments byte-identically — what lets
                        # resumed sweep campaigns rebuild their roll-ups
                        # without re-simulating.
                        manifest = RunTelemetry.from_dict(cached.telemetry)
                        manifest.source = SOURCE_CACHE
                        manifest.wall_seconds = lookup_seconds
                    else:
                        manifest = self._cache_hit_manifest(
                            spec, lookup_seconds
                        )
                record = RunRecord(
                    spec=spec,
                    result=cached.result,
                    duration=0.0,
                    source=SOURCE_CACHE,
                    telemetry=manifest,
                )
                records[index] = record
                self._report(record, index, total)
            else:
                pending.append((index, spec))
        self.submissions += len(pending)
        if pending:
            if self.jobs > 1 and len(pending) > 1:
                executed = self._run_pool(pending, total)
            else:
                executed = self._run_serial(pending, total)
            for index, record in executed:
                records[index] = record
        assert all(record is not None for record in records)
        return typing.cast("list[RunRecord]", records)

    # -- execution strategies ----------------------------------------------

    def _run_serial(
        self, pending: list[tuple[int, RunSpec]], total: int
    ) -> list[tuple[int, RunRecord]]:
        out: list[tuple[int, RunRecord]] = []
        for index, spec in pending:
            result, duration, manifest = execute_spec(
                spec, self.collect_telemetry
            )
            out.append(
                (
                    index,
                    self._finish(
                        spec, result, duration, SOURCE_SERIAL, index, total,
                        manifest,
                    ),
                )
            )
        return out

    def _run_pool(
        self, pending: list[tuple[int, RunSpec]], total: int
    ) -> list[tuple[int, RunRecord]]:
        from repro.net.engine import default_engine

        package_parent = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        try:
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=min(self.jobs, len(pending)),
                initializer=_worker_init,
                initargs=(package_parent, default_engine()),
            )
        except (OSError, ValueError, NotImplementedError):
            # Restricted environments (no /dev/shm, no fork): stay correct.
            return self._run_serial(pending, total)
        out: list[tuple[int, RunRecord]] = []
        try:
            with pool:
                futures = {
                    pool.submit(
                        execute_spec, spec, self.collect_telemetry
                    ): (index, spec)
                    for index, spec in pending
                }
                for future in concurrent.futures.as_completed(futures):
                    index, spec = futures[future]
                    result, duration, manifest = future.result()
                    out.append(
                        (
                            index,
                            self._finish(
                                spec, result, duration, SOURCE_POOL, index,
                                total, manifest,
                            ),
                        )
                    )
        except concurrent.futures.process.BrokenProcessPool:
            # A worker died (OOM, signal). Redo the whole batch serially
            # rather than guessing which futures completed.
            return self._run_serial(pending, total)
        return out

    # -- bookkeeping --------------------------------------------------------

    def _cache_hit_manifest(
        self, spec: RunSpec, lookup_seconds: float
    ) -> RunTelemetry:
        """A minimal manifest for a cache hit with no stored telemetry.

        The only span is the cache lookup itself — the original run
        collected nothing — so diffing a cold manifest against a warm
        one shows the full simulation time collapsing into
        ``cache/lookup``.  Its engine is the one in scope, as on a
        manifest the executor collects.
        """
        from repro.net.engine import default_engine

        return RunTelemetry(
            run_id=spec.experiment_id,
            engine=default_engine(),
            seed=spec.root_seed,
            git_rev=git_rev(),
            fault_plan=fault_plan_hash(spec.faults),
            source=SOURCE_CACHE,
            wall_seconds=lookup_seconds,
            spans=[
                {
                    "name": "cache/lookup",
                    "calls": 1,
                    "seconds": lookup_seconds,
                }
            ],
        )

    def _finish(
        self,
        spec: RunSpec,
        result: "ExperimentResult",
        duration: float,
        source: str,
        index: int,
        total: int,
        manifest: RunTelemetry | None = None,
    ) -> RunRecord:
        if manifest is not None:
            manifest.source = source
        if self.cache is not None:
            self.cache.put(
                spec,
                result,
                duration,
                telemetry=manifest.to_dict() if manifest is not None else None,
            )
        record = RunRecord(
            spec=spec,
            result=result,
            duration=duration,
            source=source,
            telemetry=manifest,
        )
        self._report(record, index, total)
        return record

    def _report(self, record: RunRecord, index: int, total: int) -> None:
        if self.progress is not None:
            self.progress(record, index, total)
