"""CLI: micro-benchmark the library's hot primitives.

Measures throughput (operations per second) of the same primitives the
pytest-benchmark suite under ``benchmarks/`` tracks — the xi DP table, the
divide-and-conquer recursion, the closed form, the reference search, one
feasibility-bound evaluation, and raw channel simulation slot rate on each
engine — and writes a machine-readable report::

    python -m repro.tools.bench                    # writes BENCH_micro.json
    python -m repro.tools.bench --smoke            # one quick pass per bench
    python -m repro.tools.bench --only channel_slot_rate_16
    python -m repro.tools.bench --output /tmp/bench.json

The report records the git revision and the engine each bench ran on, so
successive runs are comparable across commits (``BENCH_micro.json`` at the
repo root is the conventional landing spot; it is overwritten, not
appended).  Every write also appends one JSONL line to
``BENCH_history.jsonl`` next to the report (``--history`` overrides,
``--no-history`` skips), which the ``check --ci`` perf-trend gate reads:
it compares the current run against the median of the last N same-mode
history entries, so a gradual hot-path slowdown fails CI even when each
individual commit looks like noise.

``--smoke`` is the CI-sized variant (one repetition, smaller simulation
horizon); ``python -m repro.tools.check --ci`` runs it inline as a
perf-smoke step so throughput regressions surface next to correctness.

Timing: every bench runs one untimed warm-up pass, then ``repeats``
measured passes; the report carries both the best (min) and median
sample, and records the repeat count actually used.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import pathlib
import platform
import statistics
import sys
import time
import typing
from collections.abc import Callable

from repro.cliopts import execution_options
from repro.net.engine import default_engine, use_engine
from repro.obs.manifest import git_rev

__all__ = [
    "BENCHES",
    "BenchResult",
    "append_history",
    "history_entry",
    "load_history",
    "run_benches",
    "main",
]

_MS = 1_000_000


@dataclasses.dataclass(frozen=True)
class BenchResult:
    """One bench's outcome: best-of-N and median-of-N throughput.

    ``seconds``/``ops_per_sec`` are the best (minimum-time) sample —
    the least-noise estimate of what the code can do; the median pair
    is the robust estimate trend gates should compare.
    """

    name: str
    engine: str | None
    unit: str
    ops: float
    seconds: float
    ops_per_sec: float
    repeats: int
    median_seconds: float = 0.0
    median_ops_per_sec: float = 0.0

    def describe(self) -> str:
        engine = f" [{self.engine}]" if self.engine else ""
        line = (
            f"{self.name:<28}{engine:<11} "
            f"{self.ops_per_sec:>14,.0f} {self.unit}/s"
        )
        if self.repeats > 1:
            line += (
                f"  (median {self.median_ops_per_sec:,.0f}, "
                f"n={self.repeats})"
            )
        return line


#: The xi-table shape matrix: (m, n) with t = m**n leaves — two ~1024-leaf
#: shapes with different branching plus a ternary 729-leaf one, all above
#: the persistence threshold so the disk bench exercises real store hits.
_XI_SHAPES: tuple[tuple[int, int], ...] = ((2, 10), (3, 6), (4, 5))

_XI_DISK_DIR: "str | None" = None


def _xi_disk_store():
    """A process-lifetime temp-dir store for the warm-disk bench."""
    import atexit
    import shutil
    import tempfile

    from repro.core.xi_store import XiTableStore

    global _XI_DISK_DIR
    if _XI_DISK_DIR is None:
        _XI_DISK_DIR = tempfile.mkdtemp(prefix="repro-bench-xi-")
        atexit.register(shutil.rmtree, _XI_DISK_DIR, ignore_errors=True)
    return XiTableStore(_XI_DISK_DIR)


def _bench_xi_dp_table_cold(smoke: bool, seed: int = 0) -> tuple[float, str]:
    """Ground-truth DP over Eq. 1, every cache defeated.

    Clears the in-memory LRU and disables the persistent store, so each
    pass pays the full O(m t^2) DP for every shape — the rate a brand-new
    machine with a cleared ``.repro-cache`` would see."""
    from repro.core.search_cost import _cost_tuple
    from repro.core.xi_store import use_xi_store

    _cost_tuple.cache_clear()
    with use_xi_store(None):
        for m, n in _XI_SHAPES:
            table = _cost_tuple(m, n)
            assert table[2] > 0
    return float(len(_XI_SHAPES)), "tables"


def _bench_xi_dp_table_warm_mem(smoke: bool, seed: int = 0) -> tuple[float, str]:
    """The same shapes served from the in-memory LRU (steady-state rate)."""
    from repro.core.search_cost import _cost_tuple
    from repro.core.xi_store import use_xi_store

    loops = 50 if smoke else 300
    with use_xi_store(None):
        for _ in range(loops):
            for m, n in _XI_SHAPES:
                table = _cost_tuple(m, n)
        assert table[2] > 0
    return float(loops * len(_XI_SHAPES)), "tables"


def _bench_xi_dp_table_warm_disk(smoke: bool, seed: int = 0) -> tuple[float, str]:
    """The same shapes reloaded from the persistent store.

    Clears the LRU each pass so every lookup goes to disk — the rate a
    fresh process (sweep-shard worker, CLI invocation) sees once the
    machine's store is primed.  The untimed warm-up pass does the
    priming: its lookups miss, compute, and write."""
    from repro.core.search_cost import _cost_tuple
    from repro.core.xi_store import use_xi_store

    _cost_tuple.cache_clear()
    with use_xi_store(_xi_disk_store()):
        for m, n in _XI_SHAPES:
            table = _cost_tuple(m, n)
            assert table[2] > 0
    return float(len(_XI_SHAPES)), "tables"


#: Lazy (problems, medium, trees) for the feasibility-grid benches, built
#: once so the timed passes measure evaluation only, not instance setup.
_FEAS_GRID_CACHE: "dict[bool, tuple] | None" = None


def _feas_grid_workload(smoke: bool):
    from repro.core.feasibility import TreeParameters
    from repro.model.workloads import uniform_problem
    from repro.net.phy import GIGABIT_ETHERNET

    global _FEAS_GRID_CACHE
    if _FEAS_GRID_CACHE is None:
        _FEAS_GRID_CACHE = {}
    if smoke not in _FEAS_GRID_CACHE:
        scales = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
        deadlines = (2 * _MS, 4 * _MS, 8 * _MS) if smoke else (
            2 * _MS, 4 * _MS, 8 * _MS, 16 * _MS, 32 * _MS, 64 * _MS
        )
        problems = [
            uniform_problem(
                z=128, length=8_000, deadline=deadline, a=1, w=4 * _MS,
                scale=scale,
            )
            for deadline in deadlines
            for scale in scales
        ]
        trees = TreeParameters(
            time_f=64, time_m=4,
            static_q=problems[0].static_q, static_m=problems[0].static_m,
        )
        _FEAS_GRID_CACHE[smoke] = (problems, GIGABIT_ETHERNET, trees)
    return _FEAS_GRID_CACHE[smoke]


def _bench_feasibility_grid(smoke: bool, seed: int = 0) -> tuple[float, str]:
    """Batch FC evaluation of a deadline x scale grid (128 sources)."""
    from repro.core.feas_grid import check_feasibility_batch

    problems, medium, trees = _feas_grid_workload(smoke)
    reports = check_feasibility_batch(problems, medium, trees)
    assert all(report.classes for report in reports)
    return float(len(reports)), "reports"


def _bench_feasibility_grid_scalar(
    smoke: bool, seed: int = 0
) -> tuple[float, str]:
    """The same grid through scalar ``check_feasibility`` — the baseline
    the batch bench is measured against."""
    from repro.core.feasibility import check_feasibility

    problems, medium, trees = _feas_grid_workload(smoke)
    reports = [
        check_feasibility(problem, medium, trees) for problem in problems
    ]
    assert all(report.classes for report in reports)
    return float(len(reports)), "reports"


def _bench_divide_conquer_table(
    smoke: bool, seed: int = 0
) -> tuple[float, str]:
    """Eq. 2-4 route for the same 1024-leaf shape."""
    from repro.core.divide_conquer import _dc_tuple, divide_conquer_table

    _dc_tuple.cache_clear()
    table = divide_conquer_table(4, 1024)
    assert table[2] == 19
    return 1.0, "tables"


def _bench_closed_form_grid(smoke: bool, seed: int = 0) -> tuple[float, str]:
    """Eq. 10 evaluated over every k of a 4096-leaf binary tree."""
    from repro.core.closed_form import xi_closed_form

    t = 512 if smoke else 4096
    values = [xi_closed_form(k, t, 2) for k in range(t + 1)]
    assert values[2] > 0
    return float(t + 1), "evals"


def _bench_simulate_search(smoke: bool, seed: int = 0) -> tuple[float, str]:
    """Reference search semantics on a worst-case 64-of-256 placement."""
    from repro.core.search_cost import simulate_search, worst_case_placement

    placement = worst_case_placement(64, 256, 4)
    outcome = simulate_search(placement, 256, 4)
    assert outcome.cost > 0
    return float(outcome.total_slots), "slots"


def _bench_latency_bound(smoke: bool, seed: int = 0) -> tuple[float, str]:
    """One B_DDCR evaluation on a 16-source instance."""
    from repro.core.feasibility import TreeParameters, latency_bound
    from repro.model.workloads import uniform_problem
    from repro.net.phy import GIGABIT_ETHERNET

    problem = uniform_problem(z=16, deadline=10 * _MS, a=2, w=4 * _MS)
    trees = TreeParameters(
        time_f=64, time_m=4,
        static_q=problem.static_q, static_m=problem.static_m,
    )
    source = problem.sources[0]
    target = source.message_classes[0]
    bound = latency_bound(target, source, problem, GIGABIT_ETHERNET, trees)
    assert bound.bound > 0
    return 1.0, "bounds"


def _channel_slot_rate(
    stations: int,
    smoke: bool,
    monitors: bool = False,
    telemetry: bool = False,
    tracer: bool = False,
    seed: int = 0,
) -> tuple[float, str]:
    """DDCR simulation throughput, in channel rounds per second, on the
    ambient engine (:func:`run_benches` scopes each bench's)."""
    import contextlib

    from repro.model.workloads import uniform_problem
    from repro.net.network import NetworkSimulation, Scenario
    from repro.net.phy import ideal_medium
    from repro.protocols.ddcr import DDCRConfig, DDCRProtocol

    problem = uniform_problem(
        z=stations, length=1_000, deadline=400_000, a=1, w=200_000
    )
    config = DDCRConfig(
        time_f=16, time_m=2, class_width=65_536,
        static_q=problem.static_q, static_m=problem.static_m,
    )
    registry = recorder = None
    with contextlib.ExitStack() as scope:
        # The run records into the ambient registry and tracer (neither a
        # scenario nor a simulation takes one), so scope them around
        # build+run — the same way a traced serve session's counter-check
        # arms its recorder.
        if telemetry:
            from repro.obs.context import use_telemetry
            from repro.obs.instruments import Telemetry

            registry = scope.enter_context(use_telemetry(Telemetry()))
        if tracer:
            from repro.obs.context import use_tracer
            from repro.obs.tracer import FlightRecorder

            recorder = scope.enter_context(use_tracer(FlightRecorder()))
        simulation = NetworkSimulation.from_scenario(
            Scenario(
                problem=problem,
                medium=ideal_medium(slot_time=64),
                protocol_factory=lambda s: DDCRProtocol(config),
                root_seed=seed,
                monitors=monitors,
            )
        )
        result = simulation.run(200_000 if smoke else 1_000_000)
    assert result.delivered > 0
    if monitors:
        assert result.invariants is not None and result.invariants.ok
    if registry is not None:
        assert registry.counter("slots/success").value > 0
    if tracer:
        assert recorder is not None and recorder.emitted > 0
    return float(result.stats.rounds), "rounds"


def _make_slot_rate_bench(
    stations: int,
) -> "Callable[[bool, int], tuple[float, str]]":
    return lambda smoke, seed=0: _channel_slot_rate(
        stations, smoke, seed=seed
    )


#: Lazy warm admission service (128 classes full-size, 32 smoke) plus a
#: monotone request-seq counter, so the timed passes measure decisions
#: only, not bootstrap.  Keyed by smoke like ``_FEAS_GRID_CACHE``.
_SERVE_CACHE: "dict[bool, list] | None" = None


def _serve_problem(smoke: bool):
    from repro.model.workloads import uniform_problem

    # Comfortably feasible at z classes so churn rejoins always re-admit
    # (a reject would shrink the set and change what later passes time).
    return uniform_problem(
        z=32 if smoke else 128, length=8_000, deadline=96 * _MS, a=1,
        w=48 * _MS,
    )


def _serve_bootstrap(problem, next_seq: int = 0):
    """A service with every class of ``problem`` admitted through the
    normal join path; returns ``(service, next_seq)``."""
    from repro.serve.model import Request
    from repro.serve.service import AdmissionService, ServeConfig

    service = AdmissionService(ServeConfig(static_q=problem.static_q))
    for source in problem.sources:
        for msg in source.message_classes:
            decision = service.handle(Request(
                seq=next_seq, kind="join", source_id=source.source_id,
                name=msg.name, nu=source.nu, length=msg.length,
                deadline=msg.deadline, a=msg.bound.a, w=msg.bound.w,
            ))
            assert decision.verdict == "admit", decision.reason
            next_seq += 1
    return service, next_seq


def _serve_workload(smoke: bool):
    global _SERVE_CACHE
    if _SERVE_CACHE is None:
        _SERVE_CACHE = {}
    if smoke not in _SERVE_CACHE:
        problem = _serve_problem(smoke)
        service, next_seq = _serve_bootstrap(problem)
        _SERVE_CACHE[smoke] = [problem, service, next_seq]
    return _SERVE_CACHE[smoke]


def _bench_admission_decisions(
    smoke: bool, seed: int = 0
) -> tuple[float, str]:
    """Steady-state admit/reject throughput at the 128-class point.

    Mass-conserving churn against the prebuilt warm service: half the
    sources leave and immediately rejoin (full remove + add + feasibility
    consult each), a quarter renegotiate their bound in place — so every
    pass starts and ends at the identical 128-class state and passes are
    comparable."""
    from repro.serve.model import Request

    state = _serve_workload(smoke)
    problem, service, next_seq = state
    sources = problem.sources
    half = len(sources) // 2
    decisions = 0
    for source in sources[:half]:
        msg = source.message_classes[0]
        for request in (
            Request(seq=next_seq, kind="leave",
                    source_id=source.source_id, name=msg.name),
            Request(seq=next_seq + 1, kind="join",
                    source_id=source.source_id, name=msg.name, nu=source.nu,
                    length=msg.length, deadline=msg.deadline,
                    a=msg.bound.a, w=msg.bound.w),
        ):
            assert service.handle(request).applied
            next_seq += 1
            decisions += 1
    for source in sources[half:half + half // 2]:
        msg = source.message_classes[0]
        request = Request(seq=next_seq, kind="rescale",
                          source_id=source.source_id, name=msg.name,
                          a=msg.bound.a, w=msg.bound.w)
        assert service.handle(request).verdict == "admit"
        next_seq += 1
        decisions += 1
    state[2] = next_seq
    return float(decisions), "decisions"


def _bench_admission_bootstrap_cold(
    smoke: bool, seed: int = 0
) -> tuple[float, str]:
    """Cold tier: a fresh service admitting the whole 128-class roster.

    Each pass rebuilds the service from nothing and pays the per-join
    incremental feasibility consult at every intermediate size — the rate
    an operator sees bringing a city segment up from empty."""
    problem = _serve_problem(smoke)
    service, next_seq = _serve_bootstrap(problem)
    assert service.class_count == len(problem.sources)
    return float(next_seq), "decisions"


def _bench_invariant_overhead(smoke: bool, seed: int = 0) -> tuple[float, str]:
    """The 16-station ``des`` workload, where every round is stepped, with
    the standard monitor suite armed; compare against
    ``channel_slot_rate_16_des`` (the same workload, monitors off) for the
    per-round cost of online invariant checking."""
    return _channel_slot_rate(16, smoke, monitors=True, seed=seed)


def _bench_telemetry_overhead(smoke: bool, seed: int = 0) -> tuple[float, str]:
    """The 16-station ``des`` workload with a live telemetry registry
    (slot counters plus per-class latency histograms recording every
    round); compare against ``channel_slot_rate_16_des`` for the
    per-round cost of enabled telemetry.  The disabled case needs no
    bench of its own: ``channel_slot_rate_16_des`` *is* the
    NULL_TELEMETRY path."""
    return _channel_slot_rate(16, smoke, telemetry=True, seed=seed)


def _bench_tracer_overhead(smoke: bool, seed: int = 0) -> tuple[float, str]:
    """The 16-station ``des`` workload with an armed flight recorder
    (one ``channel/slot`` event per busy slot, and one ``channel/idle``
    event per run of silent slots, grown in place); compare against
    ``channel_slot_rate_16_des`` for the per-round cost of enabled
    tracing.  As with telemetry, the disabled case *is* the baseline
    bench — the NULL_TRACER hoisted gate."""
    return _channel_slot_rate(16, smoke, tracer=True, seed=seed)


def _bench_fabric_end_to_end(smoke: bool, seed: int = 0) -> tuple[float, str]:
    """Staged fabric throughput: a 4-segment bridged DDCR chain, 64
    local stations per segment, in channel rounds per second summed
    over the segments.  Measures the whole staged pipeline — per-segment
    runs (batch kernel eligible), bridge journaling and journey
    matching — so regressions anywhere in the fabric path surface here."""
    from repro.experiments.harness import build_chain_topology
    from repro.net.fabric import Fabric
    from repro.net.phy import ideal_medium

    topology, _ = build_chain_topology(
        segments=4,
        z=64,
        medium=ideal_medium(slot_time=64),
        deadline=2_000_000,
        a=1,
        w=1_000_000,
        forwarding_latency=2_048,
        root_seed=seed,
    )
    result = Fabric(topology).run(1_000_000 if smoke else 4_000_000)
    assert result.delivered(), "no journey traversed the chain"
    rounds = sum(seg.stats.rounds for seg in result.segments.values())
    return float(rounds), "rounds"


#: name -> (engine or None, bench callable).  A bench callable performs one
#: measured operation batch — ``(smoke, seed)`` in, ``(ops_done, unit)``
#: out; analytic benches ignore the seed.
BENCHES: dict[
    str, tuple[str | None, Callable[[bool, int], tuple[float, str]]]
] = {
    # Cold vs warm on the same shape matrix: the spread is the payoff of
    # the cache tiers (warm_mem = LRU hit, warm_disk = persistent-store
    # reload in a fresh process).
    "xi_dp_table_cold": (None, _bench_xi_dp_table_cold),
    "xi_dp_table_warm_mem": (None, _bench_xi_dp_table_warm_mem),
    "xi_dp_table_warm_disk": (None, _bench_xi_dp_table_warm_disk),
    "divide_conquer_table": (None, _bench_divide_conquer_table),
    "closed_form_grid": (None, _bench_closed_form_grid),
    "simulate_search": (None, _bench_simulate_search),
    "latency_bound": (None, _bench_latency_bound),
    "feasibility_grid": (None, _bench_feasibility_grid),
    "feasibility_grid_scalar": (None, _bench_feasibility_grid_scalar),
    # Admission service: cold bootstrap vs steady-state churn on the same
    # 128-class operating point (the serve layer's headline rate).
    "admission_bootstrap_cold": (None, _bench_admission_bootstrap_cold),
    "admission_decisions_per_sec": (None, _bench_admission_decisions),
    # The scaling story in one grid: per-station Python call overhead
    # makes the per-slot des degrade linearly in z, while the batch
    # kernel's struct-of-arrays slot stays near-constant — the 64/256
    # sizes exist to keep that claim measured, not asserted.
    **{
        f"channel_slot_rate_{stations}_{engine}": (
            engine,
            _make_slot_rate_bench(stations),
        )
        for stations in (4, 16, 64, 256)
        for engine in ("des", "batch")
    },
    # Instrument overheads on des, where every round is stepped (a
    # leaping engine would time its leaps instead).
    "invariant_overhead": ("des", _bench_invariant_overhead),
    "telemetry_overhead": ("des", _bench_telemetry_overhead),
    "tracer_overhead": ("des", _bench_tracer_overhead),
    # End-to-end fabric throughput: the staged multi-segment pipeline
    # (4 bridged segments x 64 stations) including bridge bookkeeping.
    "fabric_end_to_end": (None, _bench_fabric_end_to_end),
}


def run_benches(
    names: list[str] | None = None,
    smoke: bool = False,
    repeats: int | None = None,
    seed: int = 0,
    telemetry_sink: "list | None" = None,
) -> list[BenchResult]:
    """Run the selected benches; best-of-``repeats`` throughput each.

    ``seed`` feeds the simulation benches' ``root_seed`` (analytic
    benches ignore it).  When ``telemetry_sink`` is a list, every bench
    runs under a fresh ambient telemetry registry and one
    :class:`~repro.obs.manifest.RunTelemetry` manifest per bench is
    appended to it — note the armed instruments then contribute to the
    measured time.
    """
    selected = list(BENCHES) if not names else names
    unknown = [name for name in selected if name not in BENCHES]
    if unknown:
        raise KeyError(
            f"unknown bench(es): {', '.join(unknown)} "
            f"(known: {', '.join(BENCHES)})"
        )
    if repeats is None:
        repeats = 1 if smoke else 3
    results: list[BenchResult] = []
    for name in selected:
        engine, bench = BENCHES[name]
        registry = None
        scope: typing.ContextManager = contextlib.nullcontext()
        if telemetry_sink is not None:
            from repro.obs.context import use_telemetry
            from repro.obs.instruments import Telemetry

            registry = Telemetry()
            scope = use_telemetry(registry)
        with use_engine(engine), scope:
            bench(smoke, seed)  # warm-up: fill caches, import lazily
            samples: list[float] = []
            ops = 0.0
            unit = "ops"
            for _ in range(repeats):
                started = time.perf_counter()
                ops, unit = bench(smoke, seed)
                samples.append(time.perf_counter() - started)
        best_seconds = min(samples)
        if registry is not None and telemetry_sink is not None:
            from repro.obs.manifest import RunTelemetry

            telemetry_sink.append(
                RunTelemetry.from_registry(
                    registry,
                    run_id=f"bench/{name}",
                    engine=engine,
                    seed=seed,
                    source="bench",
                    wall_seconds=sum(samples),
                )
            )
        median_seconds = statistics.median(samples)
        results.append(
            BenchResult(
                name=name,
                engine=engine,
                unit=unit,
                ops=ops,
                seconds=best_seconds,
                ops_per_sec=ops / best_seconds if best_seconds > 0 else 0.0,
                repeats=repeats,
                median_seconds=median_seconds,
                median_ops_per_sec=(
                    ops / median_seconds if median_seconds > 0 else 0.0
                ),
            )
        )
    return results


def _default_output() -> pathlib.Path:
    """``BENCH_micro.json`` at the repo root (fallback: current directory)."""
    root = pathlib.Path(__file__).resolve().parents[3]
    if (root / "src" / "repro").is_dir():
        return root / "BENCH_micro.json"
    return pathlib.Path.cwd() / "BENCH_micro.json"


def report_payload(
    results: list[BenchResult], smoke: bool
) -> dict[str, object]:
    """The JSON document ``BENCH_micro.json`` holds."""
    return {
        "schema": 1,
        "git_rev": git_rev(),
        "python": platform.python_version(),
        "default_engine": default_engine(),
        "smoke": smoke,
        "benches": [dataclasses.asdict(result) for result in results],
    }


def history_entry(results: list[BenchResult], smoke: bool) -> dict[str, object]:
    """One JSONL history line: provenance plus per-bench throughput.

    ``benches`` maps name to the *median* ops/sec — the robust sample the
    perf-trend gate medians again across entries — with the best sample
    kept alongside for inspection.
    """
    return {
        "schema": 1,
        "time": time.time(),
        "git_rev": git_rev(),
        "smoke": smoke,
        "benches": {
            result.name: {
                "ops_per_sec": result.median_ops_per_sec or result.ops_per_sec,
                "best_ops_per_sec": result.ops_per_sec,
                "repeats": result.repeats,
            }
            for result in results
        },
    }


def append_history(
    path: str | pathlib.Path, entry: dict[str, object]
) -> None:
    """Append one run's entry to the JSONL history file."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def load_history(path: str | pathlib.Path) -> list[dict]:
    """All history entries, oldest first; missing file -> empty, and
    unparsable lines are skipped (a truncated append must not brick CI)."""
    entries: list[dict] = []
    try:
        handle = open(path, encoding="utf-8")
    except OSError:
        return entries
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict):
                entries.append(entry)
    return entries


def default_history_path() -> pathlib.Path:
    """``BENCH_history.jsonl`` next to the default report location."""
    return _default_output().parent / "BENCH_history.jsonl"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.bench",
        description="Micro-benchmark the library's hot primitives.",
        parents=[execution_options()],
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="NAME",
        help="run only this bench (repeatable); default: all",
    )
    parser.add_argument(
        "--list", action="store_true", help="list bench names and exit"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized pass: one repetition, smaller workloads",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        metavar="N",
        help="repetitions per bench (default: 3, or 1 with --smoke)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="report path (default: BENCH_micro.json at the repo root)",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print results only; do not write the report file",
    )
    parser.add_argument(
        "--history",
        metavar="FILE",
        default=None,
        help=(
            "JSONL history file each run appends to (default: "
            "BENCH_history.jsonl next to the report)"
        ),
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="do not append this run to the history file",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        for name, (engine, _) in BENCHES.items():
            suffix = f"  (engine: {engine})" if engine else ""
            print(f"{name}{suffix}")
        return 0
    if args.repeats is not None and args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")
    if args.jobs > 1:
        # Shared flag, bench-specific semantics: concurrent benches
        # would time each other's scheduler noise.
        print(
            "benches are timing-sensitive and always run serially; "
            "ignoring --jobs",
            file=sys.stderr,
        )
    telemetry_sink: list | None = (
        [] if args.telemetry is not None else None
    )
    try:
        with use_engine(args.engine):
            results = run_benches(
                names=args.only,
                smoke=args.smoke,
                repeats=args.repeats,
                seed=args.seed if args.seed is not None else 0,
                telemetry_sink=telemetry_sink,
            )
    except KeyError as error:
        parser.error(str(error.args[0]))
    for result in results:
        print(result.describe())
    if telemetry_sink is not None:
        from repro.obs.manifest import write_manifests

        written = write_manifests(args.telemetry, telemetry_sink)
        print(
            f"wrote {written} telemetry manifest(s) to {args.telemetry}",
            file=sys.stderr,
        )
    if not args.no_write:
        output = (
            pathlib.Path(args.output)
            if args.output is not None
            else _default_output()
        )
        output.write_text(
            json.dumps(report_payload(results, args.smoke), indent=2) + "\n"
        )
        print(f"wrote {output}", file=sys.stderr)
        if telemetry_sink is not None and not args.no_history:
            # Armed instruments skew throughput; keep such runs out of
            # the history the perf-trend gate medians over.
            print(
                "telemetry-armed run: not appending to bench history",
                file=sys.stderr,
            )
        elif not args.no_history:
            history = (
                pathlib.Path(args.history)
                if args.history is not None
                else output.parent / "BENCH_history.jsonl"
            )
            append_history(history, history_entry(results, args.smoke))
            print(f"appended to {history}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
