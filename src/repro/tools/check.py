"""CLI: check an HRTDM instance's feasibility conditions.

The operator workflow the paper envisions (section 2.2: "By computing the
FCs, it is possible to tell whether or not any quantified instantiation of
the HRTDM problem is feasible with our solution"):

    python -m repro.tools.check instance.json
    python -m repro.tools.check instance.json --medium classic-ethernet
    python -m repro.tools.check instance.json --time-f 256 --time-m 4
    python -m repro.tools.check instance.json --simulate 40

Exit status 0 when feasible, 2 when not (1 on usage errors), so the tool
composes with CI pipelines that gate configuration changes.

``--ci`` is the repo's fast-path health check instead of an instance::

    python -m repro.tools.check --ci --jobs 4

It imports every module under ``repro`` (catching syntax/import rot) and
resolves the full experiment suite through the parallel runtime — cached
results replay from ``.repro-cache``, so a no-change run is near-instant.
Then it runs every row of :data:`STEPS`, in order:

* ``invariants`` — one faulted scenario per protocol with online
  invariant monitors (:mod:`repro.sim.invariants`), plus clean and
  consistency-checked monitored DDCR runs, a checked noisy DCR run and
  a checked dual-bus failover, each re-run on the per-slot ``des``,
  which must match the default engine exactly;
* ``obs`` — one telemetry-collecting run, then a ``repro.tools.obs``
  ``summarize`` + ``diff`` round-trip over its manifest;
* ``sweep`` — a 4-point campaign run cold, then resumed with zero
  resubmissions and a byte-identical aggregate (:mod:`repro.sweep`);
* ``serve`` — a short admission trace served with counter-checks and
  replayed byte-identically (:mod:`repro.serve`);
* ``obs2`` — a traced serve session: a connected flight-recorder dump,
  a consistent Prometheus snapshot and delta stream, and one latched
  ``slo-breach`` incident with a black box (:mod:`repro.obs`);
* ``perf`` — one quick pass of the micro benchmarks
  (:mod:`repro.tools.bench` ``--smoke``), gated against the median of
  the last :data:`TREND_WINDOW` smoke entries of the bench history
  (``--history``, default ``BENCH_history.jsonl``): a drop of more than
  :data:`TREND_THRESHOLD` percent fails.  Absolute numbers stay
  informational; each run is appended to the history afterwards.

Each row takes the shared :class:`CIContext` and returns failure lines;
a row that raises fails with its traceback on stderr.  Every row always
runs; one that needs the result cache decides from ``context.cache_dir``,
which is ``None`` under ``--no-cache``.  ``FAILED <row>: <line>`` goes to
stderr for each failure, and the exit status is 2 if there is any, else
0 with ``verdict: OK``.  The rows' checks are deliberately end to end;
unit-level parity (feasibility kernels, the fabric's composed bound)
lives in the test suite.

The common execution flags (``--jobs``, ``--seed``, ``--engine``,
``--telemetry``) and cache flags (``--cache-dir``, ``--no-cache``,
``--force``) are shared parent parsers (:mod:`repro.cliopts`), spelled
identically across every repro CLI.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import os
import pkgutil
import statistics
import sys
import tempfile
import traceback
from collections.abc import Callable

from repro.analysis.metrics import summarize
from repro.analysis.report import format_table
from repro.cliopts import cache_options, execution_options, validate_jobs
from repro.core.feas_grid import check_feasibility_batch
from repro.core.feasibility import TreeParameters
from repro.model.serialize import load_problem
from repro.net.engine import use_engine
from repro.net.phy import GIGABIT_ETHERNET, MEDIA
from repro.runtime import ParallelExecutor, ResultCache, RunSpec

_MS = 1_000_000


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.check",
        description="Evaluate HRTDM feasibility conditions (B_DDCR <= d).",
        parents=[execution_options(), cache_options()],
    )
    parser.add_argument(
        "instance", nargs="?", default=None, help="JSON instance file"
    )
    parser.add_argument(
        "--ci",
        action="store_true",
        help="repo health fast-path: import all modules, run the suite",
    )
    parser.add_argument(
        "--history",
        metavar="FILE",
        default=None,
        help=(
            "bench history file for the perf-trend gate (default: "
            "BENCH_history.jsonl at the repo root)"
        ),
    )
    parser.add_argument(
        "--medium",
        choices=sorted(MEDIA),
        default=GIGABIT_ETHERNET.name,
        help="broadcast medium profile",
    )
    parser.add_argument(
        "--time-f", type=int, default=64, help="time tree leaves F"
    )
    parser.add_argument(
        "--time-m", type=int, default=4, help="time tree branching degree"
    )
    parser.add_argument(
        "--simulate",
        type=float,
        default=0.0,
        metavar="MS",
        help="also run CSMA/DDCR under peak load for MS milliseconds",
    )
    return parser


def _import_all_modules() -> list[str]:
    """Import every module under ``repro``; returns the failures."""
    import repro

    failures: list[str] = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        try:
            importlib.import_module(info.name)
        except Exception as error:  # noqa: BLE001 - report, don't die
            failures.append(f"{info.name}: {error}")
    return failures


#: The ``perf`` row medians the last ``TREND_WINDOW`` smoke entries of the
#: bench history and fails a bench more than ``TREND_THRESHOLD`` percent
#: below that median.
TREND_WINDOW = 5
TREND_THRESHOLD = 30.0


@dataclasses.dataclass(frozen=True)
class CIContext:
    """What every ``--ci`` row may read."""

    jobs: int
    seed: int | None
    #: Bench history file the ``perf`` row gates against and appends to.
    history: str | os.PathLike[str]
    #: Result-cache directory; ``None`` under ``--no-cache``.
    cache_dir: str | None

    def result_cache(self) -> ResultCache | None:
        """A fresh handle on the result cache, ``None`` without one."""
        return None if self.cache_dir is None else ResultCache(self.cache_dir)


#: Invariants-smoke geometry: long enough for several full collision
#: resolutions and a crash/restart cycle, short enough to stay sub-second.
_SMOKE_HORIZON = 250_000


def _run_invariants_smoke(context: CIContext) -> list[str]:
    """One faulted scenario per protocol with online invariant monitors.

    Every scenario stays inside the feasibility bounds (crashes heal well
    before deadlines, noise bursts are transient, drift only skews carrier
    sense), so the monitors must stay silent: any violation is a genuine
    protocol/fault-interaction regression and fails CI.

    Every scenario is also re-run on the per-slot ``des``, the one
    reference engine, and its statistics, completions and invariant
    report must match the default engine's exactly.  Under the default
    ``batch`` the faulted scenarios take the kernel's structural
    fallback to the fast loop; the clean monitored DDCR, DCR (noisy) and
    TDMA scenarios run the kernel itself with monitors armed, so their
    idle leaps digest through ``on_idle`` and the noisy DCR one's leaps
    stop at a fired gate; the consistency-checked ones run the fast
    loop, which leaps idle stretches on every station's replica — on
    the noisy DCR one a phantom collision starts a search, so the leap
    must stop before it and resume after it.  The checked dual-bus run, a
    mutual-exclusion monitor on each bus and bus A jammed at a third of
    the run, takes the joint fast loop over both busses, which leaps
    their idle stretches together and, once bus A's replicas are stuck
    re-probing a static-tree leaf, its jammed tail beside them (the
    failover slot runs as a round), and must fail over exactly once.
    The one scenario that must report a violation runs DDCR with
    deadlines beyond the time tree's horizon under the standard suite
    with a small work-conservation limit: the silence queued messages
    sit out until compressed time pulls them in is leapt, and the streak
    crosses the limit inside such a stretch, where the one expected
    violation must land as on ``des``.  This row is the CI check of the
    leaps under monitors.  Returns failure lines (empty = every scenario
    reported what it must, both engines agreed).
    """
    from repro.experiments.harness import (
        csma_cd_factory,
        dcr_factory,
        ddcr_factory,
        default_ddcr_config,
        tdma_factory,
    )
    from repro.faults.models import (
        ClockDrift,
        FaultPlan,
        GilbertElliottNoise,
        StationCrash,
    )
    from repro.model.workloads import uniform_problem
    from repro.net.dualbus import DualBusSimulation, suggested_jam_threshold
    from repro.net.network import NetworkSimulation, Scenario
    from repro.net.phy import ideal_medium
    from repro.net.station import Station
    from repro.protocols.ddcr import DDCRConfig, DDCRProtocol
    from repro.sim.invariants import (
        DeadlineMonitor,
        MonitorSuite,
        MutualExclusionMonitor,
        standard_suite,
    )

    problem = uniform_problem(
        z=5, length=1_000, deadline=400_000, a=1, w=200_000
    )
    medium = ideal_medium(slot_time=64)
    config = default_ddcr_config(problem, medium, time_f=16, time_m=2)
    burst_noise = GilbertElliottNoise(
        p_enter_bad=0.002, p_exit_bad=0.05, bad_rate=0.5
    )
    crash = StationCrash(0, at=40_000, restart_at=120_000)
    # BEB offers no deadline guarantee and TDMA idles by design in foreign
    # slots, so those scenarios check the invariants their protocols
    # actually promise; DDCR and DCR run the full auto-armed suite.
    # (name, protocol, fault plan, monitors, consistency-checked, noise)
    scenarios = [
        (
            "ddcr+burst-noise+crash",
            ddcr_factory(config),
            FaultPlan((burst_noise, crash)),
            None,
            False,
            0.0,
        ),
        (
            "csma-cd+burst-noise",
            csma_cd_factory(),
            FaultPlan((burst_noise,)),
            lambda: MonitorSuite([MutualExclusionMonitor()]),
            False,
            0.0,
        ),
        (
            "dcr+clock-drift",
            dcr_factory(problem),
            FaultPlan((ClockDrift(0, skew_per_slot=4.0),)),
            None,
            False,
            0.0,
        ),
        (
            "tdma+crash",
            tdma_factory(problem),
            FaultPlan((crash,)),
            lambda: MonitorSuite(
                [MutualExclusionMonitor(), DeadlineMonitor()]
            ),
            False,
            0.0,
        ),
        # Fault-free but monitored: the batch kernel executes it (armed
        # injectors structurally fall back).
        (
            "ddcr-clean+monitors",
            ddcr_factory(config),
            None,
            True,
            False,
            0.0,
        ),
        # Checked and monitored: the fast loop leaps on every station's
        # own replica.
        (
            "ddcr-checked+monitors",
            ddcr_factory(config),
            None,
            True,
            True,
            0.0,
        ),
        # Checked and noisy: a phantom collision in FREE starts a search,
        # which the leap must stop before and resume after.
        (
            "dcr-checked+noise",
            dcr_factory(problem),
            None,
            lambda: MonitorSuite([MutualExclusionMonitor()]),
            True,
            0.02,
        ),
        # Fault-free and monitored, DCR noisy: the batch kernel runs them
        # on a shadow DCR or TDMA replica.
        (
            "dcr-kernel+noise+monitors",
            dcr_factory(problem),
            None,
            True,
            False,
            0.02,
        ),
        (
            "tdma-kernel+monitors",
            tdma_factory(problem),
            None,
            True,
            False,
            0.0,
        ),
    ]

    def digest(stats, completions, invariants) -> bytes:
        import pickle

        return pickle.dumps(
            (
                stats,
                [
                    (r.message.seq, r.completion, r.started, r.dropped)
                    for r in completions
                ],
                # The whole report: violations, slots_checked, truncated.
                invariants,
            )
        )

    def execute(factory, plan, monitors, checked, noise):
        simulation = NetworkSimulation.from_scenario(
            Scenario(
                problem=problem,
                medium=medium,
                protocol_factory=factory,
                check_consistency=checked,
                noise_rate=noise,
                # Monitor suites are stateful, so scenarios supply them
                # as factories — each engine run gets its own fresh
                # suite.
                faults=plan,
                monitors=monitors() if callable(monitors) else monitors,
            )
        )
        result = simulation.run(_SMOKE_HORIZON)
        return (result.invariants,), digest(
            result.stats, result.completions, result.invariants
        ), []

    def execute_dualbus():
        # Two busses on one clock, checked, a mutual-exclusion monitor
        # on each: bus A jams at a third of the run and every station
        # fails over to bus B in the same slot.
        result = DualBusSimulation(
            problem,
            medium,
            protocol_factory=ddcr_factory(config),
            jam_threshold=suggested_jam_threshold(config),
            fail_bus_at=_SMOKE_HORIZON // 3,
            check_consistency=True,
            monitors=True,
        ).run(_SMOKE_HORIZON)
        problems = []
        if result.failovers != 1:
            problems.append(f"{result.failovers} failover(s), expected 1")
        return result.invariants, digest(
            (result.bus_stats, result.failovers),
            result.completions,
            result.invariants,
        ), problems

    # Deadlines 400 µs beyond the time tree's horizon c*F = 32,768
    # bit-times: the queued messages sit out the fresh-TTs cycle until
    # compressed time pulls them in, about 180 silent slots, which the
    # leap crosses and the standard suite's work conservation, limited
    # to 40 slots, reports once.
    far_config = DDCRConfig(
        time_f=16,
        time_m=2,
        class_width=2_048,
        static_q=problem.static_q,
        static_m=problem.static_m,
    )

    def execute_backlog():
        suite = standard_suite(
            [Station(0, DDCRProtocol(far_config))],
            work_conservation_limit=40,
        )
        return execute(
            ddcr_factory(far_config), None, lambda: suite, False, 0.0
        )

    runs = [
        (name, functools.partial(execute, *scenario), ())
        for name, *scenario in scenarios
    ]
    runs.append(("dualbus-checked+failover", execute_dualbus, ()))
    runs.append(
        ("ddcr-far-deadlines+limit", execute_backlog, ("work_conservation",))
    )
    failures: list[str] = []
    for name, run, expected in runs:
        reports, observed, problems = run()
        # Every scenario arms monitors (one suite per bus on the dual bus).
        summary = "; ".join(
            report.summary() if len(reports) == 1
            else f"bus{index} {report.summary()}"
            for index, report in enumerate(reports)
        )
        found = tuple(
            violation.invariant
            for report in reports
            for violation in report.violations
        )
        if found == expected and not problems:
            note = " (as expected)" if expected else ""
            print(f"invariants-smoke: {name}: {summary}{note}")
        else:
            failures.append(f"{name}: {'; '.join([summary, *problems])}")
        with use_engine("des"):
            reference = run()[1]
        if reference != observed:
            failures.append(
                f"{name}: default engine diverged from the des reference"
            )
    if not failures:
        print(
            "invariants-smoke: default engine matched the des reference "
            f"on {len(runs)}/{len(runs)} scenario(s)"
        )
    return failures


def _run_obs_smoke(context: CIContext) -> list[str]:
    """One telemetry-collecting run plus a summarize/diff round-trip.

    Resolves FIG1 through the cache-aware executor with telemetry on
    (a warm cache yields the minimal cache-hit manifest — the round-trip
    exercises the same schema either way), writes the manifest JSONL,
    renders it with ``repro.tools.obs summarize`` and diffs it against
    itself (which must exit 0).  Returns failure lines.
    """
    from repro.obs.manifest import write_manifests
    from repro.tools import obs

    failures: list[str] = []
    executor = ParallelExecutor(
        cache=context.result_cache(), collect_telemetry=True
    )
    records = executor.run([RunSpec.make("FIG1")])
    manifests = [r.telemetry for r in records if r.telemetry is not None]
    if not manifests:
        return ["executor produced no telemetry manifest"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "obs-smoke.jsonl")
        write_manifests(path, manifests)
        if obs.main(["summarize", path]) != 0:
            failures.append("summarize failed")
        if obs.main(["diff", path, path, "--fail-over", "50"]) != 0:
            failures.append("self-diff did not exit 0")
    if not failures:
        print(
            f"obs-smoke: telemetry round-trip ok "
            f"({manifests[0].run_id}, source={manifests[0].source})"
        )
    return failures


def _run_sweep_smoke(context: CIContext) -> list[str]:
    """A 4-point campaign cold-run, then resumed on the warm cache.

    Exercises the sweep contract end to end: grid expansion, sharded
    execution, journal checkpointing, and the resume guarantee — the
    resumed run must resubmit **zero** specs (everything replays from
    the journal + result cache) and rebuild a byte-identical aggregate
    document.  Resuming needs the result cache, so without one the row
    reports the skip.  Returns failure lines (empty = contract held).
    """
    from repro.sweep import Campaign, run_campaign

    if context.cache_dir is None:
        print("sweep-smoke: skipped (needs the result cache)")
        return []

    # FIG1 needs t to be a power of m, so the shapes are a zipped axis.
    campaign = Campaign.make(
        "ci-sweep-smoke",
        experiment="FIG1",
        zipped={"m": (2, 2, 3, 3), "t": (8, 16, 9, 27)},
        batch_size=2,
        description="CI smoke: FIG1 search-cost tables across tree shapes",
    )
    failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "sweep-smoke.journal.jsonl")
        cold = run_campaign(
            campaign,
            jobs=context.jobs,
            cache=context.result_cache(),
            journal_path=journal,
        )
        if not cold.ok:
            failures.append("campaign checks failed")
        resumed = run_campaign(
            campaign,
            jobs=context.jobs,
            cache=context.result_cache(),
            journal_path=journal,
            resume=True,
        )
        if resumed.submissions != 0:
            failures.append(
                f"resume resubmitted {resumed.submissions} spec(s)"
            )
        if resumed.replayed_shards != resumed.total_shards:
            failures.append(
                f"resume replayed only "
                f"{resumed.replayed_shards}/{resumed.total_shards} shard(s)"
            )
        if resumed.aggregate_json() != cold.aggregate_json():
            failures.append("resumed aggregate differs from the cold run")
    if not failures:
        print(
            f"sweep-smoke: {campaign.grid.size}-point campaign resumed "
            "byte-identically (0 resubmissions)"
        )
    return failures


def _run_serve_smoke(context: CIContext) -> list[str]:
    """A short admission trace served, counter-checked and replayed.

    Exercises the serve contract end to end: a cold run with periodic
    counter-checks (scalar oracle + SERVE-CHECK simulation through the
    cache-aware executor) must raise **zero** incidents; a replay of the
    persisted event log must reproduce every decision byte for byte; and
    a re-counter-check through a fresh executor sharing the cache must
    resubmit **zero** specs.  Without the result cache the simulation leg
    is skipped (oracle + replay still run).  Returns failure lines.
    """
    from repro.serve import (
        AdmissionService,
        ServeConfig,
        TraceConfig,
        generate_trace,
        replay_event_log,
    )

    failures: list[str] = []
    use_cache = context.cache_dir is not None
    trace = generate_trace(
        TraceConfig(events=48, stations=10, seed=11, template="city")
    )
    config = ServeConfig(static_q=64, check_every=16)
    with tempfile.TemporaryDirectory() as tmp:
        log_dir = os.path.join(tmp, "serve-log")
        executor = (
            ParallelExecutor(jobs=context.jobs, cache=context.result_cache())
            if use_cache
            else None
        )
        with AdmissionService(
            config, executor=executor, log_dir=log_dir
        ) as service:
            decisions = service.run_trace(trace)
            service.counter_check()
            if service.incidents:
                failures.append(
                    f"cold run raised "
                    f"{len(service.incidents)} incident(s): "
                    f"{service.incidents[0].detail}"
                )
            admitted = service.class_count
        replayed = replay_event_log(log_dir)
        mismatches = [
            incident
            for incident in replayed.incidents
            if incident.kind == "replay-mismatch"
        ]
        if mismatches:
            failures.append(
                f"replay diverged on "
                f"{len(mismatches)} decision(s): {mismatches[0].detail}"
            )
        if replayed.class_count != admitted:
            failures.append(
                f"replay admitted {replayed.class_count} "
                f"class(es), cold run {admitted}"
            )
        if use_cache:
            recheck = ParallelExecutor(
                jobs=context.jobs, cache=context.result_cache()
            )
            replayed.executor = recheck
            replayed.counter_check()
            if recheck.submissions != 0:
                failures.append(
                    f"replay counter-check resubmitted "
                    f"{recheck.submissions} spec(s)"
                )
            if replayed.incidents != mismatches:
                failures.append("replay counter-check raised incident(s)")
    if not failures:
        sim = "counter-checked" if use_cache else "oracle-checked (no cache)"
        print(
            f"serve-smoke: {len(trace)}-event trace served, {sim} and "
            f"replayed byte-identically ({admitted} class(es) admitted, "
            "0 incidents)"
        )
    return failures


def _run_obs2_smoke(context: CIContext) -> list[str]:
    """A traced serve session exercising the v2 ops plane end to end.

    Serves a short trace with the flight recorder, streaming exporter
    and a deliberately unmeetable SLO armed, then asserts the three
    contracts: (1) the flight-recorder dump is valid JSONL whose causal
    parents all resolve inside the dumped window (or point below it,
    i.e. at ring-evicted ancestors); (2) the Prometheus snapshot and the
    JSONL delta stream are consumable and consistent with the request
    count; (3) the forced latency SLO (threshold 0 us — every sample is
    bad by construction) breaches exactly once (multi-window burn-rate
    breaches latch) and lands as a structured ``slo-breach`` incident
    with a black-box trace attached.  Returns failure lines.
    """
    from repro.obs.export import (
        StreamExporter,
        iter_jsonl_tail,
        parse_prometheus,
    )
    from repro.obs.instruments import Telemetry
    from repro.obs.slo import Objective, SloEngine
    from repro.obs.tracer import FlightRecorder, load_trace
    from repro.serve import (
        AdmissionService,
        ServeConfig,
        TraceConfig,
        generate_trace,
    )

    failures: list[str] = []
    use_cache = context.cache_dir is not None
    trace = generate_trace(
        TraceConfig(events=48, stations=10, seed=11, template="city")
    )
    recorder = FlightRecorder(capacity=2048)
    telemetry = Telemetry()
    slos = SloEngine([
        Objective(
            name="forced-latency",
            kind="latency",
            instrument="serve/decision_latency_us",
            threshold=0.0,
            q=0.99,
            short_window=4,
            long_window=8,
        ),
    ])
    config = ServeConfig(static_q=64, check_every=16, sim_horizon=500_000)
    with tempfile.TemporaryDirectory() as tmp:
        log_dir = os.path.join(tmp, "obs2-log")
        exporter = StreamExporter(
            telemetry,
            os.path.join(tmp, "metrics.prom"),
            os.path.join(tmp, "metrics.jsonl"),
            every=4,
        )
        # force=True: a cache *replay* of the counter-check leg cannot
        # emit the channel trace events this smoke asserts on, so
        # the leg must execute live on warm caches too (it still writes
        # through, keeping the cache interplay exercised).
        executor = (
            ParallelExecutor(cache=context.result_cache(), force=True)
            if use_cache
            else None
        )
        with AdmissionService(
            config,
            telemetry=telemetry,
            executor=executor,
            log_dir=log_dir,
            tracer=recorder,
            exporter=exporter,
            slos=slos,
        ) as service:
            service.run_trace(trace)
            service.counter_check()
            breaches = [
                i for i in service.incidents if i.kind == "slo-breach"
            ]
            others = [
                i for i in service.incidents if i.kind != "slo-breach"
            ]
            if len(breaches) != 1:
                failures.append(
                    f"forced SLO produced "
                    f"{len(breaches)} slo-breach incident(s), wanted "
                    f"exactly 1 (breaches latch)"
                )
            elif breaches[0].trace is None or not breaches[0].trace:
                failures.append(
                    "slo-breach incident carries no black-box trace"
                )
            if others:
                failures.append(
                    f"unexpected incident(s): {[i.kind for i in others]}"
                )
        # (1) Flight-recorder dump: valid JSONL, connected parents.
        dump = os.path.join(tmp, "flightrec.jsonl")
        recorder.dump_jsonl(dump)
        events = load_trace(dump)
        if not events:
            failures.append("flight-recorder dump is empty")
        else:
            ids = {event.id for event in events}
            first = min(ids)
            dangling = [
                event.id
                for event in events
                if event.parent is not None
                and event.parent not in ids
                and event.parent >= first
            ]
            if dangling:
                failures.append(
                    f"{len(dangling)} event(s) have parents "
                    f"inside the dumped window that are missing from it"
                )
            kinds = {event.kind for event in events}
            wanted = {"serve/request", "serve/decision"}
            if use_cache:
                # The counter-check simulation's busy slots, and its
                # silent slots coalesced into idle runs.
                wanted |= {"channel/slot", "channel/idle"}
            missing = wanted - kinds
            if missing:
                failures.append(f"dump lacks {sorted(missing)} event(s)")
        # (2) Export artifacts: snapshot + delta stream consistency.
        with open(exporter.prom_path, encoding="utf-8") as handle:
            metrics = parse_prometheus(handle.read())
        requests = metrics.get("repro_serve_requests", {}).get("value")
        if requests != len(trace):
            failures.append(
                f"Prometheus snapshot reports "
                f"{requests} requests, served {len(trace)}"
            )
        records = list(iter_jsonl_tail(exporter.stream_path))
        if not records:
            failures.append("delta stream is empty")
        ticks = [record.get("tick") for record in records]
        if ticks != sorted(ticks):
            failures.append("delta-stream ticks not monotone")
    if not failures:
        print(
            f"obs2-smoke: traced serve session ok ({len(events)} trace "
            f"event(s) dumped, {len(records)} export record(s), "
            "1 latched slo-breach with black box)"
        )
    return failures


def _run_perf_smoke(context: CIContext) -> list[str]:
    """One quick micro-benchmark pass, gated by :func:`_run_perf_trend`."""
    from repro.tools.bench import run_benches

    results = run_benches(smoke=True)
    for result in results:
        print(f"perf-smoke: {result.describe()}")
    return _run_perf_trend(results, context.history)


def _run_perf_trend(
    results: list, history_path: "str | os.PathLike[str]"
) -> list[str]:
    """Gate current bench results against the history median.

    Compares each bench's median ops/sec against the median of the last
    :data:`TREND_WINDOW` same-mode (smoke) history entries that measured
    it; a drop of more than :data:`TREND_THRESHOLD` percent is a
    regression.  The current run is appended to the history *after* the
    comparison, so a regressed run cannot vote itself into its own
    baseline.  Returns failure lines.
    """
    from repro.tools.bench import append_history, history_entry, load_history

    smoke_entries = [
        entry for entry in load_history(history_path) if entry.get("smoke")
    ][-TREND_WINDOW:]
    failures: list[str] = []
    if len(smoke_entries) < 2:
        print(
            f"perf-trend: not enough history "
            f"({len(smoke_entries)} smoke entr(y/ies) in {history_path}); "
            "gate skipped, current run recorded"
        )
    else:
        for result in results:
            samples = [
                entry["benches"][result.name]["ops_per_sec"]
                for entry in smoke_entries
                if result.name in entry.get("benches", {})
            ]
            if len(samples) < 2:
                continue
            baseline = statistics.median(samples)
            current = result.median_ops_per_sec or result.ops_per_sec
            if baseline <= 0:
                continue
            drop = (1.0 - current / baseline) * 100.0
            if drop > TREND_THRESHOLD:
                failures.append(
                    f"{result.name}: {current:,.0f} ops/s is "
                    f"{drop:.1f}% below the history median "
                    f"{baseline:,.0f} (limit {TREND_THRESHOLD:.0f}%, "
                    f"n={len(samples)})"
                )
        verdict = "FAILED" if failures else "ok"
        print(
            f"perf-trend: {verdict} "
            f"({len(results)} bench(es) vs median of "
            f"{len(smoke_entries)} run(s))"
        )
    append_history(history_path, history_entry(results, smoke=True))
    return failures


#: The ``--ci`` rows, in run order.  Each step takes the shared
#: :class:`CIContext` and returns failure lines.
STEPS: tuple[tuple[str, Callable[[CIContext], list[str]]], ...] = (
    ("invariants", _run_invariants_smoke),
    ("obs", _run_obs_smoke),
    ("sweep", _run_sweep_smoke),
    ("serve", _run_serve_smoke),
    ("obs2", _run_obs2_smoke),
    ("perf", _run_perf_smoke),
)


def run_ci(
    context: CIContext, force: bool = False, telemetry: "str | None" = None
) -> int:
    """``--ci``: imports, the suite, then every row of :data:`STEPS`."""
    from repro.experiments.registry import EXPERIMENTS

    import_failures = _import_all_modules()
    if import_failures:
        for failure in import_failures:
            print(f"import error: {failure}", file=sys.stderr)
        return 2
    print("imports: all repro modules import cleanly")

    def progress(record, index, total):
        print(f"[{index + 1:>2}/{total}] {record.describe()}", flush=True)

    executor = ParallelExecutor(
        jobs=context.jobs,
        cache=context.result_cache(),
        force=force,
        progress=progress,
        collect_telemetry=telemetry is not None,
    )
    records = executor.run(
        [
            RunSpec.make(
                experiment_id,
                root_seed=(
                    context.seed
                    if EXPERIMENTS[experiment_id].seed_param is not None
                    else None
                ),
            )
            for experiment_id in EXPERIMENTS
        ]
    )
    failed = [
        record.spec.experiment_id
        for record in records
        if not record.result.all_checks_pass
    ]
    cached = sum(1 for record in records if record.cached)
    print(
        f"suite: {len(records)} experiment(s), "
        f"{len(records) - cached} executed, {cached} from cache"
    )
    if telemetry is not None:
        from repro.obs.manifest import write_manifests

        manifests = [
            record.telemetry
            for record in records
            if record.telemetry is not None
        ]
        written = write_manifests(telemetry, manifests)
        print(f"suite: wrote {written} telemetry manifest(s) to {telemetry}")
    failures = [f"checks: {', '.join(failed)}"] if failed else []
    for name, step in STEPS:
        try:
            lines = step(context)
        except Exception as error:  # noqa: BLE001 - a crashing row fails CI
            traceback.print_exc()
            lines = [f"{type(error).__name__}: {error}"]
        failures += [f"{name}: {line}" for line in lines]
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if failures:
        return 2
    print("verdict: OK")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    validate_jobs(parser, args.jobs)
    if args.ci:
        from repro.tools.bench import default_history_path

        context = CIContext(
            jobs=args.jobs,
            seed=args.seed,
            history=(
                args.history
                if args.history is not None
                else default_history_path()
            ),
            cache_dir=None if args.no_cache else args.cache_dir,
        )
        with use_engine(args.engine):
            return run_ci(
                context, force=args.force, telemetry=args.telemetry
            )
    if args.instance is None:
        parser.error("an instance file is required unless --ci is given")
    medium = MEDIA[args.medium]
    try:
        problem = load_problem(args.instance)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    trees = TreeParameters(
        time_f=args.time_f,
        time_m=args.time_m,
        static_q=problem.static_q,
        static_m=problem.static_m,
    )
    # The batch path; value-identical to scalar check_feasibility
    # (tests/core/test_feas_grid.py digest-compares them).
    (report,) = check_feasibility_batch([problem], medium, trees)
    print(problem.describe())
    print()
    print(
        format_table(
            ["source", "class", "d (ms)", "B_DDCR (ms)", "slack (ms)", "ok"],
            [
                [
                    fc.source_id,
                    fc.class_name,
                    round(fc.deadline / _MS, 3),
                    round(fc.bound / _MS, 3),
                    round(fc.slack / _MS, 3),
                    "yes" if fc.feasible else "NO",
                ]
                for fc in report.classes
            ],
            title=f"Feasibility on {medium.name} (F={args.time_f}, "
            f"m={args.time_m})",
        )
    )
    verdict = "FEASIBLE" if report.feasible else "INFEASIBLE"
    print(f"\nverdict: {verdict}")
    if args.simulate > 0:
        from repro.experiments.harness import (
            build_simulation,
            ddcr_factory,
            default_ddcr_config,
        )

        config = default_ddcr_config(
            problem, medium, time_f=args.time_f, time_m=args.time_m
        )
        with use_engine(args.engine):
            result = build_simulation(
                problem, medium, ddcr_factory(config)
            ).run(round(args.simulate * _MS))
        metrics = summarize(result)
        print(
            f"simulation ({args.simulate} ms peak load): "
            f"delivered={metrics.delivered} misses={metrics.misses} "
            f"utilization={metrics.utilization:.3f}"
        )
    return 0 if report.feasible else 2


if __name__ == "__main__":
    sys.exit(main())
