"""CLI: regenerate the paper's figures and bound tables.

Usage::

    python -m repro.experiments                 # list experiments
    python -m repro.experiments FIG1 FIG2       # run specific experiments
    python -m repro.experiments --all           # run the full suite
    python -m repro.experiments --all --jobs 4  # fan out over processes
    python -m repro.experiments --all --force   # ignore cached results
    python -m repro.experiments FIG1 --csv out  # also write CSV files
    python -m repro.experiments PROTO --engine des   # per-slot reference
    python -m repro.experiments PROTO --fault crash  # preset fault plan
    python -m repro.experiments PROTO --faults plan.json  # plan from a file
    python -m repro.experiments FIG1 --telemetry out.jsonl  # run manifests
    python -m repro.experiments FIG1 --profile       # cProfile each run
    python -m repro.experiments sweep                # sweep campaigns

``sweep`` dispatches to the campaign runner (:mod:`repro.sweep.cli`):
declarative parameter grids sharded over the executor with resumable
JSONL checkpoints.  The common flags (``--jobs``, ``--seed``,
``--engine``, ``--telemetry``, cache options) are shared parent parsers
(:mod:`repro.cliopts`), spelled identically across every repro CLI.

Runs resolve through the :mod:`repro.runtime` executor: results are
cached content-addressed under ``--cache-dir`` (default ``.repro-cache``),
so a second invocation after no code change replays from disk instead of
re-simulating.  Per-run timing/progress records stream to stderr; reports
print to stdout in suite order, followed by one cache accounting line.

``--telemetry PATH`` collects a :class:`~repro.obs.manifest.RunTelemetry`
document per run (slot counters, latency histograms, span timings,
provenance) and writes them as JSON Lines; render them with
``python -m repro.tools.obs summarize PATH``.  ``--profile`` wraps each
run in :mod:`cProfile` (forcing serial execution — profiles cannot cross
process boundaries) and prints a per-run pstats summary to stderr.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import pathlib
import pstats
import sys

from repro.cliopts import cache_options, execution_options, validate_jobs
from repro.experiments.registry import EXPERIMENTS
from repro.faults.models import PLAN_PRESETS, FaultPlan, preset_plan
from repro.net.engine import use_engine
from repro.obs.manifest import write_manifests
from repro.runtime import ParallelExecutor, ResultCache, RunSpec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's figures and bound tables.",
        parents=[execution_options(), cache_options()],
    )
    parser.add_argument(
        "ids",
        nargs="*",
        help="experiment ids (see DESIGN.md); empty lists them; "
        "'sweep' dispatches to the campaign runner",
    )
    parser.add_argument(
        "--all", action="store_true", help="run the full suite"
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write each experiment's rows as CSV into DIR",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "wrap each run in cProfile and print a pstats summary to "
            "stderr (forces serial execution)"
        ),
    )
    faults = parser.add_mutually_exclusive_group()
    faults.add_argument(
        "--faults",
        metavar="PLAN.json",
        help=(
            "inject a fault plan (JSON file, see repro.faults) into every "
            "simulation the experiments build; faults change results, so "
            "they ARE part of the cache key (unlike --engine)"
        ),
    )
    faults.add_argument(
        "--fault",
        choices=sorted(PLAN_PRESETS),
        default=None,
        help="inject a named preset fault plan",
    )
    return parser


def _list_experiments() -> None:
    print("available experiments:")
    for experiment_id, entry in EXPERIMENTS.items():
        print(f"  {experiment_id:<12} [{entry.kind}] {entry.title}")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sweep":
        from repro.sweep.cli import main as sweep_main

        return sweep_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    validate_jobs(parser, args.jobs)
    ids = list(EXPERIMENTS) if args.all else args.ids
    if not ids:
        _list_experiments()
        return 0
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        known = ", ".join(EXPERIMENTS)
        parser.error(
            f"unknown experiment ids: {', '.join(unknown)} "
            f"(known: {known})"
        )
    plan = None
    if args.faults:
        try:
            plan = FaultPlan.load(args.faults)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            parser.error(f"--faults {args.faults}: {exc}")
    elif args.fault:
        plan = preset_plan(args.fault)
    specs = []
    for experiment_id in ids:
        root_seed = (
            args.seed
            if args.seed is not None
            and EXPERIMENTS[experiment_id].seed_param is not None
            else None
        )
        specs.append(
            RunSpec.make(experiment_id, root_seed=root_seed, faults=plan)
        )
    cache = None if args.no_cache else ResultCache(args.cache_dir)

    def progress(record, index, total):
        print(
            f"[{index + 1:>2}/{total}] {record.describe()}",
            file=sys.stderr,
            flush=True,
        )

    jobs = args.jobs
    if args.profile and jobs > 1:
        print(
            "--profile forces serial execution (profiles cannot cross "
            "process boundaries); ignoring --jobs",
            file=sys.stderr,
        )
        jobs = 1
    executor = ParallelExecutor(
        jobs=jobs,
        cache=cache,
        force=args.force,
        progress=progress,
        collect_telemetry=args.telemetry is not None,
    )
    with use_engine(args.engine):
        if args.profile:
            records = []
            for spec in specs:
                profiler = cProfile.Profile()
                profiler.enable()
                try:
                    records.extend(executor.run([spec]))
                finally:
                    profiler.disable()
                stream = io.StringIO()
                stats = pstats.Stats(profiler, stream=stream)
                stats.sort_stats("cumulative").print_stats(15)
                print(f"profile [{spec.experiment_id}]:", file=sys.stderr)
                print(stream.getvalue(), file=sys.stderr, end="")
        else:
            records = executor.run(specs)
    if args.telemetry is not None:
        manifests = [
            record.telemetry
            for record in records
            if record.telemetry is not None
        ]
        written = write_manifests(args.telemetry, manifests)
        print(
            f"wrote {written} telemetry manifest(s) to {args.telemetry}",
            file=sys.stderr,
        )

    failures = 0
    for record in records:
        result = record.result
        print(result.render())
        print()
        if args.csv:
            directory = pathlib.Path(args.csv)
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"{result.experiment_id.lower()}.csv"
            path.write_text(result.csv() + "\n")
            print(f"wrote {path}")
            for stem, svg in result.svg_figures.items():
                figure_path = directory / f"{stem}.svg"
                figure_path.write_text(svg + "\n")
                print(f"wrote {figure_path}")
        if not result.all_checks_pass:
            failures += 1
    executed = executor.submissions
    cached = len(records) - executed
    total_time = sum(record.duration for record in records)
    print(
        f"suite: {len(records)} run(s), {executed} executed, "
        f"{cached} from cache, {total_time:.3f}s simulated work, "
        f"{failures} failed",
        file=sys.stderr,
    )
    if cache is not None:
        print(cache.stats.summary(), file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
