"""``python -m repro.serve`` — the admission-service operator CLI.

Subcommands::

    trace    generate a synthetic churn trace to a JSONL file
    run      drive a trace through the service, persisting the event log
    replay   re-decide a persisted event log, byte-comparing decisions
    verify   replay + periodic oracle checks + final simulation check

``run`` and ``verify`` resolve their background SERVE-CHECK simulations
through the normal cache-aware executor, so ``verify`` after ``run`` on
the same cache directory resubmits nothing.  Exit status is 0 when clean,
2 when any incident (divergence, failed sim check, replay mismatch) was
recorded — the contract ``check --ci``'s serve-smoke relies on.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.cliopts import cache_options, execution_options, positive_int
from repro.net.engine import use_engine
from repro.serve.model import Request
from repro.serve.service import (
    AdmissionService,
    ServeConfig,
    read_event_log,
    replay_event_log,
)
from repro.serve.traces import TEMPLATES, TraceConfig, generate_trace

__all__ = ["main"]


def _trace_options() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("trace shape")
    group.add_argument("--events", type=positive_int, default=1_000,
                       metavar="N", help="trace length (default: 1000)")
    group.add_argument("--stations", type=positive_int, default=64,
                       metavar="N",
                       help="station (source) population (default: 64)")
    group.add_argument("--template", choices=sorted(TEMPLATES),
                       default="city",
                       help="class-template mixture (default: city)")
    group.add_argument("--trace-seed", type=int, default=0, metavar="N",
                       help="trace generator seed (default: 0)")
    return parent


def _service_options() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("service")
    group.add_argument("--static-q", type=positive_int, default=256,
                       metavar="Q",
                       help="static tree leaves (default: 256)")
    group.add_argument("--medium", default="gigabit-ethernet",
                       help="medium profile name (default: %(default)s)")
    group.add_argument("--check-every", type=int, default=0, metavar="N",
                       help="counter-check cadence in requests "
                       "(0 disables periodic checks; default: 0)")
    return parent


def _obs2_options() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability v2")
    group.add_argument("--flight-recorder", type=positive_int, default=None,
                       metavar="N",
                       help="arm a flight recorder keeping the last N "
                       "trace events; dumped to flightrec.jsonl in the "
                       "log directory (default: off)")
    group.add_argument("--export-every", type=positive_int, default=None,
                       metavar="N",
                       help="rewrite metrics.prom and append to "
                       "metrics.jsonl in the log directory every N "
                       "requests (default: off)")
    group.add_argument("--slos", default=None, metavar="FILE",
                       help="evaluate SLO burn rates from this objectives "
                       "JSON file ('default' for the built-in serve "
                       "objectives); breaches land as slo-breach "
                       "incidents (default: off)")
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Admission-control service over incremental "
        "B_DDCR feasibility bounds.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    trace = commands.add_parser(
        "trace", parents=[_trace_options()],
        help="generate a synthetic churn trace",
    )
    trace.add_argument("output", help="trace JSONL path (- for stdout)")

    run = commands.add_parser(
        "run",
        parents=[_trace_options(), _service_options(),
                 execution_options(), cache_options(), _obs2_options()],
        help="drive a trace through the service, persisting the log",
    )
    run.add_argument("log_dir", help="event-log directory to create")
    run.add_argument("--trace-file", default=None, metavar="FILE",
                     help="drive this trace file instead of generating one")

    replay = commands.add_parser(
        "replay", parents=[execution_options()],
        help="re-decide a persisted log, byte-comparing decisions",
    )
    replay.add_argument("log_dir", help="event-log directory to replay")

    verify = commands.add_parser(
        "verify", parents=[execution_options(), cache_options()],
        help="replay plus oracle and simulation counter-checks",
    )
    verify.add_argument("log_dir", help="event-log directory to verify")
    verify.add_argument("--check-every", type=positive_int, default=64,
                        metavar="N",
                        help="oracle-check cadence during replay "
                        "(default: 64)")
    return parser


def _load_trace(path: str) -> list[Request]:
    requests = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                requests.append(Request.from_dict(json.loads(line)))
    return requests


def _make_executor(args: argparse.Namespace):
    """A cache-aware executor for background SERVE-CHECK runs."""
    from repro.runtime import ParallelExecutor, ResultCache

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    return ParallelExecutor(jobs=args.jobs, cache=cache, force=args.force)


def _summary(service: AdmissionService, decisions) -> str:
    counts: dict[str, int] = {}
    for decision in decisions:
        counts[decision.verdict] = counts.get(decision.verdict, 0) + 1
    evicted = sum(len(decision.evicted) for decision in decisions)
    parts = [f"{len(decisions)} decision(s)"]
    for verdict in ("admit", "reject", "ok", "error"):
        if counts.get(verdict):
            parts.append(f"{counts[verdict]} {verdict}")
    if evicted:
        parts.append(f"{evicted} evicted")
    parts.append(f"{service.class_count} class(es) admitted")
    parts.append(f"{len(service.incidents)} incident(s)")
    return ", ".join(parts)


def _write_manifest(args: argparse.Namespace, service: AdmissionService,
                    registry, command: str, wall: float) -> None:
    if registry is None or getattr(args, "telemetry", None) is None:
        return
    from repro.obs.manifest import RunTelemetry, write_manifests

    manifest = RunTelemetry.from_registry(
        registry,
        run_id=f"serve-{command}",
        seed=getattr(args, "seed", None),
        source="serve",
        wall_seconds=wall,
    )
    written = write_manifests(args.telemetry, [manifest])
    print(f"telemetry: wrote {written} manifest(s) to {args.telemetry}")


def _exit_code(service: AdmissionService) -> int:
    if service.incidents:
        for incident in service.incidents:
            print(f"INCIDENT {incident.kind} at seq {incident.at_seq}: "
                  f"{incident.detail}", file=sys.stderr)
        return 2
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    config = TraceConfig(
        events=args.events, stations=args.stations,
        seed=args.trace_seed, template=args.template,
    )
    lines = [request.to_json() for request in generate_trace(config)]
    if args.output == "-":
        for line in lines:
            print(line)
    else:
        path = pathlib.Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {len(lines)} request(s) to {path}")
    return 0


def _telemetry_registry(args: argparse.Namespace):
    if getattr(args, "telemetry", None) is None:
        return None
    from repro.obs.instruments import Telemetry

    return Telemetry()


def _obs2_plane(args: argparse.Namespace, registry):
    """Build the (tracer, exporter, slos, registry) quadruple from flags.

    The exporter and SLO engine read live instruments, so requesting
    either without ``--telemetry`` still allocates a real registry (the
    manifest is only written when ``--telemetry`` was given).
    """
    tracer = None
    if args.flight_recorder is not None:
        from repro.obs.tracer import FlightRecorder

        tracer = FlightRecorder(capacity=args.flight_recorder)
    exporter = None
    slos = None
    if args.export_every is not None or args.slos is not None:
        if registry is None:
            from repro.obs.instruments import Telemetry

            registry = Telemetry()
        if args.export_every is not None:
            from repro.obs.export import StreamExporter

            log_dir = pathlib.Path(args.log_dir)
            exporter = StreamExporter(
                registry,
                log_dir / "metrics.prom",
                log_dir / "metrics.jsonl",
                every=args.export_every,
            )
        if args.slos is not None:
            from repro.obs.slo import (
                SloEngine,
                default_serve_objectives,
                load_objectives,
            )

            objectives = (
                default_serve_objectives()
                if args.slos == "default"
                else load_objectives(args.slos)
            )
            slos = SloEngine(objectives)
    return tracer, exporter, slos, registry


def _cmd_run(args: argparse.Namespace) -> int:
    if args.trace_file is not None:
        trace = _load_trace(args.trace_file)
    else:
        trace = generate_trace(TraceConfig(
            events=args.events, stations=args.stations,
            seed=args.trace_seed, template=args.template,
        ))
    config = ServeConfig(
        static_q=args.static_q, medium=args.medium,
        check_every=args.check_every,
    )
    registry = _telemetry_registry(args)
    tracer, exporter, slos, registry = _obs2_plane(args, registry)
    started = time.perf_counter()
    with AdmissionService(
        config,
        telemetry=registry,
        executor=_make_executor(args),
        log_dir=args.log_dir,
        tracer=tracer,
        exporter=exporter,
        slos=slos,
    ) as service:
        decisions = service.run_trace(trace)
        service.counter_check()
        print(_summary(service, decisions))
        if tracer is not None:
            dump = pathlib.Path(args.log_dir) / "flightrec.jsonl"
            written = tracer.dump_jsonl(dump)
            print(f"flight recorder: wrote {written} event(s) to {dump}")
        if exporter is not None:
            exporter.export()  # final snapshot, even off-cadence
        _write_manifest(args, service, registry, "run",
                        time.perf_counter() - started)
        return _exit_code(service)


def _cmd_replay(args: argparse.Namespace) -> int:
    registry = _telemetry_registry(args)
    started = time.perf_counter()
    service = replay_event_log(args.log_dir, telemetry=registry)
    _, events = read_event_log(args.log_dir)
    mismatches = [i for i in service.incidents if i.kind == "replay-mismatch"]
    print(f"replayed {len(events)} event(s): "
          f"{len(mismatches)} mismatch(es), "
          f"{service.class_count} class(es) admitted")
    _write_manifest(args, service, registry, "replay",
                    time.perf_counter() - started)
    return _exit_code(service)


def _cmd_verify(args: argparse.Namespace) -> int:
    registry = _telemetry_registry(args)
    started = time.perf_counter()
    config, events = read_event_log(args.log_dir)
    service = replay_event_log(args.log_dir, telemetry=registry,
                               executor=_make_executor(args))
    # Periodic oracle checks over prefixes of the log, then one full
    # counter-check (oracle + simulation) on the final admitted set.
    for upto in range(args.check_every, len(events), args.check_every):
        prefix = replay_event_log(args.log_dir, upto=upto)
        prefix.executor = None
        prefix.counter_check()
        service.incidents.extend(prefix.incidents)
    service.counter_check()
    print(f"verified {len(events)} event(s): "
          f"{len(service.incidents)} incident(s), "
          f"{service.class_count} class(es) admitted")
    _write_manifest(args, service, registry, "verify",
                    time.perf_counter() - started)
    return _exit_code(service)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    handlers = {
        "trace": _cmd_trace,
        "run": _cmd_run,
        "replay": _cmd_replay,
        "verify": _cmd_verify,
    }
    # ``trace`` takes no execution options, so no ``--engine`` either.
    with use_engine(getattr(args, "engine", None)):
        return handlers[args.command](args)
