"""Render and compare telemetry manifests (``python -m repro.tools.obs``).

Usage::

    python -m repro.tools.obs summarize run.jsonl
    python -m repro.tools.obs diff baseline.jsonl current.jsonl
    python -m repro.tools.obs diff base.jsonl cur.jsonl --fail-over 25
    python -m repro.tools.obs tail logdir/metrics.jsonl
    python -m repro.tools.obs top logdir/metrics.prom

``summarize`` renders each :class:`~repro.obs.manifest.RunTelemetry`
document in a manifest file as text: provenance header (including any
engine fallback the run took), counters and gauges, histogram quantiles
(p50/p90/p99 via the conservative upper-edge estimate), and the span
call tree with wall-clock timings.

``diff`` pairs documents by ``run_id`` across two manifest files and
reports counter deltas, histogram quantile shifts and span-time ratios.
With ``--fail-over PCT`` it exits 2 when any matched span slowed down by
more than PCT percent (spans shorter than ``--min-seconds`` in the
baseline are ignored as timing noise) — the building block the perf-trend
gate and ad-hoc before/after comparisons share.

``tail`` and ``top`` read the live artifacts a serve run with
``--export-every`` keeps fresh (:mod:`repro.obs.export`): ``tail``
renders the JSONL delta stream one line per export tick (tolerating a
torn final line, since the writer may be mid-append), ``top`` renders
the Prometheus snapshot file as a sorted table.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterator

from repro.obs.export import iter_jsonl_tail, parse_prometheus
from repro.obs.instruments import snapshot_quantile
from repro.obs.manifest import RunTelemetry, read_manifests

__all__ = [
    "build_parser",
    "diff_manifests",
    "main",
    "render_delta_record",
    "render_top",
    "snapshot_quantile",
    "summarize_manifest",
]

#: Quantiles every rendering reports, as (label, q) pairs.
QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p90", 0.90),
    ("p99", 0.99),
)

#: Baseline spans shorter than this are too noisy to gate on.
DEFAULT_MIN_SECONDS = 0.001


def _format_value(value: float | None) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3f}"
    return str(int(value))


def _span_lines(span: dict, depth: int = 0) -> Iterator[str]:
    indent = "  " * depth
    seconds = span.get("seconds")
    timing = f"  {seconds:9.4f}s" if seconds is not None else ""
    yield f"    {indent}{span['name']}  x{span['calls']}{timing}"
    for child in span.get("children", ()):
        yield from _span_lines(child, depth + 1)


def summarize_manifest(doc: RunTelemetry) -> str:
    """Multi-line text rendering of one manifest document."""
    lines = [
        f"run {doc.run_id}  [{doc.source}]"
        f"  engine={doc.engine or 'default'}"
        f"  seed={doc.seed if doc.seed is not None else '-'}"
        f"  rev={doc.git_rev}"
        f"  faults={doc.fault_plan or '-'}"
        f"  wall={doc.wall_seconds:.3f}s"
    ]
    if doc.engine_fallback is not None:
        # Execution-provenance note: the run did not execute on the
        # engine it asked for (batch kernel ineligible: fault plan armed,
        # consistency checks...)
        # — worth its own loud line, since quietly slower runs are
        # exactly what perf triage goes hunting for.
        lines.append(f"  engine fallback: {doc.engine_fallback}")
    if doc.counters:
        lines.append("  counters:")
        for name, value in sorted(doc.counters.items()):
            lines.append(f"    {name:<40} {value:>12}")
    if doc.gauges:
        lines.append("  gauges:")
        for name, value in sorted(doc.gauges.items()):
            lines.append(f"    {name:<40} {_format_value(value):>12}")
    if doc.histograms:
        lines.append("  histograms:")
        for name, snap in sorted(doc.histograms.items()):
            quantiles = "  ".join(
                f"{label}={_format_value(snapshot_quantile(snap, q))}"
                for label, q in QUANTILES
            )
            mean = (
                snap["total"] / snap["count"] if snap["count"] else None
            )
            lines.append(
                f"    {name:<40} n={snap['count']:<9} "
                f"mean={_format_value(mean)}  {quantiles}  "
                f"max={_format_value(snap['max'])}"
            )
    if doc.spans:
        lines.append("  spans:")
        for span in doc.spans:
            lines.extend(_span_lines(span))
    return "\n".join(lines)


def _flatten_spans(
    spans: list[dict], prefix: str = ""
) -> dict[str, dict]:
    """Span forest -> ``{"run/spec/execute": span_dict, ...}``."""
    flat: dict[str, dict] = {}
    for span in spans:
        path = f"{prefix}{span['name']}"
        flat[path] = span
        flat.update(_flatten_spans(span.get("children", ()), f"{path}/"))
    return flat


def diff_manifests(
    baseline: RunTelemetry,
    current: RunTelemetry,
    fail_over: float | None = None,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> tuple[str, list[str]]:
    """Compare two documents; returns (report text, span regressions).

    Regressions are matched spans whose wall time grew by more than
    ``fail_over`` percent (empty when ``fail_over`` is ``None``); the
    caller decides what an exit code owes them.
    """
    lines = [f"run {baseline.run_id}:"]
    changed = False
    if baseline.engine_fallback != current.engine_fallback:
        changed = True
        lines.append(
            f"  engine fallback: "
            f"{baseline.engine_fallback or '-'} -> "
            f"{current.engine_fallback or '-'}"
        )
    names = sorted(set(baseline.counters) | set(current.counters))
    for name in names:
        a = baseline.counters.get(name, 0)
        b = current.counters.get(name, 0)
        if a != b:
            changed = True
            lines.append(f"  counter {name:<38} {a:>12} -> {b:<12} ({b - a:+d})")
    for name in sorted(set(baseline.gauges) | set(current.gauges)):
        a = baseline.gauges.get(name, 0)
        b = current.gauges.get(name, 0)
        if a != b:
            changed = True
            lines.append(
                f"  gauge   {name:<38} "
                f"{_format_value(a):>12} -> {_format_value(b)}"
            )
    for name in sorted(set(baseline.histograms) | set(current.histograms)):
        snap_a = baseline.histograms.get(name)
        snap_b = current.histograms.get(name)
        if snap_a is None or snap_b is None:
            changed = True
            lines.append(
                f"  hist    {name:<38} "
                f"{'missing' if snap_a is None else 'present'} -> "
                f"{'missing' if snap_b is None else 'present'}"
            )
            continue
        shifts = []
        for label, q in QUANTILES:
            qa = snapshot_quantile(snap_a, q)
            qb = snapshot_quantile(snap_b, q)
            if qa != qb:
                shifts.append(
                    f"{label} {_format_value(qa)} -> {_format_value(qb)}"
                )
        if snap_a["count"] != snap_b["count"]:
            shifts.append(f"n {snap_a['count']} -> {snap_b['count']}")
        if shifts:
            changed = True
            lines.append(f"  hist    {name:<38} {', '.join(shifts)}")
    regressions: list[str] = []
    spans_a = _flatten_spans(baseline.spans)
    spans_b = _flatten_spans(current.spans)
    for path in sorted(set(spans_a) & set(spans_b)):
        sec_a = spans_a[path].get("seconds")
        sec_b = spans_b[path].get("seconds")
        if sec_a is None or sec_b is None or sec_a < min_seconds:
            continue
        ratio = sec_b / sec_a
        lines.append(
            f"  span    {path:<38} {sec_a:9.4f}s -> {sec_b:9.4f}s "
            f"(x{ratio:.2f})"
        )
        if fail_over is not None and ratio > 1.0 + fail_over / 100.0:
            regressions.append(
                f"{baseline.run_id}: span {path} regressed "
                f"{(ratio - 1.0) * 100.0:.1f}% "
                f"({sec_a:.4f}s -> {sec_b:.4f}s, limit {fail_over:.0f}%)"
            )
    if not changed and len(lines) == 1:
        lines.append("  no differences")
    return "\n".join(lines), regressions


def render_delta_record(record: dict) -> str:
    """One ``obs tail`` line for one delta-stream record."""
    parts = [f"tick {record.get('tick', '?')}"]
    for name, (delta, total) in sorted(
        record.get("counters", {}).items()
    ):
        parts.append(f"{name} +{delta}={total}")
    for name, value in sorted(record.get("gauges", {}).items()):
        parts.append(f"{name}={_format_value(value)}")
    for name, summary in sorted(record.get("histograms", {}).items()):
        quantiles = "  ".join(
            f"{label}={_format_value(summary[label])}"
            for label in ("p50", "p99")
            if label in summary
        )
        parts.append(
            f"{name} n={summary.get('count')} "
            f"(+{summary.get('delta')})  {quantiles}".rstrip()
        )
    return "  ".join(parts)


def render_top(metrics: dict[str, dict]) -> list[str]:
    """``obs top`` table lines for one parsed Prometheus snapshot."""
    lines: list[str] = []
    for name in sorted(metrics):
        entry = metrics[name]
        if entry.get("type") == "histogram":
            count = entry.get("count")
            total = entry.get("sum")
            mean = (
                total / count
                if count and total is not None
                else None
            )
            lines.append(
                f"{name:<48} histogram  n={_format_value(count)}  "
                f"sum={_format_value(total)}  "
                f"mean={_format_value(mean)}"
            )
        else:
            lines.append(
                f"{name:<48} {entry.get('type', 'untyped'):<9}  "
                f"{_format_value(entry.get('value'))}"
            )
    return lines


def _cmd_tail(args: argparse.Namespace) -> int:
    try:
        records = list(iter_jsonl_tail(args.stream))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.last is not None:
        records = records[-args.last:]
    for record in records:
        print(render_delta_record(record))
    print(f"{len(records)} export record(s) in {args.stream}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    try:
        text = open(args.prom_file, encoding="utf-8").read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = parse_prometheus(text)
    for line in render_top(metrics):
        print(line)
    print(f"{len(metrics)} metric(s) in {args.prom_file}")
    return 0


def _pair_by_run_id(
    baseline: list[RunTelemetry], current: list[RunTelemetry]
) -> list[tuple[RunTelemetry, RunTelemetry]]:
    """First-occurrence pairing by run_id, in baseline order."""
    by_id = {}
    for doc in current:
        by_id.setdefault(doc.run_id, doc)
    pairs = []
    seen = set()
    for doc in baseline:
        if doc.run_id in seen:
            continue
        seen.add(doc.run_id)
        other = by_id.get(doc.run_id)
        if other is not None:
            pairs.append((doc, other))
    return pairs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.obs",
        description="Render and compare telemetry manifests.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    summarize = commands.add_parser(
        "summarize", help="render a manifest file as text"
    )
    summarize.add_argument("path", help="JSONL manifest file")
    diff = commands.add_parser(
        "diff", help="compare two manifest files run-by-run"
    )
    diff.add_argument("baseline", help="baseline JSONL manifest file")
    diff.add_argument("current", help="current JSONL manifest file")
    diff.add_argument(
        "--fail-over",
        type=float,
        default=None,
        metavar="PCT",
        help=(
            "exit 2 when any matched span's wall time regressed by more "
            "than PCT percent"
        ),
    )
    diff.add_argument(
        "--min-seconds",
        type=float,
        default=DEFAULT_MIN_SECONDS,
        metavar="S",
        help=(
            "ignore spans shorter than S seconds in the baseline "
            "(timing noise; default: %(default)s)"
        ),
    )
    tail = commands.add_parser(
        "tail", help="render a live metrics delta stream (metrics.jsonl)"
    )
    tail.add_argument("stream", help="JSONL delta-stream file")
    tail.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="only the newest N export records (default: all)",
    )
    top = commands.add_parser(
        "top", help="render a Prometheus snapshot file (metrics.prom)"
    )
    top.add_argument("prom_file", help="Prometheus text-exposition file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "tail":
        return _cmd_tail(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "summarize":
        try:
            documents = read_manifests(args.path)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for doc in documents:
            print(summarize_manifest(doc))
            print()
        print(f"{len(documents)} manifest(s) in {args.path}")
        return 0
    # diff
    try:
        baseline = read_manifests(args.baseline)
        current = read_manifests(args.current)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    pairs = _pair_by_run_id(baseline, current)
    if not pairs:
        print("no runs in common between the two manifests", file=sys.stderr)
        return 1
    all_regressions: list[str] = []
    for doc_a, doc_b in pairs:
        report, regressions = diff_manifests(
            doc_a,
            doc_b,
            fail_over=args.fail_over,
            min_seconds=args.min_seconds,
        )
        print(report)
        all_regressions.extend(regressions)
    unmatched = {d.run_id for d in baseline} ^ {d.run_id for d in current}
    if unmatched:
        print(f"unmatched run ids: {', '.join(sorted(unmatched))}")
    if all_regressions:
        for regression in all_regressions:
            print(f"REGRESSION: {regression}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
