"""Campaign results: tidy per-point tables and per-axis roll-ups.

A :class:`CampaignResult` holds one :class:`PointOutcome` per resolved
grid point and derives three views:

* :meth:`~CampaignResult.table` — a tidy table, one row per point, with
  the axis coordinates, check verdicts, slot-outcome counters and
  latency quantiles (from the per-run telemetry manifests);
* :meth:`~CampaignResult.axis_rollups` — per-axis marginals, merging
  the fixed-bucket histograms by summing counts (buckets are shared, so
  the merge is exact) and summing counters;
* :meth:`~CampaignResult.aggregate_dict` /
  :meth:`~CampaignResult.aggregate_json` — the **deterministic
  aggregate document**: everything above minus wall-clock time,
  provenance sources and engine labels.  Two campaign runs that compute
  the same points must produce byte-identical aggregate JSON — this is
  the property the resume machinery is tested against.
"""

from __future__ import annotations

import dataclasses
import json
import typing

from repro.analysis.report import format_table, to_csv
from repro.obs.instruments import snapshot_quantile
from repro.obs.manifest import RunTelemetry
from repro.runtime.spec import RunSpec

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.base import ExperimentResult
    from repro.runtime.cache import CacheStats
    from repro.sweep.campaign import Campaign

__all__ = ["CampaignResult", "PointOutcome"]

#: Bump when the aggregate document layout changes incompatibly.
AGGREGATE_SCHEMA = 1

#: Quantiles surfaced in tables and roll-ups.
_QUANTILES = ((0.5, "p50"), (0.99, "p99"))


@dataclasses.dataclass
class PointOutcome:
    """One resolved grid point: coordinates, result, telemetry."""

    index: int
    point: dict[str, object]
    spec: RunSpec
    result: "ExperimentResult"
    source: str
    duration: float
    telemetry: RunTelemetry | None = None

    @property
    def ok(self) -> bool:
        return self.result.all_checks_pass

    def content_telemetry(self) -> dict[str, object] | None:
        """The manifest's deterministic projection, or ``None``."""
        if self.telemetry is None:
            return None
        return self.telemetry.content_dict()


# -- histogram arithmetic over snapshot dicts ------------------------------


def _merge_snapshots(snapshots: list[dict]) -> dict | None:
    """Merge fixed-bucket histogram snapshots by summing counts.

    All snapshots must share the same edges (every repro histogram of a
    given name does); with shared buckets the merge is exact, which is
    what makes per-axis quantile roll-ups meaningful.
    """
    merged: dict | None = None
    for snapshot in snapshots:
        if merged is None:
            merged = {
                "edges": list(snapshot["edges"]),
                "counts": list(snapshot["counts"]),
                "count": snapshot["count"],
                "total": snapshot["total"],
                "min": snapshot["min"],
                "max": snapshot["max"],
            }
            continue
        if list(snapshot["edges"]) != merged["edges"]:
            raise ValueError(
                "cannot merge histograms with different bucket edges"
            )
        merged["counts"] = [
            a + b for a, b in zip(merged["counts"], snapshot["counts"])
        ]
        merged["count"] += snapshot["count"]
        merged["total"] += snapshot["total"]
        for key, pick in (("min", min), ("max", max)):
            if snapshot[key] is not None:
                merged[key] = (
                    snapshot[key]
                    if merged[key] is None
                    else pick(merged[key], snapshot[key])
                )
    return merged


def _quantile_summary(snapshot: dict) -> dict[str, object]:
    summary: dict[str, object] = {
        "count": snapshot["count"],
        "total": snapshot["total"],
        "max": snapshot["max"],
    }
    for q, label in _QUANTILES:
        summary[label] = snapshot_quantile(snapshot, q)
    return summary


def _is_slot_counter(name: str) -> bool:
    return name.startswith("slots/") or "/slots/" in name


def _is_latency_histogram(name: str) -> bool:
    return name.startswith("latency/") or "/latency/" in name


def _jsonable(value: object) -> object:
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    return value


def _axis_key(value: object) -> str:
    """Stable string key for grouping points by an axis value."""
    return json.dumps(_jsonable(value), sort_keys=True, separators=(",", ":"))


@dataclasses.dataclass
class CampaignResult:
    """Everything one :func:`~repro.sweep.campaign.run_campaign` produced."""

    campaign: "Campaign"
    campaign_hash: str
    outcomes: list[PointOutcome]
    total_points: int
    total_shards: int
    executed_shards: int
    replayed_shards: int
    #: Cache misses the executor actually ran (0 on a warm resume).
    submissions: int
    cache_stats: "CacheStats | None" = None

    @property
    def complete(self) -> bool:
        return len(self.outcomes) == self.total_points

    @property
    def ok(self) -> bool:
        return self.complete and all(o.ok for o in self.outcomes)

    def failed_points(self) -> list[PointOutcome]:
        return [o for o in self.outcomes if not o.ok]

    # -- tidy table --------------------------------------------------------

    def _axis_names(self) -> tuple[str, ...]:
        return self.campaign.grid.axis_names()

    def _slot_counter_names(self) -> list[str]:
        names: set[str] = set()
        for outcome in self.outcomes:
            if outcome.telemetry is not None:
                names.update(
                    name
                    for name in outcome.telemetry.counters
                    if _is_slot_counter(name)
                )
        return sorted(names)

    def _point_latency(self, outcome: PointOutcome) -> dict | None:
        if outcome.telemetry is None:
            return None
        snapshots = [
            snapshot
            for name, snapshot in sorted(outcome.telemetry.histograms.items())
            if _is_latency_histogram(name) and snapshot["count"]
        ]
        if not snapshots:
            return None
        return _merge_snapshots(snapshots)

    def table(self) -> tuple[list[str], list[list[object]]]:
        """Headers + rows: one row per point, axes first."""
        axes = self._axis_names()
        counters = self._slot_counter_names()
        headers = list(axes) + ["experiment", "ok"] + counters
        headers += [label for _, label in _QUANTILES]
        rows: list[list[object]] = []
        for outcome in sorted(self.outcomes, key=lambda o: o.index):
            row: list[object] = [
                outcome.point.get(axis, "") for axis in axes
            ]
            row.append(outcome.spec.experiment_id)
            row.append("ok" if outcome.ok else "FAIL")
            telemetry = outcome.telemetry
            for name in counters:
                row.append(
                    telemetry.counters.get(name, 0)
                    if telemetry is not None
                    else ""
                )
            latency = self._point_latency(outcome)
            for q, _ in _QUANTILES:
                row.append(
                    snapshot_quantile(latency, q)
                    if latency is not None
                    else ""
                )
            rows.append(row)
        return headers, rows

    def render(self) -> str:
        """Human-readable campaign report."""
        headers, rows = self.table()
        title = f"== campaign {self.campaign.name} [{self.campaign_hash}] =="
        parts = [title, format_table(headers, rows)]
        parts.append(
            f"points: {len(self.outcomes)}/{self.total_points}  "
            f"shards: {self.executed_shards} executed / "
            f"{self.replayed_shards} replayed / {self.total_shards} total  "
            f"submissions: {self.submissions}"
        )
        if not self.complete:
            parts.append(
                "campaign INCOMPLETE — rerun with --resume to finish"
            )
        for outcome in self.failed_points():
            failed = ", ".join(outcome.result.failed_checks())
            parts.append(
                f"FAILED {outcome.spec.describe()}: {failed}"
            )
        return "\n".join(parts)

    def csv(self) -> str:
        headers, rows = self.table()
        return to_csv(headers, rows)

    # -- per-axis roll-ups -------------------------------------------------

    def axis_rollups(self) -> dict[str, dict[str, dict[str, object]]]:
        """Marginal summaries: axis -> value (JSON key) -> roll-up.

        Counters sum across the axis group; histograms merge exactly
        (shared buckets) before the quantile summary, so a roll-up
        quantile reflects the pooled distribution, not an average of
        per-point quantiles.
        """
        rollups: dict[str, dict[str, dict[str, object]]] = {}
        for axis in self._axis_names():
            groups: dict[str, list[PointOutcome]] = {}
            for outcome in self.outcomes:
                if axis not in outcome.point:
                    continue
                groups.setdefault(
                    _axis_key(outcome.point[axis]), []
                ).append(outcome)
            axis_doc: dict[str, dict[str, object]] = {}
            for key in sorted(groups):
                members = groups[key]
                counters: dict[str, int] = {}
                by_name: dict[str, list[dict]] = {}
                for outcome in members:
                    if outcome.telemetry is None:
                        continue
                    for name, value in outcome.telemetry.counters.items():
                        counters[name] = counters.get(name, 0) + value
                    for name, snap in outcome.telemetry.histograms.items():
                        by_name.setdefault(name, []).append(snap)
                histograms = {}
                for name in sorted(by_name):
                    merged = _merge_snapshots(by_name[name])
                    if merged is not None and merged["count"]:
                        histograms[name] = _quantile_summary(merged)
                axis_doc[key] = {
                    "points": len(members),
                    "ok": sum(1 for outcome in members if outcome.ok),
                    "counters": dict(sorted(counters.items())),
                    "histograms": histograms,
                }
            rollups[axis] = axis_doc
        return rollups

    # -- the deterministic aggregate document ------------------------------

    def aggregate_dict(self) -> dict[str, object]:
        """The campaign's content: everything except how it was driven.

        Excludes durations, cache/pool/journal provenance and engine
        labels (the manifest content projection already strips them), so
        cold, warm and resumed runs of the same campaign — on either
        engine — agree byte for byte.
        """
        points = []
        for outcome in sorted(self.outcomes, key=lambda o: o.index):
            points.append(
                {
                    "point": {
                        axis: _jsonable(value)
                        for axis, value in outcome.point.items()
                    },
                    "experiment": outcome.spec.experiment_id,
                    "spec": outcome.spec.spec_hash(),
                    "ok": outcome.ok,
                    "failed_checks": outcome.result.failed_checks(),
                    "telemetry": outcome.content_telemetry(),
                }
            )
        return {
            "schema": AGGREGATE_SCHEMA,
            "campaign": self.campaign.name,
            "campaign_hash": self.campaign_hash,
            "complete": self.complete,
            "ok": self.ok,
            "points": points,
            "axes": self.axis_rollups(),
        }

    def aggregate_json(self) -> str:
        """Canonical JSON of :meth:`aggregate_dict` — the byte-identity
        artifact resume correctness is measured against."""
        return json.dumps(
            self.aggregate_dict(), sort_keys=True, separators=(",", ":")
        )
