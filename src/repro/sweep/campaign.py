"""Campaigns: a named grid bound to an experiment, sharded and resumable.

A :class:`Campaign` is pure data — a name, a :class:`~repro.sweep.grid.Grid`,
fixed base parameters and a shard size — whose :meth:`~Campaign.points`
expansion maps every grid point onto a content-addressed
:class:`~repro.runtime.spec.RunSpec`.  Reserved axes move into spec
fields (``seed`` → ``root_seed``, ``fault`` → a preset fault plan,
``faults`` → a plan as canonical JSON, ``experiment`` → the experiment
id); everything else becomes a runner keyword argument layered over the
campaign's base ``params``.  A campaign names no engine: its points run
on the ambient one (:func:`repro.net.engine.use_engine`, which
``sweep --engine`` scopes).

:func:`run_campaign` drives the expansion through the cache-aware
:class:`~repro.runtime.executor.ParallelExecutor` in bounded shards
(batches of ``batch_size`` points), checkpointing every completed shard
to a :class:`~repro.sweep.journal.CampaignJournal`.  Resuming replays
journaled shards straight from the result cache — zero resubmissions —
and because cached entries carry their telemetry manifests
(:class:`~repro.runtime.cache.CacheEntry`), the resumed aggregate is
byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from collections.abc import Callable, Mapping, Sequence

from repro.obs.context import current_tracer
from repro.obs.manifest import RunTelemetry
from repro.runtime.cache import ResultCache
from repro.runtime.executor import ParallelExecutor, RunRecord
from repro.runtime.spec import RunSpec, freeze_params
from repro.sweep.aggregate import CampaignResult, PointOutcome
from repro.sweep.grid import Grid, SEED_AXIS
from repro.sweep.journal import CampaignJournal

__all__ = ["Campaign", "CampaignPoint", "run_campaign"]

#: Journal replays report this provenance (vs cache/serial/pool).
SOURCE_JOURNAL = "journal"


@dataclasses.dataclass(frozen=True)
class CampaignPoint:
    """One expanded grid point: its coordinates and the spec they name."""

    index: int
    point: dict[str, object]
    spec: RunSpec


@dataclasses.dataclass(frozen=True)
class Campaign:
    """A declarative sweep: grid × experiment, sharded into batches."""

    name: str
    grid: Grid
    experiment: str | None = None
    #: Fixed runner parameters under every point (frozen pairs).
    params: tuple[tuple[str, object], ...] = ()
    #: Points per executor submission; bounds peak memory and sets the
    #: checkpoint granularity (a kill loses at most one shard of work).
    batch_size: int = 4
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaigns need a non-empty name")
        if self.batch_size < 1:
            raise ValueError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )

    @classmethod
    def make(
        cls,
        name: str,
        *,
        experiment: str | None = None,
        grid: Grid | None = None,
        axes: Mapping[str, Sequence[object]] | None = None,
        zipped: Mapping[str, Sequence[object]] | None = None,
        seeds: Sequence[int] | None = None,
        params: Mapping[str, object] | None = None,
        batch_size: int = 4,
        description: str = "",
    ) -> "Campaign":
        """Build a campaign from a grid or inline axes (not both)."""
        if grid is not None and (axes or zipped or seeds):
            raise ValueError("pass either grid= or axes/zipped/seeds")
        if grid is None:
            grid = Grid.make(axes=axes, zipped=zipped, seeds=seeds)
        frozen_params = tuple(
            (key, freeze_params(value))
            for key, value in sorted((params or {}).items())
        )
        return cls(
            name=name,
            grid=grid,
            experiment=experiment,
            params=frozen_params,
            batch_size=batch_size,
            description=description,
        )

    def replace(self, **overrides: object) -> "Campaign":
        """A copy with fields overridden (``dataclasses.replace``)."""
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]

    def with_seeds(self, seeds: Sequence[int]) -> "Campaign":
        """A copy whose grid uses exactly these replica seeds."""
        grid = dataclasses.replace(self.grid, seeds=tuple(seeds))
        return dataclasses.replace(self, grid=grid)

    # -- expansion ---------------------------------------------------------

    def points(self) -> list[CampaignPoint]:
        """Expand the grid into ordered, spec-bound campaign points."""
        out: list[CampaignPoint] = []
        base = dict(self.params)
        for index, point in enumerate(self.grid.points()):
            values = dict(point)
            experiment = values.pop("experiment", self.experiment)
            if not isinstance(experiment, str) or not experiment:
                raise ValueError(
                    f"campaign {self.name!r}: point {index} selects no "
                    "experiment (set campaign.experiment or an "
                    "'experiment' axis)"
                )
            seed = values.pop(SEED_AXIS, None)
            faults = values.pop("faults", None)
            preset = values.pop("fault", None)
            if preset is not None:
                if faults is not None:
                    raise ValueError(
                        f"campaign {self.name!r}: point {index} sets "
                        "both 'fault' and 'faults'"
                    )
                from repro.faults.models import preset_plan

                faults = preset_plan(str(preset))
            spec = RunSpec.make(
                str(experiment),
                root_seed=seed if isinstance(seed, int) else None,
                faults=faults,
                **{**base, **values},
            )
            out.append(CampaignPoint(index=index, point=point, spec=spec))
        return out

    def shards(
        self, points: list[CampaignPoint] | None = None
    ) -> list[list[CampaignPoint]]:
        """Consecutive ``batch_size`` chunks of the point expansion."""
        if points is None:
            points = self.points()
        return [
            points[start : start + self.batch_size]
            for start in range(0, len(points), self.batch_size)
        ]

    def campaign_hash(self) -> str:
        """Content hash binding a journal to this exact expansion.

        Derived from the shard layout and every point's canonical spec
        key, so *any* change that alters what a shard index means — grid
        edits, base-param changes, a different batch size, even a code
        edit (via the spec salt) — invalidates old journals instead of
        replaying the wrong results.
        """
        payload = {
            "name": self.name,
            "batch_size": self.batch_size,
            "specs": [
                point.spec.canonical_key() for point in self.points()
            ],
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        doc: dict[str, object] = {
            "name": self.name,
            "experiment": self.experiment,
            "params": {
                key: _jsonable(value) for key, value in self.params
            },
            "batch_size": self.batch_size,
            "description": self.description,
        }
        doc.update(self.grid.to_dict())
        return doc

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "Campaign":
        known = {
            "name",
            "experiment",
            "params",
            "batch_size",
            "description",
            "axes",
            "zip",
            "seeds",
        }
        unknown = set(doc) - known
        if unknown:
            raise ValueError(
                f"unknown campaign key(s): {sorted(unknown)}"
            )
        name = doc.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError("campaign documents need a 'name' string")
        return cls.make(
            name,
            experiment=doc.get("experiment"),  # type: ignore[arg-type]
            grid=Grid.from_dict(
                {
                    key: doc[key]
                    for key in ("axes", "zip", "seeds")
                    if key in doc
                }
            ),
            params=doc.get("params"),  # type: ignore[arg-type]
            batch_size=int(doc.get("batch_size", 4)),
            description=str(doc.get("description", "")),
        )

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "Campaign":
        """Read a campaign document from a JSON file."""
        with open(path, encoding="utf-8") as handle:
            try:
                doc = json.load(handle)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}: not valid JSON: {error}") from None
        if not isinstance(doc, dict):
            raise ValueError(f"{path}: campaign document must be an object")
        return cls.from_dict(doc)


def _jsonable(value: object) -> object:
    """Frozen canonical form -> JSON-encodable structure."""
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    return value


# -- the driver ------------------------------------------------------------


def run_campaign(
    campaign: Campaign,
    *,
    jobs: int = 1,
    cache: ResultCache | None = None,
    force: bool = False,
    journal_path: str | pathlib.Path | None = None,
    resume: bool = False,
    max_shards: int | None = None,
    progress: Callable[[RunRecord, int, int], None] | None = None,
) -> CampaignResult:
    """Execute a campaign shard by shard, checkpointing as it goes.

    * Shards run through one :class:`ParallelExecutor` (``jobs`` workers,
      cache-aware), so within a shard results come back in point order
      and warm points cost no simulation.
    * After each shard completes, it is recorded in the journal; on
      ``resume=True`` recorded shards are *replayed* from the result
      cache without entering the executor at all (``submissions`` stays
      untouched).  If the cache has since lost an entry the shard falls
      back to re-execution — the journal is an index, never the data.
    * ``max_shards`` bounds how many *new* shards this invocation
      executes (time-boxing long campaigns); the result then reports
      ``complete=False`` and a later ``resume=True`` run finishes the
      rest.

    Telemetry is always collected: the per-point manifests feed the
    aggregate's slot-outcome counters and latency quantiles, and their
    deterministic content projection is what makes a resumed aggregate
    byte-identical to an uninterrupted one.
    """
    points = campaign.points()
    shards = campaign.shards(points)
    campaign_hash = campaign.campaign_hash()

    journal: CampaignJournal | None = None
    completed: set[int] = set()
    if resume and journal_path is None:
        raise ValueError("resume=True needs a journal_path")
    if resume and cache is None:
        raise ValueError(
            "resume=True needs a result cache (journaled shards replay "
            "from it)"
        )
    if journal_path is not None:
        journal = CampaignJournal(journal_path)
        completed = journal.begin(
            campaign_hash, total_shards=len(shards), resume=resume
        )

    executor = ParallelExecutor(
        jobs=jobs,
        cache=cache,
        force=force,
        progress=progress,
        collect_telemetry=True,
    )

    outcomes: list[PointOutcome | None] = [None] * len(points)
    executed_shards = 0
    replayed_shards = 0
    # Per-shard progress lands in the ambient flight recorder (if one is
    # armed), so a long campaign's black box shows which shard it was in.
    tracer = current_tracer()
    tracer_on = tracer.enabled
    for shard_index, shard in enumerate(shards):
        if shard_index in completed and not force:
            replayed = _replay_shard(cache, shard)
            if replayed is not None:
                for outcome in replayed:
                    outcomes[outcome.index] = outcome
                replayed_shards += 1
                if tracer_on:
                    tracer.emit(
                        "sweep/shard", index=shard_index,
                        points=len(shard), source="journal",
                    )
                continue
            # The cache lost an entry the journal promised: re-run.
        if max_shards is not None and executed_shards >= max_shards:
            continue  # budget spent; later journaled shards still replay
        if tracer_on:
            with tracer.span(
                "sweep/shard", index=shard_index, points=len(shard),
                source="executor",
            ):
                records = executor.run([point.spec for point in shard])
        else:
            records = executor.run([point.spec for point in shard])
        shard_ok = True
        for point, record in zip(shard, records):
            outcome = _outcome_from_record(point, record)
            outcomes[point.index] = outcome
            shard_ok = shard_ok and outcome.ok
        if journal is not None:
            journal.record(
                shard_index,
                [point.spec.spec_hash() for point in shard],
                ok=shard_ok,
                duration=sum(record.duration for record in records),
            )
        executed_shards += 1

    return CampaignResult(
        campaign=campaign,
        campaign_hash=campaign_hash,
        outcomes=[outcome for outcome in outcomes if outcome is not None],
        total_points=len(points),
        total_shards=len(shards),
        executed_shards=executed_shards,
        replayed_shards=replayed_shards,
        submissions=executor.submissions,
        cache_stats=cache.stats if cache is not None else None,
    )


def _outcome_from_record(
    point: CampaignPoint, record: RunRecord
) -> PointOutcome:
    return PointOutcome(
        index=point.index,
        point=dict(point.point),
        spec=point.spec,
        result=record.result,
        source=record.source,
        duration=record.duration,
        telemetry=record.telemetry,
    )


def _replay_shard(
    cache: ResultCache | None, shard: list[CampaignPoint]
) -> list[PointOutcome] | None:
    """Rebuild a journaled shard from the cache; ``None`` on any miss."""
    if cache is None:
        return None
    replayed: list[PointOutcome] = []
    for point in shard:
        entry = cache.get_entry(point.spec)
        if entry is None:
            return None
        manifest = None
        if entry.telemetry is not None:
            manifest = RunTelemetry.from_dict(entry.telemetry)
            manifest.source = SOURCE_JOURNAL
            manifest.wall_seconds = 0.0
        replayed.append(
            PointOutcome(
                index=point.index,
                point=dict(point.point),
                spec=point.spec,
                result=entry.result,
                source=SOURCE_JOURNAL,
                duration=0.0,
                telemetry=manifest,
            )
        )
    return replayed
