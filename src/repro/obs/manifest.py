"""Run manifests: one :class:`RunTelemetry` document per run, JSONL on disk.

A manifest file is JSON Lines — one self-contained document per run —
so appending runs is atomic-ish and streaming consumers never need the
whole file.  ``python -m repro.tools.obs`` renders (``summarize``) and
compares (``diff``) manifests; the experiments CLI writes them via
``--telemetry out.jsonl``.

Determinism: :meth:`RunTelemetry.content_dict` is the projection the
engine-differential suite compares — instruments, span structure, seed
and fault provenance, but *not* wall-clock span durations, wall time,
the engine label or the provenance ``source`` (those describe how the
run was driven, not what it computed).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib
import subprocess
import typing

from repro.obs.instruments import Counter, Gauge, Histogram, Telemetry

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.models import FaultPlan

__all__ = [
    "RunTelemetry",
    "fault_plan_hash",
    "git_rev",
    "read_manifests",
    "write_manifests",
]

#: Bump when the manifest document layout changes incompatibly.
MANIFEST_SCHEMA = 1


def _git(*args: str) -> subprocess.CompletedProcess | None:
    """Run one ``git`` command in this package's directory (``None``
    when git cannot be started)."""
    try:
        return subprocess.run(
            ["git", *args],
            cwd=pathlib.Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except OSError:
        return None


@functools.cache
def git_rev() -> str:
    """Short git revision of the working tree, or ``"unknown"``.

    A tree whose tracked files differ from ``HEAD`` reads
    ``<rev>-dirty``: its code is not the revision's, so a result it
    produced must not name that revision alone.  Memoized once per
    process: the code a process runs is the revision it imported, and
    every manifest would otherwise pay ``git`` subprocesses.
    """
    proc = _git("rev-parse", "--short", "HEAD")
    rev = proc.stdout.strip() if proc is not None else ""
    if proc is None or proc.returncode != 0 or not rev:
        return "unknown"
    diff = _git("diff", "--quiet", "HEAD", "--")
    # ``--quiet`` exits 1 when the tree differs, 0 when it does not.
    return f"{rev}-dirty" if diff is not None and diff.returncode == 1 else rev


def fault_plan_hash(faults: "FaultPlan | str | None") -> str | None:
    """Short content hash of a fault plan (canonical JSON), or ``None``."""
    if faults is None:
        return None
    canonical = faults if isinstance(faults, str) else faults.dumps()
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclasses.dataclass
class RunTelemetry:
    """Everything one run measured, as plain JSON-ready data.

    ``counters``/``gauges`` map instrument name to value; ``histograms``
    map name to the :meth:`~repro.obs.instruments.Histogram.snapshot`
    dict; ``spans`` is the span call forest
    (:meth:`~repro.obs.instruments.SpanNode.snapshot`).  The metadata
    fields carry provenance: which run (``run_id``), on what code
    (``git_rev``), driven how (``engine``, ``source``), from which seed
    and fault plan.
    """

    run_id: str
    engine: str | None = None
    #: Why the requested engine degraded or delegated (e.g. the batch
    #: kernel fell back to the fast loop on a structurally ineligible
    #: run, such as one with consistency checks); ``None`` when it ran as
    #: requested.  Execution provenance, excluded from the content
    #: projection like ``engine`` itself.
    engine_fallback: str | None = None
    seed: int | None = None
    git_rev: str = "unknown"
    fault_plan: str | None = None
    source: str = "direct"
    wall_seconds: float = 0.0
    counters: dict[str, int] = dataclasses.field(default_factory=dict)
    gauges: dict[str, float] = dataclasses.field(default_factory=dict)
    histograms: dict[str, dict] = dataclasses.field(default_factory=dict)
    spans: list[dict] = dataclasses.field(default_factory=list)

    @classmethod
    def from_registry(
        cls,
        telemetry: Telemetry,
        run_id: str,
        *,
        engine: str | None = None,
        engine_fallback: str | None = None,
        seed: int | None = None,
        faults: "FaultPlan | str | None" = None,
        source: str = "direct",
        wall_seconds: float = 0.0,
    ) -> "RunTelemetry":
        """Snapshot a registry into a manifest document."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for instrument in telemetry.instruments():
            if isinstance(instrument, Counter):
                counters[instrument.name] = instrument.value
            elif isinstance(instrument, Histogram):
                histograms[instrument.name] = instrument.snapshot()
            elif isinstance(instrument, Gauge):
                gauges[instrument.name] = instrument.value
        return cls(
            run_id=run_id,
            engine=engine,
            engine_fallback=engine_fallback,
            seed=seed,
            git_rev=git_rev(),
            fault_plan=fault_plan_hash(faults),
            source=source,
            wall_seconds=wall_seconds,
            counters=counters,
            gauges=gauges,
            histograms=histograms,
            spans=telemetry.span_snapshots(),
        )

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        doc = dataclasses.asdict(self)
        doc["schema"] = MANIFEST_SCHEMA
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "RunTelemetry":
        fields = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: doc[key] for key in doc if key in fields})

    def to_json(self) -> str:
        """One compact JSONL line."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def content_dict(self) -> dict[str, object]:
        """The deterministic projection: what the run computed.

        Engines must agree on this byte for byte; wall-clock durations,
        the engine label and execution provenance are excluded (they
        describe *how* the run was driven).
        """

        def strip(span: dict) -> dict:
            out = {"name": span["name"], "calls": span["calls"]}
            if "children" in span:
                out["children"] = [strip(c) for c in span["children"]]
            return out

        return {
            "run_id": self.run_id,
            "seed": self.seed,
            "fault_plan": self.fault_plan,
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": self.histograms,
            "spans": [strip(span) for span in self.spans],
        }

    def content_json(self) -> str:
        return json.dumps(
            self.content_dict(), sort_keys=True, separators=(",", ":")
        )


def write_manifests(
    path: str | pathlib.Path,
    documents: typing.Iterable[RunTelemetry],
    append: bool = False,
) -> int:
    """Write documents as JSON Lines; returns the number written."""
    count = 0
    with open(path, "a" if append else "w", encoding="utf-8") as handle:
        for document in documents:
            handle.write(document.to_json() + "\n")
            count += 1
    return count


def read_manifests(path: str | pathlib.Path) -> list[RunTelemetry]:
    """Parse a JSONL manifest file; blank lines are skipped."""
    documents: list[RunTelemetry] = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(
                    f"{path}:{line_number}: not valid JSON: {error}"
                ) from None
            if not isinstance(doc, dict):
                raise ValueError(
                    f"{path}:{line_number}: manifest line is not an object"
                )
            documents.append(RunTelemetry.from_dict(doc))
    return documents
