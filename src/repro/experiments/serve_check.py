"""SERVE-CHECK — the admission service's decisions survive scrutiny.

Two modes share one experiment id so both the service's background
counter-check and the sweep campaigns resolve through the same cached
runner:

* **admitted-set mode** (``classes`` given): the service hands over its
  admitted set as frozen tuples; the runner materialises it as an
  :class:`~repro.model.problem.HRTDMProblem`, re-derives feasibility
  through the scalar oracle *and* a fresh incremental engine
  (digest-compared row by row), then — when feasible — runs CSMA/DDCR
  under the peak-load adversary and asserts zero deadline misses.  A
  failed check here is exactly what the service reports as a
  ``sim-check-failed`` incident.
* **trace mode** (``classes=None``): generate a synthetic churn trace,
  drive it through a fresh :class:`~repro.serve.service.AdmissionService`
  twice (decision logs must match byte for byte), then apply the same
  oracle + simulation scrutiny to the surviving set.  This is the mode
  the ``serve-traces`` sweep campaign fans out over.
"""

from __future__ import annotations

from repro.analysis.metrics import summarize
from repro.core.feas_engine import FeasibilityEngine
from repro.core.feasibility import check_feasibility
from repro.experiments.base import ExperimentResult
from repro.experiments.catalog import register
from repro.experiments.harness import (
    build_simulation,
    ddcr_factory,
    default_ddcr_config,
)
from repro.model.message import DensityBound, MessageClass
from repro.model.problem import HRTDMProblem
from repro.model.source import SourceSpec
from repro.net.phy import MEDIA
from repro.serve.model import Request
from repro.serve.service import AdmissionService, ServeConfig
from repro.serve.traces import TraceConfig, generate_trace

__all__ = ["run", "problem_from_classes"]


def problem_from_classes(
    classes: tuple, static_q: int, static_m: int
) -> HRTDMProblem:
    """Rebuild an instance from the service's frozen-tuple class set.

    ``classes`` rows are ``(source_id, nu, name, length, deadline, a,
    w)`` in engine order; static indices are assigned contiguously, the
    same layout :meth:`FeasibilityEngine.to_problem` uses, so the two
    materialisations agree exactly.
    """
    order: list[int] = []
    by_source: dict[int, tuple[int, list[MessageClass]]] = {}
    for source_id, nu, name, length, deadline, a, w in classes:
        if source_id not in by_source:
            order.append(source_id)
            by_source[source_id] = (nu, [])
        by_source[source_id][1].append(
            MessageClass(
                name=name,
                length=length,
                deadline=deadline,
                bound=DensityBound(a=a, w=w),
            )
        )
    sources = []
    offset = 0
    for source_id in order:
        nu, members = by_source[source_id]
        sources.append(
            SourceSpec(
                source_id=source_id,
                message_classes=tuple(members),
                static_indices=tuple(range(offset, offset + nu)),
            )
        )
        offset += nu
    return HRTDMProblem(
        sources=tuple(sources), static_q=static_q, static_m=static_m
    )


def _scrutinise(
    problem: HRTDMProblem,
    medium_profile,
    trees,
    horizon: int,
    rows: list,
    checks: dict,
    notes: list,
) -> None:
    """Oracle + engine + (if feasible) simulation checks on one instance."""
    oracle = check_feasibility(problem, medium_profile, trees)
    engine = FeasibilityEngine.from_problem(problem, medium_profile, trees)
    mine = engine.report()
    checks["engine-matches-oracle"] = len(mine.classes) == len(
        oracle.classes
    ) and all(
        row == expected for row, expected in zip(mine.classes, oracle.classes)
    )
    checks["set-feasible"] = oracle.feasible
    for row in oracle.classes:
        rows.append(
            [row.source_id, row.class_name, row.bound, row.deadline,
             row.slack, row.feasible]
        )
    if not oracle.feasible:
        notes.append("set infeasible: simulation check skipped")
        return
    config = default_ddcr_config(
        problem, medium_profile, time_f=trees.time_f, time_m=trees.time_m
    )
    simulation = build_simulation(problem, medium_profile, ddcr_factory(config))
    metrics = summarize(simulation.run(horizon))
    checks["sim-no-misses"] = metrics.misses == 0
    notes.append(
        f"simulation: {metrics.delivered} delivered, "
        f"{metrics.misses} missed, utilization "
        f"{metrics.utilization:.3f} over {horizon} bit-times"
    )


@register(
    "SERVE-CHECK",
    title="Admission-service decisions counter-checked by oracle + DDCR sim",
    kind="simulation",
    seed_param="seed",
)
def run(
    classes: tuple | None = None,
    static_q: int = 64,
    static_m: int = 2,
    time_f: int = 64,
    time_m: int = 4,
    horizon: int = 4_000_000,
    medium: str = "gigabit-ethernet",
    events: int = 48,
    stations: int = 12,
    template: str = "city",
    trace_seed: int = 7,
    seed: int = 0,
) -> ExperimentResult:
    """Counter-check an admitted set (or a whole synthetic trace)."""
    medium_profile = MEDIA[medium]
    config = ServeConfig(
        static_q=static_q,
        static_m=static_m,
        time_f=time_f,
        time_m=time_m,
        medium=medium,
    )
    trees = config.trees()
    rows: list = []
    checks: dict[str, bool] = {}
    notes: list[str] = []
    if classes is None:
        trace = generate_trace(
            TraceConfig(
                events=events,
                stations=stations,
                seed=trace_seed + seed,
                template=template,
            )
        )
        first = AdmissionService(config)
        decisions = first.run_trace(trace)
        second = AdmissionService(config)
        rerun = second.run_trace(
            [Request.from_dict(request.to_dict()) for request in trace]
        )
        checks["decisions-deterministic"] = [
            d.to_json() for d in decisions
        ] == [d.to_json() for d in rerun]
        checks["no-incidents"] = not first.incidents
        admitted = sum(1 for d in decisions if d.kind == "join"
                       and d.verdict == "admit")
        rejected = sum(1 for d in decisions if d.verdict == "reject")
        notes.append(
            f"trace: {len(trace)} events, {admitted} admits, "
            f"{rejected} rejects, {first.class_count} classes survive"
        )
        classes = first.frozen_classes()
    if classes:
        _scrutinise(
            problem_from_classes(classes, static_q, static_m),
            medium_profile,
            trees,
            horizon,
            rows,
            checks,
            notes,
        )
    else:
        checks["set-feasible"] = True
        notes.append("empty admitted set: trivially feasible, no simulation")
    return ExperimentResult(
        experiment_id="SERVE-CHECK",
        title="Admission-service decisions counter-checked by oracle + "
              "DDCR sim",
        headers=["source", "class", "B_DDCR", "deadline", "slack",
                 "feasible"],
        rows=rows,
        checks=checks,
        notes=notes,
    )
