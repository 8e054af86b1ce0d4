"""Ordered registry of experiments, spec-based.

Each experiment module registers its runner and metadata through
:mod:`repro.experiments.catalog`; importing this module pulls in all of
them and exposes the suite as ``EXPERIMENTS`` — an ordered mapping from
DESIGN.md id to :class:`~repro.experiments.catalog.ExperimentEntry`
(entries are callable, so ``EXPERIMENTS["FIG1"]()`` still runs one).

The CLI (``python -m repro.experiments``), the benchmark suite and the
runtime executor's worker processes all resolve experiments here;
:func:`run_spec` is the single entry point a
:class:`~repro.runtime.spec.RunSpec` executes through.
"""

from __future__ import annotations

# The imports run each module's @register decoration; the names themselves
# are otherwise unused.
from repro.experiments import (  # noqa: F401
    ablation_branching,
    ablation_burst,
    ablation_pcp,
    ablation_theta,
    closed_form_check,
    ext_dual,
    ext_host,
    ext_noise,
    ext_util,
    ext_xor,
    fabric_bound,
    fc_validation,
    feasibility_sweep,
    fig1,
    fig2,
    multitree,
    protocol_comparison,
    recursions,
    serve_check,
    sim_vs_bound,
    tightness,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.catalog import ExperimentEntry, entries, get_entry
from repro.faults.context import use_fault_plan
from repro.obs.context import current_telemetry
from repro.runtime.spec import RunSpec

__all__ = [
    "EXPERIMENTS",
    "ExperimentEntry",
    "run_experiment",
    "run_spec",
    "run_all",
]

#: Canonical suite order (DESIGN.md's per-experiment index order).
_ORDER: tuple[str, ...] = (
    "FIG1",
    "FIG2",
    "EQ2-8",
    "EQ9-10-15",
    "EQ11-14",
    "EQ16-19",
    "FC",
    "SIM-XI",
    "SIM-FC",
    "PROTO",
    "ABL-M",
    "ABL-THETA",
    "ABL-BURST",
    "ABL-PCP",
    "EXT-XOR",
    "EXT-DUAL",
    "EXT-HOST",
    "EXT-NOISE",
    "EXT-UTIL",
    "FABRIC",
    "SERVE-CHECK",
)

EXPERIMENTS: dict[str, ExperimentEntry] = {
    experiment_id: get_entry(experiment_id) for experiment_id in _ORDER
}

_unindexed = set(entries()) - set(_ORDER)
if _unindexed:  # pragma: no cover - registration/index drift guard
    raise RuntimeError(
        f"experiments registered but missing from registry order: "
        f"{sorted(_unindexed)}"
    )


def run_experiment(experiment_id: str) -> ExperimentResult:
    """Run one experiment by its DESIGN.md id, with default parameters."""
    try:
        entry = EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known ids: {known}"
        ) from None
    return entry()


def run_spec(spec: RunSpec) -> ExperimentResult:
    """Execute a RunSpec: resolve the entry, apply params, seed and fault
    plan.

    The spec's fault plan is applied as a scoped process default
    (:func:`repro.faults.context.use_fault_plan`) so it reaches every
    simulation the experiment builds, without threading arguments through
    each runner's signature.  This also holds inside executor worker
    processes: the spec travels to the worker by pickle and is applied
    there.  The fault plan is part of the spec's content hash, so faulted
    and fault-free runs never share a cache entry.  The engine is not
    the spec's: the run takes the ambient one
    (:func:`repro.net.engine.use_engine`).
    """
    telemetry = current_telemetry()
    with telemetry.span("spec/resolve"):
        try:
            entry = EXPERIMENTS[spec.experiment_id]
        except KeyError:
            known = ", ".join(sorted(EXPERIMENTS))
            raise KeyError(
                f"unknown experiment {spec.experiment_id!r}; known ids: "
                f"{known}"
            ) from None
        kwargs = entry.kwargs_for(spec)
    with telemetry.span("spec/execute"):
        with use_fault_plan(spec.fault_plan()):
            result = entry.runner(**kwargs)
    if result.experiment_id != spec.experiment_id:
        raise RuntimeError(
            f"experiment {spec.experiment_id} returned a result labelled "
            f"{result.experiment_id!r}"
        )
    return result


def run_all() -> list[ExperimentResult]:
    """Run the full suite in index order."""
    return [entry() for entry in EXPERIMENTS.values()]
