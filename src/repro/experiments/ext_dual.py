"""EXT-DUAL — dual-bus fault tolerance (sections 3.2 and 5).

The paper notes parallel media and the industrial *dual bus* CSMA/DCR
deployments.  This experiment kills bus A mid-run and compares:

* single bus, failure: everything after the failure is lost (misses pile
  up) — the baseline that motivates redundancy;
* dual bus, same failure: stations detect the jam (K consecutive
  collision slots, common knowledge — no coordination messages), fail
  over in the same slot, and deliver everything; the only cost is the
  failover window, which must stay within the FC slack for the
  guarantee to hold end to end;
* dual bus, no failure: identical behaviour to a single healthy bus
  (the standby is warm but silent).
"""

from __future__ import annotations

from repro.analysis.metrics import summarize
from repro.experiments.base import ExperimentResult
from repro.experiments.catalog import register
from repro.experiments.harness import ddcr_factory, default_ddcr_config
from repro.model.workloads import uniform_problem
from repro.net.dualbus import DualBusSimulation, suggested_jam_threshold
from repro.net.network import NetworkSimulation, RunResult, Scenario
from repro.net.phy import GIGABIT_ETHERNET, MediumProfile

__all__ = ["run"]

_MS = 1_000_000


@register(
    "EXT-DUAL",
    title="Dual-bus fault tolerance under a bus failure",
    kind="simulation",
)
def run(
    medium: MediumProfile = GIGABIT_ETHERNET,
    horizon: int = 24 * _MS,
    fail_at: int = 9 * _MS,
) -> ExperimentResult:
    """Compare single-bus and dual-bus behaviour under a bus failure."""
    problem = uniform_problem(
        z=8, length=8_000, deadline=10 * _MS, a=1, w=4 * _MS
    )
    config = default_ddcr_config(problem, medium)
    threshold = suggested_jam_threshold(config)
    rows: list[list[object]] = []
    checks: dict[str, bool] = {}

    # Single healthy bus (reference).
    reference = NetworkSimulation.from_scenario(
        Scenario(
            problem=problem,
            medium=medium,
            protocol_factory=ddcr_factory(config),
        )
    ).run(horizon)
    reference_metrics = summarize(reference)
    rows.append(
        [
            "single, healthy",
            reference_metrics.delivered,
            reference_metrics.misses,
            0,
            reference_metrics.max_latency,
        ]
    )

    # Single bus that fails: everything after fail_at is lost.  Emulated
    # as a dual-bus run whose failover threshold is unreachable, so the
    # stations stay on the jammed bus forever.
    single_failed = DualBusSimulation(
        problem,
        medium,
        protocol_factory=ddcr_factory(config),
        jam_threshold=10**9,
        fail_bus_at=fail_at,
    ).run(horizon)
    sf_metrics = summarize(
        RunResult(
            horizon=horizon,
            stations=single_failed.stations,
            stats=single_failed.bus_stats[0],
        )
    )
    rows.append(
        [
            "single, fails mid-run",
            sf_metrics.delivered,
            sf_metrics.misses,
            0,
            sf_metrics.max_latency,
        ]
    )

    # Dual bus with the same failure.
    dual = DualBusSimulation(
        problem,
        medium,
        protocol_factory=ddcr_factory(config),
        jam_threshold=threshold,
        fail_bus_at=fail_at,
        check_consistency=True,
    ).run(horizon)
    dual_metrics = summarize(
        RunResult(
            horizon=horizon,
            stations=dual.stations,
            stats=dual.bus_stats[1],
        )
    )
    rows.append(
        [
            "dual, bus A fails",
            dual_metrics.delivered,
            dual_metrics.misses,
            dual.failovers,
            dual_metrics.max_latency,
        ]
    )

    # Dual bus, no failure: must behave like the healthy single bus.
    dual_clean = DualBusSimulation(
        problem,
        medium,
        protocol_factory=ddcr_factory(config),
        jam_threshold=threshold,
        check_consistency=True,
    ).run(horizon)
    dc_metrics = summarize(
        RunResult(
            horizon=horizon,
            stations=dual_clean.stations,
            stats=dual_clean.bus_stats[0],
        )
    )
    rows.append(
        [
            "dual, healthy",
            dc_metrics.delivered,
            dc_metrics.misses,
            dual_clean.failovers,
            dc_metrics.max_latency,
        ]
    )

    checks["single healthy bus misses nothing"] = (
        reference_metrics.misses == 0
    )
    checks["single failed bus loses traffic"] = (
        sf_metrics.delivered < reference_metrics.delivered
        and sf_metrics.misses > 0
    )
    checks["dual bus fails over exactly once"] = dual.failovers == 1
    checks["dual bus delivers everything despite the failure"] = (
        dual_metrics.delivered == reference_metrics.delivered
        and dual_metrics.misses == 0
    )
    checks["healthy dual bus never fails over"] = dual_clean.failovers == 0
    checks["jam threshold exceeds legitimate collision runs"] = (
        dc_metrics.delivered == reference_metrics.delivered
    )
    result = ExperimentResult(
        experiment_id="EXT-DUAL",
        title="Dual-bus failover under a mid-run bus failure",
        headers=[
            "configuration",
            "delivered",
            "misses",
            "failovers",
            "max_latency",
        ],
        rows=rows,
        checks=checks,
    )
    result.notes.append(
        f"bus A jammed at t={fail_at} ({fail_at / _MS:.0f} ms); failover "
        f"threshold = {threshold} consecutive collision slots."
    )
    return result
