"""Quickstart: specify an HRTDM instance, prove it feasible, simulate it.

This walks the paper's intended workflow end to end:

1. describe message classes with lengths, deadlines and (a, w) arrival
   density bounds (the unimodal arbitrary model of section 2.2);
2. compute the feasibility conditions B_DDCR <= d for every class
   (section 4.3) — the *proof* that the configuration meets <p.HRTDM>;
3. run CSMA/DDCR on a simulated Gigabit Ethernet under the greedy
   adversary that saturates every density bound, and confirm the proof:
   zero deadline misses and every observed latency below its bound.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.analysis.bounds import check_latency_bounds
from repro.analysis.metrics import summarize
from repro.analysis.report import format_table
from repro.core.feasibility import check_feasibility
from repro.model.message import DensityBound, MessageClass
from repro.model.problem import HRTDMProblem
from repro.model.source import SourceSpec, allocate_static_indices
from repro.net.network import NetworkSimulation, Scenario
from repro.net.phy import GIGABIT_ETHERNET
from repro.protocols.ddcr import DDCRConfig, DDCRProtocol

MS = 1_000_000  # 1 ms in bit-times at 1 Gb/s


def build_problem() -> HRTDMProblem:
    """Four stations: two sensor feeds, a control console, a logger."""
    sensor = MessageClass(
        name="sensor",
        length=4_000,                      # 500-byte readings
        deadline=4 * MS,                   # must land within 4 ms
        bound=DensityBound(a=2, w=2 * MS),  # at most 2 per sliding 2 ms
    )
    sensor_b = MessageClass(
        name="sensor-b",
        length=4_000,
        deadline=4 * MS,
        bound=DensityBound(a=2, w=2 * MS),
    )
    control = MessageClass(
        name="control",
        length=1_000,
        deadline=2 * MS,                   # urgent commands
        bound=DensityBound(a=1, w=5 * MS),
    )
    log = MessageClass(
        name="log",
        length=12_000,
        deadline=20 * MS,                  # bulky but relaxed
        bound=DensityBound(a=1, w=10 * MS),
    )
    indices = allocate_static_indices([1, 1, 1, 1], q=4)
    sources = tuple(
        SourceSpec(source_id=i, message_classes=(cls,), static_indices=idx)
        for i, (cls, idx) in enumerate(
            zip((sensor, sensor_b, control, log), indices)
        )
    )
    return HRTDMProblem(sources=sources, static_q=4, static_m=2)


def main() -> None:
    problem = build_problem()
    print(problem.describe())
    print()

    config = DDCRConfig(
        time_f=64,
        time_m=4,
        class_width=max(GIGABIT_ETHERNET.slot_time, 2 * 20 * MS // 64),
        static_q=problem.static_q,
        static_m=problem.static_m,
        alpha=2 * GIGABIT_ETHERNET.slot_time,
        theta_factor=1.0,
    )

    # Step 1: the proof — feasibility conditions for every class.
    report = check_feasibility(
        problem, GIGABIT_ETHERNET, config.tree_parameters()
    )
    print(
        format_table(
            ["class", "deadline (ms)", "B_DDCR (ms)", "slack (ms)", "feasible"],
            [
                [
                    fc.class_name,
                    fc.deadline / MS,
                    fc.bound / MS,
                    fc.slack / MS,
                    fc.feasible,
                ]
                for fc in report.classes
            ],
            title="Feasibility conditions (section 4.3)",
        )
    )
    if not report.feasible:
        print("\ninstance infeasible — re-dimension before deploying")
        return

    # Step 2: the experiment — peak-load adversary on simulated GigE.
    simulation = NetworkSimulation.from_scenario(
        Scenario(
            problem,
            GIGABIT_ETHERNET,
            protocol_factory=lambda source: DDCRProtocol(config),
            check_consistency=True,
        )
    )
    result = simulation.run(horizon=60 * MS)
    metrics = summarize(result)

    print()
    print(
        f"simulated 60 ms of peak load: delivered={metrics.delivered} "
        f"misses={metrics.misses} utilization={metrics.utilization:.3f}"
    )
    _, latency_checks = check_latency_bounds(
        result, problem, GIGABIT_ETHERNET, config.tree_parameters()
    )
    print(
        format_table(
            ["class", "worst observed (ms)", "B_DDCR (ms)", "budget used"],
            [
                [
                    check.class_name,
                    check.observed_max / MS,
                    check.bound / MS,
                    f"{check.tightness:.1%}",
                ]
                for check in latency_checks
            ],
            title="Observed worst-case latency vs analytic bound",
        )
    )
    assert metrics.meets_hrtdm, "the feasibility proof must hold in simulation"
    print("\n<p.HRTDM> holds: every message met its deadline.")


if __name__ == "__main__":
    main()
