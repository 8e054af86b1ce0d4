"""Micro-benchmarks of the library's hot primitives.

Unlike the artefact benches (one deterministic run each), these measure
throughput of the core computations a user hits repeatedly: the xi tables,
closed forms, the reference search, the feasibility bound, and raw
channel-simulation slot rate.
"""

from __future__ import annotations

import pytest

from repro.core.closed_form import xi_closed_form
from repro.core.divide_conquer import divide_conquer_table
from repro.core.feasibility import TreeParameters, latency_bound
from repro.core.search_cost import (
    _cost_tuple,
    simulate_search,
    worst_case_placement,
)
from repro.model.workloads import uniform_problem
from repro.net.engine import use_engine
from repro.net.network import NetworkSimulation, Scenario
from repro.net.phy import GIGABIT_ETHERNET, ideal_medium
from repro.protocols.ddcr import DDCRConfig, DDCRProtocol

_MS = 1_000_000


def test_bench_xi_dp_table(benchmark):
    """Ground-truth DP over Eq. 1 for a 1024-leaf quaternary tree."""

    def build():
        _cost_tuple.cache_clear()
        return _cost_tuple(4, 5)

    table = benchmark(build)
    assert table[2] == 19


def test_bench_divide_conquer_table(benchmark):
    """Eq. 2-4 route for the same shape (should be much faster)."""
    from repro.core.divide_conquer import _dc_tuple

    def build():
        _dc_tuple.cache_clear()
        return divide_conquer_table(4, 1024)

    table = benchmark(build)
    assert table[2] == 19


def test_bench_closed_form_grid(benchmark):
    """Eq. 10 evaluated over every k of a 4096-leaf binary tree."""

    def sweep():
        return [xi_closed_form(k, 4096, 2) for k in range(4097)]

    values = benchmark(sweep)
    assert values[2] == 23


def test_bench_simulate_search(benchmark):
    """Reference search semantics on a worst-case 64-of-256 placement."""
    placement = worst_case_placement(64, 256, 4)

    def run():
        return simulate_search(placement, 256, 4).cost

    cost = benchmark(run)
    assert cost > 0


def test_bench_latency_bound(benchmark):
    """One B_DDCR evaluation on a 16-source instance."""
    problem = uniform_problem(z=16, deadline=10 * _MS, a=2, w=4 * _MS)
    trees = TreeParameters(
        time_f=64, time_m=4,
        static_q=problem.static_q, static_m=problem.static_m,
    )
    source = problem.sources[0]
    target = source.message_classes[0]

    def evaluate():
        return latency_bound(
            target, source, problem, GIGABIT_ETHERNET, trees
        ).bound

    bound = benchmark(evaluate)
    assert bound > 0


@pytest.mark.parametrize("stations", [4, 16])
@pytest.mark.parametrize("engine", ["des", "batch"])
def test_bench_channel_slot_rate(benchmark, stations, engine):
    """DDCR simulation throughput (channel rounds per second), per engine."""
    problem = uniform_problem(
        z=stations, length=1_000, deadline=400_000, a=1, w=200_000
    )
    config = DDCRConfig(
        time_f=16, time_m=2, class_width=65_536,
        static_q=problem.static_q, static_m=problem.static_m,
    )

    def run():
        simulation = NetworkSimulation.from_scenario(
            Scenario(
                problem,
                ideal_medium(slot_time=64),
                protocol_factory=lambda s: DDCRProtocol(config),
            )
        )
        with use_engine(engine):
            return simulation.run(1_000_000).delivered

    delivered = benchmark.pedantic(run, rounds=3, iterations=1)
    assert delivered > 0
