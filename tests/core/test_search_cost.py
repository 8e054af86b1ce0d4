"""Tests for the ground-truth search-cost analysis (Eq. 1)."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.search_cost import (
    enumerate_worst_placements,
    exact_cost_table,
    heavy_search_bound,
    simulate_search,
    worst_case_placement,
    xi_bruteforce,
    xi_exact,
)


class TestExactTable:
    def test_base_values(self, small_shape):
        m, t = small_shape
        table = exact_cost_table(m, t)
        assert table[0] == 1, "probing an empty tree costs one slot"
        assert table[1] == 0, "a lone source transmits at the root probe"

    def test_eq5_eq7_endpoints(self, small_shape):
        m, t = small_shape
        table = exact_cost_table(m, t)
        n = 0
        power = 1
        while power < t:
            power *= m
            n += 1
        assert table[2] == m * n - 1
        assert table[t] == (t - 1) // (m - 1)

    def test_table_length_and_types(self):
        table = exact_cost_table(4, 64)
        assert len(table) == 65
        assert all(isinstance(c, int) for c in table.costs)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            xi_exact(65, 64, 4)
        with pytest.raises(ValueError):
            xi_exact(-1, 64, 4)

    def test_as_series(self):
        series = exact_cost_table(2, 4).as_series()
        assert series[0] == (0, 1)
        assert series[1] == (1, 0)

    def test_matches_bruteforce(self):
        for m, t in [(2, 8), (2, 16), (3, 9), (4, 16)]:
            table = exact_cost_table(m, t)
            for k in range(t + 1):
                assert xi_bruteforce(k, t, m) == table[k], (m, t, k)

    def test_bruteforce_guard(self):
        with pytest.raises(ValueError):
            xi_bruteforce(2, 64, 2)

    def test_bruteforce_at_the_guard(self):
        # t = 32 (the guard) scores through 2**16-entry child tables; a
        # root table would need 2**32.
        for k in (2, 3):
            assert xi_bruteforce(k, 32, 2) == xi_exact(k, 32, 2)


class TestSimulateSearch:
    def test_empty_tree_one_slot(self):
        outcome = simulate_search([], 8, 2)
        assert outcome.cost == 1
        assert outcome.slots == ("silence",)

    def test_single_source_transmits_at_root(self):
        outcome = simulate_search([5], 8, 2)
        assert outcome.cost == 0
        assert outcome.slots == ("success",)
        assert outcome.transmission_order == (5,)

    def test_two_adjacent_leaves_binary(self):
        # Root collision, [0,4) collision, [0,2) collision, two successes,
        # then silences for [2,4) and [4,8).
        outcome = simulate_search([0, 1], 8, 2)
        assert outcome.cost == 5
        assert outcome.slots == (
            "collision",
            "collision",
            "collision",
            "success",
            "success",
            "silence",
            "silence",
        )

    def test_transmission_order_is_leaf_order(self, small_shape):
        m, t = small_shape
        active = list(range(0, t, max(1, t // 4)))
        outcome = simulate_search(active, t, m)
        assert list(outcome.transmission_order) == sorted(active)

    def test_slot_accounting(self):
        outcome = simulate_search([0, 3], 4, 2)
        assert outcome.collisions + outcome.empties == outcome.cost
        assert outcome.total_slots == len(outcome.slots)

    def test_out_of_range_leaf_rejected(self):
        with pytest.raises(ValueError):
            simulate_search([8], 8, 2)

    @given(st.data())
    def test_never_exceeds_xi(self, data):
        m, t = data.draw(
            st.sampled_from([(2, 8), (2, 16), (3, 9), (4, 16), (4, 64)])
        )
        k = data.draw(st.integers(0, min(t, 10)))
        active = data.draw(
            st.lists(
                st.integers(0, t - 1), min_size=k, max_size=k, unique=True
            )
        )
        assert simulate_search(active, t, m).cost <= xi_exact(
            len(active), t, m
        )

    def test_every_active_leaf_transmits_exactly_once(self):
        active = [1, 4, 9, 15]
        outcome = simulate_search(active, 16, 2)
        assert sorted(outcome.transmission_order) == active


class TestHeavyLeaves:
    def test_heavy_leaf_handoff(self):
        outcome = simulate_search([], 4, 2, heavy=[0])
        # Root collision, [0,2) collision, handoff at leaf 0, silences.
        assert "handoff" in outcome.slots
        assert outcome.cost == 2 + 2  # 2 collisions + leaf-1 and [2,4) silences

    def test_heavy_and_single_disjoint(self):
        with pytest.raises(ValueError):
            simulate_search([3], 8, 2, heavy=[3])

    def test_heavy_alone_costs_m_times_depth(self):
        # One heavy leaf in a 64-leaf quaternary tree: 3 levels * 4 = 12.
        outcome = simulate_search([], 64, 4, heavy=[17])
        assert outcome.cost == 12

    def test_bound_holds_exhaustively_small(self):
        m, t = 2, 8
        for total in range(1, 5):
            for leaves in itertools.combinations(range(t), total):
                for b in range(total + 1):
                    for heavy in itertools.combinations(leaves, b):
                        active = [x for x in leaves if x not in heavy]
                        cost = simulate_search(active, t, m, heavy=heavy).cost
                        assert cost <= heavy_search_bound(
                            len(active), b, t, m
                        ), (active, heavy)

    def test_bound_validations(self):
        with pytest.raises(ValueError):
            heavy_search_bound(-1, 0, 8, 2)
        assert heavy_search_bound(0, 0, 8, 2) == 1


class TestWorstPlacement:
    def test_achieves_xi(self, small_shape):
        m, t = small_shape
        for k in range(0, min(t, 8) + 1):
            placement = worst_case_placement(k, t, m)
            assert len(placement) == k
            assert simulate_search(placement, t, m).cost == xi_exact(k, t, m)

    def test_achieves_xi_large(self):
        for k in (2, 7, 19, 32, 64):
            placement = worst_case_placement(k, 64, 4)
            assert simulate_search(placement, 64, 4).cost == xi_exact(
                k, 64, 4
            )

    def test_sorted_and_unique(self):
        placement = worst_case_placement(6, 64, 2)
        assert list(placement) == sorted(set(placement))

    def test_bad_k(self):
        with pytest.raises(ValueError):
            worst_case_placement(65, 64, 4)

    def test_enumerate_contains_reconstruction(self):
        k, t, m = 3, 8, 2
        all_worst = enumerate_worst_placements(k, t, m)
        assert worst_case_placement(k, t, m) in all_worst
        best = xi_exact(k, t, m)
        for placement in all_worst:
            assert simulate_search(placement, t, m).cost == best

    def test_enumerate_guard(self):
        with pytest.raises(ValueError):
            enumerate_worst_placements(2, 128, 2)
