"""The bisect-based ``simulate_search`` against the original scan semantics.

``simulate_search`` replaced its O(k) per-node membership scans with
interval counts over sorted leaf arrays.  ``_simulate_search_reference``
below preserves the original scan-based implementation verbatim; every
test compares full :class:`SearchOutcome` objects (cost, slot sequence,
transmission order), exhaustively on small trees.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core.search_cost import (
    SearchOutcome,
    _placement_scorer,
    simulate_search,
)
from repro.core.trees import BalancedTree, LeafInterval


def _simulate_search_reference(active, t, m, heavy=(), skip_empty=False):
    """The pre-bisect implementation: per-node membership scans."""
    tree = BalancedTree.of(m=m, leaves=t)
    active_set = frozenset(active)
    heavy_set = frozenset(heavy)
    for leaf in active_set | heavy_set:
        if not 0 <= leaf < t:
            raise ValueError(f"leaf {leaf} out of range [0, {t})")
    if active_set & heavy_set:
        raise ValueError("a leaf cannot be both singly and multiply occupied")
    slots: list[str] = []
    order: list[int] = []
    cost = 0
    stack: list[LeafInterval] = [tree.root]
    while stack:
        node = stack.pop()
        singles = sum(1 for leaf in active_set if leaf in node)
        heavies = sum(1 for leaf in heavy_set if leaf in node)
        effective = singles + 2 * heavies
        if effective == 0:
            slots.append("silence")
            cost += 1
        elif effective == 1:
            slots.append("success")
            (leaf,) = (leaf for leaf in active_set if leaf in node)
            order.append(leaf)
        elif node.is_leaf():
            slots.append("handoff")
            order.append(node.lo)
        else:
            slots.append("collision")
            cost += 1
            children = node.children(m)
            if skip_empty:
                children = tuple(
                    child
                    for child in children
                    if any(leaf in child for leaf in active_set)
                    or any(leaf in child for leaf in heavy_set)
                )
            stack.extend(reversed(children))
    return SearchOutcome(
        cost=cost, slots=tuple(slots), transmission_order=tuple(order)
    )


@pytest.mark.parametrize("m,t", [(2, 8), (3, 9), (4, 16), (2, 16)])
@pytest.mark.parametrize("skip_empty", [False, True])
def test_exhaustive_active_only(m, t, skip_empty):
    """Every active-leaf subset of small trees, both bus semantics; on the
    destructive bus also the bitmask scorer ``xi_bruteforce`` uses."""
    score = _placement_scorer(t, m)
    for k in range(t + 1):
        for placement in itertools.combinations(range(t), k):
            outcome = simulate_search(placement, t, m, skip_empty=skip_empty)
            assert outcome == _simulate_search_reference(
                placement, t, m, skip_empty=skip_empty
            )
            if not skip_empty:
                mask = sum(1 << leaf for leaf in placement)
                assert score(mask) == outcome.cost


@pytest.mark.parametrize("m,t", [(2, 8), (3, 9)])
@pytest.mark.parametrize("skip_empty", [False, True])
def test_exhaustive_with_heavy_leaves(m, t, skip_empty):
    """Every disjoint (active, heavy) pair with small cardinalities."""
    leaves = range(t)
    for k_active in range(3):
        for k_heavy in range(3):
            for active in itertools.combinations(leaves, k_active):
                remaining = [leaf for leaf in leaves if leaf not in active]
                for heavy in itertools.combinations(remaining, k_heavy):
                    assert simulate_search(
                        active, t, m, heavy=heavy, skip_empty=skip_empty
                    ) == _simulate_search_reference(
                        active, t, m, heavy=heavy, skip_empty=skip_empty
                    )


def test_randomized_large_trees():
    """Random mixed placements on trees too large for exhaustion."""
    rng = random.Random(20260806)
    for _ in range(200):
        m = rng.choice([2, 3, 4])
        height = rng.randint(1, 4 if m == 4 else 5)
        t = m**height
        population = list(range(t))
        rng.shuffle(population)
        k_active = rng.randint(0, min(t, 12))
        k_heavy = rng.randint(0, min(t - k_active, 4))
        active = population[:k_active]
        heavy = population[k_active : k_active + k_heavy]
        skip_empty = rng.random() < 0.5
        assert simulate_search(
            active, t, m, heavy=heavy, skip_empty=skip_empty
        ) == _simulate_search_reference(
            active, t, m, heavy=heavy, skip_empty=skip_empty
        )


def test_input_validation_unchanged():
    with pytest.raises(ValueError, match="out of range"):
        simulate_search([8], 8, 2)
    with pytest.raises(ValueError, match="both singly and multiply"):
        simulate_search([1], 8, 2, heavy=[1])
