"""Tests for balanced m-ary tree geometry."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.trees import (
    BalancedTree,
    LeafInterval,
    TreeShapeError,
    ceil_log,
    floor_log,
    geometric_sum,
    integer_log,
    is_power_of,
)


class TestIsPowerOf:
    def test_exact_powers(self):
        assert is_power_of(1, 2)
        assert is_power_of(64, 2)
        assert is_power_of(64, 4)
        assert is_power_of(64, 8)
        assert is_power_of(64, 64)
        assert is_power_of(243, 3)

    def test_non_powers(self):
        assert not is_power_of(48, 4)
        assert not is_power_of(63, 2)
        assert not is_power_of(0, 2)
        assert not is_power_of(-8, 2)

    def test_base_below_two_rejected(self):
        with pytest.raises(ValueError):
            is_power_of(8, 1)

    @given(st.integers(2, 7), st.integers(0, 10))
    def test_powers_always_recognised(self, base, exponent):
        assert is_power_of(base**exponent, base)


class TestIntegerLogs:
    def test_integer_log_roundtrip(self):
        assert integer_log(64, 4) == 3
        assert integer_log(1, 5) == 0

    def test_integer_log_rejects_non_power(self):
        with pytest.raises(TreeShapeError):
            integer_log(48, 4)

    def test_floor_log_no_float_artifacts(self):
        # math.log(243, 3) = 4.9999... — integer arithmetic must not care.
        assert floor_log(243, 3) == 5
        assert floor_log(242, 3) == 4
        assert floor_log(1, 2) == 0

    def test_ceil_log(self):
        assert ceil_log(1, 2) == 0
        assert ceil_log(2, 2) == 1
        assert ceil_log(3, 2) == 2
        assert ceil_log(243, 3) == 5
        assert ceil_log(244, 3) == 6

    @given(st.integers(2, 6), st.integers(1, 100_000))
    def test_floor_ceil_sandwich(self, base, value):
        lo = floor_log(value, base)
        hi = ceil_log(value, base)
        assert base**lo <= value <= base**hi
        assert hi - lo in (0, 1)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            floor_log(0, 2)
        with pytest.raises(ValueError):
            ceil_log(5, 1)


class TestGeometricSum:
    def test_known_values(self):
        assert geometric_sum(2, 3) == 7
        assert geometric_sum(4, 3) == 21
        assert geometric_sum(3, 0) == 0

    @given(st.integers(2, 6), st.integers(0, 12))
    def test_matches_direct_sum(self, base, exponent):
        assert geometric_sum(base, exponent) == sum(
            base**i for i in range(exponent)
        )

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            geometric_sum(2, -1)


class TestLeafInterval:
    def test_width_and_contains(self):
        node = LeafInterval(4, 8)
        assert node.width == 4
        assert 4 in node and 7 in node
        assert 8 not in node and 3 not in node

    def test_invalid_intervals(self):
        with pytest.raises(ValueError):
            LeafInterval(4, 4)
        with pytest.raises(ValueError):
            LeafInterval(-1, 3)

    def test_children_split(self):
        node = LeafInterval(0, 8)
        kids = node.children(2)
        assert kids == (LeafInterval(0, 4), LeafInterval(4, 8))

    def test_children_of_leaf_rejected(self):
        with pytest.raises(TreeShapeError):
            LeafInterval(3, 4).children(2)

    def test_children_indivisible_rejected(self):
        with pytest.raises(TreeShapeError):
            LeafInterval(0, 8).children(3)

    def test_overlaps(self):
        assert LeafInterval(0, 4).overlaps(LeafInterval(3, 5))
        assert not LeafInterval(0, 4).overlaps(LeafInterval(4, 8))


def _built_children(node: LeafInterval, m: int) -> tuple[LeafInterval, ...]:
    """``children`` as a fresh construction on every call."""
    if node.width % m != 0 or node.width < m:
        raise TreeShapeError(
            f"interval of width {node.width} cannot be split {m}-ways"
        )
    step = node.width // m
    return tuple(
        LeafInterval(node.lo + i * step, node.lo + (i + 1) * step)
        for i in range(m)
    )


def _outcome(split, node, m):
    try:
        return split(node, m)
    except TreeShapeError as error:
        return ("raised", str(error))


def _nodes(m: int, leaves: int):
    """Every node of the balanced m-ary tree with ``leaves`` leaves."""
    width = leaves
    while width >= 1:
        for lo in range(0, leaves, width):
            yield LeafInterval(lo, lo + width)
        if width == 1:
            return
        width //= m


class TestInternedChildren:
    """``children`` hands out one shared tuple per ``(lo, hi, m)``."""

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_every_node_splits_as_built(self, m):
        leaves = 1
        while leaves <= 256:
            for node in _nodes(m, leaves):
                for ways in (2, 3, 4):
                    assert _outcome(LeafInterval.children, node, ways) == (
                        _outcome(_built_children, node, ways)
                    ), (node, ways)
            leaves *= m

    def test_repeated_calls_return_the_same_nodes(self):
        kids = LeafInterval(0, 64).children(4)
        again = LeafInterval(0, 64).children(4)
        assert kids is again
        assert all(a is b for a, b in zip(kids, again))
        grandkids = kids[1].children(4)
        assert grandkids is LeafInterval(16, 32).children(4)

    def test_a_failed_split_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(TreeShapeError, match="width 1 cannot"):
                LeafInterval(3, 4).children(2)


class TestBalancedTree:
    def test_of_constructor(self):
        tree = BalancedTree.of(m=4, leaves=64)
        assert tree.height == 3
        assert tree.leaves == 64
        assert tree.root == LeafInterval(0, 64)

    def test_node_count(self):
        assert BalancedTree.of(m=2, leaves=8).node_count == 15
        assert BalancedTree.of(m=4, leaves=64).node_count == 85

    def test_invalid_shapes(self):
        with pytest.raises(TreeShapeError):
            BalancedTree.of(m=4, leaves=48)
        with pytest.raises(TreeShapeError):
            BalancedTree(m=1, height=3)

    def test_depth_of(self):
        tree = BalancedTree.of(m=2, leaves=8)
        assert tree.depth_of(tree.root) == 0
        assert tree.depth_of(LeafInterval(4, 8)) == 1
        assert tree.depth_of(LeafInterval(5, 6)) == 3

    def test_depth_rejects_misaligned(self):
        tree = BalancedTree.of(m=2, leaves=8)
        with pytest.raises(TreeShapeError):
            tree.depth_of(LeafInterval(1, 3))

    def test_dfs_preorder_visits_every_node_once(self, small_shape):
        m, t = small_shape
        tree = BalancedTree.of(m=m, leaves=t)
        nodes = list(tree.dfs_preorder())
        assert len(nodes) == tree.node_count
        assert len(set((n.lo, n.hi) for n in nodes)) == len(nodes)
        assert nodes[0] == tree.root

    def test_dfs_preorder_left_to_right_leaves(self):
        tree = BalancedTree.of(m=2, leaves=8)
        leaves = [n.lo for n in tree.dfs_preorder() if n.is_leaf()]
        assert leaves == sorted(leaves)

    def test_leaf_interval(self):
        tree = BalancedTree.of(m=4, leaves=16)
        assert tree.leaf_interval(5) == LeafInterval(5, 6)
        with pytest.raises(ValueError):
            tree.leaf_interval(16)
