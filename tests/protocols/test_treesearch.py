"""Tests for the distributed splitting-search automaton.

The key property: fed with the slot outcomes of the *reference* search
semantics (:func:`repro.core.search_cost.simulate_search`), the automaton
reproduces the identical probe sequence, cost accounting and frontier — the
protocol and the analysis are two views of the same object.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.search_cost import simulate_search
from repro.core.trees import BalancedTree, LeafInterval
from repro.protocols.base import ChannelState
from repro.protocols.treesearch import SplittingSearch

_STATE = {
    0: ChannelState.SILENCE,
    1: ChannelState.SUCCESS,
    2: ChannelState.COLLISION,
}


def _drive(search: SplittingSearch, active: set[int]) -> list[str]:
    """Run the automaton against a fixed active set; return slot states."""
    slots = []
    while not search.done:
        node = search.current
        count = sum(1 for leaf in active if leaf in node)
        if count >= 2 and node.is_leaf():
            raise AssertionError("leaf collision needs the nested path")
        state = _STATE[min(count, 2)]
        search.feed(state)
        slots.append(state.value)
    return slots


class TestAgainstReference:
    @pytest.mark.parametrize("m,t", [(2, 8), (2, 16), (3, 9), (4, 16)])
    def test_matches_simulate_search(self, m, t):
        tree = BalancedTree.of(m=m, leaves=t)
        for k in range(0, min(t, 5) + 1):
            for active in itertools.combinations(range(t), k):
                reference = simulate_search(active, t, m)
                search = SplittingSearch.fresh(tree)
                slots = _drive(search, set(active))
                assert slots == list(reference.slots), (active,)
                assert search.wasted_slots == reference.cost
                assert search.successes == k

    @given(st.data())
    def test_matches_reference_random(self, data):
        m, t = data.draw(st.sampled_from([(2, 32), (4, 64)]))
        k = data.draw(st.integers(0, 10))
        active = set(
            data.draw(
                st.lists(
                    st.integers(0, t - 1), min_size=k, max_size=k, unique=True
                )
            )
        )
        tree = BalancedTree.of(m=m, leaves=t)
        search = SplittingSearch.fresh(tree)
        _drive(search, active)
        assert search.wasted_slots == simulate_search(active, t, m).cost


class TestFrontier:
    def test_frontier_advances_left_to_right(self):
        tree = BalancedTree.of(m=2, leaves=8)
        search = SplittingSearch.fresh(tree)
        frontiers = [search.frontier]
        while not search.done:
            node = search.current
            active = {1, 6}
            count = sum(1 for leaf in active if leaf in node)
            search.feed(_STATE[min(count, 2)])
            frontiers.append(search.frontier)
        assert frontiers == sorted(frontiers)
        assert frontiers[-1] == 8

    def test_agenda_covers_frontier_to_end(self):
        tree = BalancedTree.of(m=2, leaves=16)
        search = SplittingSearch.fresh(tree)
        active = {3, 9, 12}
        while not search.done:
            # DFS contiguity: agenda intervals tile [frontier, leaves).
            covered = sorted(
                (node.lo, node.hi) for node in search.agenda
            )
            assert covered[0][0] == search.frontier
            assert covered[-1][1] == 16
            for (_, hi), (lo, _) in zip(covered, covered[1:]):
                assert hi == lo
            node = search.current
            count = sum(1 for leaf in active if leaf in node)
            search.feed(_STATE[min(count, 2)])


class TestAfterRootCollision:
    def test_starts_with_children(self):
        tree = BalancedTree.of(m=4, leaves=16)
        search = SplittingSearch.after_root_collision(tree)
        assert len(search.agenda) == 4
        assert search.current == LeafInterval(0, 4)

    def test_empty_run_costs_m_slots(self):
        # "m consecutive empty slots" — the paper's empty-TTs signature.
        tree = BalancedTree.of(m=4, leaves=16)
        search = SplittingSearch.after_root_collision(tree)
        _drive(search, set())
        assert search.wasted_slots == 4


class TestLeafResolution:
    def test_begin_and_complete(self):
        tree = BalancedTree.of(m=2, leaves=4)
        search = SplittingSearch.after_root_collision(tree)
        search.feed(ChannelState.COLLISION)  # [0,2) splits
        leaf = search.begin_leaf_resolution()
        assert leaf == LeafInterval(0, 1)
        assert search.frontier == 0  # not yet searched
        search.complete_leaf(leaf)
        assert search.frontier == 1

    def test_begin_on_internal_node_rejected(self):
        tree = BalancedTree.of(m=2, leaves=4)
        search = SplittingSearch.after_root_collision(tree)
        with pytest.raises(RuntimeError):
            search.begin_leaf_resolution()

    def test_leaf_collision_via_feed_rejected(self):
        tree = BalancedTree.of(m=2, leaves=4)
        search = SplittingSearch.after_root_collision(tree)
        search.feed(ChannelState.COLLISION)
        with pytest.raises(RuntimeError):
            search.feed(ChannelState.COLLISION)

    def test_complete_behind_frontier_rejected(self):
        tree = BalancedTree.of(m=2, leaves=4)
        search = SplittingSearch.fresh(tree)
        search.feed(ChannelState.SILENCE)  # whole tree silent, frontier = 4
        with pytest.raises(RuntimeError):
            search.complete_leaf(LeafInterval(0, 1))


class TestStateKey:
    def test_identical_runs_identical_keys(self):
        tree = BalancedTree.of(m=2, leaves=8)
        a = SplittingSearch.fresh(tree)
        b = SplittingSearch.fresh(tree)
        for state in (ChannelState.COLLISION, ChannelState.SILENCE):
            a.feed(state)
            b.feed(state)
            assert a.state_key() == b.state_key()

    def test_diverging_feedback_diverges_keys(self):
        tree = BalancedTree.of(m=2, leaves=8)
        a = SplittingSearch.fresh(tree)
        b = SplittingSearch.fresh(tree)
        a.feed(ChannelState.COLLISION)
        b.feed(ChannelState.SILENCE)
        assert a.state_key() != b.state_key()

    @given(data=st.data())
    def test_equality_agrees_with_interval_keys(self, data):
        """Keys compare equal exactly when the ``(lo, hi)`` keys of their
        agendas do, whatever the feed sequences, also against a search
        whose nodes are equal but not the shared ones."""
        m = data.draw(st.sampled_from([2, 3, 4]))
        tree = BalancedTree.of(m=m, leaves=m**3)
        feeds = st.lists(st.sampled_from(list(_STATE.values())), max_size=40)

        def run(states):
            search = SplittingSearch.after_root_collision(tree)
            for state in states:
                if search.done:
                    break
                leaf = search.current.is_leaf()
                if state is ChannelState.COLLISION and leaf:
                    search.retry_current()
                else:
                    search.feed(state)
            return search

        def interval_key(search):
            return (
                tuple((node.lo, node.hi) for node in search.agenda),
                search.frontier,
                search.probes,
                search.wasted_slots,
                search.successes,
            )

        first = data.draw(feeds)
        second = data.draw(
            st.just(first) | feeds
            | st.builds(lambda extra: first + extra, feeds)
        )
        a, b = run(first), run(second)
        assert (a.state_key() == b.state_key()) == (
            interval_key(a) == interval_key(b)
        )
        rebuilt = run(second)
        rebuilt.agenda = [LeafInterval(n.lo, n.hi) for n in rebuilt.agenda]
        assert (a.state_key() == rebuilt.state_key()) == (
            interval_key(a) == interval_key(rebuilt)
        )

    def test_done_guard(self):
        tree = BalancedTree.of(m=2, leaves=2)
        search = SplittingSearch.fresh(tree)
        search.feed(ChannelState.SILENCE)
        assert search.done
        with pytest.raises(RuntimeError):
            _ = search.current


class TestRetry:
    @pytest.mark.parametrize("n", [1, 2, 50])
    def test_retry_count_equals_single_retries(self, n):
        tree = BalancedTree.of(m=2, leaves=8)
        once = SplittingSearch.after_root_collision(tree)
        single = SplittingSearch.after_root_collision(tree)
        for search in (once, single):
            search.feed(ChannelState.COLLISION)
            search.feed(ChannelState.COLLISION)
            assert search.current.is_leaf()
        leaf = once.retry_current(n)
        for _ in range(n):
            assert single.retry_current() == leaf
        assert once.state_key() == single.state_key()
        assert once.current == leaf
