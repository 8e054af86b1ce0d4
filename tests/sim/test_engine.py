"""Tests for the simulation clock and its per-slot round loop."""

from __future__ import annotations

import pytest

from repro.sim import Environment


def _rounds(env, durations, log):
    """One round callable per duration: each records ``(start, index)``
    and checks that the clock stands at its start."""

    def make(index, duration):
        def round_(now):
            assert env.now == now
            log.append((now, index))
            return duration

        return round_

    return [make(index, duration) for index, duration in enumerate(durations)]


class TestClock:
    def test_starts_at_zero(self):
        assert Environment().now == 0

    def test_advance_to_moves_forward(self):
        env = Environment()
        env.advance_to(64)
        env.advance_to(64)
        env.advance_to(100)
        assert env.now == 100

    def test_advance_to_refuses_to_move_backwards(self):
        env = Environment()
        env.advance_to(100)
        with pytest.raises(ValueError, match=r"advance_to\(99\).*now=100"):
            env.advance_to(99)
        assert env.now == 100

    def test_run_until_time(self):
        env = Environment()
        log = []
        env.run(35, _rounds(env, [10], log))
        assert env.now == 35
        assert log == [(0, 0), (10, 0), (20, 0), (30, 0)]

    def test_run_without_rounds_moves_the_clock(self):
        env = Environment()
        env.run(35, [])
        assert env.now == 35

    def test_run_until_past_rejected(self):
        env = Environment()
        env.advance_to(10)
        with pytest.raises(ValueError, match="until=5 is in the past"):
            env.run(5, [])
        assert env.now == 10


class TestEventOrdering:
    def test_fifo_at_same_time(self):
        env = Environment()
        log = []
        env.run(5, _rounds(env, [5, 5], log))
        assert log == [(0, 0), (0, 1)]

    def test_chronological(self):
        env = Environment()
        log = []
        env.run(12, _rounds(env, [10, 1], log))
        assert [start for start, _ in log] == sorted(
            start for start, _ in log
        )
        assert log[:4] == [(0, 0), (0, 1), (1, 1), (2, 1)]
        assert (10, 0) in log

    def test_ties_follow_the_order_the_previous_rounds_ran(self):
        """Rounds of 2 and 3 units from 0 to 12: at t = 6 index 1 runs
        first, as its previous round (at 3) ran before index 0's (at 4);
        no round starts at 12."""
        env = Environment()
        log = []
        env.run(12, _rounds(env, [2, 3], log))
        assert log == [
            (0, 0), (0, 1), (2, 0), (3, 1), (4, 0),
            (6, 1), (6, 0), (8, 0), (9, 1), (10, 0),
        ]
        assert env.now == 12
