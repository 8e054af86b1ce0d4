"""The simulation clock, and its per-slot round loop.

The broadcast channel is slot-synchronous: every station digests the same
outcome of each slot, and time moves by one slot or one frame.  So the
simulator needs one clock, shared by the channels that run side by side
on it (the dual bus), and one round at a time.  :class:`Environment` is
that clock.  Time is an integer: the broadcast-network layer uses
bit-times throughout so analytic and simulated quantities compare
exactly.

Two loops move it.  :meth:`Environment.run` steps every round, one per
channel, in start order: the per-slot reference (the ``des`` engine).
The channel's own leaping loop (``BroadcastChannel._run_fast`` in
:mod:`repro.net.channel`) moves the clock itself, one
:meth:`Environment.advance_to` call per step.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Callable, Sequence

__all__ = ["Environment"]


class Environment:
    """A clock for the channels that share it.

    >>> env = Environment()
    >>> starts = []
    >>> env.run(12, [lambda now: starts.append(now) or 5])
    >>> starts, env.now
    ([0, 5, 10], 12)
    """

    def __init__(self) -> None:
        self._now = 0

    @property
    def now(self) -> int:
        """Current simulated time."""
        return self._now

    def advance_to(self, time: int) -> None:
        """Move the clock to ``time``; refuses to move it backwards."""
        if time < self._now:
            raise ValueError(
                f"advance_to({time}) would move time backwards "
                f"(now={self._now})"
            )
        self._now = time

    def run(self, until: int, rounds: Sequence[Callable[[int], int]]) -> None:
        """Step ``rounds``, one per channel, until ``until``; leaves
        ``now == until``.

        Each round is called with its start time, at which the clock
        stands, and returns its duration; the channel's next round starts
        then.  The round that starts first runs next.  Rounds that start
        together run in the order of ``rounds`` at the first start, and
        later in the order their previous rounds ran.  No round starts at
        or after ``until``.
        """
        if until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        # (next start, schedule order, index): the order breaks ties.
        pending = [(self._now, i, i) for i in range(len(rounds))]
        order = itertools.count(len(rounds))
        while pending and pending[0][0] < until:
            start, _, i = pending[0]
            self._now = start
            heapq.heapreplace(
                pending, (start + rounds[i](start), next(order), i)
            )
        self._now = until
