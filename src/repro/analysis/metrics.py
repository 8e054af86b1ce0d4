"""Run metrics: timeliness, latency, utilization, deadline inversions.

Digests a :class:`~repro.net.network.RunResult` into the quantities the
benches report: on-time ratio, deadline-miss count (completed late, dropped,
or still backlogged past due at the horizon), latency statistics per class,
channel utilization, and the number of *deadline inversions* — successful
transmissions that overtook a pending message with an earlier absolute
deadline (the non-optimality CSMA/DDCR's equivalence classes and the
compressed-time mode trade against, section 3.2).
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
import operator
from collections import defaultdict

from repro.net.network import RunResult
from repro.sim.monitor import RunningStats

__all__ = ["ClassMetrics", "RunMetrics", "summarize", "count_inversions"]


@dataclasses.dataclass
class ClassMetrics:
    """Per-message-class digest."""

    class_name: str
    delivered: int = 0
    on_time: int = 0
    late: int = 0
    dropped: int = 0
    backlog_missed: int = 0
    latency: RunningStats = dataclasses.field(default_factory=RunningStats)

    @property
    def misses(self) -> int:
        return self.late + self.dropped + self.backlog_missed

    @property
    def total(self) -> int:
        return self.delivered + self.dropped + self.backlog_missed

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.total if self.total else 0.0


@dataclasses.dataclass
class RunMetrics:
    """Whole-run digest."""

    horizon: int
    delivered: int
    on_time: int
    late: int
    dropped: int
    backlog_missed: int
    backlog_pending: int
    utilization: float
    max_latency: int
    inversions: int
    per_class: dict[str, ClassMetrics]

    @property
    def misses(self) -> int:
        """Hard-real-time violations: late + dropped + past-due backlog."""
        return self.late + self.dropped + self.backlog_missed

    @property
    def total_offered(self) -> int:
        return self.delivered + self.dropped + self.backlog_missed + self.backlog_pending

    @property
    def miss_ratio(self) -> float:
        accountable = self.delivered + self.dropped + self.backlog_missed
        return self.misses / accountable if accountable else 0.0

    @property
    def meets_hrtdm(self) -> bool:
        """<p.HRTDM> timeliness: no message violated its deadline."""
        return self.misses == 0


def count_inversions(result: RunResult) -> int:
    """Deadline inversions among successful transmissions.

    A transmission of message A (on the wire from ``started`` to
    ``completion``) is an inversion when some message B with a strictly
    earlier absolute deadline had already arrived before A *started* and
    was still pending when A started (B's own transmission started later).
    Non-preemption inversions — B arriving while A already holds the wire —
    cannot occur under this definition, matching the paper's remark that
    those are unavoidable for any protocol and should not be charged.

    Each A is counted at most once (was it inverted or not), so the number
    is comparable across protocols regardless of queue depths.

    One sweep in O(n log n): deliveries in decreasing ``started`` order,
    with a Fenwick tree keyed by arrival rank holding the earliest
    deadline among the later starters seen so far.  A is inverted when
    that minimum over arrivals <= A's start is below A's deadline.  Equal
    starts are queried before any of them is inserted, so "started later"
    stays strict.
    """
    completions = [r for r in result.completions if not r.dropped]
    arrivals = sorted({r.message.arrival for r in completions})
    size = len(arrivals)
    # tree[i] = min deadline over a block of arrival ranks ending at i.
    tree = [math.inf] * (size + 1)
    by_start = operator.attrgetter("started")
    completions.sort(key=by_start, reverse=True)
    inversions = 0
    for started, same_start in itertools.groupby(completions, key=by_start):
        group = [record.message for record in same_start]
        # Earliest deadline among arrivals <= started: a prefix minimum.
        earliest = math.inf
        rank = bisect.bisect_right(arrivals, started)
        while rank:
            earliest = min(earliest, tree[rank])
            rank &= rank - 1
        for message in group:
            if earliest < message.absolute_deadline:
                inversions += 1
        for message in group:
            deadline = message.absolute_deadline
            rank = bisect.bisect_left(arrivals, message.arrival) + 1
            while rank <= size:
                if deadline < tree[rank]:
                    tree[rank] = deadline
                rank += rank & -rank
    return inversions


def summarize(result: RunResult) -> RunMetrics:
    """Digest a run into :class:`RunMetrics`."""
    per_class: dict[str, ClassMetrics] = defaultdict(
        lambda: ClassMetrics(class_name="")
    )
    delivered = on_time = late = dropped = 0
    max_latency = 0
    for record in result.completions:
        name = record.message.msg_class.name
        metrics = per_class[name]
        if not metrics.class_name:
            metrics.class_name = name
        if record.dropped:
            dropped += 1
            metrics.dropped += 1
            continue
        delivered += 1
        metrics.delivered += 1
        metrics.latency.add(record.latency)
        max_latency = max(max_latency, record.latency)
        if record.on_time:
            on_time += 1
            metrics.on_time += 1
        else:
            late += 1
            metrics.late += 1
    backlog_missed = 0
    backlog_pending = 0
    for message in result.backlog():
        name = message.msg_class.name
        metrics = per_class[name]
        if not metrics.class_name:
            metrics.class_name = name
        if message.absolute_deadline < result.horizon:
            backlog_missed += 1
            metrics.backlog_missed += 1
        else:
            backlog_pending += 1
    return RunMetrics(
        horizon=result.horizon,
        delivered=delivered,
        on_time=on_time,
        late=late,
        dropped=dropped,
        backlog_missed=backlog_missed,
        backlog_pending=backlog_pending,
        utilization=result.utilization(),
        max_latency=max_latency,
        inversions=count_inversions(result),
        per_class=dict(per_class),
    )


def mean_or_nan(stats: RunningStats) -> float:
    """Convenience: mean that is NaN (not an exception) when empty."""
    return stats.mean if stats.count else math.nan
