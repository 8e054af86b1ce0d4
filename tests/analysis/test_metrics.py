"""Tests for run metrics and inversion counting."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import count_inversions, summarize
from repro.model.message import DensityBound, MessageClass, MessageInstance
from repro.net.channel import ChannelStats
from repro.net.network import RunResult
from repro.net.station import CompletionRecord, Station
from repro.protocols.csma_cd import CSMACDProtocol


def _cls(name="c", deadline=1000):
    return MessageClass(
        name=name, length=100, deadline=deadline,
        bound=DensityBound(a=1, w=1000),
    )


def _result(records_by_station, backlog_by_station=None, horizon=10_000):
    stations = []
    backlog_by_station = backlog_by_station or {}
    for sid, records in records_by_station.items():
        station = Station(sid, CSMACDProtocol())
        station.completions.extend(records)
        for message in backlog_by_station.get(sid, []):
            station.queue.push(message)
        stations.append(station)
    return RunResult(
        horizon=horizon,
        stations=stations,
        stats=ChannelStats(payload_bits=100),
    )


def _record(cls, arrival, completion, started=None, dropped=False):
    message = MessageInstance.arrive(cls, arrival, 0)
    return CompletionRecord(
        message=message,
        completion=completion,
        started=completion - 10 if started is None else started,
        dropped=dropped,
    )


class TestSummarize:
    def test_on_time_and_late(self):
        cls = _cls(deadline=100)
        result = _result(
            {0: [_record(cls, 0, 50), _record(cls, 0, 150)]}
        )
        metrics = summarize(result)
        assert metrics.delivered == 2
        assert metrics.on_time == 1
        assert metrics.late == 1
        assert metrics.misses == 1
        assert not metrics.meets_hrtdm

    def test_drops_are_misses(self):
        cls = _cls()
        result = _result({0: [_record(cls, 0, 500, dropped=True)]})
        metrics = summarize(result)
        assert metrics.dropped == 1
        assert metrics.misses == 1

    def test_backlog_split_by_due_date(self):
        cls = _cls(deadline=100)
        past_due = MessageInstance.arrive(cls, 0, 0)      # DM = 100 < horizon
        not_due = MessageInstance.arrive(cls, 9_950, 0)   # DM > horizon
        result = _result({0: []}, {0: [past_due, not_due]})
        metrics = summarize(result)
        assert metrics.backlog_missed == 1
        assert metrics.backlog_pending == 1
        assert metrics.misses == 1

    def test_per_class_breakdown(self):
        a, b = _cls("a", deadline=100), _cls("b", deadline=100)
        result = _result(
            {0: [_record(a, 0, 50)], 1: [_record(b, 0, 150)]}
        )
        metrics = summarize(result)
        assert metrics.per_class["a"].on_time == 1
        assert metrics.per_class["b"].late == 1
        assert metrics.per_class["b"].miss_ratio == 1.0

    def test_latency_stats(self):
        cls = _cls(deadline=10_000)
        result = _result(
            {0: [_record(cls, 0, 100), _record(cls, 0, 300)]}
        )
        metrics = summarize(result)
        assert metrics.max_latency == 300
        assert metrics.per_class["c"].latency.mean == 200

    def test_empty_run(self):
        metrics = summarize(_result({0: []}))
        assert metrics.delivered == 0
        assert metrics.miss_ratio == 0.0
        assert metrics.meets_hrtdm


def _quadratic_inversions(result):
    """The definition, pair by pair: is some delivered B with a strictly
    earlier deadline already arrived when A starts, and started later?"""
    completions = [r for r in result.completions if not r.dropped]
    inversions = 0
    for record in completions:
        a = record.message
        for other in completions:
            b = other.message
            if b.seq == a.seq:
                continue
            if (
                b.absolute_deadline < a.absolute_deadline
                and b.arrival <= record.started
                and other.started > record.started
            ):
                inversions += 1
                break
    return inversions


#: One class per relative deadline: few values, so absolute deadlines tie.
_CLASSES = {d: _cls(f"d{d}", deadline=d) for d in (5, 10, 20)}

#: (station, arrival, relative deadline, wait before the start, dropped):
#: narrow ranges, so starts, arrivals and deadlines tie often.
_DELIVERIES = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 12),
        st.sampled_from(sorted(_CLASSES)),
        st.integers(0, 8),
        st.sampled_from((False, False, False, True)),
    ),
    max_size=30,
)


class TestInversions:
    def test_clean_edf_order_no_inversions(self):
        cls = _cls(deadline=100)
        result = _result(
            {
                0: [
                    _record(cls, 0, 50, started=40),
                    _record(cls, 30, 90, started=80),
                ]
            }
        )
        assert count_inversions(result) == 0

    def test_detects_overtake(self):
        urgent = _cls("urgent", deadline=50)
        lax = _cls("lax", deadline=10_000)
        # The lax message transmits first although the urgent one had
        # already arrived before the lax transmission started.
        records = {
            0: [_record(lax, 0, 120, started=100)],
            1: [_record(urgent, 10, 200, started=180)],
        }
        assert count_inversions(_result(records)) == 1

    def test_non_preemption_not_charged(self):
        urgent = _cls("urgent", deadline=50)
        lax = _cls("lax", deadline=10_000)
        # Urgent arrives while lax already holds the wire: unavoidable.
        records = {
            0: [_record(lax, 0, 120, started=100)],
            1: [_record(urgent, 110, 200, started=180)],
        }
        assert count_inversions(_result(records)) == 0

    def test_each_message_counted_once(self):
        urgent_a = _cls("ua", deadline=40)
        urgent_b = _cls("ub", deadline=50)
        lax = _cls("lax", deadline=10_000)
        records = {
            0: [_record(lax, 0, 120, started=100)],
            1: [
                _record(urgent_a, 0, 300, started=280),
                _record(urgent_b, 0, 400, started=380),
            ],
        }
        # The lax transmission overtook two urgent messages: one inversion.
        assert count_inversions(_result(records)) == 1

    @settings(max_examples=300)
    @given(deliveries=_DELIVERIES)
    def test_sweep_matches_the_quadratic_definition(self, deliveries):
        records: dict[int, list] = {0: []}
        for station, arrival, deadline, wait, dropped in deliveries:
            started = arrival + wait
            records.setdefault(station, []).append(
                _record(
                    _CLASSES[deadline], arrival, started + 10,
                    started=started, dropped=dropped,
                )
            )
        result = _result(records)
        assert count_inversions(result) == _quadratic_inversions(result)
