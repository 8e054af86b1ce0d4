"""AdmissionService decision semantics: flows, rollbacks, incidents."""

from __future__ import annotations

import json
import math

import pytest

from repro.core.feas_engine import FeasibilityEngine
from repro.core.feasibility import check_feasibility
from repro.obs.instruments import Telemetry
from repro.serve.model import Request
from repro.serve.service import (
    MEDIA,
    AdmissionService,
    ServeConfig,
    replay_event_log,
)
from repro.serve.traces import TraceConfig, generate_trace

_MS = 1_000_000


def _hexed(verdict):
    """The verdict with its slack as ``float.hex`` (bit-exact compare)."""
    feasible, name, slack = verdict
    return feasible, name, None if slack is None else float.hex(slack)


def join(seq, source_id=0, name=None, nu=1, length=8_000,
         deadline=12 * _MS, a=1, w=4 * _MS):
    return Request(seq=seq, kind="join", source_id=source_id,
                   name=name if name is not None else f"c{seq}",
                   nu=nu, length=length, deadline=deadline, a=a, w=w)


@pytest.fixture()
def service() -> AdmissionService:
    return AdmissionService(ServeConfig(static_q=16))


class TestJoin:
    def test_feasible_join_admits(self, service):
        decision = service.handle(join(0))
        assert decision.verdict == "admit"
        assert decision.class_count == 1
        assert decision.total_nu == 1
        assert decision.slack is not None and decision.slack > 0
        assert service.admitted == ((0, "c0"),)

    def test_infeasible_join_rejects_and_rolls_back(self, service):
        service.handle(join(0))
        before = service.engine.snapshot()
        # An absurdly dense class no instance can carry.
        decision = service.handle(
            join(1, source_id=1, deadline=100_000, a=50, w=1_000)
        )
        assert decision.verdict == "reject"
        assert "infeasible" in decision.reason
        assert service.engine.snapshot() == before

    def test_duplicate_name_is_an_error(self, service):
        service.handle(join(0, name="dup"))
        decision = service.handle(join(1, source_id=1, name="dup"))
        assert decision.verdict == "error"
        assert "dup" in decision.reason

    def test_missing_fields_are_an_error(self, service):
        decision = service.handle(Request(seq=0, kind="join", source_id=0))
        assert decision.verdict == "error"
        assert "name" in decision.reason

    def test_invalid_class_shape_is_an_error(self, service):
        decision = service.handle(join(0, length=0))
        assert decision.verdict == "error"

    def test_new_source_without_nu_is_an_error(self, service):
        request = Request(seq=0, kind="join", source_id=0, name="c",
                          length=8_000, deadline=12 * _MS, a=1, w=4 * _MS)
        assert service.handle(request).verdict == "error"

    def test_capacity_reject_when_leaves_exhausted(self):
        service = AdmissionService(ServeConfig(static_q=4))
        for seq in range(4):
            assert service.handle(
                join(seq, source_id=seq, deadline=64 * _MS, w=32 * _MS)
            ).verdict == "admit"
        decision = service.handle(
            join(4, source_id=4, deadline=64 * _MS, w=32 * _MS)
        )
        assert decision.verdict == "reject"
        assert "capacity" in decision.reason

    def test_second_class_on_existing_source_needs_no_nu(self, service):
        service.handle(join(0))
        request = Request(seq=1, kind="join", source_id=0, name="second",
                          length=4_000, deadline=12 * _MS, a=1, w=4 * _MS)
        assert service.handle(request).verdict == "admit"


class TestLeave:
    def test_leave_retires_the_class(self, service):
        service.handle(join(0))
        decision = service.handle(
            Request(seq=1, kind="leave", source_id=0, name="c0")
        )
        assert decision.verdict == "ok"
        assert decision.class_count == 0
        assert decision.slack is None
        assert service.admitted == ()

    def test_leave_frees_the_name_for_rejoin(self, service):
        service.handle(join(0, name="n"))
        service.handle(Request(seq=1, kind="leave", source_id=0, name="n"))
        assert service.handle(join(2, name="n")).verdict == "admit"

    def test_unknown_class_is_an_error(self, service):
        decision = service.handle(
            Request(seq=0, kind="leave", source_id=0, name="ghost")
        )
        assert decision.verdict == "error"


class TestRescale:
    def test_feasible_rescale_admits(self, service):
        service.handle(join(0))
        decision = service.handle(
            Request(seq=1, kind="rescale", source_id=0, name="c0",
                    w=8 * _MS)
        )
        assert decision.verdict == "admit"
        assert service.engine.class_state(0, "c0")[1] == 8 * _MS

    def test_infeasible_rescale_rolls_back_exactly(self, service):
        service.handle(join(0))
        service.handle(join(1, source_id=1))
        before = service.engine.snapshot()
        decision = service.handle(
            Request(seq=2, kind="rescale", source_id=0, name="c0",
                    a=200, w=1_000)
        )
        assert decision.verdict == "reject"
        assert service.engine.snapshot() == before

    def test_rollback_restores_w0_across_density_rescale(self, service):
        """The w0 base must survive a rejected rescale: a later global
        reconfigure would otherwise re-derive a different window."""
        service.handle(join(0))
        service.handle(Request(seq=1, kind="reconfigure", scale=2.0))
        before = service.engine.snapshot()
        service.handle(Request(seq=2, kind="rescale", source_id=0,
                               name="c0", a=200, w=1_000))
        assert service.engine.snapshot() == before

    def test_rescale_without_fields_is_an_error(self, service):
        service.handle(join(0))
        decision = service.handle(
            Request(seq=1, kind="rescale", source_id=0, name="c0")
        )
        assert decision.verdict == "error"


class TestRollbackReinstatement:
    """A rejected join or rescale puts back the verdict cached before it.

    A city trace at q = 16 rejects joins as infeasible and for capacity;
    a dense rescale of every class admitted at its end is rejected too.
    After each reject the verdict must equal the one before the request,
    a forced recompute on the restored state, a fresh engine's and the
    scalar oracle's, and no ``class_bound`` call may fall between the
    undo and the decision.
    """

    def test_rejects_reinstate_the_cached_verdict(self):
        service = AdmissionService(ServeConfig(static_q=16))
        engine = service.engine
        medium, trees = service.config.medium_profile(), service.config.trees()
        calls: list[str] = []

        def spy(method, label):
            def wrapped(*args, **kwargs):
                result = method(*args, **kwargs)
                calls.append(label)
                return result
            return wrapped

        engine.evaluator.class_bound = spy(
            engine.evaluator.class_bound, "bound"
        )
        engine.remove_class = spy(engine.remove_class, "mutate")
        engine.rescale_class = spy(engine.rescale_class, "mutate")
        rejected: dict[str, int] = {}

        def handle_and_check(request):
            before = engine.verdict()
            calls.clear()
            decision = service.handle(request)
            if decision.verdict != "reject":
                return
            cause = f"{request.kind}/{decision.reason.split(':')[0]}"
            rejected[cause] = rejected.get(cause, 0) + 1
            if "infeasible" in cause:
                undo = len(calls) - 1 - calls[::-1].index("mutate")
                assert "bound" not in calls[undo:]
            verdict = engine.verdict()
            assert _hexed(verdict) == _hexed(before)
            assert decision.slack == verdict[2]
            engine._verdict = None  # recompute from the restored cells
            assert _hexed(engine.verdict()) == _hexed(verdict)
            fresh = FeasibilityEngine.restore(engine.snapshot(), medium, trees)
            assert _hexed(fresh.verdict()) == _hexed(verdict)
            if not engine.class_count:
                assert verdict == (True, None, None)
                return
            oracle = check_feasibility(engine.to_problem(), medium, trees)
            worst = oracle.worst
            assert _hexed(verdict) == _hexed(
                (oracle.feasible, worst.class_name, worst.slack)
            )

        trace = generate_trace(TraceConfig(events=300, seed=9))
        for request in trace:
            handle_and_check(request)
        for seq, (source_id, name) in enumerate(service.admitted, len(trace)):
            handle_and_check(
                Request(seq=seq, kind="rescale", source_id=source_id,
                        name=name, a=50, w=1_000)
            )
        assert rejected["join/infeasible"] > 0
        assert rejected["join/capacity"] > 0
        assert rejected["rescale/infeasible"] >= len(service.admitted) > 0


class TestReconfigure:
    def test_harmless_scale_evicts_nothing(self, service):
        service.handle(join(0))
        decision = service.handle(
            Request(seq=1, kind="reconfigure", scale=0.5)
        )
        assert decision.verdict == "ok"
        assert decision.evicted == ()
        assert decision.scale == 0.5

    def test_tightening_scale_evicts_lifo_until_feasible(self):
        service = AdmissionService(ServeConfig(static_q=16))
        for seq in range(6):
            assert service.handle(
                join(seq, source_id=seq, deadline=6 * _MS, w=2 * _MS)
            ).verdict == "admit"
        decision = service.handle(
            Request(seq=6, kind="reconfigure", scale=64.0)
        )
        assert decision.verdict == "ok"
        assert decision.evicted  # something had to go
        # Newest-first eviction order.
        evicted_names = [name for _, name in decision.evicted]
        assert evicted_names == sorted(
            evicted_names, key=lambda n: -int(n[1:])
        )
        assert service.engine.feasible

    def test_evicted_names_can_rejoin(self):
        service = AdmissionService(ServeConfig(static_q=16))
        for seq in range(6):
            service.handle(
                join(seq, source_id=seq, deadline=6 * _MS, w=2 * _MS)
            )
        decision = service.handle(
            Request(seq=6, kind="reconfigure", scale=64.0)
        )
        service.handle(Request(seq=7, kind="reconfigure", scale=1.0))
        source_id, name = decision.evicted[0]
        rejoin = join(8, source_id=source_id, name=name,
                      deadline=6 * _MS, w=2 * _MS)
        assert service.handle(rejoin).verdict == "admit"

    def test_bad_scale_is_an_error(self, service):
        decision = service.handle(
            Request(seq=0, kind="reconfigure", scale=0.0)
        )
        assert decision.verdict == "error"

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 1e-302])
    def test_unusable_scale_is_an_error_that_changes_nothing(
        self, tmp_path, scale
    ):
        """NaN and inf are no density scale, and at 1e-302 the first
        window still fits a float while the second overflows.  Each must
        be an error decision that leaves the engine as it was, the oracle
        silent and every journal line strict JSON."""
        log_dir = tmp_path / "log"
        with AdmissionService(
            ServeConfig(static_q=16), log_dir=log_dir
        ) as service:
            for seq, w in enumerate((1_000_000, 40_000_000)):
                assert service.handle(
                    join(seq, source_id=seq, deadline=40 * _MS, w=w)
                ).verdict == "admit"
            before = service.engine.snapshot()
            decision = service.handle(
                Request(seq=2, kind="reconfigure", scale=scale)
            )
            assert decision.verdict == "error"
            assert service.engine.snapshot() == before
            assert service.counter_check() == []

        def reject(constant):
            raise ValueError(f"not JSON: {constant}")

        for path in sorted(log_dir.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                json.loads(line, parse_constant=reject)
        assert replay_event_log(log_dir).incidents == []


#: Requests carrying a field that is no integer: floats (one a whole
#: number, one infinite), a bool and a float source id.  Each must be an
#: error decision before the engine is touched.
_NON_INTEGER = {
    "join-nu": join(1, source_id=1, nu=1.5),
    "join-deadline": join(1, source_id=1, deadline=4e7),
    "join-w-inf": join(1, source_id=1, w=math.inf),
    "join-length": join(1, source_id=1, length=8000.0),
    "join-a-bool": join(1, source_id=1, a=True),
    "join-source-id": join(1, source_id=1.5),
    "rescale-w": Request(seq=1, kind="rescale", source_id=0, name="c0",
                         w=2.5),
}


class TestNonIntegerFields:
    @pytest.mark.parametrize(
        "request_", list(_NON_INTEGER.values()), ids=list(_NON_INTEGER)
    )
    def test_is_an_error_that_changes_nothing(self, tmp_path, request_):
        """The engine state stays as it was, a later leave of another
        class still works, the oracle is silent and the journal replays
        to the same decisions."""
        log_dir = tmp_path / "log"
        with AdmissionService(
            ServeConfig(static_q=16), log_dir=log_dir
        ) as service:
            assert service.handle(join(0, name="c0")).verdict == "admit"
            before = service.engine.snapshot()
            decision = service.handle(request_)
            assert decision.verdict == "error"
            assert "needs an integer" in decision.reason
            assert service.engine.snapshot() == before
            leave = Request(seq=2, kind="leave", source_id=0, name="c0")
            assert service.handle(leave).verdict == "ok"
            assert service.counter_check() == []
        assert replay_event_log(log_dir).incidents == []


class TestSequencing:
    def test_out_of_order_seq_is_an_error(self, service):
        service.handle(join(5))
        decision = service.handle(join(3, source_id=1))
        assert decision.verdict == "error"
        assert "out-of-order" in decision.reason

    def test_error_does_not_advance_seq(self, service):
        service.handle(join(5))
        service.handle(join(3, source_id=1))  # rejected, seq stays at 5
        assert service.handle(join(6, source_id=1)).verdict == "admit"


class TestCounterCheck:
    def test_clean_state_raises_no_incidents(self, service):
        service.handle(join(0))
        service.handle(join(1, source_id=1))
        assert service.counter_check() == []
        assert service.incidents == []

    def test_empty_set_is_trivially_clean(self, service):
        assert service.counter_check() == []

    def test_forced_divergence_is_reported(self, service):
        """Corrupt one profile cell behind the service's back: the
        oracle check must notice and file an incident, not raise."""
        service.handle(join(0))
        service.handle(join(1, source_id=1))
        cell = service.engine._sources[0].classes[0].cell
        cell[0] += 1_000_000  # u(M) of every class with this profile
        service.engine._report = None  # drop the cached report
        incidents = service.counter_check()
        assert [i.kind for i in incidents] == ["oracle-divergence"]
        assert service.incidents == incidents

    def test_corrupted_verdict_is_reported(self, service):
        """The report rows still match the oracle, but the cached verdict
        every decision reads does not: the check must file it."""
        service.handle(join(0))
        service.handle(join(1, source_id=1))
        feasible, worst_class, worst_slack = service.engine.verdict()
        service.engine._verdict = (feasible, worst_class, worst_slack + 1.0)
        incidents = service.counter_check()
        assert [i.kind for i in incidents] == ["oracle-divergence"]
        assert "verdict" in incidents[0].detail
        assert service.incidents == incidents

    def test_periodic_checks_run_every_n_requests(self):
        telemetry = Telemetry()
        service = AdmissionService(
            ServeConfig(static_q=16, check_every=2), telemetry=telemetry
        )
        for seq in range(6):
            service.handle(join(seq, source_id=seq))
        assert telemetry.counter("serve/checks").value == 3


class TestTelemetry:
    def test_counters_and_latency_histogram(self):
        telemetry = Telemetry()
        service = AdmissionService(
            ServeConfig(static_q=16), telemetry=telemetry
        )
        service.handle(join(0))
        service.handle(Request(seq=1, kind="leave", source_id=0, name="c0"))
        service.handle(Request(seq=2, kind="leave", source_id=0, name="c0"))
        assert telemetry.counter("serve/requests").value == 3
        assert telemetry.counter("serve/admit").value == 1
        assert telemetry.counter("serve/ok").value == 1
        assert telemetry.counter("serve/error").value == 1
        histogram = telemetry.histogram("serve/decision_latency_us")
        assert histogram.count == 3
        assert histogram.max is not None and histogram.max > 0


class TestEventLog:
    def test_header_then_events(self, tmp_path, service):
        with AdmissionService(
            ServeConfig(static_q=16), log_dir=tmp_path / "log"
        ) as logged:
            logged.handle(join(0))
        lines = [
            json.loads(line)
            for line in (tmp_path / "log" / "events.jsonl")
            .read_text().splitlines()
        ]
        assert lines[0]["kind"] == "header"
        assert lines[0]["config"]["static_q"] == 16
        assert lines[1]["kind"] == "event"
        assert lines[1]["request"]["name"] == "c0"
        assert lines[1]["decision"]["verdict"] == "admit"

    def test_event_lines_are_the_canonical_encoding(self, tmp_path):
        """Each event line is spliced from the decision's and the
        request's own encodings; it must still be byte for byte what
        ``json.dumps`` makes of the parsed line, here for a reconfigure
        that evicts, a non-finite scale and a reason with quotes and
        non-ASCII text."""
        log_dir = tmp_path / "log"
        odd = 'café "quoted"'
        requests = [
            join(seq, source_id=seq, deadline=6 * _MS, w=2 * _MS)
            for seq in range(5)
        ]
        requests += [
            join(5, source_id=5, name=odd, deadline=6 * _MS, w=2 * _MS),
            join(6, source_id=6, name=odd),
            Request(seq=7, kind="reconfigure", scale=math.nan),
            Request(seq=8, kind="reconfigure", scale=64.0),
        ]
        with AdmissionService(
            ServeConfig(static_q=16), log_dir=log_dir
        ) as logged:
            decisions = logged.run_trace(requests)
        assert odd in decisions[6].reason and decisions[6].verdict == "error"
        assert decisions[7].verdict == "error"
        assert decisions[8].evicted
        lines = (log_dir / "events.jsonl").read_text().splitlines()
        assert len(lines) == 1 + len(requests)
        for line in lines:
            assert line == json.dumps(
                json.loads(line), sort_keys=True, separators=(",", ":")
            )
        decision_lines = (log_dir / "decisions.jsonl").read_text().splitlines()
        assert decision_lines == [d.to_json() for d in decisions]
        assert replay_event_log(log_dir).incidents == []

    def test_decisions_file_matches_decisions(self, tmp_path):
        with AdmissionService(
            ServeConfig(static_q=16), log_dir=tmp_path / "log"
        ) as logged:
            decisions = [logged.handle(join(seq, source_id=seq))
                         for seq in range(3)]
        raw = (tmp_path / "log" / "decisions.jsonl").read_text()
        assert raw.splitlines() == [d.to_json() for d in decisions]


class TestConfig:
    def test_unknown_medium_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown medium"):
            AdmissionService(ServeConfig(medium="token-ring"))

    def test_media_table_covers_the_profiles(self):
        assert set(MEDIA) == {
            "gigabit-ethernet", "classic-ethernet", "atm-bus"
        }

    def test_config_round_trips(self):
        config = ServeConfig(static_q=128, check_every=8)
        assert ServeConfig.from_dict(config.to_dict()) == config
