"""Incremental FeasibilityEngine: every delta path vs the scalar oracle.

Parity is checked with ``==`` and with per-report ``pickle.dumps``
digests: a digest also catches int/float and +-0.0 drift that ``==``
lets through.  The row-free ``verdict()`` is held to the report's
``(feasible, worst.class_name, worst.slack)`` with the slack compared
through ``float.hex``.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.feas_engine import FeasibilityEngine
from repro.core.feasibility import (
    TreeParameters,
    check_feasibility,
    max_feasible_scale,
)
from repro.core.feas_grid import BatchEvaluator
from repro.model.message import DensityBound, MessageClass
from repro.model.problem import HRTDMProblem
from repro.model.source import SourceSpec
from repro.model.workloads import uniform_problem, videoconference_problem
from repro.net.phy import GIGABIT_ETHERNET

_MS = 1_000_000

_Q, _STATIC_M = 16, 2
_TREES = TreeParameters(time_f=64, time_m=4, static_q=_Q, static_m=_STATIC_M)


def _message_class(name, length=8_000, deadline=10 * _MS, a=1, w=4 * _MS):
    return MessageClass(
        name=name, length=length, deadline=deadline,
        bound=DensityBound(a=a, w=w),
    )


class _ReferenceModel:
    """Mirror of the engine's ordering contract, realized as HRTDMProblems.

    Sources keep first-seen order (an emptied source is dropped; re-adding
    its id appends it last), classes keep insertion order — exactly the
    engine's documented row order, so scalar reports on the materialized
    problem must equal the engine's incrementally-maintained ones.
    """

    def __init__(self):
        self.sources: dict[int, tuple[int, list[MessageClass]]] = {}
        #: Scale-1.0 base window per class name (rescale_density's w0).
        self.base_w: dict[str, int] = {}

    def add(self, source_id, message_class, nu):
        if source_id not in self.sources:
            self.sources[source_id] = (nu, [])
        self.sources[source_id][1].append(message_class)
        self.base_w[message_class.name] = message_class.bound.w

    def remove(self, source_id, name):
        nu, classes = self.sources[source_id]
        classes[:] = [c for c in classes if c.name != name]
        if not classes:
            del self.sources[source_id]

    def rescale(self, source_id, name, a=None, w=None):
        nu, classes = self.sources[source_id]
        for i, cls in enumerate(classes):
            if cls.name == name:
                bound = DensityBound(
                    a=cls.bound.a if a is None else a,
                    w=cls.bound.w if w is None else w,
                )
                classes[i] = MessageClass(
                    name=cls.name, length=cls.length,
                    deadline=cls.deadline, bound=bound,
                )
                self.base_w[name] = bound.w

    def rescale_density(self, scale):
        """Every window from its base, as the workload factories scale."""
        for _, classes in self.sources.values():
            for i, cls in enumerate(classes):
                w = max(1, math.ceil(self.base_w[cls.name] / scale))
                classes[i] = MessageClass(
                    name=cls.name, length=cls.length, deadline=cls.deadline,
                    bound=DensityBound(a=cls.bound.a, w=w),
                )

    @property
    def total_nu(self):
        return sum(nu for nu, _ in self.sources.values())

    def problem(self) -> HRTDMProblem:
        specs = []
        offset = 0
        for source_id, (nu, classes) in self.sources.items():
            specs.append(
                SourceSpec(
                    source_id=source_id,
                    message_classes=tuple(classes),
                    static_indices=tuple(range(offset, offset + nu)),
                )
            )
            offset += nu
        return HRTDMProblem(
            sources=tuple(specs), static_q=_Q, static_m=_STATIC_M
        )

    def expected_report(self):
        return check_feasibility(self.problem(), GIGABIT_ETHERNET, _TREES)


def _report_verdict(report):
    return report.feasible, report.worst.class_name, report.worst.slack


def _hexed(verdict):
    """The verdict with its slack as ``float.hex`` (bit-exact compare)."""
    feasible, name, slack = verdict
    return feasible, name, None if slack is None else float.hex(slack)


#: Above 368 bits a GbE frame's l' is the length plus 304 bits, so these
#: two (length, deadline) shapes share ``d - l'`` with different deadlines.
_SHARED_PAIR = ((4_000, 8 * _MS), (9_000, 8 * _MS + 5_000))
_SHARED_SHAPES = (*_SHARED_PAIR, (4_000, 12 * _MS), (9_000, 12 * _MS))
_SHARED_WINDOWS = (1 * _MS, 2 * _MS, 4 * _MS)


def _check_against_scalar(engine, model):
    """Counts, profile cells, verdict and report against the model."""
    assert engine.class_count == sum(
        len(c) for _, c in model.sources.values()
    )
    assert engine.total_nu == model.total_nu
    counts: dict[int, int] = {}
    for cls in engine._iter_classes():
        assert engine._cells[cls.base] is cls.cell
        counts[cls.base] = counts.get(cls.base, 0) + 1
    assert {base: cell[2] for base, cell in engine._cells.items()} == counts
    if not model.sources:
        assert engine.verdict() == (True, None, None)
        return
    # The verdict first: it must not lean on a cached report.
    verdict = engine.verdict()
    got, expected = engine.report(), model.expected_report()
    assert got == expected
    assert pickle.dumps(got) == pickle.dumps(expected)
    assert _hexed(verdict) == _hexed(_report_verdict(expected))
    assert engine.feasible == expected.feasible


_CLASS_PARAMS = {
    "length": st.integers(100, 20_000),
    "deadline": st.integers(1, 40).map(lambda v: v * _MS),
    "a": st.integers(1, 4),
    "w": st.integers(50_000, 30 * _MS),
}


class TestMutationSequences:
    @given(st.data())
    def test_arbitrary_add_remove_rescale_matches_scalar(self, data):
        engine = FeasibilityEngine(GIGABIT_ETHERNET, _TREES)
        model = _ReferenceModel()
        names = iter(f"cls-{i}" for i in range(100))
        # Max 4 sources x nu <= 2 keeps total static leaves within _Q.
        for step in range(data.draw(st.integers(3, 10), label="steps")):
            existing = [
                (sid, cls.name)
                for sid, (_, classes) in model.sources.items()
                for cls in classes
            ]
            op = data.draw(
                st.sampled_from(
                    ["add", "remove", "rescale", "density"]
                    if existing else ["add", "density"]
                ),
                label=f"op{step}",
            )
            if op == "add":
                source_id = data.draw(st.integers(0, 3), label="sid")
                params = {
                    key: data.draw(strat, label=key)
                    for key, strat in _CLASS_PARAMS.items()
                }
                cls = _message_class(next(names), **params)
                if source_id in model.sources:
                    engine.add_class(source_id, cls)
                    model.add(source_id, cls, None)
                else:
                    nu = data.draw(st.integers(1, 2), label="nu")
                    engine.add_class(source_id, cls, nu=nu)
                    model.add(source_id, cls, nu)
            elif op == "remove":
                source_id, name = data.draw(
                    st.sampled_from(existing), label="victim"
                )
                engine.remove_class(source_id, name)
                model.remove(source_id, name)
            elif op == "rescale":
                source_id, name = data.draw(
                    st.sampled_from(existing), label="target"
                )
                a = data.draw(_CLASS_PARAMS["a"], label="new-a")
                w = data.draw(_CLASS_PARAMS["w"], label="new-w")
                engine.rescale_class(source_id, name, a=a, w=w)
                model.rescale(source_id, name, a=a, w=w)
            else:
                scale = data.draw(
                    st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.7]), label="scale"
                )
                engine.rescale_density(scale)
                model.rescale_density(scale)
            _check_against_scalar(engine, model)

    @given(st.data())
    def test_shared_profiles_match_scalar(self, data):
        """Classes drawn from a small pool, so target profiles collide.

        A fixed opening walks every sharing case once: two classes whose
        deadlines differ but whose ``d - l'`` is equal, a rescale of one
        class of that shared profile, a density rescale, the removal of
        the profile's last class and its re-adding.  Random steps from
        the same pool follow.  After every step the report, the verdict
        and every cell's class count are checked.
        """
        engine = FeasibilityEngine(GIGABIT_ETHERNET, _TREES)
        model = _ReferenceModel()
        names = iter(f"cls-{i}" for i in range(100))

        def draw_class(length=None, deadline=None):
            if length is None:
                length, deadline = data.draw(
                    st.sampled_from(_SHARED_SHAPES), label="shape"
                )
            return _message_class(
                next(names), length=length, deadline=deadline,
                a=data.draw(st.sampled_from((1, 2)), label="a"),
                w=data.draw(st.sampled_from(_SHARED_WINDOWS), label="w"),
            )

        def add(cls):
            source_id = data.draw(st.integers(0, 3), label="sid")
            nu = None
            if source_id not in model.sources:
                nu = data.draw(st.integers(1, 2), label="nu")
            engine.add_class(source_id, cls, nu=nu)
            model.add(source_id, cls, nu)
            return source_id

        def rescale(source_id, name):
            a = data.draw(st.sampled_from((1, 2, 3)), label="new-a")
            w = data.draw(st.sampled_from(_SHARED_WINDOWS), label="new-w")
            engine.rescale_class(source_id, name, a=a, w=w)
            model.rescale(source_id, name, a=a, w=w)

        def density():
            scale = data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="scale")
            engine.rescale_density(scale)
            model.rescale_density(scale)

        def remove(source_id, name):
            engine.remove_class(source_id, name)
            model.remove(source_id, name)

        # Same profile, different deadlines.
        short, long_ = _SHARED_PAIR
        first = draw_class(*short)
        first_source = add(first)
        _check_against_scalar(engine, model)
        second = draw_class(*long_)
        second_source = add(second)
        _check_against_scalar(engine, model)
        assert first.deadline != second.deadline
        assert len(engine._cells) == 1
        rescale(second_source, second.name)
        _check_against_scalar(engine, model)
        density()
        _check_against_scalar(engine, model)
        remove(first_source, first.name)
        _check_against_scalar(engine, model)
        remove(second_source, second.name)
        _check_against_scalar(engine, model)
        assert engine._cells == {}
        add(draw_class(*short))
        _check_against_scalar(engine, model)
        for step in range(data.draw(st.integers(0, 12), label="steps")):
            existing = [
                (sid, cls.name)
                for sid, (_, classes) in model.sources.items()
                for cls in classes
            ]
            op = data.draw(
                st.sampled_from(
                    ["add", "remove", "rescale", "density"]
                    if existing else ["add", "density"]
                ),
                label=f"op{step}",
            )
            if op == "add":
                add(draw_class())
            elif op == "remove":
                remove(*data.draw(st.sampled_from(existing), label="victim"))
            elif op == "rescale":
                rescale(*data.draw(st.sampled_from(existing), label="target"))
            else:
                density()
            _check_against_scalar(engine, model)

    def test_add_then_remove_restores_the_report(self):
        problem = uniform_problem(z=4)
        trees = TreeParameters(
            time_f=64, time_m=4,
            static_q=problem.static_q, static_m=problem.static_m,
        )
        engine = FeasibilityEngine.from_problem(
            problem, GIGABIT_ETHERNET, trees
        )
        before = engine.report()
        engine.add_class(99, _message_class("guest", a=3, w=1 * _MS), nu=1)
        assert engine.report() != before
        engine.remove_class(99, "guest")
        assert engine.report() == before

    def test_verdict_tie_names_the_first_class_in_report_order(self):
        engine = FeasibilityEngine(GIGABIT_ETHERNET, _TREES)
        engine.add_class(0, _message_class("first"), nu=1)
        engine.add_class(1, _message_class("second"), nu=1)
        rows = engine.report().classes
        assert rows[0].slack == rows[1].slack  # identical classes tie
        feasible, worst_class, worst_slack = engine.verdict()
        assert worst_class == "first" == engine.report().worst.class_name
        assert float.hex(worst_slack) == float.hex(rows[0].slack)
        assert feasible == engine.report().feasible

    def test_empty_engine_verdict(self):
        engine = FeasibilityEngine(GIGABIT_ETHERNET, _TREES)
        assert engine.verdict() == (True, None, None)
        assert engine.feasible
        assert (engine.class_count, engine.total_nu) == (0, 0)
        engine.add_class(0, _message_class("only"), nu=2)
        assert engine.verdict()[1] == "only"
        assert (engine.class_count, engine.total_nu) == (1, 2)
        engine.remove_class(0, "only")
        assert engine.verdict() == (True, None, None)
        assert (engine.class_count, engine.total_nu) == (0, 0)

    def test_emptied_source_readds_as_last(self):
        engine = FeasibilityEngine(GIGABIT_ETHERNET, _TREES)
        engine.add_class(0, _message_class("a"), nu=1)
        engine.add_class(1, _message_class("b"), nu=1)
        engine.remove_class(0, "a")
        engine.add_class(0, _message_class("a2"), nu=2)
        rows = engine.report().classes
        assert [(r.source_id, r.class_name) for r in rows] == [
            (1, "b"), (0, "a2")
        ]
        # The re-added source carries the new nu.
        assert rows[1].static_trees == 1 + rows[1].rank // 2


class TestRescaleDensity:
    @pytest.mark.parametrize("scale", [0.25, 0.5, 1.0, 2.0, 8.0, 37.5])
    def test_matches_the_workload_factory(self, scale):
        base = uniform_problem(z=8, scale=1.0)
        trees = TreeParameters(
            time_f=64, time_m=4,
            static_q=base.static_q, static_m=base.static_m,
        )
        engine = FeasibilityEngine.from_problem(base, GIGABIT_ETHERNET, trees)
        engine.rescale_density(scale)
        assert engine.scale == scale
        got = engine.report()
        expected = check_feasibility(
            uniform_problem(z=8, scale=scale), GIGABIT_ETHERNET, trees
        )
        assert got == expected
        assert pickle.dumps(got) == pickle.dumps(expected)

    def test_rescales_compose_from_the_base_windows(self):
        base = videoconference_problem(participants=4)
        trees = TreeParameters(
            time_f=64, time_m=4,
            static_q=base.static_q, static_m=base.static_m,
        )
        engine = FeasibilityEngine.from_problem(base, GIGABIT_ETHERNET, trees)
        engine.rescale_density(8.0)
        engine.rescale_density(0.5)  # from w0, not from the 8.0 windows
        got = engine.report()
        expected = check_feasibility(
            videoconference_problem(participants=4, scale=0.5),
            GIGABIT_ETHERNET,
            trees,
        )
        assert got == expected
        assert pickle.dumps(got) == pickle.dumps(expected)


class TestMaxFeasibleDensity:
    def _engine_and_factory(self, z=8, deadline=10 * _MS):
        def factory(scale):
            return uniform_problem(z=z, deadline=deadline, scale=scale)

        base = factory(1.0)
        trees = TreeParameters(
            time_f=64, time_m=4,
            static_q=base.static_q, static_m=base.static_m,
        )
        engine = FeasibilityEngine.from_problem(base, GIGABIT_ETHERNET, trees)
        return engine, factory, trees

    @pytest.mark.parametrize("hi", [1.0, 64.0])
    def test_equals_the_factory_bisection(self, hi):
        engine, factory, trees = self._engine_and_factory()
        expected = max_feasible_scale(
            factory, GIGABIT_ETHERNET, trees, lo=0.01, hi=hi
        )
        assert engine.max_feasible_density(lo=0.01, hi=hi) == expected
        # The engine is left at the returned operating point.
        assert engine.scale == max(expected, 0.01)

    def test_everywhere_feasible_returns_hi(self):
        engine, factory, trees = self._engine_and_factory(
            z=2, deadline=40 * _MS
        )
        assert check_feasibility(
            factory(1.0), GIGABIT_ETHERNET, trees
        ).feasible
        assert engine.max_feasible_density(hi=1.0) == 1.0
        assert engine.scale == 1.0

    def test_nowhere_feasible_returns_zero(self):
        # 64 sources' irreducible transmission (~531k bits) alone exceeds
        # this deadline, so no density scale can make the set feasible.
        engine, factory, trees = self._engine_and_factory(
            z=64, deadline=_MS // 2
        )
        assert not check_feasibility(
            factory(0.01), GIGABIT_ETHERNET, trees
        ).feasible
        assert engine.max_feasible_density(lo=0.01, hi=1.0) == 0.0
        assert engine.scale == 0.01

    def test_max_feasible_scale_short_circuits_on_feasible_hi(self):
        calls = []

        def factory(scale):
            calls.append(scale)
            return uniform_problem(z=2, deadline=40 * _MS, scale=scale)

        base = factory(1.0)
        calls.clear()
        trees = TreeParameters(
            time_f=64, time_m=4,
            static_q=base.static_q, static_m=base.static_m,
        )
        assert max_feasible_scale(
            factory, GIGABIT_ETHERNET, trees, hi=1.0
        ) == 1.0
        assert calls == [1.0]  # hi probed first; nothing else evaluated

    def test_max_feasible_scale_accepts_a_shared_evaluator(self):
        engine, factory, trees = self._engine_and_factory()
        evaluator = BatchEvaluator(GIGABIT_ETHERNET, trees)
        assert max_feasible_scale(
            factory, GIGABIT_ETHERNET, trees, evaluator=evaluator
        ) == max_feasible_scale(factory, GIGABIT_ETHERNET, trees)
        assert evaluator._s1  # the shared memo actually absorbed work


class TestSharedEvaluator:
    def test_engines_share_memos_through_one_evaluator(self):
        evaluator = BatchEvaluator(GIGABIT_ETHERNET, _TREES)
        first = FeasibilityEngine(GIGABIT_ETHERNET, _TREES, evaluator=evaluator)
        second = FeasibilityEngine(
            GIGABIT_ETHERNET, _TREES, evaluator=evaluator
        )
        first.add_class(0, _message_class("x"), nu=1)
        second.add_class(0, _message_class("x"), nu=1)
        assert first.report() == second.report()
        assert first.evaluator is second.evaluator


class TestErrors:
    def _engine(self):
        engine = FeasibilityEngine(GIGABIT_ETHERNET, _TREES)
        engine.add_class(0, _message_class("seed"), nu=1)
        return engine

    def test_new_source_requires_nu(self):
        engine = self._engine()
        with pytest.raises(ValueError, match="nu"):
            engine.add_class(7, _message_class("x"))

    def test_nu_mismatch_rejected(self):
        engine = self._engine()
        with pytest.raises(ValueError, match="nu=1"):
            engine.add_class(0, _message_class("x"), nu=2)

    def test_duplicate_class_name_rejected(self):
        engine = self._engine()
        with pytest.raises(ValueError, match="seed"):
            engine.add_class(0, _message_class("seed"))

    def test_unknown_source_and_class(self):
        engine = self._engine()
        with pytest.raises(KeyError):
            engine.remove_class(9, "seed")
        with pytest.raises(KeyError):
            engine.remove_class(0, "ghost")
        with pytest.raises(KeyError):
            engine.rescale_class(0, "ghost", a=2)

    def test_rescale_class_validates_bounds(self):
        engine = self._engine()
        with pytest.raises(ValueError):
            engine.rescale_class(0, "seed", a=0)
        with pytest.raises(ValueError):
            engine.rescale_class(0, "seed", w=0)

    def test_rescale_density_validates_scale(self):
        engine = self._engine()
        with pytest.raises(ValueError):
            engine.rescale_density(0.0)
        with pytest.raises(ValueError):
            engine.rescale_density(-1.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, 1e-302])
    def test_rejected_rescale_density_changes_nothing(self, scale):
        # At 1e-302 the 1 ms window still fits a float; the 40 ms one
        # overflows, after the first would already have been written.
        engine = FeasibilityEngine(GIGABIT_ETHERNET, _TREES)
        engine.add_class(0, _message_class("a", w=1_000_000), nu=1)
        engine.add_class(1, _message_class("b", w=40_000_000), nu=1)
        before = engine.snapshot()
        with pytest.raises(ValueError):
            engine.rescale_density(scale)
        assert engine.snapshot() == before
        assert engine.report() == check_feasibility(
            engine.to_problem(), GIGABIT_ETHERNET, _TREES
        )
