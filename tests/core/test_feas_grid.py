"""Batch feasibility: exact parity with the scalar oracle + grid API.

The parity tests compare per-report ``pickle.dumps`` digests next to
``==``: a digest also catches int/float and +-0.0 drift that ``==`` lets
through.  Reports are pickled one at a time because a whole-list pickle
memoizes string objects that one path shares across reports and the
other does not.

The ``[python]``/``[numpy]`` cases type the evaluated instance's class
integers as Python ints or as numpy ``int64`` scalars.  The package
never imports numpy, but a caller may sweep parameters with it; either
way the report must equal the scalar oracle's on the int-typed instance,
digest included, so no numpy scalar can leak into a report.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.asymptotic import xi_tilde_extended
from repro.core.feas_engine import FeasibilityEngine
from repro.core.feas_grid import (
    BatchEvaluator,
    check_feasibility_batch,
    feasibility_grid,
)
from repro.core.feasibility import TreeParameters, check_feasibility
from repro.core.multi_tree import multi_tree_bound_extended
from repro.core.trees import TreeShapeError
from repro.model.message import DensityBound, MessageClass
from repro.model.problem import HRTDMProblem
from repro.model.source import SourceSpec, allocate_static_indices
from repro.model.workloads import (
    trading_floor_problem,
    uniform_problem,
    videoconference_problem,
)
from repro.net.phy import CLASSIC_ETHERNET, GIGABIT_ETHERNET

_MS = 1_000_000


def _next_power(base: int, minimum: int) -> int:
    q = 1
    while q < minimum:
        q *= base
    return q


def _trees(problem, time_f=64, time_m=4) -> TreeParameters:
    return TreeParameters(
        time_f=time_f,
        time_m=time_m,
        static_q=problem.static_q,
        static_m=problem.static_m,
    )


@st.composite
def hrtdm_problems(draw) -> HRTDMProblem:
    """Randomized multi-class instances (the scalar path accepts them all)."""
    z = draw(st.integers(1, 5))
    nu = draw(st.integers(1, 3))
    static_m = draw(st.sampled_from([2, 3]))
    per_source = []
    for i in range(z):
        classes = []
        for c in range(draw(st.integers(1, 3))):
            classes.append(
                MessageClass(
                    name=f"s{i}c{c}",
                    length=draw(st.integers(100, 20_000)),
                    deadline=draw(st.integers(1, 40)) * _MS,
                    bound=DensityBound(
                        a=draw(st.integers(1, 4)),
                        w=draw(st.integers(50_000, 30 * _MS)),
                    ),
                )
            )
        per_source.append(classes)
    q = _next_power(static_m, max(z * nu, static_m))
    allocations = allocate_static_indices([nu] * z, q)
    sources = tuple(
        SourceSpec(
            source_id=i,
            message_classes=tuple(classes),
            static_indices=allocations[i],
        )
        for i, classes in enumerate(per_source)
    )
    return HRTDMProblem(sources=sources, static_q=q, static_m=static_m)


@st.composite
def pooled_problems(draw) -> HRTDMProblem:
    """Instances whose classes repeat 1-3 ``(length, deadline, a, w)``
    profiles over up to 24 single- and multi-class sources — the shape
    the profile dedup collapses.  The small value sets make profiles
    share a deadline or window while differing in length, and the short
    deadlines and windows give window spans <= 0 (and <= -w, where an
    unmasked ceiling would go negative)."""
    profiles = draw(
        st.lists(
            st.tuples(
                st.sampled_from((100, 300, 2_000, 8_000, 20_000)),
                st.sampled_from((500, 4_000, 9_000, 50_000, 2 * _MS)),
                st.integers(1, 3),
                st.sampled_from((1_000, 7_000, 60_000, 4 * _MS)),
            ),
            min_size=1,
            max_size=3,
        )
    )
    z = draw(st.integers(1, 24))
    per_source = [
        draw(st.lists(st.sampled_from(profiles), min_size=1, max_size=3))
        for _ in range(z)
    ]
    static_m = 2
    q = _next_power(static_m, max(z, static_m))
    allocations = allocate_static_indices([1] * z, q)
    sources = tuple(
        SourceSpec(
            source_id=i,
            message_classes=tuple(
                MessageClass(
                    name=f"s{i}c{c}",
                    length=length,
                    deadline=deadline,
                    bound=DensityBound(a=a, w=w),
                )
                for c, (length, deadline, a, w) in enumerate(classes)
            ),
            static_indices=allocations[i],
        )
        for i, classes in enumerate(per_source)
    )
    return HRTDMProblem(sources=sources, static_q=q, static_m=static_m)


def _map_classes(problem: HRTDMProblem, fn) -> HRTDMProblem:
    """``problem`` with every message class replaced by ``fn(cls)``."""
    return HRTDMProblem(
        sources=tuple(
            dataclasses.replace(
                source,
                message_classes=tuple(
                    fn(cls) for cls in source.message_classes
                ),
            )
            for source in problem.sources
        ),
        static_q=problem.static_q,
        static_m=problem.static_m,
    )


def _rescaled(problem: HRTDMProblem, scale: float) -> HRTDMProblem:
    """``problem`` with every window at ``max(1, ceil(w / scale))``."""
    return _map_classes(
        problem,
        lambda cls: dataclasses.replace(
            cls,
            bound=DensityBound(
                a=cls.bound.a, w=max(1, math.ceil(cls.bound.w / scale))
            ),
        ),
    )


def _retyped(integer: type, problem: HRTDMProblem) -> HRTDMProblem:
    """``problem`` with every class's length, deadline, a and w cast to
    ``integer``."""
    return _map_classes(
        problem,
        lambda cls: MessageClass(
            name=cls.name,
            length=integer(cls.length),
            deadline=integer(cls.deadline),
            bound=DensityBound(a=integer(cls.bound.a), w=integer(cls.bound.w)),
        ),
    )


@pytest.fixture(params=("python", "numpy"))
def typed(request):
    """Maps an int-typed instance to the one the case evaluates."""
    if request.param == "python":
        return lambda problem: problem
    np = pytest.importorskip("numpy")
    return functools.partial(_retyped, np.int64)


def _assert_identical(got, expected):
    assert got == expected
    assert pickle.dumps(got) == pickle.dumps(expected)


class TestScalarParity:
    @given(
        st.one_of(hrtdm_problems(), pooled_problems()),
        st.sampled_from((0.5, 1.0, 3.0)),
    )
    def test_batch_equals_scalar_on_random_instances(self, problem, scale):
        trees = _trees(problem)
        (got,) = check_feasibility_batch([problem], GIGABIT_ETHERNET, trees)
        _assert_identical(
            got, check_feasibility(problem, GIGABIT_ETHERNET, trees)
        )
        # The engine's bulk recompute runs the same passes on rescaled
        # windows.
        engine = FeasibilityEngine.from_problem(
            problem, GIGABIT_ETHERNET, trees
        )
        engine.rescale_density(scale)
        _assert_identical(
            engine.report(),
            check_feasibility(
                _rescaled(problem, scale), GIGABIT_ETHERNET, trees
            ),
        )

    def test_uniform_family_across_scales(self, typed):
        for scale in (0.25, 0.5, 1.0, 2.0, 8.0, 32.0):
            problem = uniform_problem(z=8, scale=scale)
            trees = _trees(problem)
            (got,) = check_feasibility_batch(
                [typed(problem)], GIGABIT_ETHERNET, trees
            )
            _assert_identical(
                got, check_feasibility(problem, GIGABIT_ETHERNET, trees)
            )

    @pytest.mark.parametrize(
        "factory", [videoconference_problem, trading_floor_problem]
    )
    def test_heterogeneous_workloads(self, typed, factory):
        problem = factory()
        trees = _trees(problem)
        (got,) = check_feasibility_batch(
            [typed(problem)], GIGABIT_ETHERNET, trees
        )
        _assert_identical(
            got, check_feasibility(problem, GIGABIT_ETHERNET, trees)
        )

    def test_classic_ethernet_medium(self, typed):
        problem = uniform_problem(z=4, deadline=40 * _MS, w=20 * _MS)
        trees = _trees(problem)
        (got,) = check_feasibility_batch(
            [typed(problem)], CLASSIC_ETHERNET, trees
        )
        _assert_identical(
            got, check_feasibility(problem, CLASSIC_ETHERNET, trees)
        )

    def test_report_fields_are_python_ints(self, typed):
        problem = uniform_problem(z=4)
        trees = _trees(problem)
        evaluator = BatchEvaluator(GIGABIT_ETHERNET, trees)
        for row in evaluator(typed(problem)).classes:
            assert type(row.deadline) is int
            assert type(row.rank) is int
            assert type(row.interference) is int
            assert type(row.transmission_bits) is int
            assert type(row.static_trees) is int

    def test_shared_evaluator_is_stateless_across_instances(self, typed):
        # Memo state (encapsulation, S1) must not bleed between instances.
        problems = [uniform_problem(z=z, scale=s)
                    for z in (2, 4, 8) for s in (0.5, 4.0)]
        fresh = [
            check_feasibility_batch([p], GIGABIT_ETHERNET, _trees(p))[0]
            for p in problems
        ]
        evaluator = BatchEvaluator(GIGABIT_ETHERNET, _trees(problems[0]))
        shared = [evaluator(typed(p)) for p in problems if p.static_q ==
                  problems[0].static_q]
        fresh_same_q = [r for p, r in zip(problems, fresh)
                        if p.static_q == problems[0].static_q]
        assert len(shared) == len(fresh_same_q)
        for got, expected in zip(shared, fresh_same_q):
            _assert_identical(got, expected)


class TestGridApi:
    def _grid(self):
        problem = uniform_problem()
        trees = _trees(problem)
        return feasibility_grid(
            lambda deadline, scale: uniform_problem(
                z=8, deadline=deadline, scale=scale
            ),
            {"deadline": (2 * _MS, 8 * _MS), "scale": (0.5, 1.0, 2.0)},
            GIGABIT_ETHERNET,
            trees,
        )

    def test_point_order_last_axis_fastest(self):
        grid = self._grid()
        assert grid.size == 6
        assert grid.axis_names == ("deadline", "scale")
        assert grid.points[:3] == (
            (2 * _MS, 0.5), (2 * _MS, 1.0), (2 * _MS, 2.0)
        )
        assert grid.points[3][0] == 8 * _MS

    def test_reports_match_scalar_at_every_point(self):
        grid = self._grid()
        problem = uniform_problem()
        trees = _trees(problem)
        for point, report in zip(grid.points, grid.reports):
            deadline, scale = point
            expected = check_feasibility(
                uniform_problem(z=8, deadline=deadline, scale=scale),
                GIGABIT_ETHERNET,
                trees,
            )
            assert report == expected
            assert pickle.dumps(report) == pickle.dumps(expected)

    def test_report_at_and_masks(self):
        grid = self._grid()
        report = grid.report_at(deadline=8 * _MS, scale=0.5)
        assert report is grid.reports[3]
        assert grid.feasible_mask() == tuple(
            r.feasible for r in grid.reports
        )
        dicts = grid.point_dicts()
        assert dicts[0] == {"deadline": 2 * _MS, "scale": 0.5}

    def test_report_at_rejects_wrong_axes(self):
        grid = self._grid()
        with pytest.raises(KeyError):
            grid.report_at(deadline=2 * _MS)  # missing axis
        with pytest.raises(KeyError):
            grid.report_at(deadline=2 * _MS, scale=0.5, z=8)  # extra axis
        with pytest.raises(KeyError):
            grid.report_at(deadline=3 * _MS, scale=0.5)  # off-grid point

    def test_rows_carry_verdict_and_binding_class(self):
        grid = self._grid()
        rows = grid.rows()
        assert len(rows) == grid.size
        for row, report in zip(rows, grid.reports):
            assert row[2] == ("yes" if report.feasible else "NO")
            assert row[3] == report.worst.class_name

    def test_empty_axes_rejected(self):
        problem = uniform_problem()
        trees = _trees(problem)
        with pytest.raises(ValueError):
            feasibility_grid(uniform_problem, {}, GIGABIT_ETHERNET, trees)
        with pytest.raises(ValueError):
            feasibility_grid(
                uniform_problem, {"scale": ()}, GIGABIT_ETHERNET, trees
            )


@st.composite
def _s1_points(draw):
    """``(m, q, v, u)`` over every piece of ``xi_tilde_extended``."""
    m = draw(st.sampled_from((2, 3, 4)), label="m")
    q = m ** draw(st.integers(0, 4), label="n")
    v = draw(st.integers(1, 6), label="v")
    special = [2 * v - 1, 2 * v]  # either side of k = 2
    if q > 1:
        special.append(2 * q * v // m)  # the knee k = 2q/m
    u = draw(
        st.one_of(st.integers(0, q * v), st.sampled_from(special)),
        label="u",
    )
    return m, q, v, u


class TestS1Core:
    """``class_bound``'s S1 goes through the unchecked core; the scalar
    ``multi_tree_bound_extended`` checks its arguments, then evaluates the
    same core, so the two agree bit for bit."""

    @given(_s1_points())
    def test_class_bound_s1_equals_the_scalar_bound(self, point):
        m, q, v, u = point
        trees = TreeParameters(time_f=64, time_m=4, static_q=q, static_m=m)
        evaluator = BatchEvaluator(GIGABIT_ETHERNET, trees)
        # nu = 1 and rank = v - 1 give v static trees.
        got_v, s1, _, _ = evaluator.class_bound(v - 1, 1, u, 0)
        assert got_v == v
        u_for_search = min(max(u, v), q * v)
        expected = multi_tree_bound_extended(float(u_for_search), v, q, m)
        assert float.hex(s1) == float.hex(expected)

    def test_public_functions_still_check_their_arguments(self):
        with pytest.raises(TreeShapeError):
            multi_tree_bound_extended(4.0, 1, 48, 4)
        with pytest.raises(TreeShapeError):
            xi_tilde_extended(4.0, 48, 4)
        for u in (-1.0, 17.0, math.nan):
            with pytest.raises(ValueError, match="out of range"):
                multi_tree_bound_extended(u, 1, 16, 2)
        with pytest.raises(ValueError, match="v must be"):
            multi_tree_bound_extended(4.0, 0, 16, 2)
        for k in (-0.5, 16.5, math.nan):
            with pytest.raises(ValueError, match="out of range"):
                xi_tilde_extended(k, 16, 2)
