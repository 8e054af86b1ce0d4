"""Vectorized feasibility: exact parity with the scalar oracle + grid API.

The uniform-family and grid parity tests compare per-report
``pickle.dumps`` digests next to ``==``: a digest also catches int/float
and +-0.0 drift that ``==`` lets through.  Reports are pickled one at a
time because a whole-list pickle memoizes string objects that one path
shares across reports and the other does not.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import feas_grid
from repro.core.feas_grid import (
    BatchEvaluator,
    _PythonFeasOps,
    check_feasibility_batch,
    default_backend,
    feasibility_grid,
    numpy_unavailable_reason,
)
from repro.core.feasibility import TreeParameters, check_feasibility
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


def _backends():
    backends = [("python", _PythonFeasOps())]
    if numpy_unavailable_reason() is None:
        backends.append(("numpy", feas_grid._NumpyFeasOps()))
    return backends


@pytest.fixture(params=_backends(), ids=lambda b: b[0])
def backend(request):
    return request.param[1]


class TestScalarParity:
    @given(hrtdm_problems())
    def test_batch_equals_scalar_on_random_instances(self, problem):
        trees = _trees(problem)
        expected = check_feasibility(problem, GIGABIT_ETHERNET, trees)
        for _, ops in _backends():
            (got,) = check_feasibility_batch(
                [problem], GIGABIT_ETHERNET, trees, backend=ops
            )
            assert got == expected

    @given(hrtdm_problems())
    def test_backends_agree_exactly(self, problem):
        trees = _trees(problem)
        reports = [
            check_feasibility_batch(
                [problem], GIGABIT_ETHERNET, trees, backend=ops
            )[0]
            for _, ops in _backends()
        ]
        assert all(report == reports[0] for report in reports)

    def test_uniform_family_across_scales(self, backend):
        for scale in (0.25, 0.5, 1.0, 2.0, 8.0, 32.0):
            problem = uniform_problem(z=8, scale=scale)
            trees = _trees(problem)
            (got,) = check_feasibility_batch(
                [problem], GIGABIT_ETHERNET, trees, backend=backend
            )
            expected = check_feasibility(problem, GIGABIT_ETHERNET, trees)
            assert got == expected
            assert pickle.dumps(got) == pickle.dumps(expected)

    @pytest.mark.parametrize(
        "factory", [videoconference_problem, trading_floor_problem]
    )
    def test_heterogeneous_workloads(self, backend, factory):
        problem = factory()
        trees = _trees(problem)
        (got,) = check_feasibility_batch(
            [problem], GIGABIT_ETHERNET, trees, backend=backend
        )
        assert got == check_feasibility(problem, GIGABIT_ETHERNET, trees)

    def test_classic_ethernet_medium(self, backend):
        problem = uniform_problem(z=4, deadline=40 * _MS, w=20 * _MS)
        trees = _trees(problem)
        (got,) = check_feasibility_batch(
            [problem], CLASSIC_ETHERNET, trees, backend=backend
        )
        assert got == check_feasibility(problem, CLASSIC_ETHERNET, trees)

    def test_report_fields_are_python_ints(self, backend):
        problem = uniform_problem(z=4)
        trees = _trees(problem)
        evaluator = BatchEvaluator(GIGABIT_ETHERNET, trees, backend=backend)
        for row in evaluator(problem).classes:
            assert type(row.rank) is int
            assert type(row.interference) is int
            assert type(row.transmission_bits) is int
            assert type(row.static_trees) is int

    def test_shared_evaluator_is_stateless_across_instances(self, backend):
        # Memo state (encapsulation, S1) must not bleed between instances.
        problems = [uniform_problem(z=z, scale=s)
                    for z in (2, 4, 8) for s in (0.5, 4.0)]
        trees = _trees(problems[0])
        fresh = [
            check_feasibility_batch(
                [p], GIGABIT_ETHERNET, _trees(p), backend=backend
            )[0]
            for p in problems
        ]
        del trees
        evaluator = BatchEvaluator(
            GIGABIT_ETHERNET, _trees(problems[0]), backend=backend
        )
        shared = [evaluator(p) for p in problems if p.static_q ==
                  problems[0].static_q]
        fresh_same_q = [r for p, r in zip(problems, fresh)
                        if p.static_q == problems[0].static_q]
        assert shared == fresh_same_q


class TestPurePythonFallback:
    def test_forced_numpy_failure_selects_python_backend(self, monkeypatch):
        monkeypatch.setattr(
            feas_grid, "_NUMPY_STATE", (None, "numpy unavailable (forced)")
        )
        assert numpy_unavailable_reason() == "numpy unavailable (forced)"
        assert isinstance(default_backend(), _PythonFeasOps)

    def test_forced_fallback_matches_scalar(self, monkeypatch):
        problem = videoconference_problem(participants=4)
        trees = _trees(problem)
        expected = check_feasibility(problem, GIGABIT_ETHERNET, trees)
        monkeypatch.setattr(
            feas_grid, "_NUMPY_STATE", (None, "numpy unavailable (forced)")
        )
        (got,) = check_feasibility_batch([problem], GIGABIT_ETHERNET, trees)
        assert got == expected

    def test_numpy_available_reports_no_reason(self):
        if feas_grid._load_numpy()[0] is None:
            pytest.skip("numpy genuinely unavailable")
        assert numpy_unavailable_reason() is None
        assert default_backend().name == "numpy"


class TestGridApi:
    def _grid(self, **kwargs):
        problem = uniform_problem()
        trees = _trees(problem)
        axes = kwargs.pop(
            "axes", {"deadline": (2 * _MS, 8 * _MS), "scale": (0.5, 1.0, 2.0)}
        )
        return feasibility_grid(
            lambda deadline, scale: uniform_problem(
                z=8, deadline=deadline, scale=scale
            ),
            axes,
            GIGABIT_ETHERNET,
            trees,
            **kwargs,
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

    def test_backend_recorded(self):
        grid = self._grid(backend=_PythonFeasOps())
        assert grid.backend == "python"
