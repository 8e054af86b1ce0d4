"""Fast evaluation of the feasibility conditions over whole grids.

The scalar path (:func:`repro.core.feasibility.check_feasibility`) costs
O(C^2) Python-interpreter work per instance — for every target class it
loops over every contributor class to accumulate ``u(M)`` and the
transmission term.  Frontier campaigns, bisections and admission checks
evaluate thousands of instances, so this module restates the integer
sums as two column passes over plain Python ints:

* ``r(M)`` (:func:`rank_sums`) — per-source block:
  ``ceil(d_i / w_j) * a_j`` summed over the source's own classes;
* ``u(M)`` and the transmission bits (:func:`interference_sums`) —
  ``ceil((d_i + d_j - l'_i) / w_j) * a_j`` over every contributor with
  a positive window span, plain and weighted by ``l'_j``.  Both sides
  are deduplicated by class profile, so an instance that repeats a
  handful of profiles across its stations costs a handful of cells.

The S1/S2 search terms are O(1) per class and *memoized*: S1 is
evaluated through the same unchecked core that the scalar
``multi_tree_bound_extended`` calls after its checks
(:func:`repro.core.asymptotic._xi_tilde_extended`), on the exact integer
arguments, so every float in the result is bit-identical to the scalar
path's — the batch, engine and scalar paths produce *equal*
:class:`FeasibilityReport` objects (``tests/core/test_feas_grid.py`` and
the engine's mutation-sequence tests compare them by ``==`` and by
pickle digest).  The per-class float
combine lives in one place, :meth:`BatchEvaluator.class_bound`, which
both report rows and the engine's row-free verdict go through.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import typing
from collections.abc import Callable, Mapping, Sequence

from repro.core.asymptotic import _xi_tilde_extended
from repro.core.divide_conquer import xi_two
from repro.core.feasibility import (
    ClassFeasibility,
    FeasibilityReport,
    TreeParameters,
)
from repro.core.trees import integer_log
from repro.model.problem import HRTDMProblem

if typing.TYPE_CHECKING:  # pragma: no cover - layering: core must not pull net
    from repro.net.phy import MediumProfile

__all__ = [
    "BatchEvaluator",
    "FeasibilityGrid",
    "check_feasibility_batch",
    "feasibility_grid",
]


# -- the two integer passes --------------------------------------------------


def rank_sums(
    d: Sequence[int],
    a: Sequence[int],
    w: Sequence[int],
    blocks: Sequence[tuple[int, int]],
) -> list[int]:
    """``r(M_i)`` for every class; ``blocks`` are per-source ``[lo, hi)``.

    O(C) when every source has one class (the paper's station model).
    """
    out = [0] * len(d)
    for lo, hi in blocks:
        for i in range(lo, hi):
            total = 0
            for j in range(lo, hi):
                total += -(-d[i] // w[j]) * a[j]
            out[i] = total - 1
    return out


def interference_sums(
    d: Sequence[int],
    lp: Sequence[int],
    a: Sequence[int],
    w: Sequence[int],
) -> tuple[list[int], list[int]]:
    """``(u(M_i), transmission_bits_i)`` for every class.

    ``f(i, j) = ceil((base_i + d_j) / w_j) * a_j`` (0 when the span is
    <= 0) reads the target only through ``base_i = d_i - l'_i`` and is
    linear in ``a_j``, so contributors are keyed by ``(d, w, l')`` with
    their ``a`` summed, targets by ``base``, and each distinct
    ``(base, profile)`` cell is evaluated once.  Realistic HRTDM
    instances repeat a handful of profiles across many stations; the
    worst case stays C x C.
    """
    weights: dict[tuple[int, int, int], int] = {}
    for profile, a_j in zip(zip(d, w, lp), a):
        weights[profile] = weights.get(profile, 0) + a_j
    profiles = [
        (d_j, w_j, lp_j, a_j) for (d_j, w_j, lp_j), a_j in weights.items()
    ]
    cells: dict[int, tuple[int, int]] = {}
    u: list[int] = []
    tx: list[int] = []
    for d_i, lp_i in zip(d, lp):
        base = d_i - lp_i
        cell = cells.get(base)
        if cell is None:
            total = bits = 0
            for d_j, w_j, lp_j, a_j in profiles:
                span = base + d_j
                if span > 0:
                    n = -(-span // w_j) * a_j
                    total += n
                    bits += n * lp_j
            cell = cells[base] = (total, bits)
        u.append(cell[0])
        tx.append(cell[1])
    return u, tx


# -- the evaluator -----------------------------------------------------------


class BatchEvaluator:
    """Drop-in for ``check_feasibility`` with shared memo state.

    One evaluator binds a ``(medium, trees)`` pair and amortises across
    every instance it sees: the encapsulation map ``l -> l'(l)``, the
    ``xi(2, F)`` time-tree constant, and every ``(u_for_search, v)`` S1
    evaluation — exactly the quantities a frontier bisection or sweep
    shard recomputes when it rebuilds scalar reports per probe.

    Reports are *equal* to the scalar path's: integers come out of
    :func:`rank_sums` and :func:`interference_sums` as exact Python
    ints, floats out of the same scalar expressions on the same
    arguments.
    """

    def __init__(self, medium: "MediumProfile", trees: TreeParameters) -> None:
        self.medium = medium
        self.trees = trees
        self._encap: dict[int, int] = {}
        self._s1: dict[tuple[int, int], float] = {}
        self._xi_two = xi_two(trees.time_f, trees.time_m)
        self._static_q = trees.static_q
        self._static_m = trees.static_m
        # The static tree's depth, checked once here: an S1 memo miss then
        # goes straight to the unchecked core.
        self._static_n = integer_log(trees.static_q, trees.static_m)
        self._slot_time = medium.slot_time

    def encapsulate(self, length: int) -> int:
        lp = self._encap.get(length)
        if lp is None:
            lp = self._encap[length] = self.medium.encapsulate(length)
        return lp

    def class_bound(
        self, rank: int, nu: int, interference: int, transmission: int
    ) -> tuple[int, float, int, float]:
        """``(v, S1, S2, B_DDCR)`` for one class from its exact integers.

        The one float combine of the fast paths: report rows
        (:meth:`assemble_rows`) and the engine's row-free verdict both
        call it, and it mirrors ``latency_bound`` value for value, so
        every bound and slack is bit-identical to the scalar oracle's.
        ``rank >= 0`` and ``nu >= 1`` are structural here.
        """
        # Inlined static_tree_count / clamp / ceil(v/2):
        # (v + 1) >> 1 == ceil(v/2).
        v = 1 + rank // nu
        u_for_search = interference if interference > v else v
        qv = self._static_q * v
        if u_for_search > qv:
            u_for_search = qv
        key = (u_for_search, v)
        s1 = self._s1.get(key)
        if s1 is None:
            # multi_tree_bound_extended(float(u_for_search), v, q, m) with
            # its checks already met: v >= 1 and 0 <= u_for_search <= q v.
            s1 = self._s1[key] = v * _xi_tilde_extended(
                float(u_for_search) / v,
                self._static_q,
                self._static_m,
                self._static_n,
            )
        s2 = ((v + 1) >> 1) * self._xi_two
        return v, s1, s2, transmission + self._slot_time * (s1 + s2)

    def columns(
        self, problem: HRTDMProblem
    ) -> tuple[
        list[tuple[int, int, str, int]],
        list[int], list[int], list[int], list[int],
        list[tuple[int, int]],
    ]:
        """Per-class ``(meta, d, lp, a, w, blocks)`` columns.

        ``meta`` rows are ``(source_id, nu, class_name, deadline)``.
        Classes appear in ``iter_source_classes`` order (sources as
        declared, classes as declared within each), which keeps one
        source's classes contiguous — ``blocks`` holds the per-source
        ``[lo, hi)`` spans the rank computation needs.

        Class integers pass through ``operator.index``: a numpy (or any
        other) integer scalar becomes a Python int, so none reaches a
        report and reports stay pickle-equal to the scalar oracle's on
        the int-typed instance; a float raises instead of truncating.
        """
        meta: list[tuple[int, int, str, int]] = []
        d: list[int] = []
        a: list[int] = []
        w: list[int] = []
        lp: list[int] = []
        blocks: list[tuple[int, int]] = []
        meta_append = meta.append
        d_append = d.append
        a_append = a.append
        w_append = w.append
        lp_append = lp.append
        encap = self._encap
        encap_get = encap.get
        encapsulate = self.medium.encapsulate
        index = operator.index
        for source in problem.sources:
            lo = len(d)
            source_id = source.source_id
            nu = source.nu
            for cls in source.message_classes:
                bound = cls.bound
                deadline = index(cls.deadline)
                length = index(cls.length)
                meta_append((source_id, nu, cls.name, deadline))
                d_append(deadline)
                lp_value = encap_get(length)
                if lp_value is None:
                    lp_value = encap[length] = encapsulate(length)
                lp_append(lp_value)
                a_append(index(bound.a))
                w_append(index(bound.w))
            blocks.append((lo, len(d)))
        return meta, d, lp, a, w, blocks

    def evaluate(self, problem: HRTDMProblem) -> FeasibilityReport:
        meta, d, lp, a, w, blocks = self.columns(problem)
        ranks = rank_sums(d, a, w, blocks)
        u, tx = interference_sums(d, lp, a, w)
        return self.assemble_rows(meta, ranks, u, tx)

    def assemble_rows(
        self,
        meta: Sequence[tuple[int, int, str, int]],
        ranks: Sequence[int],
        u: Sequence[int],
        tx: Sequence[int],
    ) -> FeasibilityReport:
        """Combine integer columns into per-class rows, floats last.

        ``meta`` carries ``(source_id, nu, class_name, deadline)`` per
        class; the integer columns hold exact Python ints (from the two
        passes or the engine's delta updates).  The floats come from
        :meth:`class_bound`.
        """
        class_bound = self.class_bound
        rows: list[ClassFeasibility] = []
        append = rows.append
        for (source_id, nu, name, deadline), rank, interference, bits in zip(
            meta, ranks, u, tx
        ):
            v, s1, s2, bound = class_bound(rank, nu, interference, bits)
            append(
                ClassFeasibility(
                    source_id,
                    name,
                    deadline,
                    rank,
                    interference,
                    v,
                    bits,
                    s1,
                    s2,
                    bound,
                )
            )
        return FeasibilityReport(classes=tuple(rows))

    __call__ = evaluate


def check_feasibility_batch(
    problems: Sequence[HRTDMProblem],
    medium: "MediumProfile",
    trees: TreeParameters,
) -> tuple[FeasibilityReport, ...]:
    """Feasibility reports for many instances through one shared evaluator.

    Equal, element for element, to mapping
    :func:`repro.core.feasibility.check_feasibility` over ``problems`` —
    just evaluated through the profile-deduplicated passes with shared
    S1/encapsulation memos.
    """
    evaluator = BatchEvaluator(medium, trees)
    return tuple(evaluator(problem) for problem in problems)


# -- grids -------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FeasibilityGrid:
    """FC verdicts over a cartesian grid of instance parameters.

    ``axes`` preserves declaration order; ``points`` enumerates the grid
    with the *last* axis fastest (nested-loop order, matching
    :class:`repro.sweep.Grid`), aligned one-to-one with ``reports``.
    """

    axes: tuple[tuple[str, tuple[object, ...]], ...]
    points: tuple[tuple[object, ...], ...]
    reports: tuple[FeasibilityReport, ...]

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.axes)

    def point_dicts(self) -> list[dict[str, object]]:
        names = self.axis_names
        return [dict(zip(names, point)) for point in self.points]

    def feasible_mask(self) -> tuple[bool, ...]:
        return tuple(report.feasible for report in self.reports)

    def report_at(self, **coords: object) -> FeasibilityReport:
        names = self.axis_names
        if set(coords) != set(names):
            raise KeyError(
                f"grid axes are {names}, got {tuple(sorted(coords))}"
            )
        target = tuple(coords[name] for name in names)
        for point, report in zip(self.points, self.reports):
            if point == target:
                return report
        raise KeyError(f"no grid point {target}")

    def rows(self) -> list[list[object]]:
        """Tidy per-point rows: coordinates, verdict, binding class."""
        out: list[list[object]] = []
        for point, report in zip(self.points, self.reports):
            worst = report.worst
            out.append(
                [
                    *point,
                    "yes" if report.feasible else "NO",
                    worst.class_name,
                    worst.slack,
                ]
            )
        return out


def feasibility_grid(
    problem_factory: Callable[..., HRTDMProblem],
    axes: Mapping[str, Sequence[object]],
    medium: "MediumProfile",
    trees: TreeParameters,
) -> FeasibilityGrid:
    """Evaluate the FCs over the cartesian product of ``axes``.

    ``problem_factory(**point)`` builds the instance at one grid point;
    typical axes are load ``scale``, ``deadline`` and source count ``z``.
    Every report is exactly what scalar ``check_feasibility`` returns for
    the same instance.
    """
    if not axes:
        raise ValueError("need at least one axis")
    frozen = tuple((name, tuple(values)) for name, values in axes.items())
    for name, values in frozen:
        if not values:
            raise ValueError(f"axis {name!r} has no values")
    evaluator = BatchEvaluator(medium, trees)
    names = tuple(name for name, _ in frozen)
    points = tuple(
        itertools.product(*(values for _, values in frozen))
    )
    reports = tuple(
        evaluator(problem_factory(**dict(zip(names, point))))
        for point in points
    )
    return FeasibilityGrid(axes=frozen, points=points, reports=reports)
