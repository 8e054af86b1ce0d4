"""Vectorized evaluation of the feasibility conditions over whole grids.

The scalar path (:func:`repro.core.feasibility.check_feasibility`) costs
O(C^2) Python-interpreter work per instance — for every target class it
loops over every contributor class to accumulate ``u(M)`` and the
transmission term.  Frontier campaigns, bisections and admission checks
evaluate thousands of instances, so this module restates the integer
inner loops as array operations:

* ``r(M)`` — per-source block: ``ceil(d_i / w_j) * a_j`` summed over the
  source's own classes (one outer product per source);
* ``u(M)`` and the transmission bits — one C x C matrix
  ``ceil((d_i + d_j - l'_i) / w_j) * a_j`` masked to positive windows,
  summed along the contributor axis (plain, and weighted by ``l'_j``).

The S1/S2 search terms are O(1) per class and *memoized* instead of
vectorized: ``multi_tree_bound_extended`` is evaluated through the exact
scalar function on the exact integer arguments, so every float in the
result is bit-identical to the scalar path's — the vectorized, engine
and scalar paths produce *equal* :class:`FeasibilityReport` objects
(``tests/core/test_feas_grid.py`` and the engine's mutation-sequence
tests compare them by ``==`` and by pickle digest).  The per-class float
combine lives in one place, :meth:`BatchEvaluator.class_bound`, which
both report rows and the engine's row-free verdict go through.

Two backends share one integer contract: :class:`_NumpyFeasOps` (the
``[perf]`` numpy extra, int64 columns) and :class:`_PythonFeasOps` (pure
Python, the scalar loops verbatim).  All integer quantities stay exact
in either backend; int64 is ample for bit-time spans (< 2^40).
"""

from __future__ import annotations

import dataclasses
import itertools
import typing
from collections.abc import Callable, Mapping, Sequence

from repro.core.divide_conquer import xi_two
from repro.core.feasibility import (
    ClassFeasibility,
    FeasibilityReport,
    TreeParameters,
)
from repro.core.multi_tree import multi_tree_bound_extended
from repro.model.problem import HRTDMProblem

if typing.TYPE_CHECKING:  # pragma: no cover - layering: core must not pull net
    from repro.net.phy import MediumProfile

__all__ = [
    "BatchEvaluator",
    "FeasibilityGrid",
    "check_feasibility_batch",
    "default_backend",
    "feasibility_grid",
    "numpy_unavailable_reason",
]


# -- optional numpy ----------------------------------------------------------

#: Lazily resolved ``(module | None, reason | None)``.  Cached so the probe
#: runs once per process; tests reset it to force the import-failure path.
_NUMPY_STATE: "tuple[object | None, str | None] | None" = None


def _load_numpy() -> "tuple[object | None, str | None]":
    global _NUMPY_STATE
    if _NUMPY_STATE is None:
        try:
            import numpy
        except Exception as error:  # pragma: no cover - exercised via tests
            _NUMPY_STATE = (
                None,
                "numpy unavailable "
                f"({type(error).__name__}): pure-python backend "
                "(install the [perf] extra for the vectorized one)",
            )
        else:
            _NUMPY_STATE = (numpy, None)
    return _NUMPY_STATE


def numpy_unavailable_reason() -> str | None:
    """Why the vectorized backend is unavailable (``None`` = it is)."""
    return _load_numpy()[1]


# -- backends ----------------------------------------------------------------


class _PythonFeasOps:
    """Pure-Python backend: the scalar integer loops, verbatim."""

    name = "python"

    def ranks(
        self,
        d: Sequence[int],
        a: Sequence[int],
        w: Sequence[int],
        blocks: Sequence[tuple[int, int]],
    ) -> list[int]:
        """``r(M_i)`` for every class; ``blocks`` are per-source spans."""
        out = [0] * len(d)
        for lo, hi in blocks:
            for i in range(lo, hi):
                total = 0
                for j in range(lo, hi):
                    total += -(-d[i] // w[j]) * a[j]
                out[i] = total - 1
        return out

    def interference(
        self,
        d: Sequence[int],
        lp: Sequence[int],
        a: Sequence[int],
        w: Sequence[int],
    ) -> tuple[list[int], list[int]]:
        """``(u(M_i), transmission_bits_i)`` for every class."""
        count = len(d)
        u = [0] * count
        tx = [0] * count
        for i in range(count):
            base = d[i] - lp[i]
            total = 0
            bits = 0
            for j in range(count):
                span = base + d[j]
                if span <= 0:
                    continue
                n = -(-span // w[j]) * a[j]
                total += n
                bits += n * lp[j]
            u[i] = total
            tx[i] = bits
        return u, tx


class _NumpyFeasOps:
    """Struct-of-arrays backend over int64 columns (exact for bit-times)."""

    name = "numpy"

    def __init__(self, np_module=None):
        if np_module is None:
            np_module, reason = _load_numpy()
            if np_module is None:  # pragma: no cover - guarded by default_backend
                raise RuntimeError(reason)
        self.np = np_module

    def ranks(self, d, a, w, blocks) -> list[int]:
        np = self.np
        d_col = np.asarray(d, dtype=np.int64)
        a_col = np.asarray(a, dtype=np.int64)
        w_col = np.asarray(w, dtype=np.int64)
        if len(blocks) == len(d):
            # Every source has exactly one class — the paper's standard
            # station model — and r(M) collapses to the diagonal.
            return (-(-d_col // w_col) * a_col - 1).tolist()
        # General case: one C x C pass with a same-source mask instead of
        # a numpy call per block (tiny blocks drown in dispatch overhead).
        counts = -(-d_col[:, None] // w_col[None, :]) * a_col[None, :]
        block_id = np.repeat(
            np.arange(len(blocks)), [hi - lo for lo, hi in blocks]
        )
        counts *= block_id[:, None] == block_id[None, :]
        return (counts.sum(axis=1) - 1).tolist()

    def interference(self, d, lp, a, w) -> tuple[list[int], list[int]]:
        # f(i, j) depends on the target only through base_i = d_i - l'_i
        # and on the contributor only through its (d, w, a, l') profile,
        # so both sides are deduplicated: each distinct (base, profile)
        # pair is evaluated once, weighted by the profile's multiplicity,
        # and scattered back.  Realistic HRTDM instances repeat a handful
        # of class profiles across many stations, collapsing the C x C
        # division work to a few cells; worst case it stays C x C.
        np = self.np
        d_col = np.asarray(d, dtype=np.int64)
        lp_col = np.asarray(lp, dtype=np.int64)
        profiles = np.stack(
            [
                d_col,
                np.asarray(w, dtype=np.int64),
                np.asarray(a, dtype=np.int64),
                lp_col,
            ],
            axis=1,
        )
        groups, multiplicity = np.unique(
            profiles, axis=0, return_counts=True
        )
        bases, inverse = np.unique(d_col - lp_col, return_inverse=True)
        span = bases[:, None] + groups[None, :, 0]
        counts = -(-span // groups[None, :, 1]) * (
            groups[:, 2] * multiplicity
        )[None, :]
        counts *= span > 0
        u = counts.sum(axis=1)[inverse]
        tx = (counts * groups[None, :, 3]).sum(axis=1)[inverse]
        # tolist() yields Python ints — np.int64 must never leak into the
        # frozen report rows (it would break exact-equality comparison).
        return u.tolist(), tx.tolist()


def default_backend() -> "_NumpyFeasOps | _PythonFeasOps":
    """The fastest available backend: numpy, else the pure-Python one."""
    np_module, _ = _load_numpy()
    if np_module is None:
        return _PythonFeasOps()
    return _NumpyFeasOps(np_module)


# -- the evaluator -----------------------------------------------------------


class BatchEvaluator:
    """Vectorized drop-in for ``check_feasibility`` with shared memo state.

    One evaluator binds a ``(medium, trees)`` pair and amortises across
    every instance it sees: the encapsulation map ``l -> l'(l)``, the
    ``xi(2, F)`` time-tree constant, and every ``(u_for_search, v)`` S1
    evaluation — exactly the quantities a frontier bisection or sweep
    shard recomputes when it rebuilds scalar reports per probe.

    Reports are *equal* to the scalar path's: integers come out of exact
    array arithmetic, floats out of the same scalar expressions on the
    same arguments.
    """

    def __init__(
        self,
        medium: "MediumProfile",
        trees: TreeParameters,
        backend: "_NumpyFeasOps | _PythonFeasOps | None" = None,
    ) -> None:
        self.medium = medium
        self.trees = trees
        self.ops = backend if backend is not None else default_backend()
        self._encap: dict[int, int] = {}
        self._s1: dict[tuple[int, int], float] = {}
        self._xi_two = xi_two(trees.time_f, trees.time_m)
        self._static_q = trees.static_q
        self._static_m = trees.static_m
        self._slot_time = medium.slot_time

    @property
    def backend_name(self) -> str:
        return self.ops.name

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
            s1 = self._s1[key] = multi_tree_bound_extended(
                float(u_for_search), v, self._static_q, self._static_m
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
        for source in problem.sources:
            lo = len(d)
            source_id = source.source_id
            nu = source.nu
            for cls in source.message_classes:
                bound = cls.bound
                deadline = cls.deadline
                length = cls.length
                meta_append((source_id, nu, cls.name, deadline))
                d_append(deadline)
                lp_value = encap_get(length)
                if lp_value is None:
                    lp_value = encap[length] = encapsulate(length)
                lp_append(lp_value)
                a_append(bound.a)
                w_append(bound.w)
            blocks.append((lo, len(d)))
        return meta, d, lp, a, w, blocks

    def evaluate(self, problem: HRTDMProblem) -> FeasibilityReport:
        meta, d, lp, a, w, blocks = self.columns(problem)
        ranks = self.ops.ranks(d, a, w, blocks)
        u, tx = self.ops.interference(d, lp, a, w)
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
        class; the integer columns must hold Python ints (both backends
        and the engine guarantee this — np.int64 would poison equality).
        The floats come from :meth:`class_bound`.
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
    backend: "_NumpyFeasOps | _PythonFeasOps | None" = None,
) -> tuple[FeasibilityReport, ...]:
    """Feasibility reports for many instances through one shared evaluator.

    Equal, element for element, to mapping
    :func:`repro.core.feasibility.check_feasibility` over ``problems`` —
    just evaluated as array operations with shared S1/encapsulation memos.
    """
    evaluator = BatchEvaluator(medium, trees, backend=backend)
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
    backend: str

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
    backend: "_NumpyFeasOps | _PythonFeasOps | None" = None,
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
    evaluator = BatchEvaluator(medium, trees, backend=backend)
    names = tuple(name for name, _ in frozen)
    points = tuple(
        itertools.product(*(values for _, values in frozen))
    )
    reports = tuple(
        evaluator(problem_factory(**dict(zip(names, point))))
        for point in points
    )
    return FeasibilityGrid(
        axes=frozen,
        points=points,
        reports=reports,
        backend=evaluator.backend_name,
    )
