"""Incremental feasibility evaluation under class add/remove/rescale.

An admission-control loop (:mod:`repro.serve`) and a frontier bisection
both ask the same question over and over: *is this instance still
feasible after a small change?*  Rebuilding a scalar
:class:`~repro.core.feasibility.FeasibilityReport` costs O(C^2) per
probe; this module maintains the FC integer state and applies deltas.

The interference sum decomposes per contributor::

    u(M_i) = sum_j f(i, j),   f(i, j) = ceil((base_i + d_j) / w_j) * a_j
                                        (0 when the window span is <= 0)

and reads the target only through its *profile* ``base_i = d_i - l'_i``,
as the transmission sum (weighted by ``l'_j``) does.  The engine keeps
one shared ``[u, tx, count]`` cell per profile, and every class points
to its profile's cell.  Adding, removing or rescaling one class k moves
every cell by ``f(base, k)``: an O(profiles) update, where realistic
class sets hold a handful of profiles.  Only a class that opens a new
profile needs a fresh O(C) row.  Ranks ``r(M)`` involve a single
source's classes, so a mutation touches one source block.  A global
density rescale invalidates every window and falls back to the bulk
recompute: the same two integer passes
(:func:`~repro.core.feas_grid.rank_sums`,
:func:`~repro.core.feas_grid.interference_sums`) that batch reports use.

The answer to that question is one bool, the binding class and its
slack, so the engine offers it without building rows:
:meth:`FeasibilityEngine.verdict` folds the integer columns through the
same per-class float combine
(:meth:`~repro.core.feas_grid.BatchEvaluator.class_bound`) that
:meth:`~repro.core.feas_grid.BatchEvaluator.assemble_rows` uses for the
full report, once per distinct ``(v, profile)``, so verdicts and reports
are exactly equal to the scalar path's.  A speculative mutation
(:meth:`FeasibilityEngine.try_add_class`,
:meth:`FeasibilityEngine.try_rescale_class`) that turns out infeasible is
undone exactly, and the verdict and report cached before it come back
with the state, so a rejected request costs one verdict, not two.
"""

from __future__ import annotations

import math
import typing

from repro.core.feas_grid import BatchEvaluator, interference_sums, rank_sums
from repro.core.feasibility import FeasibilityReport, TreeParameters
from repro.model.message import MessageClass
from repro.model.problem import HRTDMProblem

if typing.TYPE_CHECKING:  # pragma: no cover - layering: core must not pull net
    from repro.net.phy import MediumProfile

__all__ = ["FeasibilityEngine"]


class _ClassState:
    """One message class's exact integer FC state."""

    __slots__ = ("name", "length", "deadline", "lp", "base", "a", "w", "w0",
                 "rank", "cell")

    def __init__(self, name, length, deadline, lp, a, w):
        self.name = name
        self.length = length
        self.deadline = deadline
        self.lp = lp
        #: The target profile ``d - l'``: all u(M) and the transmission
        #: bits read of the class.
        self.base = deadline - lp
        self.a = a
        self.w = w
        #: scale-1.0 base window; ``rescale_density`` derives ``w`` from it
        #: and explicit per-class rescales rebase it.
        self.w0 = w
        self.rank = 0
        #: The profile's ``[u, tx, count]`` cell, shared by every class
        #: with this ``base``.
        self.cell: list[int] | None = None


class _SourceState:
    __slots__ = ("source_id", "nu", "classes")

    def __init__(self, source_id: int, nu: int):
        self.source_id = source_id
        self.nu = nu
        self.classes: list[_ClassState] = []

    def find(self, name: str) -> _ClassState | None:
        for cls in self.classes:
            if cls.name == name:
                return cls
        return None


def _interference_term(base: int, contrib: _ClassState) -> int:
    """``f(i, j)``: contributor j's share of ``u(M_i)``, ``base = d_i - l'_i``."""
    span = base + contrib.deadline
    if span <= 0:
        return 0
    return -(-span // contrib.w) * contrib.a


def _rank_term(deadline: int, contrib: _ClassState) -> int:
    """Contributor j's share of ``r(M_i)`` (same-source classes only)."""
    return -(-deadline // contrib.w) * contrib.a


class FeasibilityEngine:
    """FC state machine over a mutable set of message classes.

    Mutations (:meth:`add_class`, :meth:`remove_class`,
    :meth:`rescale_class`) cost O(profiles) exact-integer work, plus one
    O(C) row when a class opens a new target profile, instead of the
    O(C^2) of a fresh scalar report; :meth:`rescale_density` revalidates
    everything through the bulk integer passes.  :meth:`try_add_class`
    and :meth:`try_rescale_class` apply a mutation only if the result is
    feasible, and otherwise undo it exactly.

    Two reads, both lazy and cached until the next mutation:
    :meth:`verdict` (and :attr:`feasible`) answer "is the set feasible,
    and which class binds?" with one float combine per distinct
    ``(v, profile)`` and no row objects — what every admission decision
    needs — while :meth:`report` builds the full per-class rows for
    callers that read them (oracle counter-checks, the FC experiments).
    Both always equal scalar ``check_feasibility`` on the equivalent
    instance.

    Ordering contract (it shapes the report's row order): sources keep
    first-seen order and classes keep insertion order within a source; a
    source whose last class is removed is dropped, and re-adding to that
    ``source_id`` later appends it as a new, last source.  Sources are a
    ``dict`` keyed by id, whose insertion order is exactly this order.
    """

    def __init__(
        self,
        medium: "MediumProfile",
        trees: TreeParameters,
        evaluator: BatchEvaluator | None = None,
    ) -> None:
        # Sharing one evaluator across engines shares its encapsulation
        # and S1 memos (it must be bound to the same medium/trees).
        self.evaluator = (
            evaluator
            if evaluator is not None
            else BatchEvaluator(medium, trees)
        )
        self._sources: dict[int, _SourceState] = {}
        #: ``base -> [u, tx, count]``: one interference cell per target
        #: profile, dropped with the profile's last class.
        self._cells: dict[int, list[int]] = {}
        self._report: FeasibilityReport | None = None
        self._verdict: tuple[bool, str | None, float | None] | None = None
        self._class_count = 0
        self._total_nu = 0
        self._scale = 1.0
        #: Optional flight recorder (:class:`repro.obs.tracer.FlightRecorder`)
        #: mutations emit structured events into; ``None`` (the default)
        #: costs one attribute read per mutation.  Held as a plain
        #: attribute rather than a constructor kwarg so the core layer
        #: never imports :mod:`repro.obs` — the admission service arms it.
        self.tracer = None

    @classmethod
    def from_problem(
        cls,
        problem: HRTDMProblem,
        medium: "MediumProfile",
        trees: TreeParameters,
        evaluator: BatchEvaluator | None = None,
    ) -> "FeasibilityEngine":
        """Bulk-build the engine state from an instance."""
        snapshot = (
            1.0,
            tuple(
                (
                    source.source_id,
                    source.nu,
                    tuple(
                        (msg.name, msg.length, msg.deadline, msg.bound.a,
                         msg.bound.w, msg.bound.w)
                        for msg in source.message_classes
                    ),
                )
                for source in problem.sources
            ),
        )
        return cls.restore(snapshot, medium, trees, evaluator=evaluator)

    # -- introspection -------------------------------------------------------

    @property
    def class_count(self) -> int:
        return self._class_count

    @property
    def source_count(self) -> int:
        return len(self._sources)

    @property
    def total_nu(self) -> int:
        """Static leaves claimed by the current sources (sum of nu_i)."""
        return self._total_nu

    @property
    def scale(self) -> float:
        """The density scale last applied by :meth:`rescale_density`."""
        return self._scale

    @property
    def feasible(self) -> bool:
        return self.verdict()[0]

    def source_nu(self, source_id: int) -> int | None:
        """The source's nu, or ``None`` when it holds no classes."""
        source = self._sources.get(source_id)
        return None if source is None else source.nu

    def class_state(
        self, source_id: int, class_name: str
    ) -> tuple[int, int, int]:
        """The class's current ``(a, w, w0)`` — enough for an exact undo.

        ``w`` is the effective window, ``w0`` the scale-1.0 base window
        that :meth:`rescale_density` derives it from.  Feeding all three
        back through :meth:`rescale_class` (with its ``w0`` override)
        restores the class bit-for-bit, including its rebase behaviour
        under later density rescales.
        """
        _, state = self._require_class(source_id, class_name)
        return state.a, state.w, state.w0

    def snapshot(self) -> tuple:
        """A picklable, value-only image of the whole engine state.

        Shape: ``(scale, ((source_id, nu, ((name, length, deadline, a, w,
        w0), ...)), ...))`` — everything :meth:`restore` needs, nothing
        derived.  Derived columns (ranks, interference) are *recomputed*
        on restore rather than trusted, so a snapshot can never smuggle a
        corrupted column past the scalar oracle.
        """
        return (
            self._scale,
            tuple(
                (
                    source.source_id,
                    source.nu,
                    tuple(
                        (c.name, c.length, c.deadline, c.a, c.w, c.w0)
                        for c in source.classes
                    ),
                )
                for source in self._sources.values()
            ),
        )

    @classmethod
    def restore(
        cls,
        snapshot: tuple,
        medium: "MediumProfile",
        trees: TreeParameters,
        evaluator: BatchEvaluator | None = None,
    ) -> "FeasibilityEngine":
        """Rebuild an engine from :meth:`snapshot` output.

        The restored engine's :meth:`report` equals the original's
        exactly: source/class ordering is part of the snapshot, and the
        rank/u/tx columns come from the same bulk recompute
        ``from_problem`` uses.
        """
        scale, sources = snapshot
        engine = cls(medium, trees, evaluator=evaluator)
        for source_id, nu, classes in sources:
            state = _SourceState(source_id, nu)
            for name, length, deadline, a, w, w0 in classes:
                cls_state = _ClassState(
                    name,
                    length,
                    deadline,
                    engine.evaluator.encapsulate(length),
                    a,
                    w,
                )
                cls_state.w0 = w0
                state.classes.append(cls_state)
            engine._sources[source_id] = state
            engine._class_count += len(state.classes)
            engine._total_nu += nu
        engine._scale = scale
        engine._recompute_all()
        return engine

    def to_problem(self) -> HRTDMProblem:
        """Materialise the current class set as an :class:`HRTDMProblem`.

        Static indices are assigned contiguously in source order (they
        never enter the FC formulas — only ``nu`` does), so the scalar
        ``check_feasibility`` on the returned problem is the engine's
        oracle.  Requires at least one class, globally unique class
        names, and ``total_nu <= static_q`` (the admission service
        enforces all three before mutating the engine).
        """
        from repro.model.message import DensityBound
        from repro.model.source import SourceSpec

        if not self._sources:
            raise ValueError("cannot materialise an empty engine")
        trees = self.evaluator.trees
        sources = []
        offset = 0
        for source in self._sources.values():
            sources.append(
                SourceSpec(
                    source_id=source.source_id,
                    message_classes=tuple(
                        MessageClass(
                            name=c.name,
                            length=c.length,
                            deadline=c.deadline,
                            bound=DensityBound(a=c.a, w=c.w),
                        )
                        for c in source.classes
                    ),
                    static_indices=tuple(
                        range(offset, offset + source.nu)
                    ),
                )
            )
            offset += source.nu
        return HRTDMProblem(
            sources=tuple(sources),
            static_q=trees.static_q,
            static_m=trees.static_m,
        )

    def report(self) -> FeasibilityReport:
        """The FC report for the current class set (cached until mutated)."""
        if self._report is None:
            meta = []
            ranks = []
            u = []
            tx = []
            for source in self._sources.values():
                for cls in source.classes:
                    meta.append(
                        (source.source_id, source.nu, cls.name, cls.deadline)
                    )
                    ranks.append(cls.rank)
                    u.append(cls.cell[0])
                    tx.append(cls.cell[1])
            self._report = self.evaluator.assemble_rows(meta, ranks, u, tx)
        return self._report

    def verdict(self) -> tuple[bool, str | None, float | None]:
        """``(feasible, worst_class, worst_slack)`` without building rows.

        Equal to ``(report().feasible, report().worst.class_name,
        report().worst.slack)`` bit for bit — the slack comes out of the
        same :meth:`~repro.core.feas_grid.BatchEvaluator.class_bound`
        combine — and a slack tie names the first class in report order,
        as ``min`` does.  ``(True, None, None)`` when no class is
        admitted.  Cached until the next mutation.

        ``B_DDCR`` depends on a class only through ``v = 1 + rank // nu``
        and its profile's ``(u, tx)`` cell, so ``class_bound`` runs once
        per distinct ``(v, profile)``; each class still takes its slack
        against its own deadline.
        """
        verdict = self._verdict
        if verdict is None:
            feasible = True
            worst_class = worst_slack = None
            class_bound = self.evaluator.class_bound
            bounds: dict[tuple[int, int], float] = {}
            for source in self._sources.values():
                nu = source.nu
                for cls in source.classes:
                    rank = cls.rank
                    key = (rank // nu, cls.base)  # (v - 1, profile)
                    bound = bounds.get(key)
                    if bound is None:
                        cell = cls.cell
                        bound = bounds[key] = class_bound(
                            rank, nu, cell[0], cell[1]
                        )[3]
                    deadline = cls.deadline
                    if bound > deadline:
                        feasible = False
                    slack = deadline - bound
                    if worst_slack is None or slack < worst_slack:
                        worst_class, worst_slack = cls.name, slack
            verdict = self._verdict = (feasible, worst_class, worst_slack)
        return verdict

    # -- mutations -----------------------------------------------------------

    def add_class(
        self, source_id: int, message_class: MessageClass, nu: int | None = None
    ) -> None:
        """Admit a class; ``nu`` is required when ``source_id`` is new."""
        source = self._sources.get(source_id)
        if source is None:
            if nu is None:
                raise ValueError(
                    f"source {source_id} is new: its nu (static-leaf count) "
                    "is required"
                )
            source = self._sources[source_id] = _SourceState(source_id, nu)
            self._total_nu += nu
        elif nu is not None and nu != source.nu:
            raise ValueError(
                f"source {source_id} already has nu={source.nu}, got {nu}"
            )
        if source.find(message_class.name) is not None:
            raise ValueError(
                f"source {source_id} already has a class named "
                f"{message_class.name!r}"
            )
        added = _ClassState(
            message_class.name,
            message_class.length,
            message_class.deadline,
            self.evaluator.encapsulate(message_class.length),
            message_class.bound.a,
            message_class.bound.w,
        )
        # Contributor column: every profile gains f(base, k).
        self._shift_cells(added.deadline, added.lp, added.a, added.w)
        source.classes.append(added)
        self._class_count += 1
        cell = self._cells.get(added.base)
        if cell is None:
            # A new profile: a fresh row, the newcomer's own share included.
            base = added.base
            u = tx = 0
            for contrib in self._iter_classes():
                term = _interference_term(base, contrib)
                u += term
                tx += term * contrib.lp
            cell = self._cells[base] = [u, tx, 0]
        cell[2] += 1
        added.cell = cell
        # Ranks move only within the newcomer's source.
        for state in source.classes[:-1]:
            state.rank += _rank_term(state.deadline, added)
        added.rank = (
            sum(_rank_term(added.deadline, c) for c in source.classes) - 1
        )
        self._invalidate()
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "engine/add_class",
                source=source_id,
                name=message_class.name,
                classes=self.class_count,
            )

    def remove_class(self, source_id: int, class_name: str) -> None:
        """Retire a class; drops the source once its last class goes."""
        source, removed = self._require_class(source_id, class_name)
        source.classes.remove(removed)
        self._class_count -= 1
        self._shift_cells(removed.deadline, removed.lp, -removed.a, removed.w)
        cell = removed.cell
        cell[2] -= 1
        if not cell[2]:
            del self._cells[removed.base]
        for state in source.classes:
            state.rank -= _rank_term(state.deadline, removed)
        if not source.classes:
            del self._sources[source_id]
            self._total_nu -= source.nu
        self._invalidate()
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "engine/remove_class",
                source=source_id,
                name=class_name,
                classes=self.class_count,
            )

    def rescale_class(
        self,
        source_id: int,
        class_name: str,
        a: int | None = None,
        w: int | None = None,
        w0: int | None = None,
    ) -> None:
        """Change one class's arrival bound ``(a, w)`` in place.

        The new window becomes the class's scale-1.0 base for future
        :meth:`rescale_density` calls, unless ``w0`` overrides the base
        explicitly — the exact-undo path: replaying the triple from
        :meth:`class_state` restores both the effective window and its
        rebase behaviour.
        """
        source, target = self._require_class(source_id, class_name)
        new_a = target.a if a is None else a
        new_w = target.w if w is None else w
        if new_a < 1 or new_w < 1:
            raise ValueError(f"need a >= 1 and w >= 1, got a={new_a} w={new_w}")
        new_w0 = new_w if w0 is None else w0
        if new_w0 < 1:
            raise ValueError(f"need w0 >= 1, got w0={new_w0}")
        if (new_a, new_w) == (target.a, target.w):
            target.w0 = new_w0
            return
        old_a, old_w = target.a, target.w
        # The k-th contributor column shifts by f_new - f_old; the target's
        # own deadline and l' are untouched, so its profile stays put.
        self._shift_cells(target.deadline, target.lp, -old_a, old_w)
        self._shift_cells(target.deadline, target.lp, new_a, new_w)
        for state in source.classes:
            state.rank += (
                -(-state.deadline // new_w) * new_a
                - -(-state.deadline // old_w) * old_a
            )
        target.a = new_a
        target.w = new_w
        target.w0 = new_w0
        self._invalidate()
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "engine/rescale_class",
                source=source_id,
                name=class_name,
                a=new_a,
                w=new_w,
            )

    # -- speculative mutations -----------------------------------------------

    def try_add_class(
        self, source_id: int, message_class: MessageClass, nu: int | None = None
    ) -> tuple[bool, str | None, float | None]:
        """:meth:`add_class`, kept only if the class set stays feasible.

        Returns the :meth:`verdict` of the set with the class in it.  An
        infeasible one is undone with :meth:`remove_class`, and the
        engine is then exactly as before the call, cached verdict and
        report included.  Raises what :meth:`add_class` raises, before
        any change.
        """
        cached = self._verdict, self._report
        self.add_class(source_id, message_class, nu=nu)
        verdict = self.verdict()
        if not verdict[0]:
            self.remove_class(source_id, message_class.name)
            self._verdict, self._report = cached
        return verdict

    def try_rescale_class(
        self,
        source_id: int,
        class_name: str,
        a: int | None = None,
        w: int | None = None,
    ) -> tuple[bool, str | None, float | None]:
        """:meth:`rescale_class`, kept only if the class set stays feasible.

        Returns the :meth:`verdict` of the rescaled set.  An infeasible
        one is undone by replaying the class's :meth:`class_state` triple,
        which restores its window and its rescale base, and the cached
        verdict and report come back with the state.  Raises what
        :meth:`class_state` and :meth:`rescale_class` raise, before any
        change.
        """
        old_a, old_w, old_w0 = self.class_state(source_id, class_name)
        cached = self._verdict, self._report
        self.rescale_class(source_id, class_name, a=a, w=w)
        verdict = self.verdict()
        if not verdict[0]:
            self.rescale_class(
                source_id, class_name, a=old_a, w=old_w, w0=old_w0
            )
            self._verdict, self._report = cached
        return verdict

    def rescale_density(self, scale: float) -> None:
        """Scale every class's arrival density, exactly like the workloads.

        Applies ``w = max(1, ceil(w0 / scale))`` per class — the same
        expression as :func:`repro.model.workloads._scaled_bound` — so an
        engine built from a scale-1.0 workload instance matches the
        workload factory at any scale.  Every window changes, so this
        revalidates through the bulk integer passes instead of deltas.

        Raises ``ValueError`` — with the engine untouched — on a scale
        that is not a finite number > 0, or one whose window overflows:
        every new window is computed before any is assigned.
        """
        if not (math.isfinite(scale) and scale > 0):
            raise ValueError(
                f"scale must be a finite number > 0, got {scale}"
            )
        states = list(self._iter_classes())
        try:
            windows = [max(1, math.ceil(s.w0 / scale)) for s in states]
        except OverflowError:
            raise ValueError(f"scale {scale} overflows a window") from None
        for state, w in zip(states, windows):
            state.w = w
        self._scale = scale
        self._recompute_all()
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "engine/rescale_density",
                scale=scale,
                classes=self.class_count,
            )

    def max_feasible_density(
        self, lo: float = 0.01, hi: float = 1.0, tolerance: float = 1e-3
    ) -> float:
        """Largest scale in ``[lo, hi]`` keeping the class set feasible.

        Binary search assuming density monotonicity, probing through
        :meth:`rescale_density`; 0.0 when even ``lo`` is infeasible.  The
        engine is left rescaled to ``max(result, lo)`` so :meth:`report`
        describes the returned operating point.
        """
        self.rescale_density(hi)
        if self.feasible:
            return hi
        self.rescale_density(lo)
        if not self.feasible:
            return 0.0
        feasible, infeasible = lo, hi
        while infeasible - feasible > tolerance:
            mid = (feasible + infeasible) / 2
            self.rescale_density(mid)
            if self.feasible:
                feasible = mid
            else:
                infeasible = mid
        if self._scale != feasible:
            self.rescale_density(feasible)
        return feasible

    # -- internals -----------------------------------------------------------

    def _iter_classes(self):
        for source in self._sources.values():
            yield from source.classes

    def _shift_cells(self, deadline: int, lp: int, a: int, w: int) -> None:
        """Add one contributor's ``f(base, k)`` to every profile cell.

        The contributor has deadline ``deadline``, encapsulated length
        ``lp`` and bound ``(a, w)``; a negative ``a`` takes it away.
        """
        for base, cell in self._cells.items():
            span = base + deadline
            if span > 0:
                term = -(-span // w) * a
                cell[0] += term
                cell[1] += term * lp

    def _require_class(
        self, source_id: int, class_name: str
    ) -> tuple[_SourceState, _ClassState]:
        source = self._sources.get(source_id)
        if source is None:
            raise KeyError(f"no source {source_id}")
        state = source.find(class_name)
        if state is None:
            raise KeyError(f"source {source_id} has no class {class_name!r}")
        return source, state

    def _recompute_all(self) -> None:
        """Bulk refresh of every rank/u/tx column."""
        d: list[int] = []
        lp: list[int] = []
        a: list[int] = []
        w: list[int] = []
        blocks: list[tuple[int, int]] = []
        states: list[_ClassState] = []
        for source in self._sources.values():
            lo = len(d)
            for cls in source.classes:
                d.append(cls.deadline)
                lp.append(cls.lp)
                a.append(cls.a)
                w.append(cls.w)
                states.append(cls)
            blocks.append((lo, len(d)))
        cells: dict[int, list[int]] = {}
        if states:
            ranks = rank_sums(d, a, w, blocks)
            u, tx = interference_sums(d, lp, a, w)
            for state, rank, ui, txi in zip(states, ranks, u, tx):
                state.rank = rank
                cell = cells.get(state.base)
                if cell is None:
                    cell = cells[state.base] = [ui, txi, 0]
                cell[2] += 1
                state.cell = cell
        self._cells = cells
        self._invalidate()

    def _invalidate(self) -> None:
        """Drop the cached report and verdict: the columns just moved."""
        self._report = None
        self._verdict = None
