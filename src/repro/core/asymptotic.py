"""Problem P1, asymptotic bound: Eq. 11 and tightness results Eq. 12-14.

The closed form Eq. 10 is a staircase in k (integer logs).  The paper smooths
it through the points ``k = 2 m**i`` (where the staircase touches) into the
real-valued, concave function (Eq. 11)::

    xi_tilde(k, t) = (m k/2 - 1)/(m - 1) + m (k/2) log_m(2t/k) - k

and proves:

* ``xi_tilde`` is a *tight upper bound* on ``xi`` over ``k in [2, 2t/m]``,
  with equality exactly at ``k = 2 m**i``;
* Eq. 12: the maximum gap over ``[2, 2t/m]`` is attained within the last
  period ``[2t/m^2, 2t/m]``;
* Eq. 13: the gap is at most ``(m**(1/(m-1)) / (e ln m) - 1/(m-1)) t``;
* Eq. 14: over all m, the gap is at most
  ``(3**(1/4) / (2 e ln 3) - 1/8) t <= 9.54% t`` — Eq. 13 maximised at m=9
  (note ``9**(1/8) = 3**(1/4)`` and ``e ln 9 = 2 e ln 3``).

Concavity of ``xi_tilde`` in k is what makes Problem P2 solvable in closed
form (:mod:`repro.core.multi_tree`): the worst split of u messages over v
trees is the even one.

``xi_tilde_extended`` additionally covers the regimes the feasibility
conditions hit in practice (real-valued k below 2 or above 2t/m) while
remaining a valid upper bound on ``xi`` everywhere; the switch points are
documented in DESIGN.md section 5.
"""

from __future__ import annotations

import dataclasses
import math

from repro.core.search_cost import exact_cost_table
from repro.core.trees import geometric_sum, integer_log

__all__ = [
    "xi_tilde",
    "xi_tilde_extended",
    "tightness_constant",
    "UNIVERSAL_TIGHTNESS_M",
    "universal_tightness_constant",
    "GapReport",
    "measure_gap",
    "touch_points",
]

#: Branching degree at which Eq. 13's constant is maximal (giving Eq. 14).
UNIVERSAL_TIGHTNESS_M = 9


def xi_tilde(k: float, t: int, m: int) -> float:
    """Eq. 11: the concave asymptotic upper bound ``xi_tilde(k, t)``.

    Defined for real ``k in [2, t]``; a *tight upper bound* on the exact
    ``xi`` over ``[2, 2t/m]``, exact at ``k = 2 m**i``.

    >>> round(xi_tilde(2, 64, 4), 6)   # == xi(2, 64) exactly
    11.0
    """
    integer_log(t, m)  # validate shape
    if not 2 <= k <= t:
        raise ValueError(f"k={k} out of range [2, {t}]")
    return _xi_tilde(k, t, m)


def _xi_tilde(k: float, t: int, m: int) -> float:
    """:func:`xi_tilde`'s expression; the caller has checked its arguments."""
    half = k / 2.0
    return (m * half - 1) / (m - 1) + m * half * math.log(2 * t / k, m) - k


def xi_tilde_extended(k: float, t: int, m: int) -> float:
    """Upper bound on ``xi`` for any real ``k in [0, t]``.

    Piecewise (each piece dominates the exact staircase):

    * ``k < 2``            -> ``xi_tilde(2, t)``   (xi(0)=1, xi(1)=0 are below)
    * ``2 <= k <= 2t/m``   -> Eq. 11
    * ``2t/m < k <= t``    -> Eq. 15 linear form ``(mt-1)/(m-1) - k``

    The two analytic pieces meet exactly at the knee ``k = 2t/m`` (Eq. 6),
    so the bound is continuous.  The feasibility conditions (section 4.3)
    evaluate this at the real ratio ``u(M)/v(M)``.
    """
    n = integer_log(t, m)
    if not 0 <= k <= t:
        raise ValueError(f"k={k} out of range [0, {t}]")
    return _xi_tilde_extended(k, t, m, n)


def _xi_tilde_extended(k: float, t: int, m: int, n: int) -> float:
    """:func:`xi_tilde_extended` without its checks.

    The caller guarantees ``t == m**n`` and ``0 <= k <= t``, so every
    piece is in range.  The public function and
    :meth:`~repro.core.feas_grid.BatchEvaluator.class_bound`, which
    computes ``n`` once per tree shape, both evaluate this one expression.
    """
    if k < 2:
        if t < m:  # single-leaf tree: xi is {1, 0}; bound by 1
            return 1.0
        return _xi_tilde(2, t, m)
    if k <= 2 * t / m or n < 1:
        return _xi_tilde(k, t, m)
    return geometric_sum(m, n + 1) - k


def tightness_constant(m: int) -> float:
    """Eq. 13's per-m constant: ``m**(1/(m-1)) / (e ln m) - 1/(m-1)``.

    ``max gap over [2, 2t/m] <= tightness_constant(m) * t``.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    return m ** (1 / (m - 1)) / (math.e * math.log(m)) - 1 / (m - 1)


def universal_tightness_constant() -> float:
    """Eq. 14's universal constant ``3**(1/4) / (2 e ln 3) - 1/8``.

    This is ``tightness_constant(9)``, the maximum of Eq. 13 over integer m,
    and is below 9.54% as the paper states.

    >>> universal_tightness_constant() <= 0.0954
    True
    """
    return 3 ** (1 / 4) / (2 * math.e * math.log(3)) - 1 / 8


@dataclasses.dataclass(frozen=True, slots=True)
class GapReport:
    """Empirical gap between ``xi_tilde`` and exact ``xi`` for one shape.

    Eq. 12-14 are statements about the closed form of the *even* restriction
    ``xi(2p, t)`` (Eq. 9), through which ``xi_tilde`` is constructed; odd
    values sit exactly 1 below their even neighbour (Eq. 3), so the all-k
    gap exceeds the even-k gap by an O(1) term that vanishes relative to t.
    ``even_max_gap`` is the quantity Eq. 13-14 bound exactly — the tests
    verify ``even_max_gap <= tightness_constant(m) * t`` on every shape —
    while ``max_gap`` (all k) is reported for completeness.
    """

    m: int
    t: int
    max_gap: float
    argmax_k: int
    even_max_gap: float
    even_argmax_k: int
    bound_eq13: float
    bound_eq14: float

    @property
    def relative_gap(self) -> float:
        """All-k max gap as a fraction of t."""
        return self.max_gap / self.t

    @property
    def even_relative_gap(self) -> float:
        """Even-k max gap as a fraction of t (compare against <= 9.54%)."""
        return self.even_max_gap / self.t

    def argmax_in_last_period(self) -> bool:
        """Eq. 12: is the even-k maximum attained within ``[2t/m^2, 2t/m]``?"""
        lo = 2 * self.t / self.m**2
        hi = 2 * self.t / self.m
        return lo <= self.even_argmax_k <= hi


def measure_gap(m: int, t: int) -> GapReport:
    """Measure ``max_{k in [2, 2t/m]} (xi_tilde - xi)`` exactly.

    Used by the EQ11-14 benches and tests to confirm: the gap is nonnegative
    (upper bound) for every k, attained in the last period (Eq. 12), and —
    on the even restriction — below both the per-m (Eq. 13) and universal
    (Eq. 14) constants times t.
    """
    table = exact_cost_table(m, t)
    knee = 2 * t // m
    if knee < 2:
        raise ValueError(f"t={t}, m={m}: interval [2, 2t/m] is empty")
    best_gap = -math.inf
    best_k = 2
    even_best_gap = -math.inf
    even_best_k = 2
    for k in range(2, knee + 1):
        gap = xi_tilde(k, t, m) - table[k]
        if gap > best_gap:
            best_gap = gap
            best_k = k
        if k % 2 == 0 and gap > even_best_gap:
            even_best_gap = gap
            even_best_k = k
    return GapReport(
        m=m,
        t=t,
        max_gap=best_gap,
        argmax_k=best_k,
        even_max_gap=even_best_gap,
        even_argmax_k=even_best_k,
        bound_eq13=tightness_constant(m) * t,
        bound_eq14=universal_tightness_constant() * t,
    )


def touch_points(t: int, m: int) -> list[int]:
    """The ``k = 2 m**i`` values where ``xi_tilde`` equals ``xi`` exactly.

    Eq. 11's construction: ``i in [0, floor(log_m(t/2))]``.
    """
    integer_log(t, m)
    points: list[int] = []
    k = 2
    while k <= t:
        points.append(k)
        k *= m
    return points
