"""Problem P2: worst-case searches over multiple consecutive trees (Eq. 16-19).

Section 4.2 asks for a tight upper bound on::

    Max { xi(k_1, t) + ... + xi(k_v, t) }
    s.t. k_1 + ... + k_v = u,  each k_i in [2, t]

i.e. the worst way an adversary can spread ``u`` messages over ``v``
consecutive t-leaf tree searches.  The paper's solution chain:

* Eq. 17: replace ``xi`` by its upper bound ``xi_tilde`` (sound);
* Eq. 18: ``xi_tilde`` is concave, so the even split is worst:
  ``Max sum xi_tilde(k_i) = v * xi_tilde(u/v, t)``, and this equals
  ``xi_tilde(u, t*v) - (v-1)/(m-1)`` by direct algebra;
* Eq. 19: hence ``Max sum xi(k_i) <= xi_tilde(u, t*v) - (v-1)/(m-1)``.

This module provides the analytic bound, the exhaustive optimum (exact
max-plus DP over compositions, for validation), and the Eq. 18 identity
checks used by the EQ16-19 bench.
"""

from __future__ import annotations

import dataclasses
import math

from repro.core.asymptotic import _xi_tilde_extended, xi_tilde
from repro.core.search_cost import exact_cost_table
from repro.core.trees import integer_log

__all__ = [
    "multi_tree_bound",
    "multi_tree_bound_even_split",
    "multi_tree_exact_optimum",
    "MultiTreeOptimum",
    "even_split_identity_gap",
]

_NEG_INF = float("-inf")


def _validate(u: int | float, v: int, t: int, m: int) -> None:
    integer_log(t, m)
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    if not 2 * v <= u <= t * v:
        raise ValueError(
            f"u={u} out of range [{2 * v}, {t * v}] for v={v}, t={t}"
        )


def multi_tree_bound(u: float, v: int, t: int, m: int) -> float:
    """Eq. 19: the paper's closed-form upper bound for Problem P2.

    ``xi_tilde(u, t*v) - (v-1)/(m-1)``.  Note the first term is evaluated on
    a *virtual* tree of ``t*v`` leaves — Eq. 18's algebraic identity — so no
    balanced-shape constraint applies to ``t*v`` itself; we therefore
    evaluate Eq. 11's formula directly.

    >>> multi_tree_bound(4, 2, 64, 4) == 2 * xi_tilde(2, 64, 4)
    True
    """
    _validate(u, v, t, m)
    half = u / 2.0
    log_term = math.log(2 * t * v / u, m)
    return (m * half - 1) / (m - 1) + m * half * log_term - u - (v - 1) / (m - 1)


def multi_tree_bound_even_split(u: float, v: int, t: int, m: int) -> float:
    """Eq. 18 middle form: ``v * xi_tilde(u/v, t)``.

    Algebraically identical to :func:`multi_tree_bound`; exposed separately
    so tests can confirm the identity numerically (Eq. 18's second equality).
    """
    _validate(u, v, t, m)
    return v * xi_tilde(u / v, t, m)


def even_split_identity_gap(u: float, v: int, t: int, m: int) -> float:
    """|Eq. 18 middle form - Eq. 18 right form|; zero up to float rounding."""
    return abs(
        multi_tree_bound_even_split(u, v, t, m) - multi_tree_bound(u, v, t, m)
    )


@dataclasses.dataclass(frozen=True, slots=True)
class MultiTreeOptimum:
    """Exhaustive optimum of Eq. 16 plus a witnessing composition."""

    value: int
    composition: tuple[int, ...]


def multi_tree_exact_optimum(u: int, v: int, t: int, m: int) -> MultiTreeOptimum:
    """Exact Eq. 16 optimum by max-plus DP over compositions of u into v parts.

    Each part is constrained to ``[2, t]`` as in the paper.  Polynomial
    (O(v * u * t)) — used to validate that :func:`multi_tree_bound` truly
    dominates, and by how much.
    """
    _validate(u, v, t, m)
    costs = exact_cost_table(m, t)
    # dp[j][s] = best sum using j parts totalling s.
    dp: list[list[float]] = [[_NEG_INF] * (u + 1) for _ in range(v + 1)]
    dp[0][0] = 0.0
    for j in range(1, v + 1):
        prev = dp[j - 1]
        cur = dp[j]
        for s in range(2 * j, min(u, t * j) + 1):
            best = _NEG_INF
            for k in range(2, min(t, s) + 1):
                p = prev[s - k]
                if p == _NEG_INF:
                    continue
                val = p + costs[k]
                if val > best:
                    best = val
            cur[s] = best
    value = dp[v][u]
    if value == _NEG_INF:  # pragma: no cover - guarded by _validate
        raise AssertionError("no feasible composition")
    # Backtrack one witnessing composition.
    parts: list[int] = []
    s = u
    for j in range(v, 0, -1):
        for k in range(2, min(t, s) + 1):
            if dp[j - 1][s - k] != _NEG_INF and (
                dp[j - 1][s - k] + costs[k] == dp[j][s]
            ):
                parts.append(k)
                s -= k
                break
        else:  # pragma: no cover - DP backtrack cannot fail
            raise AssertionError("backtrack failed")
    return MultiTreeOptimum(value=int(value), composition=tuple(reversed(parts)))


def multi_tree_bound_extended(u: float, v: int, t: int, m: int) -> float:
    """P2 bound tolerant of the regimes the feasibility conditions produce.

    The FC formulas can yield ``u/v`` below 2 (light load) or above ``2t/m``
    (heavy load per tree).  We bound each tree's search by
    ``xi_tilde_extended(u/v, t)`` — concavity still makes the even split
    worst within each linear/concave piece, and each piece dominates the
    exact staircase — keeping the bound sound across all loads.
    """
    n = integer_log(t, m)
    if v < 1:
        raise ValueError(f"v must be >= 1, got {v}")
    if not 0 <= u <= t * v:
        raise ValueError(f"u={u} out of range [0, {t * v}]")
    return v * _xi_tilde_extended(u / v, t, m, n)


__all__.append("multi_tree_bound_extended")
