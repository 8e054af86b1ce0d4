"""Problem P1, ground truth: worst-case m-ary tree search cost (Eq. 1).

``xi(k, t)`` is the worst-case *search time* for isolating ``k`` active
leaves in a ``t``-leaf balanced m-ary tree, counted in channel slots that do
NOT carry a successful transmission: each collision slot and each empty slot
costs 1, a successful transmission costs 0 (its physical transmission time is
accounted for separately in the feasibility conditions).

The defining recursion, Eq. 1 of the paper::

    xi(k, t) = 1 + max { xi(k_1, t/m) + ... + xi(k_m, t/m) }     k in [2, t]
               over k_1 + ... + k_m = k, each k_i in [0, t/m]
    xi(1, t) = 0      (lone active source: immediate success)
    xi(0, t) = 1      (empty probe: one wasted slot)

This module computes Eq. 1 *exactly* by dynamic programming (max-plus
convolution over the m children), and — for small trees — by brute-force
enumeration of actual searches over every placement of k active leaves.  The
DP is the ground truth against which the paper's divide-and-conquer recursion
(:mod:`repro.core.divide_conquer`), closed form (:mod:`repro.core.closed_form`)
and asymptotic bound (:mod:`repro.core.asymptotic`) are verified.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from bisect import bisect_left
from collections.abc import Callable, Iterable, Sequence

from repro.core import xi_store
from repro.core.trees import BalancedTree, LeafInterval, integer_log

__all__ = [
    "SearchCostTable",
    "exact_cost_table",
    "nondestructive_cost_table",
    "xi_exact",
    "xi_nondestructive",
    "simulate_search",
    "SearchOutcome",
    "worst_case_placement",
    "enumerate_worst_placements",
    "xi_bruteforce",
    "heavy_search_bound",
]

_NEG_INF = float("-inf")


@dataclasses.dataclass(frozen=True, slots=True)
class SearchCostTable:
    """Exact ``xi(k, t)`` for one tree shape, for every ``k in [0, t]``.

    ``table.costs[k]`` is ``xi(k, t)``; ``table.tree`` records the shape.
    """

    tree: BalancedTree
    costs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.costs) != self.tree.leaves + 1:
            raise ValueError(
                f"cost table has {len(self.costs)} entries for a "
                f"{self.tree.leaves}-leaf tree"
            )

    def __getitem__(self, k: int) -> int:
        return self.costs[k]

    def __len__(self) -> int:
        return len(self.costs)

    def as_series(self) -> list[tuple[int, int]]:
        """``[(k, xi(k, t)), ...]`` — convenient for plotting Fig. 1/2."""
        return list(enumerate(self.costs))


def _max_plus_convolve(
    acc: Sequence[float], child: Sequence[int], child_cap: int
) -> list[float]:
    """Max-plus convolution of ``acc`` with ``child`` (child index <= cap)."""
    out = [_NEG_INF] * (len(acc) + child_cap)
    for a_k, a_v in enumerate(acc):
        if a_v == _NEG_INF:
            continue
        for c_k in range(child_cap + 1):
            v = a_v + child[c_k]
            if v > out[a_k + c_k]:
                out[a_k + c_k] = v
    return out


#: In-memory cache bound for DP tables.  Each entry is O(t) ints (a
#: 1024-leaf table is ~8 KB of payload), so an unbounded cache used to
#: grow without limit in every long-lived sweep worker; 64 shapes cover
#: any realistic working set, and an evicted shape is cheap to restore —
#: large tables reload from the persistent store instead of recomputing.
_LRU_TABLES = 64

#: Persist tables of at least this many leaves: below it the O(m * t^2)
#: DP beats a disk round-trip, above it the store turns a once-per-process
#: recomputation into a once-per-machine one.
_PERSIST_MIN_LEAVES = 256


@functools.lru_cache(maxsize=_LRU_TABLES)
def _cost_tuple(m: int, n: int, empty_cost: int = 1) -> tuple[int, ...]:
    """Exact DP over Eq. 1 for ``t = m**n``, cached per shape.

    ``empty_cost`` is the price of probing an empty subtree: 1 on a
    destructive medium (Eq. 1's xi(0, t) = 1), 0 on a non-destructive
    (XOR/OR) bus where collision slots reveal child occupancy and empty
    subtrees are never probed (section 3.2's ATM-switch remark).

    Cache tiers: this per-process LRU, then — for shapes of at least
    ``_PERSIST_MIN_LEAVES`` leaves — the persistent cross-process store
    (:mod:`repro.core.xi_store`), then the DP itself.
    """
    persist = n > 0 and m**n >= _PERSIST_MIN_LEAVES
    if persist:
        cached = xi_store.load("cost", m, n, empty_cost)
        if cached is not None:
            return cached
    if n == 0:
        return (empty_cost, 0)
    child = _cost_tuple(m, n - 1, empty_cost)
    child_cap = m ** (n - 1)
    acc: list[float] = list(child)
    for _ in range(m - 1):
        acc = _max_plus_convolve(acc, child, child_cap)
    t = m**n
    costs = [0] * (t + 1)
    costs[0] = empty_cost
    costs[1] = 0
    for k in range(2, t + 1):
        costs[k] = 1 + int(acc[k])
    result = tuple(costs)
    if persist:
        xi_store.store("cost", m, n, empty_cost, result)
    return result


def exact_cost_table(m: int, t: int) -> SearchCostTable:
    """Exact ``xi(k, t)`` for all ``k`` via dynamic programming on Eq. 1.

    ``t`` must be ``m**n`` for some ``n >= 0``.  Complexity is
    ``O(m * t^2 / m) = O(t^2)`` per level and the result is cached, so
    repeated queries are free.

    >>> exact_cost_table(4, 64)[2]
    11
    """
    tree = BalancedTree.of(m=m, leaves=t)
    return SearchCostTable(tree=tree, costs=_cost_tuple(m, tree.height))


def nondestructive_cost_table(m: int, t: int) -> SearchCostTable:
    """Worst-case search costs on a *non-destructive* (XOR/OR) bus.

    Section 3.2: a bus internal to an ATM switch has a slot time of a few
    bit times, enabling exclusive-OR logic at bus level; a collision slot
    then reveals which children of the probed node are occupied, so empty
    subtrees are never probed.  The cost of isolating k leaves becomes the
    number of probed nodes holding >= 2 active leaves, and the worst case
    satisfies the Eq. 1 recursion with ``xi(0) = 0`` instead of 1.

    >>> nondestructive_cost_table(4, 64)[2]   # log_m(t) deep common path
    3
    """
    tree = BalancedTree.of(m=m, leaves=t)
    return SearchCostTable(
        tree=tree, costs=_cost_tuple(m, tree.height, empty_cost=0)
    )


def xi_nondestructive(k: int, t: int, m: int) -> int:
    """Exact worst-case non-destructive search cost (see
    :func:`nondestructive_cost_table`)."""
    table = nondestructive_cost_table(m, t)
    if not 0 <= k <= t:
        raise ValueError(f"k={k} out of range [0, {t}]")
    return table[k]


def xi_exact(k: int, t: int, m: int) -> int:
    """Exact worst-case search cost ``xi(k, t)`` for a balanced m-ary tree.

    >>> xi_exact(2, 64, 4)     # Eq. 5: m*log_m(t) - 1
    11
    >>> xi_exact(64, 64, 4)    # Eq. 7: (t-1)/(m-1)
    21
    """
    table = exact_cost_table(m, t)
    if not 0 <= k <= t:
        raise ValueError(f"k={k} out of range [0, {t}]")
    return table[k]


@dataclasses.dataclass(frozen=True, slots=True)
class SearchOutcome:
    """Result of simulating one full m-ary splitting search.

    ``cost`` counts collision + empty slots (successes are free, matching
    the paper's accounting); ``slots`` is the slot-by-slot channel feedback
    in visit order; ``transmission_order`` lists the isolated leaves in the
    order they were transmitted.
    """

    cost: int
    slots: tuple[str, ...]
    transmission_order: tuple[int, ...]

    @property
    def total_slots(self) -> int:
        return len(self.slots)

    @property
    def collisions(self) -> int:
        return sum(1 for s in self.slots if s == "collision")

    @property
    def empties(self) -> int:
        return sum(1 for s in self.slots if s == "silence")


def simulate_search(
    active: Iterable[int],
    t: int,
    m: int,
    heavy: Iterable[int] = (),
    skip_empty: bool = False,
) -> SearchOutcome:
    """Run the m-ary splitting search on a concrete set of active leaves.

    This is the *reference executable semantics* of ``m-ts`` (section 3.2):
    probe the root; on a collision, depth-first search the m subtrees left to
    right; silence skips a whole subtree for one slot; a lone active leaf
    transmits.  The distributed protocol automaton in
    :mod:`repro.protocols.treesearch` must produce exactly this slot sequence
    — the tests enforce it.

    ``heavy`` leaves model the time tree under CSMA/DDCR: a leaf occupied by
    *several* sources of the same deadline class.  Probing it always
    collides, but the collision slot is the root probe of the nested static
    tree search and is accounted there (section 3.2), so it contributes a
    ``"handoff"`` slot of cost 0 here; ancestors of a heavy leaf collide as
    usual.

    ``skip_empty`` selects the *non-destructive* bus semantics: collision
    slots reveal child occupancy, so empty subtrees are pruned from the
    search without being probed (no silence slots at all below a collision;
    an entirely empty tree still costs one probe of the root).

    Nodes are half-open leaf intervals, so occupancy queries are interval
    counts over the sorted leaf arrays (two ``bisect`` probes each) rather
    than O(k) membership scans — the search over a k-of-t placement costs
    O(nodes visited * log k) total, which matters to the adversarial
    analyses that replay thousands of placements.
    """
    tree = BalancedTree.of(m=m, leaves=t)
    active_set = frozenset(active)
    heavy_set = frozenset(heavy)
    for leaf in active_set | heavy_set:
        if not 0 <= leaf < t:
            raise ValueError(f"leaf {leaf} out of range [0, {t})")
    if active_set & heavy_set:
        raise ValueError("a leaf cannot be both singly and multiply occupied")
    active_sorted = sorted(active_set)
    heavy_sorted = sorted(heavy_set)
    slots: list[str] = []
    order: list[int] = []
    cost = 0
    stack: list[LeafInterval] = [tree.root]
    while stack:
        node = stack.pop()
        lo, hi = node.lo, node.hi
        first_active = bisect_left(active_sorted, lo)
        singles = bisect_left(active_sorted, hi, first_active) - first_active
        first_heavy = bisect_left(heavy_sorted, lo)
        heavies = bisect_left(heavy_sorted, hi, first_heavy) - first_heavy
        effective = singles + 2 * heavies  # a heavy leaf is >= 2 sources
        if effective == 0:
            slots.append("silence")
            cost += 1
        elif effective == 1:
            # Exactly one single (heavy leaves contribute 2 each).
            slots.append("success")
            order.append(active_sorted[first_active])
        elif node.is_leaf():
            # Heavy leaf: the collision doubles as the nested search's root
            # probe; its cost belongs to that nested search.
            slots.append("handoff")
            order.append(node.lo)
        else:
            slots.append("collision")
            cost += 1
            children = node.children(m)
            if skip_empty:
                children = tuple(
                    child
                    for child in children
                    if bisect_left(active_sorted, child.hi)
                    > bisect_left(active_sorted, child.lo)
                    or bisect_left(heavy_sorted, child.hi)
                    > bisect_left(heavy_sorted, child.lo)
                )
            stack.extend(reversed(children))
    return SearchOutcome(
        cost=cost, slots=tuple(slots), transmission_order=tuple(order)
    )


def heavy_search_bound(singles: int, heavies: int, t: int, m: int) -> int:
    """Upper bound on a TTs run's slot cost with mixed leaf occupancy.

    ``singles`` singly-occupied leaves and ``heavies`` multiply-occupied
    (nested-STs) leaves.  Each heavy leaf probes like two co-located leaves
    at maximal depth, plus one extra leaf-level slot relative to a deep
    adjacent pair, hence ``xi(singles + 2*heavies) + heavies``.  Verified
    exhaustively over small trees by the test suite.
    """
    if singles < 0 or heavies < 0:
        raise ValueError("leaf counts must be >= 0")
    k_eff = singles + 2 * heavies
    if k_eff == 0:
        return 1
    k = min(max(k_eff, 2), t)
    return xi_exact(k, t, m) + heavies


def _worst_placement(
    m: int, n: int, k: int, offset: int, empty_cost: int = 1
) -> tuple[int, ...]:
    """One placement of ``k`` active leaves achieving xi(k, m**n).

    Reconstructed by following the DP's argmax split at every level.
    """
    t = m**n
    if k == 0:
        return ()
    if k == 1:
        return (offset,)
    child = _cost_tuple(m, n - 1, empty_cost)
    child_cap = m ** (n - 1)
    best_val = _NEG_INF
    best_split: tuple[int, ...] = ()
    # Enumerate splits greedily via DP: prefix tables.
    # prefix[j][k'] = best sum of first j children totalling k'
    prefix: list[list[float]] = [[0.0] + [_NEG_INF] * k]
    for _ in range(m):
        prev = prefix[-1]
        nxt = [_NEG_INF] * (k + 1)
        for kk in range(k + 1):
            if prev[kk] == _NEG_INF:
                continue
            for c in range(min(child_cap, k - kk) + 1):
                v = prev[kk] + child[c]
                if v > nxt[kk + c]:
                    nxt[kk + c] = v
        prefix.append(nxt)
    # Backtrack the split.
    split = [0] * m
    remaining = k
    for j in range(m, 0, -1):
        target = prefix[j][remaining]
        for c in range(min(child_cap, remaining) + 1):
            if prefix[j - 1][remaining - c] != _NEG_INF and (
                prefix[j - 1][remaining - c] + child[c] == target
            ):
                split[j - 1] = c
                remaining -= c
                break
        else:  # pragma: no cover - DP backtrack cannot fail
            raise AssertionError("DP backtrack failed")
    best_split = tuple(split)
    best_val = prefix[m][k]
    del best_val  # value re-derivable; placement is what we need
    leaves: list[int] = []
    for j, kj in enumerate(best_split):
        leaves.extend(
            _worst_placement(m, n - 1, kj, offset + j * child_cap, empty_cost)
        )
    return tuple(leaves)


def worst_case_placement(
    k: int, t: int, m: int, skip_empty: bool = False
) -> tuple[int, ...]:
    """A placement of ``k`` active leaves whose search cost equals xi(k, t).

    Used by :mod:`repro.analysis.adversary` to drive the protocol simulator
    into its analytic worst case.  With ``skip_empty`` the placement
    attains the *non-destructive* worst case instead
    (:func:`xi_nondestructive`).

    >>> placement = worst_case_placement(2, 64, 4)
    >>> simulate_search(placement, 64, 4).cost == xi_exact(2, 64, 4)
    True
    """
    if not 0 <= k <= t:
        raise ValueError(f"k={k} out of range [0, {t}]")
    n = integer_log(t, m)
    placement = _worst_placement(m, n, k, 0, empty_cost=0 if skip_empty else 1)
    return tuple(sorted(placement))


def enumerate_worst_placements(k: int, t: int, m: int) -> list[tuple[int, ...]]:
    """ALL placements achieving xi(k, t), by exhaustive search (small t only).

    Exponential in ``t`` — guarded to ``t <= 64`` so a typo cannot burn CPU.
    """
    if t > 64:
        raise ValueError(f"exhaustive enumeration limited to t <= 64, got {t}")
    best = xi_exact(k, t, m)
    return [
        placement
        for placement in itertools.combinations(range(t), k)
        if simulate_search(placement, t, m).cost == best
    ]


@functools.lru_cache(maxsize=8)
def _occupancy_costs(m: int, leaves: int) -> tuple[int, ...]:
    """Search cost of every occupancy pattern of a ``leaves``-leaf subtree.

    Entry ``mask`` (bit i set = leaf i active) is what
    :func:`simulate_search` charges that subtree, filled bottom-up from
    the search rule: an empty subtree costs 1, one active leaf costs 0,
    otherwise the collision costs 1 plus the children's costs.  Child j
    holds bits ``[j*w, (j+1)*w)``, so the children's sums come out of a
    product over the child table in mask order.
    """
    if leaves == 1:
        return (1, 0)
    child = _occupancy_costs(m, leaves // m)
    sums: list[int] = list(child)
    for _ in range(m - 1):
        sums = [high + low for high in child for low in sums]
    costs = [1 + total for total in sums]
    costs[0] = 1
    for leaf in range(leaves):
        costs[1 << leaf] = 0
    return tuple(costs)


def _placement_scorer(t: int, m: int) -> Callable[[int], int]:
    """The search cost of a t-leaf placement given as a leaf bitmask.

    Scores with one table lookup per root child (see
    :func:`_occupancy_costs`), so its tables hold ``2**(t/m)`` entries,
    not ``2**t``.  Equals ``simulate_search(placement, t, m).cost``.
    """
    width = t // m
    # (A one-leaf tree has no children: only its empty and lone
    # placements exist, and the first test below scores both.)
    child = _occupancy_costs(m, width) if width else ()
    low = (1 << width) - 1
    shifts = range(0, t, width) if width else ()

    def score(mask: int) -> int:
        if not mask & (mask - 1):
            return 0 if mask else 1
        return 1 + sum(child[(mask >> shift) & low] for shift in shifts)

    return score


def xi_bruteforce(k: int, t: int, m: int) -> int:
    """``xi(k, t)`` by exhaustively scoring every k-subset of leaves.

    Independent of the Eq. 1 DP it cross-checks: every placement is
    scored by the search rule itself, through integer bitmask lookups
    rather than a node-by-node :func:`simulate_search` replay.
    Exponential; for cross-checking the DP on small trees only (t <= 32).
    """
    if t > 32:
        raise ValueError(f"brute force limited to t <= 32, got {t}")
    if not 0 <= k <= t:
        raise ValueError(f"k={k} out of range [0, {t}]")
    if k == 0:
        return 1
    BalancedTree.of(m=m, leaves=t)  # rejects a non-m-ary shape
    bits = [1 << leaf for leaf in range(t)]
    return max(
        map(_placement_scorer(t, m), map(sum, itertools.combinations(bits, k)))
    )
