"""Balanced m-ary tree geometry.

The protocol and analysis of Hermant & Le Lann (ICDCS 1998) are phrased over
*balanced m-ary trees* with ``t = m**n`` leaves, numbered ``0 .. t-1`` from
left to right.  A node of the tree is identified with the contiguous interval
of leaves it covers; the splitting search (``m-ts``) visits nodes in
depth-first, left-to-right order.

This module provides exact integer arithmetic for those trees: leaf-interval
nodes, children, DFS traversal and validity checks.  It is the shared
geometric vocabulary of :mod:`repro.core.search_cost` (the analysis) and
:mod:`repro.protocols.treesearch` (the distributed protocol automaton).
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Iterator

__all__ = [
    "TreeShapeError",
    "LeafInterval",
    "BalancedTree",
    "is_power_of",
    "integer_log",
    "ceil_log",
    "floor_log",
    "geometric_sum",
]


class TreeShapeError(ValueError):
    """Raised when tree parameters are not a valid balanced m-ary shape."""


def is_power_of(value: int, base: int) -> bool:
    """Return True iff ``value == base**e`` for some integer ``e >= 0``.

    >>> is_power_of(64, 4)
    True
    >>> is_power_of(48, 4)
    False
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    if value < 1:
        return False
    while value % base == 0:
        value //= base
    return value == 1


def integer_log(value: int, base: int) -> int:
    """Return ``e`` such that ``base**e == value``, exactly.

    Raises :class:`TreeShapeError` if ``value`` is not a power of ``base``.
    """
    if not is_power_of(value, base):
        raise TreeShapeError(f"{value} is not a power of {base}")
    e = 0
    while value > 1:
        value //= base
        e += 1
    return e


def floor_log(value: int, base: int) -> int:
    """Exact ``floor(log_base(value))`` for positive integers.

    Uses pure integer arithmetic — no floating point, so no boundary errors
    at exact powers (``math.log(243, 3)`` is famously 4.999...).
    """
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    e = 0
    power = 1
    while power * base <= value:
        power *= base
        e += 1
    return e


def ceil_log(value: int, base: int) -> int:
    """Exact ``ceil(log_base(value))`` for positive integers."""
    if value < 1:
        raise ValueError(f"value must be >= 1, got {value}")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    e = 0
    power = 1
    while power < value:
        power *= base
        e += 1
    return e


def geometric_sum(base: int, exponent: int) -> int:
    """Return ``(base**exponent - 1) // (base - 1)`` = 1 + base + ... + base**(e-1).

    This quantity appears throughout the paper's closed forms (Eq. 7, 9, 10).
    """
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    return (base**exponent - 1) // (base - 1)


@dataclasses.dataclass(frozen=True, slots=True)
class LeafInterval:
    """A node of a balanced m-ary tree, as its half-open leaf interval.

    ``LeafInterval(lo, hi)`` covers leaves ``lo, lo+1, ..., hi-1``.
    """

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi <= self.lo:
            raise ValueError(f"invalid leaf interval [{self.lo}, {self.hi})")

    @property
    def width(self) -> int:
        """Number of leaves covered by this node."""
        return self.hi - self.lo

    def __contains__(self, leaf: int) -> bool:
        return self.lo <= leaf < self.hi

    def is_leaf(self) -> bool:
        """True iff this node covers a single leaf."""
        return self.width == 1

    def children(self, m: int) -> tuple["LeafInterval", ...]:
        """Split into ``m`` equal subtrees, left to right.

        Raises :class:`TreeShapeError` if the width is not divisible by ``m``
        (which for a balanced tree means this node is already a leaf).
        Interned: every call for one ``(lo, hi, m)`` returns the same
        tuple of the same nodes, so the searches of every replica hold
        one set of node objects (see :func:`_interned_children`).
        """
        return _interned_children(self.lo, self.hi, m)

    def overlaps(self, other: "LeafInterval") -> bool:
        return self.lo < other.hi and other.lo < self.hi


@dataclasses.dataclass(frozen=True, slots=True)
class BalancedTree:
    """A balanced m-ary tree with ``leaves = m**height`` leaves.

    >>> tree = BalancedTree.of(m=4, leaves=64)
    >>> tree.height
    3
    >>> tree.root.width
    64
    """

    m: int
    height: int

    def __post_init__(self) -> None:
        if self.m < 2:
            raise TreeShapeError(f"branching degree m must be >= 2, got {self.m}")
        if self.height < 0:
            raise TreeShapeError(f"height must be >= 0, got {self.height}")

    @classmethod
    def of(cls, m: int, leaves: int) -> "BalancedTree":
        """Build the tree with the given branching degree and leaf count.

        Interned: repeated calls with the same shape return one shared
        immutable instance.  The protocol layer restarts a tree search
        roughly once per slot per station, so constructing (and
        shape-validating) the tree each time would dominate simulation
        hot loops.
        """
        return _interned_tree(m, leaves)

    @property
    def leaves(self) -> int:
        """Total leaf count ``m**height``."""
        return self.m**self.height

    @property
    def root(self) -> LeafInterval:
        return _interned_root(self)

    @property
    def node_count(self) -> int:
        """Total number of nodes: 1 + m + m^2 + ... + m^height."""
        return geometric_sum(self.m, self.height + 1)

    def depth_of(self, node: LeafInterval) -> int:
        """Depth of ``node`` in this tree (root has depth 0)."""
        self._check_node(node)
        return self.height - integer_log(node.width, self.m)

    def _check_node(self, node: LeafInterval) -> None:
        if not is_power_of(node.width, self.m) and node.width != 1:
            raise TreeShapeError(f"{node} is not a node of an m={self.m} tree")
        if node.width > self.leaves or node.hi > self.leaves:
            raise TreeShapeError(f"{node} does not fit in a {self.leaves}-leaf tree")
        if node.lo % node.width != 0:
            raise TreeShapeError(f"{node} is not aligned on its own width")

    def dfs_preorder(self) -> Iterator[LeafInterval]:
        """All nodes in depth-first, left-to-right (preorder) order.

        This is the order in which the splitting search of section 3.2
        *would* visit nodes if every node caused a collision.
        """
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf():
                stack.extend(reversed(node.children(self.m)))

    def leaf_interval(self, leaf: int) -> LeafInterval:
        """The single-leaf node for ``leaf``."""
        if not 0 <= leaf < self.leaves:
            raise ValueError(f"leaf {leaf} out of range [0, {self.leaves})")
        return LeafInterval(leaf, leaf + 1)


@functools.lru_cache(maxsize=None)
def _interned_tree(m: int, leaves: int) -> BalancedTree:
    """The shared instance behind :meth:`BalancedTree.of` (trees are tiny
    immutable value objects; only a handful of shapes exist per process)."""
    return BalancedTree(m=m, height=integer_log(leaves, m))


@functools.lru_cache(maxsize=None)
def _interned_root(tree: BalancedTree) -> LeafInterval:
    """Cached root interval: ``tree.root`` is read once per search start."""
    return LeafInterval(0, tree.leaves)


@functools.lru_cache(maxsize=None)
def _interned_children(lo: int, hi: int, m: int) -> tuple[LeafInterval, ...]:
    """The shared children behind :meth:`LeafInterval.children`.

    A search splits the same few nodes of a fixed tree on every
    collision, so building them once per ``(lo, hi, m)`` saves the
    allocations and lets lockstep comparisons of agendas short-circuit
    on identity.  A failed split raises each time (nothing is cached).
    """
    width = hi - lo
    if width % m != 0 or width < m:
        raise TreeShapeError(
            f"interval of width {width} cannot be split {m}-ways"
        )
    step = width // m
    return tuple(
        LeafInterval(lo + i * step, lo + (i + 1) * step) for i in range(m)
    )
