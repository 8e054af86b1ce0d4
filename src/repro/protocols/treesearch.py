"""The distributed m-ary splitting search automaton (``m-ts``, section 3.2).

Every station tracks the *same* depth-first search agenda over a balanced
m-ary tree, updating it from the public ternary channel feedback only —
this is what makes the search distributed yet consistent.  The automaton is
deliberately protocol-agnostic: CSMA/DCR runs it over the static tree,
CSMA/DDCR over the time tree with a nested static-tree instance.

Discipline (matching :func:`repro.core.search_cost.simulate_search` exactly,
which the integration tests assert):

* the agenda is a stack of leaf intervals; the top is probed next;
* the triggering collision counts as the root probe, so a fresh search
  starts with the root's m children on the stack (leftmost on top);
* COLLISION on the probed interval: replace it by its m children;
* SILENCE or SUCCESS: the interval is done;
* the *frontier* is the lowest leaf not yet covered by a completed probe —
  because the DFS is left-to-right, the agenda always covers exactly
  ``[frontier, leaves)``; late joiners may only target indices >= frontier
  (the ``f* + 1`` clamp of section 3.2).
"""

from __future__ import annotations

import dataclasses

from repro.core.trees import BalancedTree, LeafInterval
from repro.protocols.base import ChannelState

__all__ = ["SplittingSearch"]


@dataclasses.dataclass(slots=True)
class SplittingSearch:
    """One in-progress m-ary splitting search (per-station replica).

    The replica's entire state is a pure function of the feedback sequence,
    so identically-configured stations stay in lockstep; ``state_key()``
    feeds the network runner's consistency assertions.

    ``slots=True``: under CSMA/DDCR every station starts a fresh search
    roughly once per slot, so replica construction sits on the simulator's
    hot path.
    """

    tree: BalancedTree
    agenda: list[LeafInterval] = dataclasses.field(default_factory=list)
    frontier: int = 0
    probes: int = 0
    wasted_slots: int = 0
    successes: int = 0
    # The root interval, snapshotted once: ``tree.root`` goes through an
    # interning cache whose lookup is too slow for the per-slot restart.
    _root: LeafInterval = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self._root = self.tree.root

    @classmethod
    def after_root_collision(
        cls,
        tree: BalancedTree,
        occupied_children: frozenset[int] | None = None,
    ) -> "SplittingSearch":
        """Start a search whose root probe was the triggering collision.

        On a non-destructive bus the triggering collision already revealed
        which root children are occupied; pass them to prune the rest.
        """
        search = cls(tree=tree)
        children = tree.root.children(tree.m)
        if occupied_children is not None:
            children = tuple(
                child
                for ordinal, child in enumerate(children)
                if ordinal in occupied_children
            )
        search.agenda = list(reversed(children))
        return search

    @classmethod
    def fresh(cls, tree: BalancedTree) -> "SplittingSearch":
        """Start a search that must still probe the root itself."""
        search = cls(tree=tree)
        search.agenda = [tree.root]
        return search

    def restart_fresh(self) -> None:
        """Reset in place to the state :meth:`fresh` constructs.

        The idle protocol finishes and restarts one search per slot per
        station; reusing the finished replica keeps that steady state
        allocation-free.
        """
        self.agenda.clear()
        self.agenda.append(self._root)
        self.frontier = 0
        self.probes = 0
        self.wasted_slots = 0
        self.successes = 0

    @property
    def done(self) -> bool:
        return not self.agenda

    @property
    def current(self) -> LeafInterval:
        """The interval being probed in the current slot."""
        if not self.agenda:
            raise RuntimeError("search already complete")
        return self.agenda[-1]

    def covers(self, index: int) -> bool:
        """Is ``index`` probed in the current slot?"""
        return not self.done and index in self.current

    def feed(
        self,
        state: ChannelState,
        occupied_children: frozenset[int] | None = None,
    ) -> LeafInterval:
        """Digest the channel state of the probe slot; returns the probed node.

        Cost accounting matches the paper: SILENCE and COLLISION slots are
        wasted (count toward xi), SUCCESS slots are not.  On a collision,
        ``occupied_children`` (from a non-destructive bus) prunes the
        children that are known empty — they are never probed.
        """
        node = self.agenda.pop()
        self.probes += 1
        if state is ChannelState.COLLISION:
            self.wasted_slots += 1
            if node.is_leaf():
                raise RuntimeError(
                    f"collision on leaf {node} must be resolved by the "
                    "caller (nested search), not fed back here"
                )
            children = node.children(self.tree.m)
            if occupied_children is not None:
                children = tuple(
                    child
                    for ordinal, child in enumerate(children)
                    if ordinal in occupied_children
                )
            self.agenda.extend(reversed(children))
        elif state is ChannelState.SILENCE:
            self.wasted_slots += 1
            self.frontier = node.hi
        else:  # SUCCESS
            self.successes += 1
            self.frontier = node.hi
        return node

    def retry_current(self, n: int = 1) -> LeafInterval:
        """Count ``n`` noise-corrupted probes and leave the node on the
        agenda.

        Used when a collision is observed on a probe that *cannot* really
        collide (a static-tree leaf: its index has a unique owner).  All
        replicas can commonly attribute it to channel noise and re-probe
        the same node next slot.  Nothing else changes, so ``n`` such
        collisions in a row (a jammed bus) are this one call.
        """
        self.probes += n
        self.wasted_slots += n
        return self.current

    def begin_leaf_resolution(self) -> LeafInterval:
        """Digest a collision on the current *leaf*: pop it for nesting.

        The collision slot is NOT added to this search's ``wasted_slots``:
        per section 3.2 it doubles as the nested static tree's root probe,
        so the nested search's record owns it (keeping each slot accounted
        exactly once, and each record directly comparable to its xi term in
        the feasibility conditions).

        The frontier is deliberately left at the leaf — the leaf only counts
        as searched once the nested search resolves it, so late joiners
        clamped to the frontier still map onto this leaf's class.  Callers
        must invoke :meth:`complete_leaf` when the nested search is over.
        """
        node = self.agenda.pop()
        if not node.is_leaf():
            raise RuntimeError(f"{node} is not a leaf")
        self.probes += 1
        return node

    def complete_leaf(self, leaf: LeafInterval) -> None:
        """Mark a leaf searched after its nested resolution completed."""
        if leaf.hi < self.frontier:
            raise RuntimeError(f"{leaf} is already behind the frontier")
        self.frontier = leaf.hi

    def state_key(self) -> tuple[object, ...]:
        """Hashable snapshot for lockstep-consistency assertions.

        The agenda's nodes are keyed as they are: tree nodes are interned
        (:meth:`LeafInterval.children`), so replicas in lockstep hold the
        same objects and the comparison short-circuits on identity, and
        two nodes compare equal exactly when their ``(lo, hi)`` do.
        """
        return (
            tuple(self.agenda),
            self.frontier,
            self.probes,
            self.wasted_slots,
            self.successes,
        )
