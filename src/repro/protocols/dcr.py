"""Baseline: CSMA/DCR — deterministic collision resolution on a static tree.

The 802.3D protocol ([25] in the paper; Le Lann & Rolin, 1984) that the
authors transferred to industry in the 80s: CSMA-CD while the channel is
collision-free; on a collision, every station runs a balanced m-ary
splitting search over a static tree of source indices.  Deterministic and
bounded, but *deadline-blind*: the tree order, not EDF, decides who
transmits first, so urgent messages can be starved behind low-index
traffic — the gap CSMA/DDCR's time tree closes (section 3.2).

Mode machine (common knowledge, driven by public feedback only):

* FREE: CSMA-CD — any backlogged station offers its EDF-first message;
  a collision starts a search (the collision is the root probe);
* SEARCH: the station offers only when the probed interval contains its
  active static index and it has a backlogged message.  A station that
  transmits successfully during the search advances to its next static
  index (ranked order) and may transmit again later in the same search.
"""

from __future__ import annotations

import enum

from repro.core.trees import BalancedTree
from repro.model.message import MessageInstance
from repro.protocols.base import (
    UNBOUNDED,
    ChannelState,
    MACProtocol,
    SlotObservation,
)
from repro.protocols.treesearch import SplittingSearch

__all__ = ["DCRProtocol", "DCRMode"]


class DCRMode(enum.Enum):
    FREE = "free"
    SEARCH = "search"


class DCRProtocol(MACProtocol):
    """CSMA/DCR (802.3D): static-tree deterministic collision resolution."""

    def __init__(self, tree: BalancedTree) -> None:
        super().__init__()
        self.tree = tree
        self.mode = DCRMode.FREE
        self.search: SplittingSearch | None = None
        self._index_cursor = 0
        self.searches_completed = 0
        self.search_slot_costs: list[int] = []

    def on_attach(self) -> None:
        for index in self.station.static_indices:
            if index >= self.tree.leaves:
                raise ValueError(
                    f"static index {index} exceeds tree leaves "
                    f"{self.tree.leaves}"
                )

    # -- helpers -----------------------------------------------------------

    def _active_index(self) -> int | None:
        """The static index this station currently competes with."""
        indices = self.station.static_indices
        if self._index_cursor >= len(indices):
            return None
        return indices[self._index_cursor]

    # -- MAC interface -----------------------------------------------------

    def offer(self, now: int) -> MessageInstance | None:
        message = self.station.queue.peek()
        if message is None:
            return None
        if self.mode is DCRMode.FREE:
            return message
        assert self.search is not None
        index = self._active_index()
        if index is None or not self.search.covers(index):
            return None
        return message

    def observe(self, observation: SlotObservation) -> None:
        station = self.station
        if observation.state is ChannelState.SUCCESS:
            frame = observation.frame
            assert frame is not None
            if frame.station_id == station.station_id:
                station.complete(frame.message, observation.end, observation.start)
        if self.mode is DCRMode.FREE:
            if observation.state is ChannelState.COLLISION:
                self.search = SplittingSearch.after_root_collision(self.tree)
                self.mode = DCRMode.SEARCH
                self._index_cursor = 0
            return
        # SEARCH mode.
        assert self.search is not None
        was_mine = (
            observation.state is ChannelState.SUCCESS
            and observation.frame is not None
            and observation.frame.station_id == station.station_id
        )
        if (
            observation.state is ChannelState.COLLISION
            and self.search.current.is_leaf()
        ):
            # Unique index ownership: a leaf collision is channel noise.
            self.search.retry_current()
            return
        self.search.feed(observation.state)
        if was_mine:
            # Ranked order: next transmission uses the next static index.
            self._index_cursor += 1
        if self.search.done:
            self.searches_completed += 1
            # Root collision slot + in-search wasted slots.
            self.search_slot_costs.append(1 + self.search.wasted_slots)
            self.search = None
            self.mode = DCRMode.FREE
            self._index_cursor = 0

    # -- idle stretches -----------------------------------------------------

    def idle_steady(self) -> int:
        """Without limit in FREE with an empty queue, where a silent slot
        changes nothing; a queued message offers at once."""
        if self.mode is DCRMode.FREE and not self.station.queue:
            return UNBOUNDED
        return 0

    def leap_idle(self, n: int, end: int) -> None:
        """Nothing to digest: FREE mode ignores silence."""

    def public_state(self) -> tuple[object, ...]:
        key: tuple[object, ...] = (self.mode.value,)
        if self.search is not None:
            key += self.search.state_key()
        return key
