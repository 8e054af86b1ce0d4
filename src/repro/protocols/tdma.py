"""Baseline: TDMA — fixed round-robin ownership of the channel.

The contention-free strawman: station ``i`` may transmit only in rounds
where ``round_index % z == position(i)``.  Collision-free by construction
and trivially analysable, but wastes the channel whenever the owner is idle
and gives every station worst-case access latency proportional to ``z``
regardless of urgency — the classic argument for contention protocols on
bursty real-time traffic (section 3.1).

The slot owner advances once per channel round (success or idle alike), so
the schedule is driven purely by public feedback and stays consistent.
"""

from __future__ import annotations

from repro.model.message import MessageInstance
from repro.protocols.base import (
    UNBOUNDED,
    ChannelState,
    MACProtocol,
    SlotObservation,
)

__all__ = ["TDMAProtocol"]


class TDMAProtocol(MACProtocol):
    """Round-robin TDMA over a known station roster."""

    def __init__(self, roster: tuple[int, ...]) -> None:
        super().__init__()
        if not roster:
            raise ValueError("TDMA roster must not be empty")
        if len(set(roster)) != len(roster):
            raise ValueError("TDMA roster has duplicate station ids")
        self.roster = roster
        self._turn = 0
        self.noisy_slots = 0

    def on_attach(self) -> None:
        if self.station.station_id not in self.roster:
            raise ValueError(
                f"station {self.station.station_id} not in TDMA roster"
            )

    @property
    def current_owner(self) -> int:
        return self.roster[self._turn]

    def offer(self, now: int) -> MessageInstance | None:
        if self.current_owner != self.station.station_id:
            return None
        return self.station.queue.peek()

    def observe(self, observation: SlotObservation) -> None:
        station = self.station
        if observation.state is ChannelState.SUCCESS:
            frame = observation.frame
            assert frame is not None
            if frame.station_id == station.station_id:
                station.complete(frame.message, observation.end, observation.start)
        elif observation.state is ChannelState.COLLISION:
            # A true TDMA schedule cannot collide; a collision therefore
            # means channel noise destroyed the owner's slot.  The owner
            # retries on its next turn (the message stays queued).
            self.noisy_slots += 1
        self._turn = (self._turn + 1) % len(self.roster)

    def idle_steady(self) -> int:
        """Without limit with an empty queue: a silent slot only passes
        the turn on.  A queued message steps every slot."""
        return 0 if self.station.queue else UNBOUNDED

    def leap_idle(self, n: int, end: int) -> None:
        """``n`` silent slots pass the turn on ``n`` times."""
        self._turn = (self._turn + n) % len(self.roster)

    def public_state(self) -> tuple[object, ...]:
        return (self._turn,)
