"""Baseline: slotted ALOHA (Roberts 1972), the oldest contention MAC.

The historical reference point every collision-resolution analysis cites:
a station transmits a fresh frame in the very next slot after it reaches
the queue head; after a collision it becomes *backlogged* and retransmits
in each subsequent slot with fixed probability ``p`` until it gets
through.  Peak throughput is the textbook ``1/e`` and the access-latency
tail is geometric — there is no deadline guarantee of any kind, which is
exactly why the paper replaces probabilistic retry with deterministic
collision resolution.

The retry stream is seeded per station, so runs are deterministic and
(like CSMA-CD/BEB) the protocol state is *private*: ``public_state``
returns ``()`` and the lockstep consistency check does not apply.
"""

from __future__ import annotations

import random

from repro.model.message import MessageInstance
from repro.protocols.base import (
    UNBOUNDED,
    ChannelState,
    MACProtocol,
    SlotObservation,
)

__all__ = ["SlottedAlohaProtocol", "DEFAULT_TRANSMIT_PROBABILITY"]

DEFAULT_TRANSMIT_PROBABILITY = 0.25


class SlottedAlohaProtocol(MACProtocol):
    """Slotted ALOHA with a fixed, seeded retransmission probability."""

    def __init__(
        self,
        transmit_probability: float = DEFAULT_TRANSMIT_PROBABILITY,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if not 0.0 < transmit_probability <= 1.0:
            raise ValueError(
                "transmit_probability must be in (0, 1], got "
                f"{transmit_probability}"
            )
        self.transmit_probability = transmit_probability
        self._rng = random.Random(seed)
        self._backlogged = False
        self._offered: MessageInstance | None = None

    def offer(self, now: int) -> MessageInstance | None:
        message = self.station.queue.peek()
        if message is None:
            self._offered = None
            return None
        # Fresh head-of-queue frames go out immediately; a backlogged one
        # retries with probability p.  The draw happens at most once per
        # round (offer is called exactly once per round under every
        # engine), so the retry stream is a pure function of the run.
        if self._backlogged and self._rng.random() >= self.transmit_probability:
            self._offered = None
            return None
        self._offered = message
        return message

    def suppress_offer(self) -> None:
        self._offered = None

    def observe(self, observation: SlotObservation) -> None:
        station = self.station
        offered = self._offered
        self._offered = None
        if observation.state is ChannelState.SUCCESS:
            frame = observation.frame
            assert frame is not None
            if frame.station_id == station.station_id:
                station.complete(
                    frame.message, observation.end, observation.start
                )
                self._backlogged = False
            return
        if observation.state is ChannelState.COLLISION and offered is not None:
            self._backlogged = True

    def idle_steady(self) -> int:
        """Without limit with an empty queue: it makes no retry draw, and
        silence leaves the backlog flag alone.  A queued message offers
        or draws every slot."""
        return 0 if self.station.queue else UNBOUNDED

    def leap_idle(self, n: int, end: int) -> None:
        """Nothing to digest: silent slots change no state."""

    def public_state(self) -> tuple[object, ...]:
        # Retry state is private by design (random per station).
        return ()
