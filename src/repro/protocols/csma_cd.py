"""Baseline: CSMA-CD with truncated binary exponential backoff (IEEE 802.3).

The probabilistic protocol the paper positions CSMA/DDCR against.  In the
slotted model: a station with a pending message transmits as soon as its
backoff counter is zero; after its n-th consecutive collision on the same
message it draws a uniform backoff in ``[0, 2**min(n, 10) - 1]`` slots; after
16 attempts the frame is discarded (counted as a loss by the metrics layer).
The backoff counter decrements once per observed channel round in which the
station does not transmit, which is the standard slotted idealisation.

No real-time guarantee exists: under the HRTDM adversary the tail of the
access latency is unbounded — exactly the behaviour the PROTO bench exhibits
against DDCR.
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

__all__ = ["CSMACDProtocol", "MAX_ATTEMPTS", "MAX_BACKOFF_EXPONENT"]

MAX_ATTEMPTS = 16
MAX_BACKOFF_EXPONENT = 10


class CSMACDProtocol(MACProtocol):
    """802.3-style CSMA-CD with truncated BEB (seeded, deterministic)."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._rng = random.Random(seed)
        self._backoff = 0
        self._attempts = 0
        self._offered: MessageInstance | None = None

    def offer(self, now: int) -> MessageInstance | None:
        if self._backoff > 0:
            return None
        message = self.station.queue.peek()
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
                station.complete(frame.message, observation.end, observation.start)
                self._attempts = 0
                self._backoff = 0
            elif self._backoff > 0:
                self._backoff -= 1
            return
        if observation.state is ChannelState.COLLISION and offered is not None:
            self._attempts += 1
            if self._attempts >= MAX_ATTEMPTS:
                station.drop(offered, observation.end)
                self._attempts = 0
                self._backoff = 0
                return
            exponent = min(self._attempts, MAX_BACKOFF_EXPONENT)
            self._backoff = self._rng.randint(0, 2**exponent - 1)
            return
        if self._backoff > 0:
            self._backoff -= 1

    def idle_steady(self) -> int:
        """Without limit with an empty queue; with a queued message, its
        pending backoff: the station stays silent until the counter,
        which each silent slot counts down, reaches zero."""
        if not self.station.queue:
            return UNBOUNDED
        return self._backoff

    def leap_idle(self, n: int, end: int) -> None:
        """Count the pending backoff down by ``n`` silent slots."""
        self._backoff = max(self._backoff - n, 0)

    def public_state(self) -> tuple[object, ...]:
        # Backoff state is private by design (random per station).
        return ()
