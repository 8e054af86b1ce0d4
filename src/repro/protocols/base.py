"""MAC protocol interface and the slotted channel contract.

The broadcast channel (:mod:`repro.net.channel`) advances in rounds.  In
each round it

1. asks every attached MAC whether it transmits in this slot
   (:meth:`MACProtocol.offer`), then
2. announces the resulting channel state to every MAC
   (:meth:`MACProtocol.observe`) — ``SILENCE``, ``SUCCESS`` (with the frame,
   which every station can decode) or ``COLLISION`` (destructive: nothing is
   learned beyond the fact of the collision).

This ternary feedback is exactly the information model of CSMA-CD and of
the tree protocols of section 3.2; every protocol in
:mod:`repro.protocols` is a deterministic (or seeded) automaton over it.

The offer/observe contract is *engine-independent*: whether the channel's
round loop is the clock's per-slot reference (``des``) or the
slot-synchronous loop of the default ``batch`` engine (see
:mod:`repro.net.engine`), a MAC sees the identical call sequence — one
``offer`` then one ``observe`` per slot, at the same simulated times with
the same observations.  Protocols therefore never touch the clock.

The ``batch`` loop skips that call sequence only where a replica says
the skipped slots are a closed form: an idle stretch
(:meth:`MACProtocol.idle_steady`, :meth:`MACProtocol.leap_idle`), which
a queued message may sit out, or a jammed one
(:meth:`MACProtocol.jam_steady`, :meth:`MACProtocol.leap_jammed`), each
leaving the replica exactly as the per-slot calls would.
"""

from __future__ import annotations

import abc
import dataclasses
import enum
import sys
import typing

from repro.model.message import MessageInstance

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.frames import Frame
    from repro.net.station import Station

__all__ = ["ChannelState", "UNBOUNDED", "SlotObservation", "MACProtocol"]

#: :meth:`MACProtocol.idle_steady` or :meth:`MACProtocol.jam_steady` of a
#: replica that may cross any number of silent or jammed slots in one step.
UNBOUNDED = sys.maxsize


class ChannelState(enum.Enum):
    """The three observable channel states of section 3.2 (``chstate``)."""

    SILENCE = "silence"
    SUCCESS = "success"
    COLLISION = "collision"


@dataclasses.dataclass(frozen=True, slots=True)
class SlotObservation:
    """What every station learns at the end of one channel round.

    ``start``/``duration`` are in bit-times; ``frame`` is set only on
    SUCCESS (broadcast medium: everyone receives it).

    ``occupied_children`` is the non-destructive-bus extra (section 3.2's
    ATM remark): on a COLLISION over a medium with XOR/OR logic, each
    transmitter asserts one of m bus lines — the ordinal of the probed
    node's child holding its index — and every station reads back the OR:
    the set of occupied children.  ``None`` on destructive media, on
    non-collision slots, or when any transmitter could not tag itself.
    """

    state: ChannelState
    start: int
    duration: int
    frame: Frame | None = None
    occupied_children: frozenset[int] | None = None

    @property
    def end(self) -> int:
        return self.start + self.duration


class MACProtocol(abc.ABC):
    """One station's medium-access automaton."""

    def __init__(self) -> None:
        #: The station this MAC is bound to.  :meth:`attach` sets it before
        #: the MAC is on any channel, so ``offer``/``observe`` read it
        #: without a check.
        self.station: "Station | None" = None

    def attach(self, station: "Station") -> None:
        """Bind to a station (called once by the station itself)."""
        if self.station is not None:
            raise RuntimeError("MAC already attached to a station")
        self.station = station
        self.on_attach()

    def on_attach(self) -> None:
        """Hook for subclass initialisation after binding."""

    @abc.abstractmethod
    def offer(self, now: int) -> MessageInstance | None:
        """The message this station transmits in the slot starting at ``now``.

        Return ``None`` to stay silent.  Must not mutate the queue — the
        dequeue happens in :meth:`observe` when the station sees its own
        frame succeed (transmission is only complete once observed).
        """

    @abc.abstractmethod
    def observe(self, observation: SlotObservation) -> None:
        """Digest the channel state at the end of the round.

        Every station receives the same observation — protocol state that
        is supposed to be common knowledge must be derived only from this.
        """

    def suppress_offer(self) -> None:
        """Retract the offer made this slot (it never reached the wire).

        Called by wrappers (e.g. the dual-bus standby port) that gate a
        replica's transmissions: the replica must digest the coming
        observation as a non-transmitter.  Default: nothing to retract.
        """

    def wants_burst_continuation(self, now: int) -> bool:
        """Will this station keep the carrier after its current success?

        Consulted by the channel only for the station whose frame is being
        delivered this slot, before :meth:`observe`.  Default: no bursting.
        """
        return False

    def contention_tag(self, now: int) -> int | None:
        """The bus line this station asserts during a contention slot.

        Only consulted for stations that transmitted in a colliding slot on
        a *non-destructive* medium.  Tree protocols return the ordinal
        (0..m-1) of the probed node's child containing their index; ``None``
        (the default) means this MAC cannot tag itself, which makes the
        channel withhold occupancy information for the whole slot — always
        safe, merely less informative.
        """
        return None

    def idle_steady(self) -> int:
        """How many silent slots from now an engine may cross on this
        replica in one step (:meth:`leap_idle`); 0 = none, every slot
        runs.

        Nonzero only where the replica stays off the wire for that many
        silent slots with its queue as it is, and each leaves its state a
        function :meth:`leap_idle` computes in O(1).  An engine leaps only
        as far as the replica with the least room says (and never past a
        pending arrival); a slot that noise corrupts is never leapt, it
        runs as a round.  With an empty queue: DDCR in FREE and the
        fresh-TTs cycle, DCR in FREE, CSMA-CD/BEB, TDMA and slotted
        ALOHA, each without limit (:data:`UNBOUNDED`).  With a queued
        message: DDCR in the fresh-TTs cycle until compressed time pulls
        the head's deadline class inside the horizon, and CSMA-CD/BEB
        for its pending backoff.  Default: 0.
        """
        return 0

    def leap_idle(self, n: int, end: int) -> None:
        """Digest ``n`` silent slots, the last ending at ``end``, as ``n``
        rounds of :meth:`offer` and :meth:`observe` would (only called
        for at most :meth:`idle_steady` slots)."""
        raise NotImplementedError

    def jam_steady(self) -> int:
        """How many jammed slots an engine may cross on this replica in one
        step (:meth:`leap_jammed`); 0 = none, every jammed slot runs.

        A jammed slot is a frameless collision, with no noise draw,
        whatever the stations offer, so nonzero only where such slots
        leave the state a function :meth:`leap_jammed` computes in O(1)
        and :meth:`offer` changes nothing but the offer itself: then the
        queue does not matter.  DDCR re-probing a static-tree leaf is
        jam-steady without limit (:data:`UNBOUNDED`); an active
        dual-bus port caps that one slot short of its failover.
        Default: 0.
        """
        return 0

    def leap_jammed(self, n: int, end: int) -> None:
        """Digest ``n`` jammed slots, the last ending at ``end``, as ``n``
        rounds of :meth:`offer` and :meth:`observe` would (only called
        for at most :meth:`jam_steady` slots)."""
        raise NotImplementedError

    def public_state(self) -> tuple[object, ...]:
        """Hashable snapshot of the state that must be common knowledge.

        The network runner can assert that all stations running the same
        deterministic protocol agree slot by slot (consistency invariant of
        distributed tree search).  Protocols with no shared state return ().
        """
        return ()
