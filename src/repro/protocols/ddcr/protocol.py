"""CSMA/DDCR: Carrier Sense Multi Access / Deadline Driven Collision
Resolution (section 3.2) — the paper's protocol.

Every station runs this automaton; all inter-station coordination state
(mode, reference time ``reft``, tree-search agendas, frontiers) is derived
exclusively from the public ternary channel feedback, so replicas remain in
lockstep (the network runner can assert this every slot).

Mode machine::

    FREE ----collision----> TTS                     (reft := now)
    TTS --agenda empty, out=true--->  ATTEMPT
    TTS --agenda empty, out=false-->  TTS            (reft += theta(c))
    TTS --time-leaf collision----->   STS            (nested)
    STS --agenda empty----------->    TTS            (reft := now)
    ATTEMPT --collision---------->    TTS            (reft := now)
    ATTEMPT --success/silence---->    TTS            (fresh root probe)

FREE is plain CSMA-CD and is only revisited when
``config.exit_to_free_on_idle`` is set and a TTs observes no activity at
all; the paper's pseudocode loops TTs forever ("CSMA/DDCR is run even
though local Q is empty").

Within TTS, a station offers its EDF-first message ``msg*`` when the
probed time-tree interval covers the message's deadline class
``f(reft, msg*) = max(floor((DM - (alpha + reft))/c), frontier)``; messages
beyond the horizon (index > F-1) sit the search out.  A collision on a
time-tree leaf starts a nested static tree search among the stations that
collided there; each uses its static indices in ranked order and may
transmit up to ``nu_i`` messages per STs (section 3.2).
"""

from __future__ import annotations

import enum

from repro.core.trees import LeafInterval
from repro.model.message import MessageInstance
from repro.protocols.base import (
    UNBOUNDED,
    ChannelState,
    MACProtocol,
    SlotObservation,
)
from repro.protocols.ddcr.config import DDCRConfig
from repro.protocols.ddcr.indexing import mac_visible_deadline, time_index
from repro.protocols.ddcr.sts import StaticTreeSearch, STsRecord
from repro.protocols.ddcr.tts import TimeTreeSearch, TTsRecord

__all__ = ["DDCRProtocol", "DDCRMode"]


class DDCRMode(enum.Enum):
    FREE = "free"
    TTS = "tts"
    STS = "sts"
    ATTEMPT = "attempt"


class DDCRProtocol(MACProtocol):
    """One station's CSMA/DDCR automaton."""

    def __init__(self, config: DDCRConfig) -> None:
        super().__init__()
        self.config = config
        # theta is a computed property; the restart path reads it once per
        # slot per station, so snapshot it (the config is frozen).
        self._theta = config.theta
        self.mode = DDCRMode.FREE
        self.reft = 0
        self.tts: TimeTreeSearch | None = None
        self.sts: StaticTreeSearch | None = None
        self._pending_leaf: LeafInterval | None = None
        # Private per-station STs state.
        self._sts_member = False
        self._sts_cursor = 0
        self._offered: MessageInstance | None = None
        # Packet bursting (section 5): the owner is common knowledge
        # (derived from the observed burst_continue flags); the remaining
        # budget is private to the owner.
        self._burst_owner: int | None = None
        self._burst_budget = 0
        # Run records for the bounds/metrics analysis.  Trivial empty runs
        # (no successes, no nested search, at most the root probe) are
        # coalesced into a counter: the idle protocol produces one such run
        # per slot, and storing them all would dominate memory on long
        # simulations.
        self.tts_records: list[TTsRecord] = []
        self.sts_records: list[STsRecord] = []
        self.empty_tts_runs = 0

    def on_attach(self) -> None:
        for index in self.station.static_indices:
            if index >= self.config.static_q:
                raise ValueError(
                    f"static index {index} exceeds q-1="
                    f"{self.config.static_q - 1}"
                )

    # -- index helpers -------------------------------------------------------

    def _msg_star_index(self) -> tuple[MessageInstance | None, int | None]:
        """(msg*, its time-tree index) — None index when beyond horizon."""
        message = self.station.queue.peek()
        if message is None:
            return None, None
        assert self.tts is not None
        index = time_index(
            self.reft,
            mac_visible_deadline(
                message.arrival, message.relative_deadline, self.config
            ),
            self.config,
            self.tts.search.frontier,
        )
        return message, index

    def _sts_static_index(self) -> int | None:
        """The static index this station currently competes with in STs."""
        indices = self.station.static_indices
        if not self._sts_member or self._sts_cursor >= len(indices):
            return None
        return indices[self._sts_cursor]

    def _sts_eligible_message(self) -> MessageInstance | None:
        """msg* if it is due at the leaf under resolution (index == leaf)."""
        assert self._pending_leaf is not None
        message, index = self._msg_star_index()
        if message is None or index is None:
            return None
        if index != self._pending_leaf.lo:
            return None
        return message

    # -- MAC interface -------------------------------------------------------

    def offer(self, now: int) -> MessageInstance | None:
        self._offered = None
        if self._burst_owner is not None:
            # A burst is in progress: only its owner may transmit.
            if self._burst_owner != self.station.station_id:
                return None
            message = self.station.queue.peek()
            if message is None or message.length > self._burst_budget:
                return None  # stale continuation signal: burst ends silent
            self._offered = message
            return message
        if self.mode in (DDCRMode.FREE, DDCRMode.ATTEMPT):
            self._offered = self.station.queue.peek()
            return self._offered
        if self.mode is DDCRMode.TTS:
            assert self.tts is not None
            message, index = self._msg_star_index()
            if message is None or index is None:
                return None
            if self.tts.search.covers(index):
                self._offered = message
            return self._offered
        # STS mode.
        assert self.sts is not None
        static_index = self._sts_static_index()
        if static_index is None or not self.sts.search.covers(static_index):
            return None
        message = self._sts_eligible_message()
        self._offered = message
        return message

    def suppress_offer(self) -> None:
        self._offered = None

    def observe(self, observation: SlotObservation) -> None:
        # ``mine`` check inlined (observe runs once per slot per station).
        success = observation.state is ChannelState.SUCCESS
        frame = observation.frame
        mine = (
            success
            and frame is not None
            and frame.station_id == self.station.station_id
        )
        if mine:
            assert frame is not None
            self.station.complete(
                frame.message, observation.end, observation.start
            )
        if self._burst_owner is not None:
            # Burst slot: the mode machine is frozen; only track the burst.
            self._observe_burst_slot(observation, mine)
            self._offered = None
            return
        if self.mode is DDCRMode.FREE:
            self._observe_free(observation)
        elif self.mode is DDCRMode.ATTEMPT:
            self._observe_attempt(observation)
        elif self.mode is DDCRMode.TTS:
            self._observe_tts(observation, mine)
        else:
            self._observe_sts(observation, mine)
        if success:
            self._maybe_start_burst(observation, mine)
        self._offered = None

    # -- per-mode transitions --------------------------------------------------

    def _observe_free(self, observation: SlotObservation) -> None:
        if observation.state is ChannelState.COLLISION:
            self._enter_tts(
                observation.end,
                after_collision=True,
                occupied=observation.occupied_children,
            )

    def _observe_attempt(self, observation: SlotObservation) -> None:
        if observation.state is ChannelState.COLLISION:
            self._enter_tts(
                observation.end,
                after_collision=True,
                occupied=observation.occupied_children,
            )
        else:
            self._enter_tts(observation.end, after_collision=False, keep_reft=True)

    def _observe_tts(self, observation: SlotObservation, mine: bool) -> None:
        assert self.tts is not None
        search = self.tts.search
        if (
            observation.state is ChannelState.COLLISION
            and search.current.is_leaf()
        ):
            # Time-leaf collision: resolve by a nested static tree search.
            # On a non-destructive bus the colliders tagged the static
            # root's children during this very slot (the leaf collision IS
            # the static root probe).
            leaf = search.begin_leaf_resolution()
            self._pending_leaf = leaf
            self.sts = StaticTreeSearch.start(
                self.config,
                leaf,
                observation.end,
                occupied_children=observation.occupied_children,
            )
            self.tts.nested_sts_runs += 1
            self._sts_member = self._offered is not None
            self._sts_cursor = 0
            self.mode = DDCRMode.STS
            return
        search.feed(observation.state, observation.occupied_children)
        if observation.state is ChannelState.SUCCESS:
            self.tts.transmitted = True
            # reft := local physical time on every in-TTs transmission.
            self.reft = observation.end
        if search.done:
            self._finish_tts(observation.end)

    def _observe_sts(self, observation: SlotObservation, mine: bool) -> None:
        assert self.sts is not None and self.tts is not None
        if (
            observation.state is ChannelState.COLLISION
            and self.sts.search.current.is_leaf()
        ):
            # Static indices have unique owners, so a leaf collision can
            # only be channel noise: re-probe the same leaf next slot.
            self.sts.search.retry_current()
            return
        self.sts.search.feed(observation.state, observation.occupied_children)
        if mine:
            # Ranked order: my next transmission uses my next static index.
            self._sts_cursor += 1
        if observation.state is ChannelState.SUCCESS:
            self.tts.transmitted = True
        if self.sts.done:
            self.sts_records.append(self.sts.finish(observation.end))
            # reft is updated by STs upon completion (section 3.2).
            self.reft = observation.end
            assert self._pending_leaf is not None
            self.tts.search.complete_leaf(self._pending_leaf)
            self._pending_leaf = None
            self.sts = None
            self._sts_member = False
            self._sts_cursor = 0
            self.mode = DDCRMode.TTS
            if self.tts.search.done:
                self._finish_tts(observation.end)

    # -- TTs lifecycle -----------------------------------------------------------

    def _enter_tts(
        self,
        now: int,
        after_collision: bool,
        keep_reft: bool = False,
        occupied: frozenset[int] | None = None,
    ) -> None:
        if after_collision or not keep_reft:
            self.reft = now
        self.tts = TimeTreeSearch.start(
            self.config,
            now,
            after_collision=after_collision,
            occupied_children=occupied,
        )
        self.mode = DDCRMode.TTS

    def _finish_tts(self, now: int) -> None:
        assert self.tts is not None
        tts = self.tts
        search = tts.search
        if (
            not tts.triggered_by_collision
            and tts.nested_sts_runs == 0
            and search.successes == 0
            and search.wasted_slots <= 1
        ):
            # Trivial empty run: nothing transmitted (so ``out`` is
            # necessarily false) and at most one silent root probe.  The
            # idle protocol produces one of these per slot, so skip the
            # record object entirely, not just its storage.
            self.empty_tts_runs += 1
            if self.config.exit_to_free_on_idle:
                self.tts = None
                self.mode = DDCRMode.FREE
                return
            # Compressed time: pull future classes toward the horizon.
            # Recycle the finished replica in place: the tree shape is fixed,
            # so this equals TimeTreeSearch.start(..., after_collision=False)
            # without the per-slot allocations.
            self.reft += self._theta
            tts.restart_fresh(now)
            self.mode = DDCRMode.TTS
            return
        self.tts_records.append(tts.finish(now))
        if tts.out:
            self.tts = None
            self.mode = DDCRMode.ATTEMPT
            return
        # A non-trivial run that still transmitted nothing: a trivial run is
        # the only way to hear pure silence, so no exit-to-FREE check here.
        self.reft += self._theta
        tts.restart_fresh(now)
        self.mode = DDCRMode.TTS

    # -- idle stretches -------------------------------------------------------

    def idle_steady(self) -> int:
        """How many silent slots this replica can cross in one step.

        :meth:`idle_room` for the EDF head's MAC-visible deadline, the
        one message this station would offer (the queue is read only in
        a steady state).
        """
        room = self.idle_room(None)
        if not room:
            return 0
        head = self.station.queue.peek()
        if head is None:
            return room
        return self.idle_room(
            mac_visible_deadline(
                head.arrival, head.relative_deadline, self.config
            )
        )

    def idle_room(self, deadline: int | None) -> int:
        """How many silent slots this replica can cross in one step if the
        head of its queue has MAC-visible deadline ``deadline`` (``None``
        = an empty queue); 0 = every slot runs.

        Two idle steady states: FREE, where a silent slot changes
        nothing, and the fresh-TTs cycle, where each silent slot is one
        trivial empty run: ``reft`` gains theta, the empty-run counter
        one, and the same fresh search restarts at the slot's end.  Not
        while a burst is open (a silent slot closes it) nor under
        ``exit_to_free_on_idle`` in TTs (a silent slot drops to FREE).
        With an empty queue either state lasts without limit.  A queued
        head offers at once in FREE; in the fresh-TTs cycle it sits out
        each root probe while its deadline class lies beyond the horizon,
        ``gap = DM - alpha - reft - F*c >= 0``, which compressed time
        shrinks by theta a slot: ``gap // theta + 1`` slots (none for
        ``gap < 0``, without limit for theta = 0).  The room only grows
        with ``deadline``, so the batch kernel asks it for the least
        deadline of its stations.
        """
        if self._burst_owner is not None:
            return 0
        mode = self.mode
        if mode is DDCRMode.FREE:
            return UNBOUNDED if deadline is None else 0
        if mode is not DDCRMode.TTS or self.config.exit_to_free_on_idle:
            return 0
        tts = self.tts
        search = tts.search
        agenda = search.agenda
        if (
            tts.triggered_by_collision
            or tts.transmitted
            or tts.nested_sts_runs
            or search.probes
            or search.wasted_slots
            or search.successes
            or search.frontier
            or len(agenda) != 1
            or agenda[0] is not search._root
        ):
            return 0  # not the fresh-TTs cycle
        if deadline is None:
            return UNBOUNDED
        config = self.config
        gap = deadline - config.alpha - self.reft - config.horizon
        if gap < 0:
            return 0
        if not self._theta:
            return UNBOUNDED
        return gap // self._theta + 1

    def leap_idle(self, n: int, end: int) -> None:
        """Digest ``n`` silent slots, the last ending at ``end``, in O(1).

        Leaves the replica exactly as ``n`` rounds of :meth:`offer` and
        :meth:`observe` would; valid for at most :meth:`idle_room` slots.
        """
        if self.mode is DDCRMode.TTS:
            self.reft += n * self._theta
            self.empty_tts_runs += n
            self.tts.started_at = end

    # -- jammed stretches -----------------------------------------------------

    def jam_steady(self) -> int:
        """Any number of jammed slots while this replica is stuck
        re-probing a static-tree leaf, else none.

        Stuck means mode STS, no burst open and a leaf on top of the STS
        agenda: a collision there is commonly attributed to noise and
        re-probed (:meth:`SplittingSearch.retry_current`), which leaves
        everything but the probe and waste counters as it was, so under
        a jam the state is absorbing: every later slot is the same
        retry, whatever the queue holds (an offer sets nothing but
        ``_offered``, which the observation clears).  A replica fed
        collisions from any state gets here within one time-tree and
        one static-tree descent.  DCR's search has the same stuck leaf,
        but no caller jams a DCR channel, so it steps.
        """
        if self._burst_owner is None and self.mode is DDCRMode.STS:
            agenda = self.sts.search.agenda
            if agenda and agenda[-1].is_leaf():
                return UNBOUNDED
        return 0

    def leap_jammed(self, n: int, end: int) -> None:
        """Digest ``n`` jammed slots in O(1): ``n`` retries of the stuck
        leaf, exactly as ``n`` rounds of :meth:`offer` and :meth:`observe`
        would (valid only while :meth:`jam_steady` holds)."""
        self.sts.search.retry_current(n)

    # -- packet bursting (section 5) --------------------------------------------

    def wants_burst_continuation(self, now: int) -> bool:
        """Keep the carrier after the frame currently being delivered?

        True when bursting is enabled, another EDF-ranked message is
        waiting, and it fits what remains of the burst budget after the
        current frame (the first frame of a burst counts toward the limit,
        as in 802.3z).
        """
        if self.config.burst_limit <= 0 or self._offered is None:
            return False
        if self._burst_owner is None:
            remaining = self.config.burst_limit - self._offered.length
        else:
            remaining = self._burst_budget - self._offered.length
        if remaining <= 0:
            return False
        queued = self.station.queue.snapshot()
        for message in queued:
            if message.seq != self._offered.seq:
                return message.length <= remaining
        return False

    def _observe_burst_slot(
        self, observation: SlotObservation, mine: bool
    ) -> None:
        """Digest a slot that happened under an in-progress burst."""
        if observation.state is ChannelState.SUCCESS:
            frame = observation.frame
            assert frame is not None
            if mine:
                self._burst_budget -= frame.message.length
            if not frame.burst_continue:
                self._burst_owner = None
        else:
            # Silence (stale continuation signal) or a noise collision:
            # the burst is over either way.
            self._burst_owner = None

    def _maybe_start_burst(
        self, observation: SlotObservation, mine: bool
    ) -> None:
        """Arm the burst state when a success carried the continue flag."""
        frame = observation.frame
        if (
            observation.state is ChannelState.SUCCESS
            and frame is not None
            and frame.burst_continue
        ):
            self._burst_owner = frame.station_id
            if mine:
                self._burst_budget = (
                    self.config.burst_limit - frame.message.length
                )

    # -- non-destructive bus support -------------------------------------------

    def contention_tag(self, now: int) -> int | None:
        """The bus line asserted in a contention slot (non-destructive bus).

        Per :meth:`repro.protocols.base.MACProtocol.contention_tag`: the
        ordinal of the probed node's child containing this station's index.
        During a time-*leaf* probe the anticipated nested search's root is
        tagged instead (the leaf collision doubles as the static root
        probe, section 3.2).  At a FREE/ATTEMPT entry collision the time
        tree is tagged with a provisional ``reft = now`` — one slot earlier
        than the reft the search will adopt; a deadline sitting exactly on
        a class boundary may then be tagged one child off, costing at most
        one deferred message (never a safety violation).
        """
        if self._offered is None:
            return None
        config = self.config
        if self.mode in (DDCRMode.FREE, DDCRMode.ATTEMPT):
            index = time_index(
                now,
                mac_visible_deadline(
                    self._offered.arrival,
                    self._offered.relative_deadline,
                    config,
                ),
                config,
                frontier=0,
            )
            if index is None:
                return None
            return index // (config.time_f // config.time_m)
        if self.mode is DDCRMode.TTS:
            assert self.tts is not None
            node = self.tts.search.current
            if node.is_leaf():
                first_static = self.station.static_indices[0]
                return first_static // (
                    config.static_q // config.static_m
                )
            _, index = self._msg_star_index()
            if index is None:
                return None
            return (index - node.lo) // (node.width // config.time_m)
        # STS mode.
        assert self.sts is not None
        node = self.sts.search.current
        static_index = self._sts_static_index()
        if static_index is None or node.is_leaf():
            return None
        return (static_index - node.lo) // (
            node.width // config.static_m
        )

    # -- lockstep invariant ---------------------------------------------------

    def public_state(self) -> tuple[object, ...]:
        key: tuple[object, ...] = (self.mode.value, self.reft, self._burst_owner)
        if self.tts is not None:
            key += self.tts.state_key()
        if self.sts is not None:
            key += self.sts.state_key()
        return key
