"""The batch-slot kernel: struct-of-arrays station state for the
lockstep protocols, CSMA/DDCR, CSMA/DCR and TDMA.

The station side of the default ``batch`` engine (see
:mod:`repro.net.engine`).  The per-slot ``des`` reference and the fast
loop spend one Python method call per station per slot (``offer`` then
``observe``), so slot throughput degrades linearly in the station count
z.  This kernel exploits the lockstep property
instead: CSMA/DDCR, CSMA/DCR (802.3D) and TDMA are automata driven only
by the public ternary feedback, so every station's *common-knowledge*
state — DDCR's mode, ``reft`` and time/static tree-search agendas, DCR's
mode and static-tree search, TDMA's turn — is an identical replica (the
``_assert_lockstep`` invariant), and one slot needs

* exactly **one** protocol automaton to digest the observation (the
  *shadow replica*: a real
  :class:`~repro.protocols.ddcr.protocol.DDCRProtocol`,
  :class:`~repro.protocols.dcr.DCRProtocol` or
  :class:`~repro.protocols.tdma.TDMAProtocol` bound to a dummy station,
  whose frames are never its own), and
* one pass over per-station *private* state to decide who offers: the
  EDF head (its MAC-visible deadline under DDCR, whether there is one
  otherwise), the static-index owner map and the static searches' rank
  cursors (DDCR's nested search also its membership), and TDMA's roster
  positions — held as struct-of-arrays list columns on
  :class:`BatchKernel`.  Plain lists, not numpy arrays: at the station
  counts this repository runs (up to 256) a list pass is as fast or
  faster than numpy's per-call overhead, and the kernel then never pays
  numpy's import (about 12 MB of resident memory).

The offer rules, one per protocol, read the shadow replica and the
columns: DDCR's time search offers the heads whose deadline class the
probed node covers, its static search the owners of the probed node's
indices whose rank cursor is on that index and whose head is in the
searched time leaf; DCR's search the same owners without the leaf test;
FREE (DDCR's ATTEMPT too) every non-empty queue; TDMA the roster owner
of the current turn if its queue is non-empty.

Because the shadow replica *is* the production automaton, shared-state
transitions are correct by construction and results are byte-identical to
the ``des`` reference's (the engine-differential suite enforces this,
clean and faulted).

The kernel is only the station side of a round.  The channel's one round
body (``repro.net.channel._RoundDriver``) and its one clock loop (the
fast loop, ``BroadcastChannel._run_fast``) do everything else — the jam
and noise decision, slot booking, telemetry, monitors, the flight
recorder, the idle and jammed leaps — and ask the
kernel wherever they would otherwise ask every station's own replica:
who offers (:meth:`BatchKernel.offers`), digesting an observation, the
winner's completion and the private transitions included
(:meth:`BatchKernel.observe`), whether and how far an idle or a jammed
stretch may be leapt (:meth:`BatchKernel.idle_end`,
:meth:`BatchKernel.jam_end`: the room every station's own replica would
give, and the next arrival) and digesting a leapt stretch (the shadow
replica's ``leap_idle`` / ``leap_jammed``).  A kernel run therefore
leaps what a fast-loop run leaps, under the same gate: provably
invariant idle stretches (DDCR in FREE or the fresh-TTs steady cycle,
with every queue empty or, in that cycle, each head's deadline class
beyond the horizon until compressed time pulls it in; DCR in FREE and
TDMA, each with every queue empty), the dominant regime of long
simulations, and jammed stretches once a DDCR replica is stuck
re-probing a static-tree leaf.

Fallback contract: :func:`batch_unavailable_reason` reports
*structural* ineligibility — foreign or mixed MAC types, differing DDCR
configs, DCR trees or TDMA rosters, a static index two stations share
(the kernel asks each index's one owner), packet bursting, non-destructive
media (contention tags), an armed fault injector, or consistency checks
(they compare every station's own replica, which the kernel does not
keep) — and :meth:`BroadcastChannel.run` under ``batch`` then
delegates to the fast loop, returning the reason, which the run's
result keeps (``RunResult.engine_fallback``).  Channels sharing a clock (the dual bus) never
reach the kernel: ``run`` sends them to the joint fast loop with a note
of its own.  At the end of a run the loop writes the kernel's state back
into every station's MAC (:meth:`BatchKernel.writeback`), so a later
run, on any engine, resumes from the stations' own replicas.

Known limitation (structural, not silent): the kernel caches each
station's next pending-arrival time, so injecting arrivals *mid-run* from
outside the round loop is unsupported — the only in-tree source of that
(fault-plan arrival bursts) is already excluded by the fault-injector
fallback.
"""

from __future__ import annotations

import typing

from repro.net.station import Station
from repro.protocols.base import ChannelState, SlotObservation
from repro.protocols.dcr import DCRMode, DCRProtocol
from repro.protocols.ddcr.indexing import mac_visible_deadline
from repro.protocols.ddcr.protocol import DDCRMode, DDCRProtocol
from repro.protocols.ddcr.sts import StaticTreeSearch
from repro.protocols.ddcr.tts import TimeTreeSearch
from repro.protocols.tdma import TDMAProtocol
from repro.protocols.treesearch import SplittingSearch

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.channel import BroadcastChannel

__all__ = [
    "BatchKernel",
    "batch_unavailable_reason",
]

_SUCCESS = ChannelState.SUCCESS
_COLLISION = ChannelState.COLLISION

#: Sentinel deadline for an empty EDF queue: larger than any real deadline
#: (horizons are bit-time ints far below 2**62).
_EMPTY = 1 << 62

#: Sentinel for the next-arrival column when a station has none pending.
_NEVER = 1 << 62

#: The head column's value for a queued message under DCR and TDMA, whose
#: offers ask only whether a queue holds one.
_QUEUED = 0

#: The MAC types the kernel runs, one type per channel.
_KERNEL_MACS = (DDCRProtocol, DCRProtocol, TDMAProtocol)


# -- eligibility -------------------------------------------------------------


def batch_unavailable_reason(channel: "BroadcastChannel") -> str | None:
    """Why this channel cannot run the batch kernel (``None`` = it can).

    The checks are *structural* — a property of the run's configuration,
    decidable before the first slot — so the fallback is deterministic and
    behavior-free: the run proceeds on the fast loop with byte-identical
    results, and the reason lands on the run's result.
    """
    macs = [station.mac for station in channel.stations]
    protocol = type(macs[0])
    for station, mac in zip(channel.stations, macs):
        if type(mac) is not protocol or protocol not in _KERNEL_MACS:
            return (
                "station MACs are not all DDCRProtocol, DCRProtocol or "
                f"TDMAProtocol (station {station.station_id}: "
                f"{type(mac).__name__})"
            )
        if station.station_id < 0:
            return f"negative station id {station.station_id}"
    if protocol is DDCRProtocol:
        config = macs[0].config
        if any(mac.config != config for mac in macs[1:]):
            return "stations run differing DDCR configurations"
    elif protocol is DCRProtocol:
        tree = macs[0].tree
        if any(mac.tree != tree for mac in macs[1:]):
            return "stations run differing DCR trees"
    else:
        roster = macs[0].roster
        if any(mac.roster != roster for mac in macs[1:]):
            return "stations run differing TDMA rosters"
    if protocol is not TDMAProtocol:
        owned: set[int] = set()
        for station in channel.stations:
            for index in station.static_indices:
                if index in owned:
                    return f"stations share static index {index}"
                owned.add(index)
    if protocol is DDCRProtocol and config.burst_limit > 0:
        return "packet bursting enabled (burst_limit > 0)"
    if not channel.medium.destructive_collisions:
        return "non-destructive medium (per-station contention tags)"
    if channel.faults is not None:
        return "fault injector armed"
    if channel.check_consistency:
        return "consistency checks requested"
    return None


# -- replica state copies ----------------------------------------------------


def _copy_search(search: SplittingSearch) -> SplittingSearch:
    return SplittingSearch(
        tree=search.tree,
        agenda=list(search.agenda),
        frontier=search.frontier,
        probes=search.probes,
        wasted_slots=search.wasted_slots,
        successes=search.successes,
    )


def _copy_dcr_search(search: SplittingSearch | None) -> SplittingSearch | None:
    return None if search is None else _copy_search(search)


def _copy_tts(tts: TimeTreeSearch | None) -> TimeTreeSearch | None:
    if tts is None:
        return None
    return TimeTreeSearch(
        search=_copy_search(tts.search),
        started_at=tts.started_at,
        triggered_by_collision=tts.triggered_by_collision,
        transmitted=tts.transmitted,
        nested_sts_runs=tts.nested_sts_runs,
    )


def _copy_sts(sts: StaticTreeSearch | None) -> StaticTreeSearch | None:
    if sts is None:
        return None
    return StaticTreeSearch(
        search=_copy_search(sts.search),
        time_leaf=sts.time_leaf,
        started_at=sts.started_at,
    )


# -- the kernel --------------------------------------------------------------


class BatchKernel:
    """The station side of one eligible channel's rounds.

    Build only after :func:`batch_unavailable_reason` returned ``None``
    (``BroadcastChannel.run`` under ``batch`` does this).
    Per-station private state is one plain list per field (Python's
    floor division IS the spec's integer semantics): the EDF head (its
    MAC-visible deadline under DDCR, :data:`_QUEUED` under DCR and
    TDMA), and the static searches' rank cursor (DDCR's nested search
    also its membership); one more list, fixed for the run, maps each
    static index to its owner, or under TDMA each roster position to
    its station.
    """

    def __init__(self, channel: "BroadcastChannel") -> None:
        self.channel = channel
        self.stations = channel.stations
        self.slot_time = channel.medium.slot_time
        seed_mac = self.stations[0].mac
        protocol = type(seed_mac)
        self.protocol = protocol
        #: The DDCR configuration the head column's deadlines are
        #: computed under; ``None`` for DCR and TDMA.
        self.config = seed_mac.config if protocol is DDCRProtocol else None
        statics = [station.static_indices for station in self.stations]
        z = len(statics)
        self.z = z
        self.statics = statics
        self.head_dm = [_EMPTY] * z
        self.nonempty = 0
        self.member = [False] * z
        self.cursor = [0] * z
        #: statics[i][cursor[i]] materialized, -1 once the ranks run out.
        self.cur_static = [s[0] for s in statics]
        #: The station owning each static index, -1 for none: a static
        #: search's probed node is offered to by its indices' owners only.
        #: Under TDMA, the station at each roster position, -1 for an id
        #: no station has.
        if protocol is TDMAProtocol:
            position = {
                station.station_id: i
                for i, station in enumerate(self.stations)
            }
            owner = [position.get(sid, -1) for sid in seed_mac.roster]
        else:
            leaves = (
                self.config.static_q if protocol is DDCRProtocol
                else seed_mac.tree.leaves
            )
            owner = [-1] * leaves
            for i, indices in enumerate(statics):
                for index in indices:
                    owner[index] = i
        self.owner = owner
        #: Station indices that offered in the current slot's probe.
        self._offers: list[int] = []

        # The shadow replica: a real automaton on a dummy station.  Its
        # station id (-1) never matches a frame, so it digests every
        # observation as a pure bystander, which is exactly the
        # common-knowledge projection of the protocol; it starts from
        # station 0's replica, every station's being the same.
        if protocol is DDCRProtocol:
            replica = DDCRProtocol(self.config)
            replica.mode = seed_mac.mode
            replica.reft = seed_mac.reft
            replica.tts = _copy_tts(seed_mac.tts)
            replica.sts = _copy_sts(seed_mac.sts)
            replica._pending_leaf = seed_mac._pending_leaf
            replica.tts_records = list(seed_mac.tts_records)
            replica.sts_records = list(seed_mac.sts_records)
            replica.empty_tts_runs = seed_mac.empty_tts_runs
        elif protocol is DCRProtocol:
            replica = DCRProtocol(seed_mac.tree)
            replica.mode = seed_mac.mode
            replica.search = _copy_dcr_search(seed_mac.search)
            replica.searches_completed = seed_mac.searches_completed
            replica.search_slot_costs = list(seed_mac.search_slot_costs)
        else:
            replica = TDMAProtocol(seed_mac.roster)
            replica._turn = seed_mac._turn
            replica.noisy_slots = seed_mac.noisy_slots
        # The replica is bound to its dummy station directly, not through
        # ``attach``: TDMA's ``on_attach`` refuses an id off its roster, so
        # the dummy station is built around a throwaway MAC.
        replica.station = Station(
            station_id=-1, mac=TDMAProtocol((-1,)), static_indices=(0,)
        )
        self.replica = replica

        self._next_arrival = [_NEVER] * z
        for i, station in enumerate(self.stations):
            mac = station.mac
            if protocol is DDCRProtocol:
                self.member[i] = mac._sts_member
                self.cursor[i] = mac._sts_cursor
            elif protocol is DCRProtocol:
                self.cursor[i] = mac._index_cursor
            self._set_static(i)
            self._refresh_head(i)
            due = station.peek_next_arrival()
            self._next_arrival[i] = _NEVER if due is None else due
        self._next_due = min(self._next_arrival, default=_NEVER)

    # -- per-station private state refresh --------------------------------

    def _refresh_head(self, i: int) -> None:
        head = self.stations[i].queue_head()
        old = self.head_dm[i]
        if head is None:
            dm = _EMPTY
        elif self.config is None:
            dm = _QUEUED
        else:
            dm = mac_visible_deadline(
                head.arrival, head.relative_deadline, self.config
            )
        self.head_dm[i] = dm
        self.nonempty += (dm != _EMPTY) - (old != _EMPTY)

    def _set_static(self, i: int) -> None:
        statics = self.statics[i]
        cursor = self.cursor[i]
        self.cur_static[i] = statics[cursor] if cursor < len(statics) else -1

    def _reset_cursors(self) -> None:
        """Put every rank cursor back on the station's first index."""
        self.cursor = [0] * self.z
        self.cur_static = [s[0] for s in self.statics]

    def _deliver_arrivals(self, now: int) -> None:
        # Station-list order, exactly like the round driver: the shared
        # seq counter then assigns identical instance ids.
        next_arrival = self._next_arrival
        for i, station in enumerate(self.stations):
            if next_arrival[i] <= now:
                station.deliver_due(now)
                self._refresh_head(i)
                due = station.peek_next_arrival()
                next_arrival[i] = _NEVER if due is None else due
        self._next_due = min(next_arrival, default=_NEVER)

    # -- the station side of a round ---------------------------------------

    def offers(self, now: int) -> tuple[int, list]:
        """Deliver the arrivals due at ``now`` and return who offers in the
        slot from ``now``, as every station's own ``offer`` would say:
        how many offer, and the lone transmitter's ``(station, message)``
        pair if one does.  A collision's offerers are not listed: the
        kernel runs destructive media only, where no one reads them."""
        if self._next_due <= now:
            self._deliver_arrivals(now)
        offers = []
        if self.nonempty:
            replica = self.replica
            head_dm = self.head_dm
            # TDMA has no mode: its offer is the turn's.
            mode = None if self.protocol is TDMAProtocol else replica.mode
            if mode is None:
                # The roster owner of the turn, if it has a message.
                i = self.owner[replica._turn]
                if i >= 0 and head_dm[i] != _EMPTY:
                    offers.append(i)
            elif mode is DDCRMode.TTS:
                search = replica.tts.search
                node = search.agenda[-1]
                base = self.config.alpha + replica.reft
                width = self.config.class_width
                frontier = search.frontier
                lo, hi = node.lo, node.hi
                for i in range(self.z):
                    dm = head_dm[i]
                    if dm == _EMPTY:
                        continue
                    index = (dm - base) // width
                    if index < frontier:
                        index = frontier
                    if lo <= index < hi:
                        offers.append(i)
            elif mode is DDCRMode.STS:
                node = replica.sts.search.agenda[-1]
                base = self.config.alpha + replica.reft
                width = self.config.class_width
                frontier = replica.tts.search.frontier
                leaf_lo = replica._pending_leaf.lo
                member = self.member
                cur_static = self.cur_static
                owner = self.owner
                # Only the owners of the probed indices can offer, each
                # with the one index its rank cursor is on.
                for index in range(node.lo, node.hi):
                    i = owner[index]
                    if i < 0 or not member[i] or cur_static[i] != index:
                        continue
                    dm = head_dm[i]
                    if dm == _EMPTY:
                        continue
                    index = (dm - base) // width
                    if index < frontier:
                        index = frontier
                    if index == leaf_lo:
                        offers.append(i)
            elif mode is DCRMode.SEARCH:
                # DDCR's static-search rule without the time-leaf test.
                node = replica.search.agenda[-1]
                cur_static = self.cur_static
                owner = self.owner
                for index in range(node.lo, node.hi):
                    i = owner[index]
                    if (
                        i >= 0
                        and cur_static[i] == index
                        and head_dm[i] != _EMPTY
                    ):
                        offers.append(i)
            else:  # FREE (DDCR's and DCR's) / ATTEMPT
                offers = [i for i in range(self.z) if head_dm[i] != _EMPTY]
        self._offers = offers
        if len(offers) == 1:
            station = self.stations[offers[0]]
            return 1, [(station, station.queue_head())]
        return len(offers), []

    def observe(self, observation: SlotObservation) -> None:
        """Digest ``observation`` as every station's own replica would:
        the winner's completion and the private transitions on the
        columns, the shared ones on the shadow replica."""
        replica = self.replica
        state = observation.state
        if state is _SUCCESS:
            # The winner's completion (a station's own replica does this
            # inside ``observe``): dequeue and record, then refresh its
            # column.
            winner = self._offers[0]
            self.stations[winner].complete(
                observation.frame.message, observation.end, observation.start
            )
            self._refresh_head(winner)
        protocol = self.protocol
        if protocol is TDMAProtocol:
            replica.observe(observation)
            return
        pre_mode = replica.mode
        if protocol is DCRProtocol:
            replica.observe(observation)
            if replica.mode is not pre_mode:
                # A search opened or ended: every rank cursor resets.
                self._reset_cursors()
            elif state is _SUCCESS and pre_mode is DCRMode.SEARCH:
                # Ranked order is private: only the transmitter advances.
                self.cursor[winner] += 1
                self._set_static(winner)
            return
        if (
            state is _COLLISION
            and pre_mode is DDCRMode.TTS
            and replica.tts.search.agenda[-1].is_leaf()
        ):
            # Time-leaf collision opens the nested static search: its
            # members are exactly this slot's offerers (also on corrupted
            # slots — every station's own replica snapshots ``_offered``
            # the same way).
            member = [False] * self.z
            for i in self._offers:
                member[i] = True
            self.member = member
            self._reset_cursors()
        replica.observe(observation)
        if pre_mode is DDCRMode.STS:
            if state is _SUCCESS:
                # Ranked order is private: only the transmitter advances.
                self.cursor[winner] += 1
                self._set_static(winner)
            if replica.sts is None:
                self.member = [False] * self.z
                self.cursor = [0] * self.z

    def idle_end(self, start: int, end: int) -> int | None:
        """Where an idle stretch from ``start`` may end, at ``end`` at the
        latest: at the next arrival or where the room every station's
        own replica would give says.  ``None`` if it is not
        idle-steady.

        Under DDCR that is the shadow replica's room for the least
        MAC-visible deadline at a queue's head
        (:meth:`DDCRProtocol.idle_room
        <repro.protocols.ddcr.protocol.DDCRProtocol.idle_room>`: the
        room only grows with the deadline); DCR and TDMA step every slot
        while a queue holds a message, and otherwise have the shadow
        replica's own room (its queue is always empty)."""
        replica = self.replica
        if self.config is not None:
            room = replica.idle_room(None)
            if room and self.nonempty:
                room = replica.idle_room(min(self.head_dm))
        elif self.nonempty:
            return None
        else:
            room = replica.idle_steady()
        if not room:
            return None
        due = self._next_due
        if due < end:
            end = due
        return min(end, start + room * self.slot_time)

    def jam_end(self, start: int, end: int) -> int | None:
        """Where a jammed stretch from ``start`` may end, at ``end`` at the
        latest: at the next arrival or where the shadow replica's room
        says (DCR and TDMA are never jam-steady).  ``None`` if it is not
        jam-steady."""
        room = self.replica.jam_steady()
        if not room:
            return None
        due = self._next_due
        if due < end:
            end = due
        return min(end, start + room * self.slot_time)

    # -- state write-back --------------------------------------------------

    def writeback(self) -> None:
        """Project the kernel state back into every station's MAC.

        Restores the per-station replica invariant the rest of the system
        reads — end-of-run consumers (telemetry finalization, the
        search-length monitor, ``public_state`` assertions) and the next
        run of the channel, on any engine.
        """
        replica = self.replica
        protocol = self.protocol
        if protocol is TDMAProtocol:
            for station in self.stations:
                mac = station.mac
                mac._turn = replica._turn
                mac.noisy_slots = replica.noisy_slots
            return
        if protocol is DCRProtocol:
            for i, station in enumerate(self.stations):
                mac = station.mac
                mac.mode = replica.mode
                mac.search = _copy_dcr_search(replica.search)
                mac._index_cursor = self.cursor[i]
                mac.searches_completed = replica.searches_completed
                mac.search_slot_costs = list(replica.search_slot_costs)
            return
        tts_records = replica.tts_records
        sts_records = replica.sts_records
        for i, station in enumerate(self.stations):
            mac = station.mac
            mac.mode = replica.mode
            mac.reft = replica.reft
            mac.tts = _copy_tts(replica.tts)
            mac.sts = _copy_sts(replica.sts)
            mac._pending_leaf = replica._pending_leaf
            mac._sts_member = self.member[i]
            mac._sts_cursor = self.cursor[i]
            mac._offered = None
            mac._burst_owner = None
            mac._burst_budget = 0
            mac.tts_records = list(tts_records)
            mac.sts_records = list(sts_records)
            mac.empty_tts_runs = replica.empty_tts_runs

    def run(self, horizon: int) -> None:
        """Run the channel to ``horizon`` with this kernel as its station
        side: one call into the channel's clock loop (the fast loop,
        ``BroadcastChannel._run_fast``), which writes the kernel state
        back at the end."""
        self.channel._run_fast(horizon, (self.channel,), self)
