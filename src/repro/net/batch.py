"""The batch-slot kernel: struct-of-arrays station state for CSMA/DDCR.

The station side of the third engine tier (see :mod:`repro.net.engine`).
The DES and fastloop engines spend one Python method call per station per
slot (``offer`` then ``observe``), so slot throughput degrades linearly in
the station count z.  This kernel exploits the protocol's lockstep theorem
instead: under CSMA/DDCR every station's *common-knowledge* state — mode,
``reft``, the time/static tree-search agendas and frontiers — is an
identical replica (the ``_assert_lockstep`` invariant), so one slot needs

* exactly **one** protocol automaton to digest the observation (the
  *shadow replica*: a real :class:`~repro.protocols.ddcr.protocol.DDCRProtocol`
  bound to a dummy station, whose ``mine`` flag is never true), and
* one pass over per-station *private* state to decide who offers: the
  EDF head's MAC-visible deadline, and the nested static-search
  membership/cursor — held as struct-of-arrays list columns on
  :class:`BatchKernel`.  Plain lists, not numpy arrays: at the station
  counts this repository runs (up to 256) a list pass is as fast or
  faster than numpy's per-call overhead, and the kernel then never pays
  numpy's import (about 12 MB of resident memory).

Because the shadow replica *is* the production automaton, shared-state
transitions are correct by construction and results are byte-identical to
the other engines (the engine-differential suite enforces this, clean and
faulted).

The kernel is only the station side of a round.  The channel's one round
body (``repro.net.channel._RoundDriver``) and its one clock loop (the
fast loop, ``BroadcastChannel._run_fast``) do everything else — the jam
and noise decision, slot booking, telemetry, monitors, the flight
recorder, the idle and jammed leaps and the DES rejoin — and ask the
kernel wherever they would otherwise ask every station's own replica:
who offers (:meth:`BatchKernel.offers`), digesting an observation, the
winner's completion included (:meth:`BatchKernel.observe`), whether and
how far an idle or a jammed stretch may be leapt
(:meth:`BatchKernel.idle_end`, :meth:`BatchKernel.jam_end`: the shadow
replica's room, ``idle_room`` for the least head deadline or
``jam_steady``, and the next arrival) and
digesting a leapt stretch (the shadow replica's ``leap_idle`` /
``leap_jammed``).  A kernel run therefore leaps what a fast-loop run
leaps, under the same gate: provably invariant idle stretches (FREE mode
or the fresh-TTs steady cycle, with every queue empty or, in that cycle,
each head's deadline class beyond the horizon until compressed time
pulls it in), the dominant regime of long simulations, and jammed
stretches once the replica is stuck re-probing a static-tree leaf.

Fallback contract (mirroring the fast loop's): :func:`batch_unavailable_reason`
reports *structural* ineligibility — foreign MAC types, differing configs,
a static index two stations share (the kernel asks each index's one
owner), packet bursting, non-destructive media (contention tags), an
armed fault injector, consistency checks (they compare every station's
own replica, which the kernel does not keep), or foreign processes
pending at entry — and :meth:`BroadcastChannel.run` under ``batch`` or
``auto`` then delegates to the fast loop (which may itself rejoin the
DES), returning the reason so the run manifest can record it.  Channels
sharing a clock (the dual bus) never reach the kernel: ``run`` sends
them to the joint fast loop with a note of its own.  If a foreign
process appears *mid-run* (e.g. registered by a monitor), the loop
writes the kernel's state back into every station's MAC
(:meth:`BatchKernel.writeback`) and rejoins the general DES after the
current slot, exactly where the DES path would interleave it.

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
from repro.protocols.ddcr.config import DDCRConfig
from repro.protocols.ddcr.indexing import mac_visible_deadline
from repro.protocols.ddcr.protocol import DDCRMode, DDCRProtocol
from repro.protocols.ddcr.sts import StaticTreeSearch
from repro.protocols.ddcr.tts import TimeTreeSearch
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


# -- eligibility -------------------------------------------------------------


def batch_unavailable_reason(channel: "BroadcastChannel") -> str | None:
    """Why this channel cannot run the batch kernel (``None`` = it can).

    The checks are *structural* — a property of the run's configuration,
    decidable before the first slot — so the fallback is deterministic and
    behavior-free: the run proceeds on the fast loop (or the DES) with
    byte-identical results, and the reason lands in the run manifest.
    """
    if channel.env.pending:
        return "foreign processes pending on the environment at entry"
    macs = [station.mac for station in channel.stations]
    for station, mac in zip(channel.stations, macs):
        if type(mac) is not DDCRProtocol:
            return (
                "station MACs are not plain DDCRProtocol "
                f"(station {station.station_id}: {type(mac).__name__})"
            )
        if station.station_id < 0:
            return f"negative station id {station.station_id}"
    config = macs[0].config
    if any(mac.config != config for mac in macs[1:]):
        return "stations run differing DDCR configurations"
    owned: set[int] = set()
    for station in channel.stations:
        for index in station.static_indices:
            if index in owned:
                return f"stations share static index {index}"
            owned.add(index)
    if config.burst_limit > 0:
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
    (``BroadcastChannel.run`` under ``batch`` or ``auto`` does this).
    Per-station private state is one plain list per field (Python's
    floor division IS the spec's integer semantics): the EDF head's
    MAC-visible deadline, and the nested static search's membership and
    rank cursor; one more list, fixed for the run, maps each static
    index to its owner.
    """

    def __init__(self, channel: "BroadcastChannel") -> None:
        self.channel = channel
        self.stations = channel.stations
        self.slot_time = channel.medium.slot_time
        config: DDCRConfig = self.stations[0].mac.config
        self.config = config
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
        owner = [-1] * config.static_q
        for i, indices in enumerate(statics):
            for index in indices:
                owner[index] = i
        self.owner = owner
        #: Station indices that offered in the current slot's probe.
        self._offers: list[int] = []

        # The shadow replica: a real DDCR automaton on a dummy station.
        # Its station id (-1) never matches a frame, so ``mine`` is always
        # false — it digests every observation as a pure bystander, which
        # is exactly the common-knowledge projection of the protocol.
        seed_mac = self.stations[0].mac
        replica_station = Station(
            station_id=-1, mac=DDCRProtocol(config), static_indices=(0,)
        )
        replica = replica_station.mac
        replica.mode = seed_mac.mode
        replica.reft = seed_mac.reft
        replica.tts = _copy_tts(seed_mac.tts)
        replica.sts = _copy_sts(seed_mac.sts)
        replica._pending_leaf = seed_mac._pending_leaf
        replica.tts_records = list(seed_mac.tts_records)
        replica.sts_records = list(seed_mac.sts_records)
        replica.empty_tts_runs = seed_mac.empty_tts_runs
        self.replica = replica

        self._next_arrival = [_NEVER] * z
        for i, station in enumerate(self.stations):
            mac = station.mac
            self.member[i] = mac._sts_member
            self.cursor[i] = mac._sts_cursor
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
            mode = replica.mode
            head_dm = self.head_dm
            if mode is DDCRMode.TTS:
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
            else:  # FREE / ATTEMPT
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
        pre_mode = replica.mode
        if state is _SUCCESS:
            # The winner's completion (a station's own replica does this
            # inside ``observe``): dequeue and record, then refresh its
            # column.
            winner = self._offers[0]
            self.stations[winner].complete(
                observation.frame.message, observation.end, observation.start
            )
            self._refresh_head(winner)
        elif (
            state is _COLLISION
            and pre_mode is DDCRMode.TTS
            and replica.tts.search.agenda[-1].is_leaf()
        ):
            # Time-leaf collision opens the nested static search: its
            # members are exactly this slot's offerers (also on corrupted
            # slots — the DES stations snapshot ``_offered`` the same way).
            member = [False] * self.z
            for i in self._offers:
                member[i] = True
            self.member = member
            self.cursor = [0] * self.z
            self.cur_static = [s[0] for s in self.statics]
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
        latest: at the next arrival or where the shadow replica's room
        says, for the least MAC-visible deadline at a queue's head
        (:meth:`DDCRProtocol.idle_room
        <repro.protocols.ddcr.protocol.DDCRProtocol.idle_room>`: the
        room only grows with the deadline).  ``None`` if it is not
        idle-steady."""
        replica = self.replica
        room = replica.idle_room(None)
        if room and self.nonempty:
            room = replica.idle_room(min(self.head_dm))
        if not room:
            return None
        due = self._next_due
        if due < end:
            end = due
        return min(end, start + room * self.slot_time)

    def jam_end(self, start: int, end: int) -> int | None:
        """Where a jammed stretch from ``start`` may end, at ``end`` at the
        latest: at the next arrival or where the shadow replica's room
        says.  ``None`` if it is not jam-steady."""
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
        search-length monitor, ``public_state`` assertions) and the DES
        itself on a mid-run rejoin.
        """
        replica = self.replica
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
        back before a mid-run DES rejoin and at the end."""
        self.channel._run_fast(horizon, (self.channel,), self)
