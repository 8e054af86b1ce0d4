"""The batch-slot kernel: struct-of-arrays station state for CSMA/DDCR.

The third engine tier (see :mod:`repro.net.engine`).  The DES and fastloop
engines spend one Python method call per station per slot (``offer`` then
``observe``), so slot throughput degrades linearly in the station count z.
This kernel exploits the protocol's lockstep theorem instead: under
CSMA/DDCR every station's *common-knowledge* state — mode, ``reft``, the
time/static tree-search agendas and frontiers — is an identical replica
(the ``_assert_lockstep`` invariant), so one slot needs

* exactly **one** protocol automaton to digest the observation (the
  *shadow replica*: a real :class:`~repro.protocols.ddcr.protocol.DDCRProtocol`
  bound to a dummy station, whose ``mine`` flag is never true), and
* one pass over per-station *private* state to decide who offers: the
  EDF head's MAC-visible deadline, and the nested static-search
  membership/cursor — held as struct-of-arrays list columns in
  :class:`_PythonOps`.  Plain lists, not numpy arrays: at the station
  counts this repository runs (up to 256) a list pass is as fast or
  faster than numpy's per-call overhead, and the kernel then never pays
  numpy's import (about 12 MB of resident memory).

Because the shadow replica *is* the production automaton, shared-state
transitions are correct by construction and results are byte-identical to
the other engines (the engine-differential suite enforces this, clean and
faulted).  On top of that, the kernel batch-advances provably invariant
idle stretches (all queues empty, FREE mode or the fresh-TTs steady
cycle) in O(1) — the dominant regime of long simulations.  The replica
itself says whether it is idle-steady and digests the stretch
(:meth:`~repro.protocols.ddcr.protocol.DDCRProtocol.leap_idle`); the
channel's shared stretch rule bounds the stretch (horizon, next arrival,
jam boundary) and keeps the leap off wherever a per-slot side effect
must happen: any armed invariant monitor that cannot digest an idle
stretch in one call
(:attr:`~repro.sim.invariants.MonitorSuite.digests_idle`); the standard
and bridge-conservation monitors can, via ``on_idle``.  Noise keeps the
leap: the channel draws the gates slot by slot over the stretch, in the
per-slot order
(:meth:`~repro.net.channel.BroadcastChannel._quiet_slots`), the leap
stops before the first slot a gate corrupts, and the kernel runs that
slot as a corrupted round.  An armed flight recorder keeps the leap
too: the channel books a leapt stretch and a stepped silent slot
through the same ``channel/idle`` rule
(:meth:`~repro.net.channel.BroadcastChannel._trace_idle`), so the dump
is the same either way.  Fast-loop runs leap under the same rule and
the same replica code, on every station's own replica; they also leap
jammed stretches, which the kernel steps slot by slot (its jammed
slots record the same ``channel/jammed`` runs).

Fallback contract (mirroring the fast loop's): :func:`batch_unavailable_reason`
reports *structural* ineligibility — foreign MAC types, differing configs,
packet bursting, non-destructive media (contention tags), an armed fault
injector, consistency checks (they compare every station's own replica,
which the kernel does not keep), or foreign processes pending at entry —
and :meth:`BroadcastChannel.run` under ``batch`` or ``auto`` then
delegates to the fast loop (which may itself rejoin the DES), returning
the reason so the run manifest can record it.  Channels sharing a clock
(the dual bus) never reach the kernel: ``run`` sends them to the joint
fast loop with a note of its own.  If a foreign process appears
*mid-run* (e.g. registered by a monitor), the kernel writes the shared
state back into every station's MAC and rejoins the general DES after
the current slot, exactly where the DES path would interleave it.

Known limitation (structural, not silent): the kernel caches each
station's next pending-arrival time, so injecting arrivals *mid-run* from
outside the round loop is unsupported — the only in-tree source of that
(fault-plan arrival bursts) is already excluded by the fault-injector
fallback.
"""

from __future__ import annotations

import typing

from repro.net.frames import Frame
from repro.net.station import Station
from repro.obs.instruments import LATENCY_EDGES
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

_SILENCE = ChannelState.SILENCE
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


# -- struct-of-arrays columns -----------------------------------------------


class _PythonOps:
    """The struct-of-arrays columns: one plain list per per-station field
    (Python's floor division IS the spec's integer semantics)."""

    def __init__(self, statics: list[tuple[int, ...]]) -> None:
        z = len(statics)
        self.z = z
        self.statics = statics
        self.head_dm = [_EMPTY] * z
        self.member = [False] * z
        self.cursor = [0] * z
        #: statics[i][cursor[i]] materialized, -1 once the ranks run out.
        self.cur_static = [s[0] for s in statics]
        self.nonempty = 0
        #: Station indices that offered in the current slot's probe.
        self._offers: list[int] = []

    def set_head(self, i: int, dm: int) -> None:
        old = self.head_dm[i]
        self.head_dm[i] = dm
        self.nonempty += (dm != _EMPTY) - (old != _EMPTY)

    def set_private(self, i: int, member: bool, cursor: int) -> None:
        self.member[i] = member
        self.cursor[i] = cursor
        statics = self.statics[i]
        self.cur_static[i] = statics[cursor] if cursor < len(statics) else -1

    def clear_offers(self) -> None:
        self._offers = []

    def free_offers(self) -> tuple[int, int]:
        offers = [i for i in range(self.z) if self.head_dm[i] != _EMPTY]
        self._offers = offers
        return len(offers), offers[0] if len(offers) == 1 else -1

    def tts_offers(
        self, base: int, width: int, frontier: int, lo: int, hi: int
    ) -> tuple[int, int]:
        offers = []
        head_dm = self.head_dm
        for i in range(self.z):
            dm = head_dm[i]
            if dm == _EMPTY:
                continue
            index = (dm - base) // width
            if index < frontier:
                index = frontier
            if lo <= index < hi:
                offers.append(i)
        self._offers = offers
        return len(offers), offers[0] if len(offers) == 1 else -1

    def sts_offers(
        self,
        base: int,
        width: int,
        frontier: int,
        leaf_lo: int,
        lo: int,
        hi: int,
    ) -> tuple[int, int]:
        offers = []
        head_dm = self.head_dm
        member = self.member
        cur_static = self.cur_static
        for i in range(self.z):
            if not member[i] or not lo <= cur_static[i] < hi:
                continue
            dm = head_dm[i]
            if dm == _EMPTY:
                continue
            index = (dm - base) // width
            if index < frontier:
                index = frontier
            if index == leaf_lo:
                offers.append(i)
        self._offers = offers
        return len(offers), offers[0] if len(offers) == 1 else -1

    def adopt_members(self) -> None:
        """Nested-STs entry: members are exactly this slot's offerers."""
        member = [False] * self.z
        for i in self._offers:
            member[i] = True
        self.member = member
        self.cursor = [0] * self.z
        self.cur_static = [s[0] for s in self.statics]

    def clear_members(self) -> None:
        self.member = [False] * self.z
        self.cursor = [0] * self.z

    def advance_cursor(self, i: int) -> None:
        cursor = self.cursor[i] + 1
        self.cursor[i] = cursor
        statics = self.statics[i]
        self.cur_static[i] = statics[cursor] if cursor < len(statics) else -1

    def member_of(self, i: int) -> bool:
        return self.member[i]

    def cursor_of(self, i: int) -> int:
        return self.cursor[i]


# -- the kernel --------------------------------------------------------------


class BatchKernel:
    """One eligible channel's batch-slot round loop.

    Build only after :func:`batch_unavailable_reason` returned ``None``
    (``BroadcastChannel.run`` under ``batch`` or ``auto`` does this).
    """

    def __init__(self, channel: "BroadcastChannel") -> None:
        self.channel = channel
        self.env = channel.env
        self.stations = channel.stations
        self.stats = channel.stats
        medium = channel.medium
        self.slot_time = medium.slot_time
        self.transmission_time = medium.transmission_time
        self.destructive = medium.destructive_collisions
        gates: list = []
        if channel.noise_rate > 0.0:
            from repro.faults.runtime import BernoulliGate

            gates.append(BernoulliGate(channel.noise_rate, channel._noise_rng))
        self.noise_gates = tuple(gates)
        self.monitors = channel.monitors
        self.tracer = channel.tracer
        self.tracer_on = channel.tracer.enabled
        telemetry = channel.telemetry
        self.telemetry = telemetry
        self.telemetry_on = telemetry.enabled
        if self.telemetry_on:
            # The identical instrument set the round driver registers, so
            # manifests agree across engines even on never-incremented
            # counters.
            prefix = channel.telemetry_prefix
            self.ctr_silence = telemetry.counter(f"{prefix}slots/silence")
            self.ctr_success = telemetry.counter(f"{prefix}slots/success")
            self.ctr_collision = telemetry.counter(f"{prefix}slots/collision")
            self.ctr_corrupted = telemetry.counter(f"{prefix}slots/corrupted")
            self.ctr_jammed = telemetry.counter(f"{prefix}slots/jammed")
            if self.noise_gates:
                self.ctr_noise_fires = telemetry.counter(
                    f"{prefix}faults/noise_gate_fires"
                )
            self.latency_hists: dict[str, object] = {}

        config: DDCRConfig = self.stations[0].mac.config
        self.config = config
        self.backend = _PythonOps(
            [station.static_indices for station in self.stations]
        )

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

        backend = self.backend
        self._next_arrival = [_NEVER] * len(self.stations)
        for i, station in enumerate(self.stations):
            mac = station.mac
            backend.set_private(i, mac._sts_member, mac._sts_cursor)
            self._refresh_head(i)
            due = station.peek_next_arrival()
            self._next_arrival[i] = _NEVER if due is None else due
        self._next_due = min(self._next_arrival, default=_NEVER)
        # Idle stretches are leapt under the channel's shared rule.
        self._leap_ok = channel._idle_leap_allowed()

    # -- per-station private state refresh --------------------------------

    def _refresh_head(self, i: int) -> None:
        head = self.stations[i].queue_head()
        if head is None:
            self.backend.set_head(i, _EMPTY)
        else:
            self.backend.set_head(
                i,
                mac_visible_deadline(
                    head.arrival, head.relative_deadline, self.config
                ),
            )

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

    # -- idle leap ---------------------------------------------------------

    def _try_leap(self, now: int, horizon: int) -> int:
        """Batch-advance n invariant idle slots; returns n (0 = no leap).

        The shadow replica decides whether it is idle-steady and digests
        the stretch (:meth:`DDCRProtocol.leap_idle`, the same code every
        station's replica runs on fast-loop runs); the channel's shared
        rule bounds the stretch and books it, monitors and flight
        recorder included.  If a noise gate fires inside the stretch
        (:meth:`~repro.net.channel.BroadcastChannel._quiet_slots`), the
        leap stops before that slot and runs it through :meth:`_round`
        as a corrupted slot, counted in n.
        """
        replica = self.replica
        if not replica.idle_steady():
            return 0
        channel = self.channel
        n = channel._idle_stretch(now, horizon, self._next_due)
        if not n:
            return 0
        fired = 0
        if self.noise_gates:
            n, fired = channel._quiet_slots(self.noise_gates, now, n)
        if n:
            replica.leap_idle(n, now + n * self.slot_time)
            channel._count_idle(now, n)
        if fired:
            self._round(now + n * self.slot_time, horizon, fired)
            return n + 1
        return n

    # -- one round ---------------------------------------------------------

    def _round(self, now: int, horizon: int, fired: int = 0) -> int:
        """Run one round from ``now``; returns its duration (a leapt
        stretch's, if the round leaps).  ``fired`` > 0: the idle leap
        drew this slot's noise gates and that many fired."""
        channel = self.channel
        stats = self.stats
        slot_time = self.slot_time
        replica = self.replica
        backend = self.backend
        if self._next_due <= now:
            self._deliver_arrivals(now)
        if backend.nonempty == 0:
            if self._leap_ok and not fired:
                leaped = self._try_leap(now, horizon)
                if leaped:
                    return leaped * slot_time
            wire, winner = 0, -1
            backend.clear_offers()
        else:
            mode = replica.mode
            if mode is DDCRMode.TTS:
                search = replica.tts.search
                node = search.agenda[-1]
                wire, winner = backend.tts_offers(
                    self.config.alpha + replica.reft,
                    self.config.class_width,
                    search.frontier,
                    node.lo,
                    node.hi,
                )
            elif mode is DDCRMode.STS:
                node = replica.sts.search.agenda[-1]
                wire, winner = backend.sts_offers(
                    self.config.alpha + replica.reft,
                    self.config.class_width,
                    replica.tts.search.frontier,
                    replica._pending_leaf.lo,
                    node.lo,
                    node.hi,
                )
            else:  # FREE / ATTEMPT
                wire, winner = backend.free_offers()
        jam_from = channel.jam_from
        jammed = jam_from is not None and now >= jam_from and (
            channel.jam_until is None or now < channel.jam_until
        )
        if jammed:
            corrupted = True
        elif self.noise_gates:
            if fired:
                corrupted = True
                if self.telemetry_on:
                    self.ctr_noise_fires.inc(fired)
            else:
                corrupted = False
                telemetry_on = self.telemetry_on
                for gate in self.noise_gates:
                    if gate(now, wire):
                        corrupted = True
                        if telemetry_on:
                            self.ctr_noise_fires.inc()
        else:
            corrupted = False
        if corrupted:
            if jammed:
                stats.jammed_slots += 1
            else:
                stats.corrupted_slots += 1
            stats.collision_slots += 1
            stats.collision_time += slot_time
            if self.telemetry_on:
                self.ctr_collision.inc()
                (self.ctr_jammed if jammed else self.ctr_corrupted).inc()
            observation = SlotObservation(
                state=_COLLISION,
                start=now,
                duration=slot_time,
                frame=None,
                occupied_children=None,
            )
            self._observe(observation, _COLLISION, -1)
            channel.observations += 1
            if self.monitors is not None:
                self.monitors.on_slot(
                    now, slot_time, _COLLISION, wire, None, True, jammed,
                    self.stations, None,
                )
            if self.tracer_on:
                if jammed:
                    channel._trace_jammed(now, 1)
                else:
                    self.tracer.emit(
                        channel._slot_kind, t=now, state="corrupted",
                        wire=wire,
                    )
            return slot_time
        if wire == 0:
            state = _SILENCE
            duration = slot_time
            frame = None
            stats.silence_slots += 1
            stats.idle_time += slot_time
        elif wire == 1:
            station = self.stations[winner]
            message = station.queue_head()
            frame = Frame(
                station_id=station.station_id,
                message=message,
                burst_continue=False,
            )
            state = _SUCCESS
            duration = self.transmission_time(message.length)
            if self.destructive and duration < slot_time:
                duration = slot_time
            stats.successes += 1
            stats.busy_time += duration
            stats.payload_bits += message.length
            # The winner's completion (the DES does this inside its own
            # ``observe``): dequeue and record, then refresh its column.
            station.complete(message, now + duration, now)
            self._refresh_head(winner)
        else:
            state = _COLLISION
            duration = slot_time
            frame = None
            stats.collision_slots += 1
            stats.collision_time += slot_time
        if self.telemetry_on:
            if state is _SILENCE:
                self.ctr_silence.inc()
            elif state is _SUCCESS:
                self.ctr_success.inc()
                hist = self.latency_hists.get(message.msg_class.name)
                if hist is None:
                    hist = self.telemetry.histogram(
                        f"{self.channel.telemetry_prefix}latency/"
                        f"{message.msg_class.name}",
                        LATENCY_EDGES,
                    )
                    self.latency_hists[message.msg_class.name] = hist
                hist.record(now + duration - message.arrival)
            else:
                self.ctr_collision.inc()
        observation = SlotObservation(
            state=state,
            start=now,
            duration=duration,
            frame=frame,
            occupied_children=None,
        )
        self._observe(observation, state, winner)
        channel.observations += 1
        if self.monitors is not None:
            self.monitors.on_slot(
                now, duration, state, wire, frame, False, False,
                self.stations, None,
            )
        if self.tracer_on:
            if state is _SILENCE:
                channel._trace_idle(now, 1)
            elif frame is None:
                self.tracer.emit(
                    channel._slot_kind, t=now, state=state.value,
                    duration=duration,
                )
            else:
                self.tracer.emit(
                    channel._slot_kind, t=now, state=state.value,
                    duration=duration, source=frame.station_id,
                    msg=frame.message.msg_class.name,
                )
        return duration

    def _observe(
        self, observation: SlotObservation, state: ChannelState, winner: int
    ) -> None:
        """Shared transitions via the replica, private ones via the arrays."""
        replica = self.replica
        backend = self.backend
        pre_mode = replica.mode
        if (
            state is _COLLISION
            and pre_mode is DDCRMode.TTS
            and replica.tts.search.agenda[-1].is_leaf()
        ):
            # Time-leaf collision opens the nested static search: its
            # members are exactly this slot's offerers (also on corrupted
            # slots — the DES stations snapshot ``_offered`` the same way).
            backend.adopt_members()
        replica.observe(observation)
        if pre_mode is DDCRMode.STS:
            if state is _SUCCESS:
                # Ranked order is private: only the transmitter advances.
                backend.advance_cursor(winner)
            if replica.sts is None:
                backend.clear_members()

    # -- state write-back --------------------------------------------------

    def _writeback(self) -> None:
        """Project the kernel state back into every station's MAC.

        Restores the per-station replica invariant the rest of the system
        reads — end-of-run consumers (telemetry finalization, the
        search-length monitor, ``public_state`` assertions) and the DES
        itself on a mid-run rejoin.
        """
        replica = self.replica
        backend = self.backend
        tts_records = replica.tts_records
        sts_records = replica.sts_records
        for i, station in enumerate(self.stations):
            mac = station.mac
            mac.mode = replica.mode
            mac.reft = replica.reft
            mac.tts = _copy_tts(replica.tts)
            mac.sts = _copy_sts(replica.sts)
            mac._pending_leaf = replica._pending_leaf
            mac._sts_member = backend.member_of(i)
            mac._sts_cursor = backend.cursor_of(i)
            mac._offered = None
            mac._burst_owner = None
            mac._burst_budget = 0
            mac.tts_records = list(tts_records)
            mac.sts_records = list(sts_records)
            mac.empty_tts_runs = replica.empty_tts_runs

    # -- the loop ----------------------------------------------------------

    def run(self, horizon: int) -> None:
        """Run the round loop to ``horizon``, owning the clock.

        Mirrors the fast loop's contract: on return ``env.now == horizon``,
        and if a foreign event appears mid-run the kernel writes the MAC
        state back and rejoins the general DES after the current slot.
        """
        env = self.env
        channel = self.channel
        now = env.now
        while now < horizon:
            duration = self._round(int(now), horizon)
            if env.pending:
                self._writeback()
                env.process(channel._rejoin_des(
                    horizon, env.timeout(duration)
                ))
                env.run(until=horizon)
                return
            now += duration
            env.advance_to(now if now < horizon else horizon)
        self._writeback()
