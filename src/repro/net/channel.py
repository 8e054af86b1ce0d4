"""The slotted broadcast channel.

Each round the channel collects transmission offers from every station,
resolves the channel state (silence / success / collision), advances time
by the slot time (control slots) or the frame's physical transmission time
(successes, with carrier extension to the slot time on destructive media,
as in half-duplex Gigabit Ethernet), and feeds the identical
:class:`~repro.protocols.base.SlotObservation` back to every station — the
common-knowledge substrate all protocols rely on.

The round semantics live in one place — :class:`_RoundDriver` — and one
entry point turns the crank: :meth:`BroadcastChannel.run` reads the
ambient engine (:func:`~repro.net.engine.use_engine`, default ``batch``)
— the single place a run's engine is read — and runs one of two loops:

* the per-slot reference (``des``): :meth:`Environment.run
  <repro.sim.engine.Environment.run>` steps every round of the N
  channels that share a clock (a lone channel is N = 1), the one that
  starts first next, ties in registration order and then in the order
  the previous rounds ran.  It never leaps.
* the slot-synchronous loop (``batch``): one direct Python loop over the
  same channels that advances ``env.now`` itself and steps the channel
  whose round starts first, ties in the reference's order (kept in a
  small heap of next rounds when N > 1; a lone channel's only next
  round needs none).  On an eligible lone channel the struct-of-arrays
  kernel (:mod:`repro.net.batch`) is the station side of each round —
  per-station state lives in list columns and one shadow protocol
  replica digests each slot and each leapt stretch, so the per-slot
  cost is near-constant in the station count.  The kernel is limited to
  homogeneous single-bus CSMA/DDCR, CSMA/DCR or TDMA runs; on anything
  else (BEB, slotted ALOHA, consistency-checked runs and channels
  sharing a clock included) the loop runs every station's own replica
  (the fast loop) and the reason is returned (and kept on the run's
  result).  The loop crosses provably idle stretches in one step
  (:func:`_stretch_end` for each channel, jointly by :func:`_leap` when
  N > 1): every station's replica, on every channel, must say it is
  idle-steady, for as many slots as its queue lets it stay silent
  (``MACProtocol.idle_steady``: a queued DDCR message waiting for
  compressed time to pull it in, a BEB backoff), and each advances
  itself (``MACProtocol.leap_idle``); on consistency-checked runs
  lockstep is asserted at the stretch's first and last slot.  A jammed
  channel takes part in the same stretch once every replica on it is
  jam-steady (``MACProtocol.jam_steady``, ``leap_jammed``: DDCR stuck
  re-probing a static-tree leaf, where n jammed slots are n retries).

The kernel and the fast loop share one stretch rule: a stretch ends
at the horizon, the earliest pending arrival, a jam boundary, the end of
the least room a replica gives or the first slot the channel's noise
gate corrupts (its quiet run is drawn in one loop, the per-slot draws in
order, and that slot then runs as a corrupted round), and there is no
leap under an armed fault injector or a monitor that cannot digest idle
slots in one call (nor a jammed leap under one that cannot digest
jammed slots).  On a
shared clock the stretch ends at the earliest such end of any channel,
and noise keeps every channel stepping.  The ``des`` loop is always
per-slot: the reference.

Both engines draw from the same RNG in the same order, so their results
are byte-identical (the differential tests assert this).  The
channel also keeps slot-level accounting (how many slots of each kind,
payload bits delivered) and, when a flight recorder is armed, records
each busy slot as one ``channel/slot`` event, each run of silent slots
as one ``channel/idle`` event (:meth:`BroadcastChannel._trace_idle`)
and each run of jammed slots as one ``channel/jammed`` event
(:meth:`BroadcastChannel._trace_jammed`), so a recorder dump is the
same whether a stretch was leapt or stepped, on one channel or several
sharing a clock.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import random
import typing

from repro.net.engine import default_engine
from repro.net.frames import Frame
from repro.net.phy import MediumProfile
from repro.obs.context import current_tracer
from repro.obs.instruments import LATENCY_EDGES, NULL_TELEMETRY, Telemetry
from repro.obs.tracer import FlightRecorder
from repro.protocols.base import UNBOUNDED, ChannelState, SlotObservation
from repro.sim.engine import Environment

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.batch import BatchKernel
    from repro.net.station import Station

__all__ = ["BroadcastChannel", "ChannelStats"]

_SILENCE = ChannelState.SILENCE
_SUCCESS = ChannelState.SUCCESS
_COLLISION = ChannelState.COLLISION


@dataclasses.dataclass
class ChannelStats:
    """Slot-level accounting over a run."""

    silence_slots: int = 0
    collision_slots: int = 0
    successes: int = 0
    busy_time: int = 0
    idle_time: int = 0
    collision_time: int = 0
    payload_bits: int = 0
    corrupted_slots: int = 0
    jammed_slots: int = 0

    def utilization(self, elapsed: int) -> float:
        """Fraction of elapsed time spent delivering payload bits."""
        if elapsed <= 0:
            return 0.0
        return self.payload_bits / elapsed

    @property
    def rounds(self) -> int:
        return self.silence_slots + self.collision_slots + self.successes


class _RoundDriver:
    """One channel round, engine-independent, on an allocation diet.

    Built once per run: everything loop-invariant — the slot time, the
    armed noise gates, whether tracing/consistency checks/faults/monitors
    are on — is hoisted into slots here, so the fault-free per-round body
    allocates nothing beyond the :class:`SlotObservation` itself (and a
    Frame on successes).  Mutable run state (``jam_from``/``jam_until``,
    the station list object, stats) is still read through the channel
    each round, so mid-run changes keep working.

    Noise flows through one code path: the channel's legacy
    ``noise_rate`` kwarg and any fault-plan noise models all arm gate
    objects (:class:`repro.faults.runtime.BernoulliGate` /
    :class:`~repro.faults.runtime.GilbertElliottGate`) consulted in a
    fixed order on every non-jammed slot, so the RNG draw sequence — and
    hence byte-identity across engines — is a pure function of the run.

    The station side of a round is every station's own replica, or on a
    batch run the :class:`~repro.net.batch.BatchKernel` (``kernel``),
    which the driver asks at the five points where it would loop over the
    stations: who offers, digesting the observation, where an idle or a
    jammed stretch may end (:meth:`idle_end`, :meth:`jam_end`, which the
    kernel answers with the same signatures) and digesting a leapt
    stretch.  Everything else a round does — the jam and noise decision,
    slot booking, telemetry, monitors, the flight recorder — is the same
    code either way.
    """

    __slots__ = (
        "channel",
        "kernel",
        "stations",
        "stats",
        "slot_time",
        "transmission_time",
        "destructive",
        "noise_gates",
        "faults",
        "monitors",
        "check",
        "leap_ok",
        "jam_leap_ok",
        "telemetry",
        "telemetry_on",
        "tracer",
        "tracer_on",
        "ctr_silence",
        "ctr_success",
        "ctr_collision",
        "ctr_corrupted",
        "ctr_jammed",
        "ctr_noise_fires",
        "latency_hists",
    )

    def __init__(
        self, channel: "BroadcastChannel", kernel: "BatchKernel | None" = None
    ) -> None:
        self.channel = channel
        self.kernel = kernel
        #: The channel's live station list (not a copy): a station attached
        #: mid-run participates from its next round.
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
        self.faults = channel.faults
        if self.faults is not None:
            # Fault-plan gates are armed once on the injector and carry
            # their own state, so the driver a later ``run`` call builds
            # resumes them rather than resetting.
            gates.extend(self.faults.noise_gates)
        self.noise_gates = tuple(gates)
        self.monitors = channel.monitors
        self.check = channel.check_consistency
        # The fast loop crosses idle and jammed stretches on every
        # station's own replica (see :meth:`leap`); ``des`` never asks.
        self.leap_ok = channel._idle_leap_allowed()
        self.jam_leap_ok = self.leap_ok and (
            self.monitors is None or self.monitors.digests_jammed
        )
        # Telemetry instruments, hoisted once per driver build.  They are
        # fetched by name from the registry, so the driver a later
        # ``run`` call builds resumes the same counters.
        telemetry = channel.telemetry
        self.telemetry = telemetry
        self.telemetry_on = telemetry.enabled
        # Flight recorder, hoisted like the telemetry gate: zero per-round
        # cost when disabled (the common case).
        self.tracer = channel.tracer
        self.tracer_on = channel.tracer.enabled
        if self.telemetry_on:
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
            #: message-class name -> per-class latency histogram.
            self.latency_hists: dict[str, object] = {}

    def leap(self, now: int, end: int) -> int:
        """Cross the slots from ``now`` that start before ``end`` on every
        station's own replica; returns their duration.

        The slots are silent, or jammed if the slot at ``now`` is.  The
        caller (a lone channel's step, or :func:`_leap`) has checked by
        :func:`_stretch_end` that ``now < end`` and that
        every replica on its own says it is idle-steady or jam-steady
        for that many slots, so a replica that left the steady state
        alone keeps the slot per-slot, where the lockstep check sees
        it.  On checked runs the replicas digest the stretch's first
        slot, lockstep is asserted there, then they digest the rest and
        it is asserted at the last slot.  If the noise gate fires inside
        an idle stretch, the leap stops before that slot and runs it here
        as a corrupted round; a jammed slot draws no gate.
        """
        channel = self.channel
        slot_time = self.slot_time
        n = -(-(end - now) // slot_time)
        jammed = channel._jammed(now)
        fired = 0
        if self.noise_gates and not jammed:
            # A leaping channel has no fault injector
            # (:meth:`BroadcastChannel._idle_leap_allowed`), so its one gate
            # is its own ``noise_rate`` BernoulliGate: the per-slot draws,
            # with nothing on the wire, up to the first slot that fires.
            quiet = self.noise_gates[0].quiet_run(n)
            fired = int(quiet < n)
            n = quiet
        stop = now + n * slot_time
        if n:
            check = self.check
            first = 0
            if check:
                self._digest(jammed, 1, now + slot_time)
                channel._assert_lockstep(now)
                first = 1
            if n > first:
                self._digest(jammed, n - first, stop)
                if check:
                    channel._assert_lockstep(stop - slot_time)
            if jammed:
                channel._count_jammed(now, n)
            else:
                channel._count_idle(now, n)
        if fired:
            return n * slot_time + self.round(stop, fired)
        return n * slot_time

    def _digest(self, jammed: bool, n: int, end: int) -> None:
        """Advance every station's own replica, or the kernel's shadow
        replica, over ``n`` jammed or silent slots, the last ending at
        ``end``."""
        if self.kernel is not None:
            macs = [self.kernel.replica]
        else:
            macs = [station.mac for station in self.stations]
        for mac in macs:
            if jammed:
                mac.leap_jammed(n, end)
            else:
                mac.leap_idle(n, end)

    def idle_end(self, start: int, end: int) -> int | None:
        """Where an idle stretch from ``start`` may end, at ``end`` at the
        latest: at the earliest pending arrival or where the replica with
        the least room (:meth:`~repro.protocols.base.MACProtocol.idle_steady`,
        which a queued message may have) says.  ``None`` if a replica on
        its own says it is not idle-steady."""
        room = UNBOUNDED
        for station in self.stations:
            steady = station.mac.idle_steady()
            if not steady:
                return None
            if steady < room:
                room = steady
            arrival = station.peek_next_arrival()
            if arrival is not None and arrival < end:
                end = arrival
        return min(end, start + room * self.slot_time)

    def jam_end(self, start: int, end: int) -> int | None:
        """Where a jammed stretch from ``start`` may end, at ``end`` at
        the latest: at the earliest pending arrival or where the replica
        with the least room (:meth:`~repro.protocols.base.MACProtocol.jam_steady`)
        says.  ``None`` if a replica is not jam-steady; the queues do not
        matter."""
        room = UNBOUNDED
        for station in self.stations:
            steady = station.mac.jam_steady()
            if not steady:
                return None
            if steady < room:
                room = steady
            arrival = station.peek_next_arrival()
            if arrival is not None and arrival < end:
                end = arrival
        return min(end, start + room * self.slot_time)

    def round(self, now: int, fired: int = 0) -> int:
        """Run one channel round starting at ``now``; returns its duration.

        ``fired`` > 0 says an idle leap already consulted the noise gates
        for this slot and that many fired: the slot is corrupted without
        drawing them again.
        """
        channel = self.channel
        stations = self.stations
        stats = self.stats
        slot_time = self.slot_time
        faults = self.faults
        kernel = self.kernel
        down = None
        extra = None
        if kernel is not None:
            wire, transmitters = kernel.offers(now)
        elif faults is None:
            for station in stations:
                pending = station._pending_arrivals
                if pending and pending[0][0] <= now:
                    station.deliver_due(now)
            transmitters = []
            for station in stations:
                message = station.mac.offer(now)
                if message is not None:
                    transmitters.append((station, message))
            wire = len(transmitters)
        else:
            faults.begin_round(now)
            down = faults.down or None
            suppressed = faults.suppressed
            extra = faults.extra or None
            for station in stations:
                if down is not None and station.station_id in down:
                    continue  # crashed: arrivals keep pending
                pending = station._pending_arrivals
                if pending and pending[0][0] <= now:
                    station.deliver_due(now)
            transmitters = []
            for station in stations:
                sid = station.station_id
                if down is not None and sid in down:
                    continue
                message = station.mac.offer(now)
                if message is not None:
                    if suppressed and sid in suppressed:
                        # Clock drift: the offer never reached the wire.
                        station.mac.suppress_offer()
                    else:
                        transmitters.append((station, message))
            wire = len(transmitters)
            if extra is not None:
                wire += len(extra)
        jam_from = channel.jam_from
        jammed = jam_from is not None and now >= jam_from and (
            channel.jam_until is None or now < channel.jam_until
        )
        if jammed:
            corrupted = True
        elif self.noise_gates:
            if fired:
                # The idle leap drew this slot's gates (see :meth:`leap`).
                corrupted = True
                if self.telemetry_on:
                    self.ctr_noise_fires.inc(fired)
            else:
                # Every gate is consulted every slot (stateful chains
                # must advance even after the slot is already corrupt).
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
            # Common-mode corruption: everyone hears a collision; any
            # frame on the wire is destroyed (no completion).
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
            if kernel is not None:
                kernel.observe(observation)
            else:
                for station in stations:
                    if down is not None and station.station_id in down:
                        continue
                    station.mac.observe(observation)
            channel.observations += 1
            if self.monitors is not None:
                self.monitors.on_slot(
                    now, slot_time, _COLLISION, wire, None, True, jammed,
                    stations, down,
                )
            if self.tracer_on:
                if jammed:
                    channel._trace_jammed(now, 1)
                else:
                    self.tracer.emit(
                        channel._slot_kind, t=now, state="corrupted",
                        wire=wire,
                    )
            if self.check:
                channel._assert_lockstep(now)
            return slot_time
        if wire == 0:
            state = _SILENCE
            duration = slot_time
            frame = None
            stats.silence_slots += 1
            stats.idle_time += slot_time
        elif wire == 1:
            if transmitters:
                station, message = transmitters[0]
                frame = Frame(
                    station_id=station.station_id,
                    message=message,
                    burst_continue=station.mac.wants_burst_continuation(now),
                )
            else:
                # A lone babble frame: delivered as a foreign success the
                # conforming protocols must digest.
                frame = extra[0]
                message = frame.message
            state = _SUCCESS
            duration = self.transmission_time(message.length)
            if self.destructive and duration < slot_time:
                # Half-duplex GigE carrier extension: a frame occupies
                # at least one slot so collisions stay detectable.
                duration = slot_time
            stats.successes += 1
            stats.busy_time += duration
            stats.payload_bits += message.length
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
                # Per-class wire latency: completion (end of this slot)
                # minus arrival, recorded for every delivered frame.
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
        occupied = None
        if state is _COLLISION and not self.destructive and extra is None:
            # (A babbler cannot tag itself, so occupancy information is
            # withheld for slots its frames collide in — always safe.)
            tags = [
                station.mac.contention_tag(now)
                for station, _ in transmitters
            ]
            if all(tag is not None for tag in tags):
                occupied = frozenset(tags)
        observation = SlotObservation(
            state=state,
            start=now,
            duration=duration,
            frame=frame,
            occupied_children=occupied,
        )
        if kernel is not None:
            kernel.observe(observation)
        else:
            for station in stations:
                if down is not None and station.station_id in down:
                    continue
                station.mac.observe(observation)
        channel.observations += 1
        if self.monitors is not None:
            self.monitors.on_slot(
                now, duration, state, wire, frame, False, False,
                stations, down,
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
        if self.check:
            channel._assert_lockstep(now)
        return duration


def _stretch_end(driver: _RoundDriver, start: int, end: int) -> int | None:
    """Where the stretch of ``driver``'s channel from ``start`` may end, at
    ``end`` at the latest; ``None`` if its slot at ``start`` cannot be
    leapt.

    The one stretch rule of every leaping loop, a lone channel's step and
    the joint :func:`_leap` alike.  The slot at ``start`` is idle or
    jammed.  On an idle channel every replica must on its own say it is
    idle-steady, and the stretch ends where the replica with the least
    room (:meth:`~repro.protocols.base.MACProtocol.idle_steady`) says: a
    queued message may sit some slots out.  On a jammed channel every
    slot is a frameless collision that draws no noise, whatever is
    offered, so the queues do not matter: every replica must be
    jam-steady and the channel's monitors must digest jammed slots, and
    the stretch ends where the replica with the least room
    (:meth:`~repro.protocols.base.MACProtocol.jam_steady`) says.  The
    driver's station side answers both (``idle_end``, ``jam_end``):
    every station's own replica, or the batch kernel.  The stretch also
    ends at the earliest pending arrival and at a jam boundary
    (``jam_until`` of a jammed channel, ``jam_from`` of an idle one).
    """
    channel = driver.channel
    # The station side, asked here rather than bound on the driver: a
    # driver holding its own bound method is a reference cycle.
    side = driver.kernel or driver
    # An unjammed channel (the common case) costs one attribute load.
    jam_from = channel.jam_from
    if jam_from is not None and channel._jammed(start):
        if not driver.jam_leap_ok:
            return None
        end = side.jam_end(start, end)
        if end is not None and channel.jam_until is not None:
            end = min(end, channel.jam_until)
        return end
    end = side.idle_end(start, end)
    if end is not None and jam_from is not None:
        end = channel._idle_end(start, end)
    return end


def _leap(
    drivers: list[_RoundDriver],
    pending: list[tuple[int, int, int]],
    horizon: int,
    order: typing.Iterator[int],
) -> bool:
    """Cross the stretch all channels on one clock are in; returns
    whether there was one.

    Each channel's stretch ends by :func:`_stretch_end`; the joint one
    at the earliest horizon or end of any channel's stretch, and each
    channel leaps the slots that start before that end.
    ``pending`` gets each leapt channel's next round, in the order the
    per-slot reference (:meth:`Environment.run
    <repro.sim.engine.Environment.run>`) would have scheduled it: after
    every round already run, and among the leapt channels by the start
    of their last leapt round (it scheduled the next one), then by the
    later first leapt slot (at that slot the other channel's round was
    scheduled by a leapt round, this one's by a round run before the
    leap), then by the order before the leap.  Two channels whose next
    rounds start together have equal slots and last leapt rounds, or
    else the earlier last round ranks first, so this is the reference's
    order wherever it is ever consulted.
    """
    end = horizon
    for start, _, i in pending:
        end = _stretch_end(drivers[i], start, end)
        if end is None:
            return False
    pending.sort()
    if end <= pending[0][0]:
        return False
    leapt = []
    for index, (start, seq, i) in enumerate(pending):
        if start >= end:
            break
        duration = drivers[i].leap(start, end)
        last = start + duration - drivers[i].slot_time
        leapt.append(((last, -start, seq), index, i, start + duration))
    leapt.sort()
    for _, index, i, start in leapt:
        pending[index] = (start, next(order), i)
    heapq.heapify(pending)
    return True


class BroadcastChannel:
    """One shared broadcast medium and its attached stations."""

    def __init__(
        self,
        env: Environment,
        medium: MediumProfile,
        check_consistency: bool = False,
        noise_rate: float = 0.0,
        noise_seed: int = 0,
        noise_rng: random.Random | None = None,
        telemetry: Telemetry | None = None,
        telemetry_prefix: str = "",
        tracer: FlightRecorder | None = None,
    ) -> None:
        """``noise_rate`` injects *common-mode* slot corruption: with this
        per-slot probability a silence or success is garbled into a
        collision seen identically by every station (the frame, if any, is
        destroyed and must be retransmitted).  Common-mode corruption is
        the failure model under which deterministic broadcast protocols
        retain consistency — every replica digests the same bad slot.

        ``noise_rng`` supplies the corruption stream directly (the
        simulation layer passes a :class:`~repro.sim.rng.SeedSequenceRegistry`
        stream); when absent, one is derived from ``noise_seed`` if
        ``noise_rate`` is positive (a noiseless channel draws nothing).

        Internally ``noise_rate`` arms the same typed gate
        (:class:`repro.faults.runtime.BernoulliGate`) that fault plans
        use, so there is exactly one corruption code path; richer noise
        models (Gilbert–Elliott bursts) arrive via :attr:`faults`.

        ``telemetry`` is an :class:`~repro.obs.instruments.Telemetry`
        registry the round driver records slot-outcome counters and
        per-class latency histograms into (default: the shared
        :data:`~repro.obs.instruments.NULL_TELEMETRY`, zero-cost);
        ``telemetry_prefix`` namespaces instrument names, so a dual-bus
        topology can share one registry with per-bus instruments
        (``bus0/slots/...``).

        ``tracer`` is a :class:`~repro.obs.tracer.FlightRecorder` every
        engine records slot outcomes into (default: the ambient
        :func:`~repro.obs.context.current_tracer`, normally the disabled
        :data:`~repro.obs.tracer.NULL_TRACER`).  Picking up the ambient
        recorder at construction lets the SERVE-CHECK simulation parent
        its slot outcomes under a serve request's trace root without
        threading a parameter through every layer.  A non-empty
        ``telemetry_prefix`` prefixes the event kinds too
        (``bus0/channel/slot``), so one dump tells channels apart."""
        if not 0.0 <= noise_rate < 1.0:
            raise ValueError(f"noise_rate must be in [0, 1), got {noise_rate}")
        self.env = env
        self.medium = medium
        self.check_consistency = check_consistency
        self.noise_rate = noise_rate
        if noise_rng is None and noise_rate > 0.0:
            noise_rng = random.Random(noise_seed)
        self._noise_rng = noise_rng
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.telemetry_prefix = telemetry_prefix
        self.tracer = tracer if tracer is not None else current_tracer()
        self._slot_kind = f"{telemetry_prefix}channel/slot"
        self._idle_kind = f"{telemetry_prefix}channel/idle"
        self._jammed_kind = f"{telemetry_prefix}channel/jammed"
        #: The ``channel/idle`` event this channel's silent slots extend
        #: (see :meth:`_trace_idle`), and the ``channel/jammed`` one its
        #: jammed slots extend (:meth:`_trace_jammed`).
        self._idle_run = None
        self._jam_run = None
        self.stations: list["Station"] = []
        self.stats = ChannelStats()
        self.observations: int = 0
        #: When set, the bus is *jammed* from this time on: every slot is
        #: observed as a collision (broken termination / babbling idiot).
        #: The dual-bus layer uses this to model a bus failure;
        #: ``jam_until`` optionally ends the jam window (fault plans model
        #: transient jams this way).
        self.jam_from: int | None = None
        self.jam_until: int | None = None
        #: An armed :class:`~repro.faults.runtime.FaultInjector`, or None.
        #: Set by the simulation layer (or tests) after stations attach and
        #: the injector's :meth:`~repro.faults.runtime.FaultInjector.arm`
        #: ran against this channel.
        self.faults = None
        #: A :class:`~repro.sim.invariants.MonitorSuite`, or None.  Every
        #: engine feeds it every slot (a leapt idle stretch through
        #: :meth:`~repro.sim.invariants.MonitorSuite.on_idle`).
        self.monitors = None

    def attach(self, station: "Station") -> None:
        if any(s.station_id == station.station_id for s in self.stations):
            raise ValueError(f"duplicate station id {station.station_id}")
        self.stations.append(station)

    def _check_runnable(self, horizon: int) -> None:
        if horizon < 0:
            raise ValueError(f"horizon must be >= 0, got {horizon}")
        if horizon < self.env.now:
            raise ValueError(
                f"horizon={horizon} is before the clock (now={self.env.now})"
            )
        if not self.stations:
            raise RuntimeError("channel has no stations attached")

    def run(
        self,
        horizon: int,
        *,
        peers: typing.Sequence["BroadcastChannel"] = (),
    ) -> str | None:
        """Run the round loop to ``horizon`` bit-times; returns a fallback note.

        The one entry point behind which both engines sit.  The engine is
        the ambient :func:`~repro.net.engine.use_engine` scope's,
        ``batch`` outside any, read here and nowhere else.  A horizon
        before the clock is a ``ValueError`` on every engine.

        ``peers`` are further channels on this channel's environment: the
        channels that share one clock (a dual bus) run together.  Rounds
        starting at the same time run in registration order (this
        channel, then ``peers`` in order), then in the order their
        previous rounds ran.

        * ``"des"`` steps every round of every channel on
          :meth:`Environment.run <repro.sim.engine.Environment.run>`, the
          per-slot reference.
        * ``"batch"`` runs the struct-of-arrays kernel, delegating to the
          fast loop on structurally ineligible runs (channels sharing a
          clock among them).

        The return value is ``None`` except when the kernel did not run:
        then it is ``"batch engine unavailable (<reason>): ran fastloop"``
        (the simulation layer keeps it on its result as
        ``engine_fallback``).  Results are byte-identical across engines
        either way.
        """
        engine_name = default_engine()
        channels = (self, *peers)
        for channel in channels:
            if channel.env is not self.env:
                raise ValueError("channels sharing a clock need one environment")
            channel._check_runnable(horizon)
        if engine_name == "des":
            self.env.run(
                horizon, [_RoundDriver(channel).round for channel in channels]
            )
            return None
        return self._run_batch(horizon, channels)

    def _run_fast(
        self,
        horizon: int,
        channels: tuple["BroadcastChannel", ...],
        kernel: "BatchKernel | None" = None,
    ) -> None:
        """Run ``channels`` (this one first) to ``horizon`` as one direct
        loop owning their shared clock; ``kernel`` is the lone channel's
        station side on a batch run (:meth:`BatchKernel.run
        <repro.net.batch.BatchKernel.run>`), whose state is written back
        into every station's MAC at the end.

        The slot-loop fast path: the loop steps the channel whose round
        starts first, ties broken in the per-slot reference's schedule
        order (registration order, then the order in which rounds ran,
        kept in a heap of ``(start, order, index)``), and advances
        ``env.now`` itself, once per step.  A lone channel (``N = 1``)
        keeps no heap: its next round is the only one pending, so each
        step runs the stretch or the round from ``now`` and moves the
        clock by its duration.

        Stretches are crossed by one rule (:func:`_stretch_end`): only
        while every station of every channel has an idle-steady
        replica, or on a jammed channel a jam-steady one, and each
        channel leaps the slots that start before the earliest horizon,
        pending arrival, jam boundary or end of a replica's room of any
        channel (:func:`_leap` when ``N > 1``).  Noise keeps the leap on
        a lone channel only: a gate fired on one channel would end the
        other channels' trace runs mid-stretch, so noisy channels sharing
        a clock step every slot.  On return, ``env.now == horizon``, as
        after :meth:`Environment.run <repro.sim.engine.Environment.run>`.
        """
        env = self.env
        drivers = [_RoundDriver(channel, kernel) for channel in channels]
        leap_ok = all(driver.leap_ok for driver in drivers) and (
            len(drivers) == 1
            or not any(driver.noise_gates for driver in drivers)
        )
        now = env.now
        if len(drivers) == 1:
            # A lone channel's next round is the only one pending: each
            # step runs the round or the stretch from ``now``, no heap.
            driver = drivers[0]
            round_ = driver.round
            while now < horizon:
                end = _stretch_end(driver, now, horizon) if leap_ok else None
                if end is not None and end > now:
                    now += driver.leap(now, end)
                else:
                    now += round_(now)
                env.advance_to(now if now < horizon else horizon)
        else:
            # One (next round start, schedule order, channel index) per
            # channel, as a heap: the per-slot reference's order.
            pending = [(now, i, i) for i in range(len(drivers))]
            order = itertools.count(len(drivers))
            rounds = [driver.round for driver in drivers]
            while now < horizon:
                if not (leap_ok and _leap(drivers, pending, horizon, order)):
                    i = pending[0][2]
                    duration = rounds[i](now)
                    heapq.heapreplace(
                        pending, (now + duration, next(order), i)
                    )
                now = pending[0][0]
                env.advance_to(now if now < horizon else horizon)
        if kernel is not None:
            kernel.writeback()

    def _run_batch(
        self, horizon: int, channels: tuple["BroadcastChannel", ...]
    ) -> str | None:
        """Run ``channels`` (this one first) to ``horizon`` on the batch
        kernel; returns a fallback note.

        Structural eligibility is decided up front: channels sharing a
        clock, or a lone channel
        :func:`repro.net.batch.batch_unavailable_reason` refuses, run on
        the fast loop — behavior-identical, just slower — and the reason
        is returned so callers can surface it (the simulation layer
        keeps it on its result as ``engine_fallback``).  Eligible
        runs return ``None``.  Either way the result is byte-identical to
        the ``des`` reference's.
        """
        from repro.net.batch import BatchKernel, batch_unavailable_reason

        reason = (
            f"{len(channels)} channels share one clock"
            if len(channels) > 1
            else batch_unavailable_reason(self)
        )
        if reason is not None:
            self._run_fast(horizon, channels)
            return f"batch engine unavailable ({reason}): ran fastloop"
        BatchKernel(self).run(horizon)
        return None

    # -- the idle-stretch rule, shared by the kernel and the fast loop ------

    def _idle_leap_allowed(self) -> bool:
        """Whether nothing on this channel must see idle slots one by one.

        No armed fault injector, and only monitors that digest an idle
        stretch in one ``on_idle`` call
        (:attr:`~repro.sim.invariants.MonitorSuite.digests_idle`).  A
        jammed stretch needs this and monitors that digest it in one
        ``on_jammed`` call too (``_RoundDriver.jam_leap_ok``).
        Noise does not count: a leap draws the channel's gate slot by
        slot and stops at the first slot where it fires
        (:meth:`~repro.faults.runtime.BernoulliGate.quiet_run`).  Nor
        does an armed flight recorder: it records a stretch as one event
        (:meth:`_trace_idle`).
        """
        monitors = self.monitors
        return self.faults is None and (
            monitors is None or monitors.digests_idle
        )

    def _jammed(self, now: int) -> bool:
        """Is the slot starting at ``now`` inside the jam window?"""
        jam_from = self.jam_from
        return jam_from is not None and now >= jam_from and (
            self.jam_until is None or now < self.jam_until
        )

    def _idle_end(self, now: int, end: int) -> int:
        """Where an idle stretch from ``now`` ends, at ``end`` at the
        latest: at this channel's jam boundary, and at ``now`` itself if
        this slot is jammed (a jammed slot is never idle)."""
        jam_from = self.jam_from
        if jam_from is not None:
            if now < jam_from:
                return min(end, jam_from)
            if self.jam_until is None or now < self.jam_until:
                return min(end, now)
        return end

    def _count_idle(self, now: int, n: int) -> None:
        """Book ``n`` silent slots from ``now`` as ``n`` rounds would:
        stats, observations, the silence counter, the monitors (told
        whether a queue holds a message through the stretch, as no
        arrival or completion falls inside it) and the flight
        recorder."""
        slot_time = self.medium.slot_time
        stats = self.stats
        stats.silence_slots += n
        stats.idle_time += n * slot_time
        self.observations += n
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.counter(f"{self.telemetry_prefix}slots/silence").inc(n)
        if self.monitors is not None:
            backlogged = any(station.queue for station in self.stations)
            self.monitors.on_idle(now, n, slot_time, backlogged)
        if self.tracer.enabled:
            self._trace_idle(now, n)

    def _count_jammed(self, now: int, n: int) -> None:
        """Book ``n`` jammed slots from ``now`` as ``n`` rounds would:
        stats, observations, the collision and jammed counters, the
        monitors and the flight recorder."""
        slot_time = self.medium.slot_time
        stats = self.stats
        stats.jammed_slots += n
        stats.collision_slots += n
        stats.collision_time += n * slot_time
        self.observations += n
        telemetry = self.telemetry
        if telemetry.enabled:
            prefix = self.telemetry_prefix
            telemetry.counter(f"{prefix}slots/collision").inc(n)
            telemetry.counter(f"{prefix}slots/jammed").inc(n)
        if self.monitors is not None:
            self.monitors.on_jammed(now, n, slot_time)
        if self.tracer.enabled:
            self._trace_jammed(now, n)

    def _trace_idle(self, now: int, n: int) -> None:
        """Record ``n`` silent slots from ``now`` in the flight recorder.

        The one rule every engine's per-slot silent branch and idle leap
        calls: a run of silent slots is one ``channel/idle`` event (start
        ``t``, count ``n``, slot length ``slot``), and later silent slots
        of this channel extend it for as long as nothing but other
        channels' runs has been recorded
        (:meth:`~repro.obs.tracer.FlightRecorder.coalesce`).  Runs never
        end one another, so this channel's own jammed run ends here: a
        later jammed slot starts a new one.
        """
        self._jam_run = None
        self._idle_run = self.tracer.coalesce(
            self._idle_run, self._idle_kind, n,
            t=now, slot=self.medium.slot_time,
        )

    def _trace_jammed(self, now: int, n: int) -> None:
        """Record ``n`` jammed slots from ``now`` in the flight recorder:
        one ``channel/jammed`` event per run (``t``, ``n``, ``slot``),
        by the rule of :meth:`_trace_idle`, which it mirrors (this
        channel's idle run ends here)."""
        self._idle_run = None
        self._jam_run = self.tracer.coalesce(
            self._jam_run, self._jammed_kind, n,
            t=now, slot=self.medium.slot_time,
        )

    def _assert_lockstep(self, now: int) -> None:
        """All stations running the same protocol class must agree on the
        common-knowledge part of their state.

        Stations that ever crashed are exempt: a fail-stop station misses
        observations while down and rejoins as a newcomer, so its replica
        state legitimately diverges from the survivors' (the mutual
        exclusion and deadline monitors still hold it to account)."""
        desynced = (
            self.faults.desynced if self.faults is not None else ()
        )
        by_type: dict[type, tuple[object, ...]] = {}
        for station in self.stations:
            if desynced and station.station_id in desynced:
                continue
            key = station.mac.public_state()
            mac_type = type(station.mac)
            if mac_type in by_type and by_type[mac_type] != key:
                raise AssertionError(
                    f"t={now}: stations disagree on shared "
                    f"{mac_type.__name__} state:\n"
                    f"  {by_type[mac_type]}\n  {key}"
                )
            by_type[mac_type] = key
