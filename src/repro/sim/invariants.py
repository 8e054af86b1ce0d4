"""Online invariant monitors: the paper's proved properties as oracles.

The correctness results of the paper — mutual exclusion on the broadcast
bus, deadline compliance under the feasibility condition FC (theorems
P5/P6), and the bounded collision-resolution cost ``xi(k, t)`` of Eq. 1 —
are turned here into *online monitors* hooked into the channel round loop.
Each monitor watches every slot (under either engine: the round driver is
engine-independent, and the ``batch`` loop digests idle and jammed
stretches through ``on_idle`` and ``on_jammed``, which leave a monitor
exactly as per-slot calls would — so violation reports are byte-identical
across ``des`` and ``batch``) and
records structured :class:`Violation` entries instead of silently
passing; the aggregated :class:`InvariantReport` is attached to
:class:`~repro.net.network.RunResult`.

Monitor-to-theorem mapping:

* :class:`MutualExclusionMonitor` — safety: a slot is observed SUCCESS iff
  exactly one uncorrupted frame was on the wire; corrupted slots must
  read COLLISION and deliver nothing.
* :class:`DeadlineMonitor` — timeliness (P5/P6): no message completes
  after its absolute deadline ``DM = T + d``, and no past-due message is
  still queued at the horizon.  Only meaningful when the caller knows the
  workload satisfies FC (:func:`repro.core.feasibility.check_feasibility`)
  and the fault plan stays within the ``a/w`` bound — an overload plan is
  *expected* to trip it (that is the oracle's negative test).
* :class:`WorkConservationMonitor` — the channel never idles for more
  than a threshold of consecutive slots while some live station has a
  queued message (DDCR's compressed time pulls any waiting class to the
  frontier at theta(c) per empty run, so legitimate idle streaks are
  bounded by ``d/c``-scale slot counts).
* :class:`SearchLengthMonitor` — Eq. 1: no run of consecutive genuine
  collisions exceeds a full time-tree + static-tree descent
  (:meth:`DDCRConfig.collision_run_bound`), and on corruption-free runs
  every completed TTs/STs record stays within its ``xi``-based slot
  budget from :mod:`repro.core.search_cost`.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.protocols.base import ChannelState

if typing.TYPE_CHECKING:  # pragma: no cover - layering guard
    from repro.net.frames import Frame
    from repro.net.station import Station
    from repro.protocols.ddcr.config import DDCRConfig

__all__ = [
    "BridgeConservationMonitor",
    "DeadlineMonitor",
    "InvariantMonitor",
    "InvariantReport",
    "MonitorSuite",
    "MutualExclusionMonitor",
    "SearchLengthMonitor",
    "Violation",
    "WorkConservationMonitor",
    "standard_suite",
]

_SILENCE = ChannelState.SILENCE
_SUCCESS = ChannelState.SUCCESS
_COLLISION = ChannelState.COLLISION

#: Per-monitor cap on stored violations; further ones are counted, not kept.
MAX_VIOLATIONS_PER_MONITOR = 100


@dataclasses.dataclass(frozen=True, slots=True)
class Violation:
    """One observed breach of a proved property.

    ``details`` is a sorted tuple of ``(key, value)`` pairs so reports are
    deterministic, hashable and picklable — the engine-differential tests
    compare them byte-for-byte.
    """

    invariant: str
    time: int
    message: str
    details: tuple[tuple[str, object], ...] = ()

    def detail(self, key: str) -> object:
        for name, value in self.details:
            if name == key:
                return value
        raise KeyError(key)


def _details(**kwargs: object) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(kwargs.items()))


@dataclasses.dataclass(frozen=True, slots=True)
class InvariantReport:
    """Aggregated monitor output for one run."""

    violations: tuple[Violation, ...]
    slots_checked: int
    monitors: tuple[str, ...]
    #: Violations beyond the per-monitor cap, by invariant name.
    truncated: tuple[tuple[str, int], ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def total_violations(self) -> int:
        return len(self.violations) + sum(n for _, n in self.truncated)

    def by_invariant(self, name: str) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.invariant == name)

    def summary(self) -> str:
        if self.ok:
            return (
                f"invariants ok ({', '.join(self.monitors)}; "
                f"{self.slots_checked} slots)"
            )
        counts: dict[str, int] = {}
        for violation in self.violations:
            counts[violation.invariant] = counts.get(violation.invariant, 0) + 1
        for name, extra in self.truncated:
            counts[name] = counts.get(name, 0) + extra
        rendered = ", ".join(
            f"{name}: {count}" for name, count in sorted(counts.items())
        )
        return f"INVARIANT VIOLATIONS ({rendered})"


class InvariantMonitor:
    """Base class: per-slot hook plus an end-of-run pass."""

    name = "invariant"

    def __init__(self) -> None:
        self.violations: list[Violation] = []
        self.dropped = 0

    def record(self, time: int, message: str, **details: object) -> None:
        if len(self.violations) >= MAX_VIOLATIONS_PER_MONITOR:
            self.dropped += 1
            return
        self.violations.append(
            Violation(
                invariant=self.name,
                time=time,
                message=message,
                details=_details(**details),
            )
        )

    def on_slot(
        self,
        now: int,
        duration: int,
        state: ChannelState,
        wire: int,
        frame: "Frame | None",
        corrupted: bool,
        jammed: bool,
        stations: list["Station"],
        down: set[int] | None,
    ) -> None:
        """Digest one channel round.  ``wire`` counts frames on the wire
        (real transmitters plus injected babble frames)."""

    def on_idle(
        self, now: int, n: int, slot_time: int, backlogged: bool
    ) -> None:
        """Digest ``n`` consecutive idle slots in O(1), the first at ``now``.

        The slots are silent, uncorrupted and unjammed, no station is
        down, and nothing arrives or completes inside them, so whether
        some queue holds a message (``backlogged``: a queued message
        sitting the stretch out) is the same at every slot; afterwards
        the monitor must be exactly as ``n`` calls of :meth:`on_slot`
        would leave it.  The ``batch`` loop leaps such stretches only when
        every armed monitor's ``on_idle`` comes from the same class as its
        ``on_slot`` (or a subclass of it), so a monitor that overrides
        ``on_slot`` alone keeps per-slot execution.
        """

    def on_jammed(self, now: int, n: int, slot_time: int) -> None:
        """Digest ``n`` consecutive jammed slots in O(1), the first at
        ``now``.

        Each is a frameless collision that the jam corrupted; afterwards
        the monitor must be exactly as ``n`` calls of :meth:`on_slot`
        with ``corrupted`` and ``jammed`` set would leave it, whatever
        was on the wire.  The ``batch`` loop leaps a jammed stretch only when
        every armed monitor's ``on_jammed`` comes from the class that
        defines its ``on_slot`` or a subclass of it, as for
        :meth:`on_idle`.
        """

    def finalize(
        self,
        horizon: int,
        stations: list["Station"],
        down: set[int] | None,
    ) -> None:
        """End-of-run checks (backlog, per-run records)."""


def _digests(monitor: InvariantMonitor, hook: str) -> bool:
    """True when ``monitor``'s stretch hook ``hook`` (``on_idle``,
    ``on_jammed``) summarises its own ``on_slot``."""
    mro = type(monitor).__mro__
    hook_owner = next(cls for cls in mro if hook in vars(cls))
    slot_owner = next(cls for cls in mro if "on_slot" in vars(cls))
    return issubclass(hook_owner, slot_owner)


class MutualExclusionMonitor(InvariantMonitor):
    """Safety: at most one successful transmitter per slot, and the
    observed channel state is exactly the resolution of the wire."""

    name = "mutual_exclusion"

    def on_slot(
        self, now, duration, state, wire, frame, corrupted, jammed,
        stations, down,
    ) -> None:
        if corrupted:
            if state is not _COLLISION:
                self.record(
                    now,
                    "corrupted slot not observed as collision",
                    state=state.value,
                )
            if frame is not None:
                self.record(
                    now,
                    "frame delivered on a corrupted slot",
                    station=frame.station_id,
                )
            return
        if state is _SUCCESS:
            if wire != 1:
                self.record(
                    now,
                    f"success observed with {wire} transmitters on the wire",
                    wire=wire,
                )
            if frame is None:
                self.record(now, "success observed without a frame")
        elif state is _SILENCE:
            if wire != 0:
                self.record(
                    now,
                    f"silence observed with {wire} transmitters on the wire",
                    wire=wire,
                )
        else:
            if wire < 2:
                self.record(
                    now,
                    f"collision observed with {wire} transmitters on an "
                    "uncorrupted slot",
                    wire=wire,
                )

    def on_idle(self, now, n, slot_time, backlogged) -> None:
        pass  # silence with nothing on the wire is the resolution

    def on_jammed(self, now, n, slot_time) -> None:
        pass  # a frameless collision is a jammed slot's own resolution


class DeadlineMonitor(InvariantMonitor):
    """Timeliness (P5/P6): no completion past its absolute deadline, no
    past-due backlog at the horizon.  Arm only when FC is expected to
    hold and the fault plan stays within the declared ``a/w`` bounds."""

    name = "deadline"

    def on_slot(
        self, now, duration, state, wire, frame, corrupted, jammed,
        stations, down,
    ) -> None:
        if corrupted or state is not _SUCCESS or frame is None:
            return
        if frame.station_id < 0:
            return  # babble frames carry no real deadline
        end = now + duration
        message = frame.message
        if end > message.absolute_deadline:
            self.record(
                now,
                f"message completed {end - message.absolute_deadline} "
                "bit-times past its deadline",
                station=frame.station_id,
                msg_class=message.msg_class.name,
                deadline=message.absolute_deadline,
                completion=end,
            )

    def on_idle(self, now, n, slot_time, backlogged) -> None:
        pass  # nothing completes on a silent slot

    def finalize(self, horizon, stations, down) -> None:
        for station in stations:
            for message in station.backlog():
                if message.absolute_deadline < horizon:
                    self.record(
                        horizon,
                        "past-due message still queued at the horizon",
                        station=station.station_id,
                        msg_class=message.msg_class.name,
                        deadline=message.absolute_deadline,
                    )


class WorkConservationMonitor(InvariantMonitor):
    """The channel must not idle indefinitely while work is queued.

    ``limit`` is the longest tolerated run of consecutive silent slots
    with a non-empty queue on some *live* (not crashed) station.  DDCR's
    compressed time advances ``reft`` by theta(c) per empty run, so any
    queued message's deadline class reaches the covered horizon within
    ``~d/c`` slots; the default limit in :func:`standard_suite` is sized
    from the configuration with generous slack."""

    name = "work_conservation"

    def __init__(self, limit: int) -> None:
        super().__init__()
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.limit = limit
        self._streak = 0
        self._streak_started = 0
        self._reported = False

    def on_slot(
        self, now, duration, state, wire, frame, corrupted, jammed,
        stations, down,
    ) -> None:
        if state is _SILENCE and not corrupted:
            backlogged = False
            if down:
                for station in stations:
                    if station.station_id not in down and station.queue:
                        backlogged = True
                        break
            else:
                for station in stations:
                    if station.queue:
                        backlogged = True
                        break
            if backlogged:
                if self._streak == 0:
                    self._streak_started = now
                self._streak += 1
                if self._streak > self.limit and not self._reported:
                    self._reported = True
                    self.record(
                        now,
                        f"channel idle for {self._streak} consecutive slots "
                        "with queued messages",
                        since=self._streak_started,
                        limit=self.limit,
                    )
                return
        self._streak = 0
        self._reported = False

    def on_idle(self, now, n, slot_time, backlogged) -> None:
        if not backlogged:
            self._streak = 0
            self._reported = False
            return
        # Every slot of the stretch is backlogged: the streak grows by n,
        # and the slot that takes it past the limit reports, as on_slot
        # would there.
        streak = self._streak
        if streak == 0:
            self._streak_started = now
        self._streak = streak + n
        if self._streak > self.limit and not self._reported:
            self._reported = True
            crossing = max(self.limit + 1 - streak, 1)
            self.record(
                now + (crossing - 1) * slot_time,
                f"channel idle for {streak + crossing} consecutive slots "
                "with queued messages",
                since=self._streak_started,
                limit=self.limit,
            )


class SearchLengthMonitor(InvariantMonitor):
    """Eq. 1: collision resolution terminates within the ``xi`` budget.

    Online: a run of consecutive *genuine* (uncorrupted) collision slots
    longer than a full time-tree + static-tree descent means the search
    is not converging.  At finalize, on corruption- and desync-free runs,
    every completed TTs/STs record is checked against its analytic slot
    budget (``xi``/:func:`~repro.core.search_cost.heavy_search_bound`,
    plus ``margin`` slack for arrivals that move ``msg*`` mid-search)."""

    name = "search_length"

    def __init__(self, config: "DDCRConfig", margin: int = 8) -> None:
        super().__init__()
        self.config = config
        self.margin = margin
        self._collision_bound = config.collision_run_bound(margin)
        self._streak = 0
        self._streak_started = 0
        self._reported = False
        self._tainted = False  # corruption or desync seen: skip record checks

    def on_slot(
        self, now, duration, state, wire, frame, corrupted, jammed,
        stations, down,
    ) -> None:
        if corrupted or down or (frame is not None and frame.station_id < 0):
            self._tainted = True
        if state is _COLLISION:
            if corrupted:
                return  # excused: does not reset or extend the genuine run
            if self._streak == 0:
                self._streak_started = now
            self._streak += 1
            if self._streak > self._collision_bound and not self._reported:
                self._reported = True
                self.record(
                    now,
                    f"{self._streak} consecutive genuine collisions exceed "
                    f"the descent bound {self._collision_bound}",
                    since=self._streak_started,
                    bound=self._collision_bound,
                )
            return
        self._streak = 0
        self._reported = False

    def on_idle(self, now, n, slot_time, backlogged) -> None:
        # Silence ends any collision run; nothing corrupted or babbled.
        self._streak = 0
        self._reported = False

    def finalize(self, horizon, stations, down) -> None:
        if self._tainted:
            return
        from repro.core.search_cost import exact_cost_table, heavy_search_bound

        config = self.config
        sts_budget = (
            1
            + max(exact_cost_table(config.static_m, config.static_q).costs)
            + self.margin
        )
        for station in stations:
            mac = station.mac
            for rec in getattr(mac, "sts_records", ()):
                if rec.wasted_slots > sts_budget:
                    self.record(
                        rec.ended_at,
                        f"STs run wasted {rec.wasted_slots} slots, "
                        f"budget {sts_budget}",
                        station=station.station_id,
                        started=rec.started_at,
                        wasted=rec.wasted_slots,
                        budget=sts_budget,
                    )
            for rec in getattr(mac, "tts_records", ()):
                budget = (
                    heavy_search_bound(
                        rec.successes,
                        rec.nested_sts_runs,
                        config.time_f,
                        config.time_m,
                    )
                    + self.margin
                )
                if rec.wasted_slots > budget:
                    self.record(
                        rec.ended_at,
                        f"TTs run wasted {rec.wasted_slots} slots, "
                        f"budget {budget}",
                        station=station.station_id,
                        started=rec.started_at,
                        wasted=rec.wasted_slots,
                        budget=budget,
                    )
            # Records are identical replicas across stations in lockstep;
            # checking every station is O(z * runs) but catches replica
            # divergence for free.  (Stations that crashed taint the run.)


class BridgeConservationMonitor(InvariantMonitor):
    """Store-and-forward correctness of one fabric bridge.

    The fabric (:mod:`repro.net.fabric`) stages segment runs: a bridge's
    enqueue schedule — which relayed frame becomes ready on the target
    segment at which time — is fully known before the target segment
    runs, so this monitor checks the bridge's three properties *online*
    against that schedule, on the target segment's channel:

    * **no loss** — every enqueued frame is forwarded, still queued, or
      still pending at the horizon (drops across a bridge are loss and
      are reported);
    * **per-class FIFO** — relayed frames of one class leave the bridge
      in enqueue order (the EDF queue tie-breaks by (arrival, seq), so
      a healthy bridge can never reorder within a class);
    * **bounded queue** — instantaneous occupancy (entered minus
      forwarded) never exceeds the declared capacity.  Violations are
      reported, not silently dropped: at FC-feasible loads the composed
      route bound keeps occupancy low, and past it an oracle violation
      is the honest outcome.
    """

    name = "bridge_conservation"

    def __init__(
        self,
        bridge: str,
        station_id: int,
        schedule: typing.Mapping[str, typing.Sequence[int]],
        capacity: int,
    ) -> None:
        super().__init__()
        self.bridge = bridge
        self.station_id = station_id
        self.capacity = capacity
        self._expected = {
            name: tuple(times) for name, times in sorted(schedule.items())
        }
        self._cursor = {name: 0 for name in self._expected}
        self._entries = sorted(
            t for times in self._expected.values() for t in times
        )
        self._entered = 0
        self._forwarded = 0
        self._over_reported = False

    def _enter(self, now: int) -> None:
        """Count every journal entry at or before ``now`` as enqueued."""
        entries = self._entries
        n = self._entered
        while n < len(entries) and entries[n] <= now:
            n += 1
        self._entered = n

    def _check_occupancy(self, now: int) -> None:
        occupancy = self._entered - self._forwarded
        if occupancy > self.capacity:
            if not self._over_reported:
                self._over_reported = True
                self.record(
                    now,
                    f"bridge queue occupancy {occupancy} exceeds capacity "
                    f"{self.capacity}",
                    bridge=self.bridge,
                    occupancy=occupancy,
                    capacity=self.capacity,
                )
        else:
            self._over_reported = False

    def on_slot(
        self, now, duration, state, wire, frame, corrupted, jammed,
        stations, down,
    ) -> None:
        self._enter(now)
        if (
            state is _SUCCESS
            and frame is not None
            and frame.station_id == self.station_id
        ):
            message = frame.message
            name = message.msg_class.name
            expected = self._expected.get(name)
            if expected is not None:
                i = self._cursor[name]
                if i >= len(expected):
                    self.record(
                        now,
                        "bridge forwarded a frame it never enqueued",
                        bridge=self.bridge,
                        msg_class=name,
                        arrival=message.arrival,
                    )
                elif expected[i] != message.arrival:
                    self.record(
                        now,
                        "bridge forwarded out of enqueue (FIFO) order",
                        bridge=self.bridge,
                        msg_class=name,
                        expected=expected[i],
                        forwarded=message.arrival,
                    )
                    # Resync past the frame actually forwarded, if known.
                    try:
                        j = expected.index(message.arrival, i)
                    except ValueError:
                        j = i - 1
                    self._cursor[name] = max(i, j + 1)
                else:
                    self._cursor[name] = i + 1
                self._forwarded += 1
        self._check_occupancy(now)

    def on_idle(self, now, n, slot_time, backlogged) -> None:
        # Nothing is forwarded, so occupancy only changes at the slots
        # that count a new journal entry: apply the per-slot rule at the
        # first slot and at each of those; in between it is a no-op.
        self._enter(now)
        self._check_occupancy(now)
        last = now + (n - 1) * slot_time
        entries = self._entries
        while self._entered < len(entries) and entries[self._entered] <= last:
            # The entry counts at the first slot starting at or after it.
            slots = -((now - entries[self._entered]) // slot_time)
            self._enter(now + slots * slot_time)
            self._check_occupancy(now + slots * slot_time)

    def finalize(self, horizon, stations, down) -> None:
        station = None
        for candidate in stations:
            if candidate.station_id == self.station_id:
                station = candidate
                break
        if station is None:
            self.record(
                horizon,
                "bridge station absent from the target segment",
                bridge=self.bridge,
                station=self.station_id,
            )
            return
        relay_names = set(self._expected)
        expected_total = sum(1 for t in self._entries if t < horizon)
        backlog = sum(
            1 for m in station.backlog() if m.msg_class.name in relay_names
        )
        pending = station.pending_arrivals_of(relay_names)
        dropped = sum(
            1
            for record in station.completions
            if record.dropped and record.message.msg_class.name in relay_names
        )
        if dropped:
            self.record(
                horizon,
                f"bridge dropped {dropped} relayed frames",
                bridge=self.bridge,
                dropped=dropped,
            )
        accounted = self._forwarded + backlog + pending + dropped
        if accounted != expected_total:
            self.record(
                horizon,
                f"bridge frame conservation broken: enqueued "
                f"{expected_total}, accounted {accounted}",
                bridge=self.bridge,
                enqueued=expected_total,
                forwarded=self._forwarded,
                backlog=backlog,
                pending=pending,
                dropped=dropped,
            )


class MonitorSuite:
    """The set of monitors armed on one channel.

    The round driver calls :meth:`on_slot` exactly once per round — on
    both the corrupted early-return path and the normal resolution path —
    under either engine; the ``batch`` loop may instead hand a stretch of
    idle slots to :meth:`on_idle` in one call when :attr:`digests_idle`
    holds, and a stretch of jammed slots to :meth:`on_jammed` when
    :attr:`digests_jammed` holds.  Either way a suite's report is an
    engine-independent function of the run."""

    __slots__ = ("monitors", "slots_checked", "digests_idle", "digests_jammed")

    def __init__(self, monitors: typing.Sequence[InvariantMonitor]) -> None:
        if not monitors:
            raise ValueError("monitor suite needs at least one monitor")
        self.monitors = tuple(monitors)
        self.slots_checked = 0
        #: Every monitor's ``on_idle`` summarises its own ``on_slot``, so
        #: the ``batch`` loop may leap idle stretches with the suite armed.
        self.digests_idle = all(_digests(m, "on_idle") for m in self.monitors)
        #: The same for jammed stretches (``on_jammed``).
        self.digests_jammed = all(
            _digests(m, "on_jammed") for m in self.monitors
        )

    def on_slot(
        self,
        now: int,
        duration: int,
        state: ChannelState,
        wire: int,
        frame: "Frame | None",
        corrupted: bool,
        jammed: bool,
        stations: list["Station"],
        down: set[int] | None,
    ) -> None:
        self.slots_checked += 1
        for monitor in self.monitors:
            monitor.on_slot(
                now, duration, state, wire, frame, corrupted, jammed,
                stations, down,
            )

    def on_idle(
        self, now: int, n: int, slot_time: int, backlogged: bool
    ) -> None:
        """Digest ``n`` idle slots starting at ``now``, through all of
        which some queue holds a message if ``backlogged`` (see
        :meth:`InvariantMonitor.on_idle`), as ``n`` :meth:`on_slot` calls
        would."""
        self.slots_checked += n
        for monitor in self.monitors:
            monitor.on_idle(now, n, slot_time, backlogged)

    def on_jammed(self, now: int, n: int, slot_time: int) -> None:
        """Digest ``n`` jammed slots starting at ``now`` (see
        :meth:`InvariantMonitor.on_jammed`), as ``n`` :meth:`on_slot`
        calls would."""
        self.slots_checked += n
        for monitor in self.monitors:
            monitor.on_jammed(now, n, slot_time)

    def finalize(
        self,
        horizon: int,
        stations: list["Station"],
        down: set[int] | None = None,
    ) -> InvariantReport:
        violations: list[Violation] = []
        truncated: list[tuple[str, int]] = []
        for monitor in self.monitors:
            monitor.finalize(horizon, stations, down)
            violations.extend(monitor.violations)
            if monitor.dropped:
                truncated.append((monitor.name, monitor.dropped))
        violations.sort(key=lambda v: (v.time, v.invariant, v.message))
        return InvariantReport(
            violations=tuple(violations),
            slots_checked=self.slots_checked,
            monitors=tuple(m.name for m in self.monitors),
            truncated=tuple(truncated),
        )


def standard_suite(
    stations: list["Station"],
    *,
    deadline: bool = True,
    work_conservation_limit: int | None = None,
    search_margin: int = 8,
) -> MonitorSuite:
    """The default monitor set for a homogeneous network.

    Always arms :class:`MutualExclusionMonitor`.  :class:`DeadlineMonitor`
    is on unless ``deadline=False`` (disarm it for protocols that drop —
    BEB — or workloads that violate FC on purpose).  The search-length
    monitor arms only when every station runs CSMA/DDCR with one shared
    config; work conservation arms unless a backoff protocol (which idles
    legitimately for unbounded stretches) is present.
    """
    from repro.protocols.csma_cd import CSMACDProtocol
    from repro.protocols.ddcr.protocol import DDCRProtocol
    from repro.protocols.slotted_aloha import SlottedAlohaProtocol

    monitors: list[InvariantMonitor] = [MutualExclusionMonitor()]
    macs = [station.mac for station in stations]
    if deadline:
        monitors.append(DeadlineMonitor())
    ddcr_configs = [mac.config for mac in macs if isinstance(mac, DDCRProtocol)]
    if len(ddcr_configs) == len(macs) and ddcr_configs:
        config = ddcr_configs[0]
        if all(other == config for other in ddcr_configs[1:]):
            monitors.append(SearchLengthMonitor(config, margin=search_margin))
            if work_conservation_limit is None:
                # Compressed time reaches any queued class within ~d/c
                # slots; 4F covers d <= 4*c*F with the descent on top.
                work_conservation_limit = (
                    4 * config.time_f + config.collision_run_bound()
                )
    if work_conservation_limit is None:
        work_conservation_limit = 512
    if not any(
        isinstance(mac, (CSMACDProtocol, SlottedAlohaProtocol))
        for mac in macs
    ):
        monitors.append(WorkConservationMonitor(work_conservation_limit))
    return MonitorSuite(monitors)
