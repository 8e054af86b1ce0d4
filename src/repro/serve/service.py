"""The admission-control service: streaming FC decisions with an oracle.

:class:`AdmissionService` wraps an incremental
:class:`~repro.core.feas_engine.FeasibilityEngine` and answers a stream
of :class:`~repro.serve.model.Request` events:

* ``join``/``rescale`` mutate the engine *tentatively*
  (:meth:`~repro.core.feas_engine.FeasibilityEngine.try_add_class`,
  :meth:`~repro.core.feas_engine.FeasibilityEngine.try_rescale_class`):
  the class (or its new bound) is applied through the O(profiles) delta
  path, the engine's row-free verdict is consulted, and an infeasible
  outcome is rolled back exactly (a rescale replays the saved
  ``(a, w, w0)`` triple), so a reject leaves the engine bit-identical to
  before the request, its cached verdict included;
* ``leave`` retires a class; ``reconfigure`` applies a global density
  rescale and evicts the most recently admitted classes (LIFO) until the
  surviving set is feasible again.

Every decision is a pure function of the request stream (see
:mod:`repro.serve.model`), persisted as JSONL: ``events.jsonl`` (one
header line with the service config, then one line per request+decision
pair) and ``decisions.jsonl`` (the same decision lines alone, the
artifact two runs of one trace are byte-compared on).  Replay reads only
``events.jsonl``: it re-decides each logged request and byte-compares
the new decision's JSON with the re-serialized decision it parsed from
the same line.

Counter-checking: :meth:`AdmissionService.counter_check` re-derives the
admitted set's feasibility two independent ways — the scalar
``check_feasibility`` oracle on a materialised
:class:`~repro.model.problem.HRTDMProblem` (digest-compared per report
row against the engine's, and compared with the verdict every decision
read), and, when an executor is attached, a ``SERVE-CHECK`` simulation
spec resolved through the cache-aware sweep executor.  Divergence is
recorded as a structured :class:`~repro.serve.model.Incident`, never an
exception: the service keeps serving and the operator (or CI) inspects
``incidents``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import pickle
import time
import typing

from repro.core.feas_engine import FeasibilityEngine
from repro.core.feasibility import TreeParameters, check_feasibility
from repro.model.message import DensityBound, MessageClass
from repro.net.phy import GIGABIT_ETHERNET, MEDIA, MediumProfile
from repro.obs.context import use_tracer
from repro.obs.export import iter_jsonl_tail
from repro.obs.instruments import DECISION_LATENCY_EDGES, NULL_TELEMETRY
from repro.obs.tracer import NULL_TRACER
from repro.serve.model import Decision, Incident, Request

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.export import StreamExporter
    from repro.obs.slo import SloEngine
    from repro.obs.tracer import FlightRecorder
    from repro.runtime.executor import ParallelExecutor
    from repro.runtime.spec import RunSpec

__all__ = [
    "AdmissionService",
    "MEDIA",
    "ServeConfig",
    "read_event_log",
    "read_incidents",
    "replay_event_log",
]

#: Event-log schema version (bump on incompatible layout changes).
LOG_SCHEMA = 1

EVENTS_FILE = "events.jsonl"
DECISIONS_FILE = "decisions.jsonl"
INCIDENTS_FILE = "incidents.jsonl"
BLACKBOX_FILE = "blackbox.jsonl"

#: How many flight-recorder events an incident's black-box snapshot keeps.
BLACKBOX_EVENTS = 64


def _non_integer(request: Request, fields: tuple[str, ...]) -> str | None:
    """Why one of ``fields`` is no integer (``None`` = all are, or unset).

    Bools do not count as integers.  The value prints with ``str()``, so a
    non-finite float, which the journal keeps as its repr string
    (:meth:`Request.to_dict`), replays to the same reason bytes.
    """
    for field in fields:
        value = getattr(request, field)
        if value is not None and (
            type(value) is bool or not isinstance(value, int)
        ):
            return f"needs an integer {field}, got {value}"
    return None


class ServeConfig(typing.NamedTuple):
    """Deterministic service parameters (everything replay needs).

    ``check_every`` is the counter-check cadence in handled requests
    (0 disables periodic checks; explicit :meth:`~AdmissionService.
    counter_check` calls always work).  ``sim_horizon``/``sim_seed``
    parameterise the background SERVE-CHECK simulation.
    """

    static_q: int = 256
    static_m: int = 2
    time_f: int = 64
    time_m: int = 4
    medium: str = GIGABIT_ETHERNET.name
    check_every: int = 0
    sim_horizon: int = 4_000_000
    sim_seed: int = 0

    def trees(self) -> TreeParameters:
        return TreeParameters(
            time_f=self.time_f,
            time_m=self.time_m,
            static_q=self.static_q,
            static_m=self.static_m,
        )

    def medium_profile(self) -> MediumProfile:
        try:
            return MEDIA[self.medium]
        except KeyError:
            raise ValueError(
                f"unknown medium {self.medium!r} "
                f"(known: {', '.join(sorted(MEDIA))})"
            ) from None

    def to_dict(self) -> dict[str, object]:
        return dict(self._asdict())

    @classmethod
    def from_dict(cls, doc: dict[str, object]) -> "ServeConfig":
        return cls(**doc)  # type: ignore[arg-type]


class AdmissionService:
    """Streaming admit/reject over an incremental feasibility engine."""

    def __init__(
        self,
        config: ServeConfig | None = None,
        *,
        telemetry=None,
        executor: "ParallelExecutor | None" = None,
        log_dir: "str | pathlib.Path | None" = None,
        tracer: "FlightRecorder | None" = None,
        exporter: "StreamExporter | None" = None,
        slos: "SloEngine | None" = None,
    ) -> None:
        """``tracer``/``exporter``/``slos`` arm the v2 ops plane:

        * ``tracer`` — a :class:`~repro.obs.tracer.FlightRecorder`; each
          request becomes a ``serve/request`` trace root whose children
          span engine mutations, speculative rollbacks and (for
          counter-checks) the SERVE-CHECK simulation's slot outcomes.
          Incidents get a black-box snapshot of the recorder's last
          events attached.  Default: the disabled ``NULL_TRACER``.
        * ``exporter`` — a :class:`~repro.obs.export.StreamExporter`
          ticked once per handled request.
        * ``slos`` — a :class:`~repro.obs.slo.SloEngine` evaluated once
          per handled request; a burn-rate breach lands as a structured
          ``slo-breach`` incident, never an exception.
        """
        self.config = config if config is not None else ServeConfig()
        # Validate eagerly: a bad medium/tree shape must fail at
        # construction, not at the first decision.
        medium = self.config.medium_profile()
        trees = self.config.trees()
        self.engine = FeasibilityEngine(medium, trees)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.executor = executor
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Arm the engine's (layering-safe, plain-attribute) tracer hook
        # only when recording — core code checks `is not None` per call.
        self.engine.tracer = self.tracer if self.tracer.enabled else None
        self.exporter = exporter
        self.slos = slos
        self.incidents: list[Incident] = []
        #: (source_id, name) in admission order — the reconfigure
        #: eviction policy pops from the tail (LIFO).
        self._admission_order: list[tuple[int, str]] = []
        #: Globally unique class names (an HRTDM model constraint the
        #: engine alone does not enforce across sources).
        self._names: set[str] = set()
        self._last_seq = -1
        self.handled = 0
        self._log_dir: pathlib.Path | None = None
        self._events_handle = None
        self._decisions_handle = None
        if log_dir is not None:
            self.attach_log_dir(log_dir)

    # -- log plumbing ------------------------------------------------------

    def attach_log_dir(self, log_dir: "str | pathlib.Path") -> None:
        """Append subsequent events to ``log_dir``'s JSONL logs.

        A fresh ``events.jsonl`` gets a header line carrying the service
        config, so the log is self-describing and replay needs no side
        channel.
        """
        self._log_dir = pathlib.Path(log_dir)
        self._log_dir.mkdir(parents=True, exist_ok=True)
        events = self._log_dir / EVENTS_FILE
        fresh = not events.exists() or events.stat().st_size == 0
        self._events_handle = open(events, "a", encoding="utf-8")
        self._decisions_handle = open(
            self._log_dir / DECISIONS_FILE, "a", encoding="utf-8"
        )
        if fresh:
            header = {
                "kind": "header",
                "schema": LOG_SCHEMA,
                "config": self.config.to_dict(),
            }
            self._events_handle.write(
                json.dumps(header, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
            self._events_handle.flush()

    def close(self) -> None:
        for handle in (self._events_handle, self._decisions_handle):
            if handle is not None:
                handle.close()
        self._events_handle = None
        self._decisions_handle = None

    def __enter__(self) -> "AdmissionService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _log(self, request: Request, decision: Decision) -> None:
        if self._events_handle is None:
            return
        # The event line is ``json.dumps({"kind": "event", "request": ...,
        # "decision": ...}, sort_keys=True, separators=(",", ":"))``,
        # spliced from the two compact sorted-key encodings so that each
        # decision is encoded once for both journals.
        encoded = decision.to_json()
        self._events_handle.write(
            '{"decision":' + encoded + ',"kind":"event","request":'
            + request.to_json() + "}\n"
        )
        self._events_handle.flush()
        self._decisions_handle.write(encoded + "\n")
        self._decisions_handle.flush()

    def _record_incident(self, incident: Incident) -> None:
        tracer = self.tracer
        if tracer.enabled:
            # Mark the moment inside the trace, then freeze the black
            # box: the recorder's last events (including the marker) ride
            # along on the incident and are dumped beside the logs.
            tracer.emit(
                "serve/incident", kind=incident.kind, at_seq=incident.at_seq
            )
            incident = dataclasses.replace(
                incident,
                trace=tuple(
                    event.to_dict()
                    for event in tracer.last(BLACKBOX_EVENTS)
                ),
            )
            if self._log_dir is not None:
                tracer.dump_jsonl(self._log_dir / BLACKBOX_FILE)
        self.incidents.append(incident)
        self.telemetry.counter("serve/incidents").inc()
        if self._log_dir is not None:
            with open(
                self._log_dir / INCIDENTS_FILE, "a", encoding="utf-8"
            ) as handle:
                handle.write(incident.to_json() + "\n")
                handle.flush()

    # -- introspection -----------------------------------------------------

    @property
    def class_count(self) -> int:
        return self.engine.class_count

    @property
    def admitted(self) -> tuple[tuple[int, str], ...]:
        """(source_id, name) pairs in admission order."""
        return tuple(self._admission_order)

    def frozen_classes(self) -> tuple[tuple, ...]:
        """The admitted set as spec-safe nested tuples.

        Shape: ``((source_id, nu, name, length, deadline, a, w), ...)``
        in engine (report) order — the ``classes`` parameter of the
        SERVE-CHECK experiment.
        """
        _, sources = self.engine.snapshot()
        return tuple(
            (source_id, nu, name, length, deadline, a, w)
            for source_id, nu, classes in sources
            for name, length, deadline, a, w, _w0 in classes
        )

    # -- the decision loop -------------------------------------------------

    def _dispatch(self, request: Request) -> Decision:
        """Route one request to its per-kind decision procedure."""
        if request.seq <= self._last_seq:
            return self._decide_error(
                request,
                f"out-of-order seq {request.seq} (last {self._last_seq})",
            )
        handler = {
            "join": self._decide_join,
            "leave": self._decide_leave,
            "rescale": self._decide_rescale,
            "reconfigure": self._decide_reconfigure,
        }[request.kind]
        decision = handler(request)
        self._last_seq = request.seq
        return decision

    def handle(self, request: Request) -> Decision:
        """Decide one request; logs, counts and (periodically) checks."""
        enabled = self.telemetry.enabled
        started = time.perf_counter() if enabled else 0.0
        tracer = self.tracer
        if tracer.enabled:
            # The request becomes a trace root: engine mutations,
            # rollbacks and counter-check slots parent under this span.
            with tracer.span(
                "serve/request", seq=request.seq, kind=request.kind
            ):
                decision = self._dispatch(request)
                tracer.emit(
                    "serve/decision",
                    seq=decision.seq,
                    verdict=decision.verdict,
                    classes=decision.class_count,
                )
        else:
            decision = self._dispatch(request)
        self.handled += 1
        if enabled:
            elapsed_us = (time.perf_counter() - started) * 1e6
            self.telemetry.histogram(
                "serve/decision_latency_us", DECISION_LATENCY_EDGES
            ).record(elapsed_us)
            self.telemetry.counter("serve/requests").inc()
            self.telemetry.counter(f"serve/{decision.verdict}").inc()
            if decision.evicted:
                self.telemetry.counter("serve/evict").inc(
                    len(decision.evicted)
                )
        self._log(request, decision)
        if (
            self.config.check_every > 0
            and self.handled % self.config.check_every == 0
        ):
            self.counter_check()
        if self.slos is not None:
            for breach in self.slos.tick(self.telemetry):
                self._record_incident(
                    Incident(
                        kind="slo-breach",
                        at_seq=self._last_seq,
                        detail=breach.describe(),
                    )
                )
        if self.exporter is not None:
            self.exporter.tick()
        return decision

    def run_trace(self, requests: typing.Iterable[Request]) -> list[Decision]:
        return [self.handle(request) for request in requests]

    # -- per-kind decisions ------------------------------------------------

    def _finish(
        self,
        request: Request,
        verdict: str,
        reason: str | None = None,
        evicted: tuple[tuple[int, str], ...] = (),
    ) -> Decision:
        engine = self.engine
        return Decision(
            seq=request.seq,
            kind=request.kind,
            verdict=verdict,
            reason=reason,
            source_id=request.source_id,
            name=request.name,
            class_count=engine.class_count,
            total_nu=engine.total_nu,
            scale=engine.scale,
            slack=engine.verdict()[2],
            evicted=evicted,
        )

    def _decide_error(self, request: Request, reason: str) -> Decision:
        return self._finish(request, "error", reason)

    def _decide_join(self, request: Request) -> Decision:
        missing = [
            field
            for field in ("source_id", "name", "length", "deadline", "a", "w")
            if getattr(request, field) is None
        ]
        if missing:
            return self._decide_error(
                request, f"join needs {', '.join(missing)}"
            )
        reason = _non_integer(
            request, ("source_id", "nu", "length", "deadline", "a", "w")
        )
        if reason is not None:
            return self._decide_error(request, f"join {reason}")
        if request.name in self._names:
            return self._decide_error(
                request, f"class name {request.name!r} already admitted"
            )
        try:
            message = MessageClass(
                name=request.name,
                length=request.length,
                deadline=request.deadline,
                bound=DensityBound(a=request.a, w=request.w),
            )
        except ValueError as error:
            return self._decide_error(request, str(error))
        if self.engine.source_nu(request.source_id) is None:
            needed = request.nu
            if needed is None or needed < 1:
                return self._decide_error(
                    request,
                    f"new source {request.source_id} needs nu >= 1",
                )
            if self.engine.total_nu + needed > self.config.static_q:
                return self._finish(
                    request,
                    "reject",
                    f"capacity: {self.engine.total_nu}+{needed} static "
                    f"leaves exceed q={self.config.static_q}",
                )
        try:
            feasible, worst_class, worst_slack = self.engine.try_add_class(
                request.source_id, message, nu=request.nu
            )
        except ValueError as error:
            return self._decide_error(request, str(error))
        if feasible:
            self._names.add(request.name)
            self._admission_order.append((request.source_id, request.name))
            return self._finish(request, "admit")
        if self.tracer.enabled:
            self.tracer.emit(
                "serve/rollback", seq=request.seq, kind="join",
                name=request.name,
            )
        return self._finish(
            request,
            "reject",
            f"infeasible: B_DDCR exceeds deadline for "
            f"{worst_class} (slack {worst_slack})",
        )

    def _decide_leave(self, request: Request) -> Decision:
        if request.source_id is None or request.name is None:
            return self._decide_error(request, "leave needs source_id, name")
        try:
            self.engine.remove_class(request.source_id, request.name)
        except KeyError as error:
            return self._decide_error(request, str(error.args[0]))
        self._names.discard(request.name)
        self._admission_order.remove((request.source_id, request.name))
        return self._finish(request, "ok")

    def _decide_rescale(self, request: Request) -> Decision:
        if request.source_id is None or request.name is None:
            return self._decide_error(
                request, "rescale needs source_id, name"
            )
        if request.a is None and request.w is None:
            return self._decide_error(request, "rescale needs a and/or w")
        reason = _non_integer(request, ("a", "w"))
        if reason is not None:
            return self._decide_error(request, f"rescale {reason}")
        try:
            feasible, worst_class, worst_slack = (
                self.engine.try_rescale_class(
                    request.source_id, request.name, a=request.a, w=request.w
                )
            )
        except KeyError as error:
            return self._decide_error(request, str(error.args[0]))
        except ValueError as error:
            return self._decide_error(request, str(error))
        if feasible:
            return self._finish(request, "admit")
        if self.tracer.enabled:
            self.tracer.emit(
                "serve/rollback", seq=request.seq, kind="rescale",
                name=request.name,
            )
        return self._finish(
            request,
            "reject",
            f"infeasible: B_DDCR exceeds deadline for "
            f"{worst_class} (slack {worst_slack})",
        )

    def _decide_reconfigure(self, request: Request) -> Decision:
        scale = request.scale
        # A journaled non-finite scale replays as its repr string (see
        # Request.to_dict), and gets the same error as the float did.
        if not (
            isinstance(scale, (int, float))
            and math.isfinite(scale)
            and scale > 0
        ):
            return self._decide_error(
                request, f"reconfigure needs a finite scale > 0, got {scale}"
            )
        try:
            self.engine.rescale_density(scale)
        except ValueError as error:
            return self._decide_error(request, str(error))
        evicted: list[tuple[int, str]] = []
        while self._admission_order and not self.engine.feasible:
            source_id, name = self._admission_order.pop()
            self.engine.remove_class(source_id, name)
            self._names.discard(name)
            evicted.append((source_id, name))
        return self._finish(request, "ok", evicted=tuple(evicted))

    # -- counter-checking --------------------------------------------------

    def sim_spec(self) -> "RunSpec":
        """The SERVE-CHECK spec for the current admitted set."""
        from repro.runtime.spec import RunSpec

        return RunSpec.make(
            "SERVE-CHECK",
            root_seed=self.config.sim_seed,
            classes=self.frozen_classes(),
            static_q=self.config.static_q,
            static_m=self.config.static_m,
            time_f=self.config.time_f,
            time_m=self.config.time_m,
            medium=self.config.medium,
            horizon=self.config.sim_horizon,
        )

    def counter_check(self) -> list[Incident]:
        """Re-derive the admitted set's feasibility independently.

        Always runs the scalar oracle (materialise the engine state as an
        :class:`HRTDMProblem`, ``check_feasibility``, digest-compare
        every report row, and compare the engine's
        :meth:`~repro.core.feas_engine.FeasibilityEngine.verdict` — what
        decisions read — with the oracle's ``(feasible, worst class,
        worst slack)``); runs the SERVE-CHECK simulation through the
        attached executor when one is present.  Returns the incidents
        *this* check raised (also appended to :attr:`incidents`).
        """
        self.telemetry.counter("serve/checks").inc()
        raised: list[Incident] = []
        if self.engine.class_count:
            oracle = check_feasibility(
                self.engine.to_problem(),
                self.config.medium_profile(),
                self.config.trees(),
            )
            mine = self.engine.report()
            # Row-by-row pickles: a whole-report pickle memoizes shared
            # strings differently across construction paths.
            mismatches = [
                row.class_name
                for row, expected in zip(mine.classes, oracle.classes)
                if pickle.dumps(row) != pickle.dumps(expected)
            ]
            if len(mine.classes) != len(oracle.classes) or mismatches:
                raised.append(
                    Incident(
                        kind="oracle-divergence",
                        at_seq=self._last_seq,
                        detail=(
                            f"engine report differs from scalar oracle on "
                            f"{len(mismatches)}/{len(oracle.classes)} "
                            f"class(es): {', '.join(mismatches[:5])}"
                        ),
                    )
                )
            worst = oracle.worst
            expected = (oracle.feasible, worst.class_name, worst.slack)
            verdict = self.engine.verdict()
            if verdict != expected:
                raised.append(
                    Incident(
                        kind="oracle-divergence",
                        at_seq=self._last_seq,
                        detail=(
                            f"engine verdict {verdict} differs from scalar "
                            f"oracle {expected}"
                        ),
                    )
                )
            if self.executor is not None:
                tracer = self.tracer
                if tracer.enabled:
                    # Scope the recorder ambiently: the SERVE-CHECK
                    # channel picks it up at construction, so its slot
                    # outcomes parent under this check's span (serial
                    # executor; pool workers record in-process only).
                    with tracer.span(
                        "serve/counter_check", at_seq=self._last_seq
                    ), use_tracer(tracer):
                        records = self.executor.run([self.sim_spec()])
                else:
                    records = self.executor.run([self.sim_spec()])
                result = records[0].result
                if not result.all_checks_pass:
                    raised.append(
                        Incident(
                            kind="sim-check-failed",
                            at_seq=self._last_seq,
                            detail=(
                                "SERVE-CHECK simulation failed: "
                                + ", ".join(result.failed_checks())
                            ),
                        )
                    )
        for incident in raised:
            self._record_incident(incident)
        return raised


# -- replay / resume --------------------------------------------------------


def read_event_log(
    log_dir: "str | pathlib.Path",
) -> tuple[ServeConfig, list[tuple[Request, Decision]]]:
    """Parse ``events.jsonl``: the header config plus all event pairs."""
    path = pathlib.Path(log_dir) / EVENTS_FILE
    config: ServeConfig | None = None
    events: list[tuple[Request, Decision]] = []
    with open(path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            kind = doc.get("kind")
            if kind == "header":
                if doc.get("schema") != LOG_SCHEMA:
                    raise ValueError(
                        f"{path}:{line_no}: unsupported log schema "
                        f"{doc.get('schema')!r}"
                    )
                config = ServeConfig.from_dict(doc["config"])
            elif kind == "event":
                events.append(
                    (
                        Request.from_dict(doc["request"]),
                        Decision.from_dict(doc["decision"]),
                    )
                )
            else:
                raise ValueError(
                    f"{path}:{line_no}: unknown log line kind {kind!r}"
                )
    if config is None:
        raise ValueError(f"{path}: no header line")
    return config, events


def read_incidents(log_dir: "str | pathlib.Path") -> list[Incident]:
    """Parse ``incidents.jsonl``, tolerating a truncated final line.

    The incident journal is append-per-event with a flush after each
    line, so a crash mid-write can only ever leave the *last* line
    incomplete — :func:`~repro.obs.export.iter_jsonl_tail` skips exactly
    that case and still raises on interior corruption.  A missing file
    means no incidents.
    """
    path = pathlib.Path(log_dir) / INCIDENTS_FILE
    return [Incident.from_dict(doc) for doc in iter_jsonl_tail(path)]


def replay_event_log(
    log_dir: "str | pathlib.Path",
    *,
    telemetry=None,
    executor: "ParallelExecutor | None" = None,
    upto: int | None = None,
    attach: bool = False,
    tracer: "FlightRecorder | None" = None,
    slos: "SloEngine | None" = None,
) -> AdmissionService:
    """Rebuild a service by re-deciding the logged requests.

    Every recomputed decision is byte-compared against the logged one; a
    difference becomes a ``replay-mismatch`` incident (determinism is a
    *checked* property, not an assumption).  ``upto`` replays only the
    first N events — the mid-trace resume path; ``attach`` re-opens the
    log files for appending so the resumed service continues the same
    run.  Periodic counter-checks are suppressed during replay (the
    decisions are already being verified against the log).
    """
    config, events = read_event_log(log_dir)
    service = AdmissionService(
        # check_every=0 during replay; restored before handing back.
        config._replace(check_every=0),
        telemetry=telemetry,
        executor=executor,
        tracer=tracer,
        slos=slos,
    )
    if upto is not None:
        events = events[:upto]
    for request, logged in events:
        recomputed = service.handle(request)
        if recomputed.to_json() != logged.to_json():
            service._record_incident(
                Incident(
                    kind="replay-mismatch",
                    at_seq=request.seq,
                    detail=(
                        f"replayed decision differs at seq {request.seq}: "
                        f"{recomputed.to_json()} != {logged.to_json()}"
                    ),
                )
            )
    service.config = config
    if attach:
        service.attach_log_dir(log_dir)
    return service
