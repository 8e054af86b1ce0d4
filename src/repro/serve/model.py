"""Typed request/decision model for the admission-control service.

The service speaks four request kinds over message classes:

* ``join`` — a source asks to admit one new message class;
* ``leave`` — a source retires one of its admitted classes;
* ``rescale`` — a source renegotiates one class's arrival bound (a, w);
* ``reconfigure`` — the operator rescales every class's arrival density
  (the workload factories' ``scale`` knob), evicting the most recently
  admitted classes until the surviving set is feasible again.

Determinism contract: a :class:`Decision` is a pure function of the
request stream — it carries **no wall-clock fields** (decision latency is
telemetry, not content), floats serialise through :func:`json.dumps`'s
shortest-repr, and :meth:`Decision.to_json` emits compact sorted-key
JSON.  Replaying the same trace therefore produces a byte-identical
decision log, which the differential replay tests and the ``check --ci``
serve-smoke compare directly.
"""

from __future__ import annotations

import dataclasses
import json
import math

__all__ = [
    "Decision",
    "Incident",
    "Request",
    "REQUEST_KINDS",
    "VERDICTS",
]

#: Legal request kinds, in documentation order.
REQUEST_KINDS = ("join", "leave", "rescale", "reconfigure")

#: Legal decision verdicts: ``admit``/``reject`` answer a join or
#: rescale, ``ok`` acknowledges a leave or reconfigure, ``error`` flags a
#: malformed or inapplicable request (unknown class, duplicate name...).
VERDICTS = ("admit", "reject", "ok", "error")


@dataclasses.dataclass(frozen=True, slots=True)
class Request:
    """One event of the admission trace.

    Field applicability by kind: ``join`` uses source_id/name/nu/length/
    deadline/a/w; ``leave`` uses source_id/name; ``rescale`` uses
    source_id/name/a/w (either may be None to keep the current value);
    ``reconfigure`` uses scale.  Unused fields stay ``None`` and are
    dropped from the JSON form.
    """

    seq: int
    kind: str
    source_id: int | None = None
    name: str | None = None
    nu: int | None = None
    length: int | None = None
    deadline: int | None = None
    a: int | None = None
    w: int | None = None
    scale: float | None = None

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise ValueError(f"seq must be >= 0, got {self.seq}")
        if self.kind not in REQUEST_KINDS:
            raise ValueError(
                f"kind must be one of {REQUEST_KINDS}, got {self.kind!r}"
            )

    def to_dict(self) -> dict[str, object]:
        """JSON-ready form with unused (None) fields dropped.

        JSON has no NaN or Infinity, so a non-finite float (a malformed
        ``scale``, say) is kept as its repr string: the journal stays
        strict JSON and still says what was asked.
        """
        # Every field is a scalar, so no ``dataclasses.asdict`` deep copy.
        doc = {}
        for key in _REQUEST_FIELDS:
            value = getattr(self, key)
            if value is not None:
                if isinstance(value, float) and not math.isfinite(value):
                    value = repr(value)
                doc[key] = value
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, doc: dict[str, object]) -> "Request":
        unknown = set(doc).difference(_REQUEST_FIELDS)
        if unknown:
            raise ValueError(f"unknown request field(s): {sorted(unknown)}")
        return cls(**doc)  # type: ignore[arg-type]


_REQUEST_FIELDS = tuple(field.name for field in dataclasses.fields(Request))


@dataclasses.dataclass(frozen=True, slots=True)
class Decision:
    """The service's answer to one request — deterministic content only.

    ``class_count``/``total_nu``/``scale``/``slack`` describe the
    admitted set *after* the decision took effect (a reject leaves them
    at the pre-request values); ``slack`` is the binding class's
    deadline-minus-bound, ``None`` when no classes are admitted.
    ``evicted`` lists ``(source_id, name)`` pairs a reconfigure had to
    drop, newest first.
    """

    seq: int
    kind: str
    verdict: str
    reason: str | None = None
    source_id: int | None = None
    name: str | None = None
    class_count: int = 0
    total_nu: int = 0
    scale: float = 1.0
    slack: float | None = None
    evicted: tuple[tuple[int, str], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise ValueError(
                f"kind must be one of {REQUEST_KINDS}, got {self.kind!r}"
            )
        if self.verdict not in VERDICTS:
            raise ValueError(
                f"verdict must be one of {VERDICTS}, got {self.verdict!r}"
            )

    @property
    def applied(self) -> bool:
        """Whether the request mutated the admitted set."""
        return self.verdict in ("admit", "ok")

    def to_dict(self) -> dict[str, object]:
        doc: dict[str, object] = {
            "seq": self.seq,
            "kind": self.kind,
            "verdict": self.verdict,
            "class_count": self.class_count,
            "total_nu": self.total_nu,
            "scale": self.scale,
        }
        if self.reason is not None:
            doc["reason"] = self.reason
        if self.source_id is not None:
            doc["source_id"] = self.source_id
        if self.name is not None:
            doc["name"] = self.name
        if self.slack is not None:
            doc["slack"] = self.slack
        if self.evicted:
            doc["evicted"] = [list(pair) for pair in self.evicted]
        return doc

    def to_json(self) -> str:
        """Compact sorted-key JSON: the byte-identity unit of the log."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, doc: dict[str, object]) -> "Decision":
        doc = dict(doc)
        evicted = doc.pop("evicted", [])
        return cls(
            evicted=tuple((int(sid), str(name)) for sid, name in evicted),
            **doc,  # type: ignore[arg-type]
        )


@dataclasses.dataclass(frozen=True, slots=True)
class Incident:
    """A counter-check divergence or replay mismatch, as structured data.

    ``kind`` is one of ``oracle-divergence`` (engine report or verdict
    != scalar ``check_feasibility`` on the materialised class set),
    ``sim-check-failed`` (the background SERVE-CHECK simulation's checks
    failed on an admitted-as-feasible set), ``replay-mismatch`` (a
    replayed decision differs from the logged one) or ``slo-breach``
    (a declarative objective's burn rate crossed its multi-window
    threshold, :mod:`repro.obs.slo`).  ``at_seq`` is the last decision
    applied when the check ran.

    ``trace`` is the optional black-box snapshot: the flight recorder's
    last events at the moment the incident landed, as JSON-ready event
    dicts (:meth:`repro.obs.tracer.TraceEvent.to_dict`).  It is attached
    only when a recorder was armed and omitted from the JSON form when
    absent, so incident streams from untraced runs are unchanged.
    """

    kind: str
    at_seq: int
    detail: str
    trace: tuple[dict, ...] | None = None

    def to_dict(self) -> dict[str, object]:
        doc: dict[str, object] = {"kind": self.kind, "at_seq": self.at_seq,
                                  "detail": self.detail}
        if self.trace is not None:
            doc["trace"] = [dict(event) for event in self.trace]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, doc: dict[str, object]) -> "Incident":
        trace = doc.get("trace")
        return cls(
            kind=str(doc["kind"]),
            at_seq=int(doc["at_seq"]),  # type: ignore[arg-type]
            detail=str(doc["detail"]),
            trace=(
                tuple(dict(event) for event in trace)  # type: ignore[union-attr]
                if trace is not None
                else None
            ),
        )
