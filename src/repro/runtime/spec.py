"""Declarative run specifications with content-addressed identity.

A :class:`RunSpec` names one experiment execution: the experiment id, the
keyword parameters passed to its runner, an optional root seed, and a
code-version salt.  Two specs with the same canonical key denote the same
computation, so the spec's hash can key an on-disk result cache
(:mod:`repro.runtime.cache`) and deduplicate work across processes.

The salt defaults to :func:`code_version` — a digest over every ``*.py``
source file in the ``repro`` package — so editing any source file
invalidates previously cached results without manual version bumps.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import pathlib

__all__ = ["RunSpec", "code_version", "freeze_params"]

#: Bump when the cache payload layout changes incompatibly.
CACHE_FORMAT_VERSION = 2


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every ``repro`` source file, as a cache-busting salt.

    Deterministic for a given source tree: files are hashed in sorted
    relative-path order, with the path mixed in so renames also miss.
    """
    package_root = pathlib.Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def freeze_params(value: object) -> object:
    """Recursively convert ``value`` into a hashable canonical form.

    Mappings become sorted ``(key, value)`` tuples, sequences and sets
    become tuples, scalars pass through.  Anything else (functions,
    dataclass instances, media profiles...) is rejected: specs must stay
    picklable and content-hashable.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return tuple(
            (str(key), freeze_params(item))
            for key, item in sorted(value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(freeze_params(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(freeze_params(item) for item in sorted(value))
    raise TypeError(
        f"unsupported spec parameter type {type(value).__name__!r}; "
        "RunSpec parameters must be None/bool/int/float/str or "
        "nestings of dict/list/tuple/set over those"
    )


def _jsonable(value: object) -> object:
    """Frozen canonical form -> JSON-encodable structure."""
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    return value


def _canonical_faults(faults: object) -> str | None:
    """Normalise a fault-plan argument to canonical JSON (or ``None``).

    Empty plans normalise to ``None``: they are proven byte-identical to
    fault-free runs, so the two must share one content hash.
    """
    if faults is None:
        return None
    from repro.faults.models import FaultPlan

    if isinstance(faults, str):
        plan = FaultPlan.loads(faults)
    elif isinstance(faults, FaultPlan):
        plan = faults
    elif isinstance(faults, dict):
        plan = FaultPlan.from_dict(faults)
    else:
        raise TypeError(
            "faults must be a FaultPlan, a plan dict, a JSON string or "
            f"None, got {type(faults).__name__}"
        )
    if plan.is_empty:
        return None
    return plan.dumps()


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One experiment execution, identified by content.

    ``params`` is a sorted tuple of ``(name, frozen_value)`` pairs (use
    :meth:`make` rather than building it by hand).  ``root_seed`` is
    ``None`` to keep the experiment's own default seed — the seed path the
    original sequential suite used — or an int to override it.  ``salt``
    is ``None`` for "current code version".

    ``faults`` is a fault plan in its canonical JSON form
    (:meth:`repro.faults.models.FaultPlan.dumps`), or ``None`` for a
    fault-free run.  Faults change the *result* — unlike the engine —
    so they participate in :meth:`canonical_key`, :meth:`spec_hash` and
    equality; an empty plan is normalised to ``None`` at :meth:`make`
    time (it is proven byte-identical to a fault-free run).

    A spec names no engine: the run takes the ambient one
    (:func:`repro.net.engine.use_engine`).  Both engines produce
    byte-identical results, so the engine is *execution strategy*, not
    content, and a cache entry serves a spec whichever engine is in
    scope.
    """

    experiment_id: str
    params: tuple[tuple[str, object], ...] = ()
    root_seed: int | None = None
    salt: str | None = None
    faults: str | None = None

    @classmethod
    def make(
        cls,
        experiment_id: str,
        *,
        root_seed: int | None = None,
        salt: str | None = None,
        faults: object = None,
        **params: object,
    ) -> "RunSpec":
        """Build a spec, canonicalising parameters.

        ``faults`` accepts a :class:`~repro.faults.models.FaultPlan`, a
        plan dict, or a JSON string; all are validated and canonicalised
        through the plan's own serialisation.
        """
        frozen = tuple(
            (name, freeze_params(value))
            for name, value in sorted(params.items())
        )
        return cls(
            experiment_id=experiment_id,
            params=frozen,
            root_seed=root_seed,
            salt=salt,
            faults=_canonical_faults(faults),
        )

    def fault_plan(self):
        """The spec's :class:`~repro.faults.models.FaultPlan`, or ``None``."""
        if self.faults is None:
            return None
        from repro.faults.models import FaultPlan

        return FaultPlan.loads(self.faults)

    def kwargs(self) -> dict[str, object]:
        """The keyword arguments this spec passes to the runner."""
        return dict(self.params)

    def canonical_key(self) -> str:
        """Stable serialisation of everything that defines the result."""
        payload = {
            "format": CACHE_FORMAT_VERSION,
            "experiment": self.experiment_id,
            "params": [
                [name, _jsonable(value)] for name, value in self.params
            ],
            "root_seed": self.root_seed,
            "salt": self.salt if self.salt is not None else code_version(),
            "faults": self.faults,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def spec_hash(self) -> str:
        """Content address: sha256 of the canonical key."""
        return hashlib.sha256(self.canonical_key().encode()).hexdigest()

    def describe(self) -> str:
        """Short human-readable label (CLI progress lines)."""
        parts = [self.experiment_id]
        if self.params:
            rendered = ", ".join(
                f"{name}={value!r}" for name, value in self.params
            )
            parts.append(f"({rendered})")
        if self.root_seed is not None:
            parts.append(f"seed={self.root_seed}")
        if self.faults is not None:
            parts.append("[faulted]")
        return " ".join(parts)
