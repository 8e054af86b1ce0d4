"""Declarative parameter grids: axes in, ordered grid points out.

A :class:`Grid` names the design space of a campaign as data:

* ``axes`` — independent axes combined by cartesian product, in
  declaration order (first axis outermost, so the expansion order is
  the nested-for-loops order a hand-rolled sweep would produce);
* ``zipped`` — axes that vary *together* (all the same length), forming
  one composite axis: ``zipped={"a": (1, 2), "w": (10, 20)}`` yields
  ``(a=1, w=10)`` and ``(a=2, w=20)``, never the cross terms;
* ``seeds`` — replica seeds, expanded as an innermost ``seed`` axis
  (the sweep layer maps it onto :attr:`RunSpec.root_seed`).

Axis values are canonicalised through
:func:`repro.runtime.spec.freeze_params`, so a grid only ever holds
spec-able values (scalars and nestings of tuples over them) and its
expansion is picklable, hashable and JSON-round-trippable.

Reserved axis names carry RunSpec-level meaning when a campaign expands
the grid (see :mod:`repro.sweep.campaign`): ``experiment`` selects the
experiment id per point, ``fault`` a preset fault-plan name, ``faults``
a fault plan as canonical JSON; every other axis becomes a runner
keyword argument.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Mapping, Sequence

from repro.runtime.spec import freeze_params

__all__ = ["Grid", "RESERVED_AXES", "SEED_AXIS"]

#: Axis names that map onto RunSpec fields instead of runner params.
RESERVED_AXES = frozenset({"experiment", "fault", "faults"})

#: The implicit axis name ``seeds`` replicas expand under.
SEED_AXIS = "seed"

_Axes = tuple[tuple[str, tuple[object, ...]], ...]


def _freeze_axes(axes: Mapping[str, Sequence[object]] | None, kind: str) -> _Axes:
    frozen: list[tuple[str, tuple[object, ...]]] = []
    for name, values in (axes or {}).items():
        if not isinstance(name, str) or not name:
            raise ValueError(f"{kind} axis names must be non-empty strings")
        if name == SEED_AXIS:
            raise ValueError(
                f"axis {SEED_AXIS!r} is implicit; declare seed replicas "
                "through Grid.make(seeds=...)"
            )
        if isinstance(values, (str, bytes)) or not isinstance(
            values, Sequence
        ):
            raise TypeError(
                f"{kind} axis {name!r} needs a sequence of values, got "
                f"{type(values).__name__}"
            )
        if not values:
            raise ValueError(f"{kind} axis {name!r} has no values")
        frozen.append(
            (name, tuple(freeze_params(value) for value in values))
        )
    return tuple(frozen)


@dataclasses.dataclass(frozen=True)
class Grid:
    """An immutable, canonicalised parameter grid."""

    axes: _Axes = ()
    zipped: _Axes = ()
    seeds: tuple[int, ...] = ()

    @classmethod
    def make(
        cls,
        axes: Mapping[str, Sequence[object]] | None = None,
        zipped: Mapping[str, Sequence[object]] | None = None,
        seeds: Sequence[int] | None = None,
    ) -> "Grid":
        """Build a grid, canonicalising and validating every axis."""
        frozen_axes = _freeze_axes(axes, "cartesian")
        frozen_zipped = _freeze_axes(zipped, "zipped")
        lengths = {len(values) for _, values in frozen_zipped}
        if len(lengths) > 1:
            detail = ", ".join(
                f"{name}={len(values)}" for name, values in frozen_zipped
            )
            raise ValueError(
                f"zipped axes must all have the same length ({detail})"
            )
        names = [name for name, _ in frozen_axes]
        names += [name for name, _ in frozen_zipped]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise ValueError(
                f"axis name(s) declared twice: {sorted(duplicates)}"
            )
        seed_tuple = tuple(seeds or ())
        if any(not isinstance(seed, int) or isinstance(seed, bool)
               for seed in seed_tuple):
            raise TypeError(f"seeds must be ints, got {seed_tuple!r}")
        return cls(axes=frozen_axes, zipped=frozen_zipped, seeds=seed_tuple)

    # -- expansion ---------------------------------------------------------

    def axis_names(self) -> tuple[str, ...]:
        """All axis names in point order (cartesian, zipped, seed)."""
        names = [name for name, _ in self.axes]
        names += [name for name, _ in self.zipped]
        if self.seeds:
            names.append(SEED_AXIS)
        return tuple(names)

    @property
    def size(self) -> int:
        """Number of grid points the expansion yields."""
        size = 1
        for _, values in self.axes:
            size *= len(values)
        if self.zipped:
            size *= len(self.zipped[0][1])
        if self.seeds:
            size *= len(self.seeds)
        return size

    def points(self) -> list[dict[str, object]]:
        """Expand to ordered grid points (cartesian × zipped × seeds).

        The first cartesian axis is outermost and seeds are innermost,
        matching the nested-loop order of a hand-rolled sweep; the
        expansion is a pure function of the grid, so two processes
        expanding the same grid enumerate identical points in identical
        order — what the resume journal relies on.
        """
        axis_values: list[list[tuple[tuple[str, object], ...]]] = [
            [((name, value),) for value in values]
            for name, values in self.axes
        ]
        if self.zipped:
            names = [name for name, _ in self.zipped]
            columns = [values for _, values in self.zipped]
            axis_values.append(
                [tuple(zip(names, row)) for row in zip(*columns)]
            )
        if self.seeds:
            axis_values.append(
                [((SEED_AXIS, seed),) for seed in self.seeds]
            )
        points: list[dict[str, object]] = []
        for combination in itertools.product(*axis_values):
            point: dict[str, object] = {}
            for group in combination:
                point.update(group)
            points.append(point)
        return points

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict[str, object]:
        return {
            "axes": {name: _jsonable(values) for name, values in self.axes},
            "zip": {
                name: _jsonable(values) for name, values in self.zipped
            },
            "seeds": list(self.seeds),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "Grid":
        unknown = set(doc) - {"axes", "zip", "seeds"}
        if unknown:
            raise ValueError(
                f"unknown grid key(s): {sorted(unknown)} "
                "(expected axes/zip/seeds)"
            )
        return cls.make(
            axes=doc.get("axes"),  # type: ignore[arg-type]
            zipped=doc.get("zip"),  # type: ignore[arg-type]
            seeds=doc.get("seeds"),  # type: ignore[arg-type]
        )


def _jsonable(value: object) -> object:
    """Frozen canonical form -> JSON-encodable structure."""
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    return value
