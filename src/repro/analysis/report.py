"""Plain-text reporting: tables, series, CSV and ASCII plots.

The experiment harness prints the same rows/series the paper's figures
show; these helpers keep that output consistent and dependency-free.
"""

from __future__ import annotations

import io
from collections.abc import Sequence

__all__ = [
    "format_table",
    "to_csv",
    "ascii_plot",
    "format_series",
    "render_timeline",
]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned text table.

    >>> print(format_table(["k", "xi"], [[2, 11], [4, 17]]))
     k | xi
    ---+---
     2 | 11
     4 | 17
    """
    cells = [[str(h) for h in headers]] + [
        [_fmt(value) for value in row] for row in rows
    ]
    widths = [
        max(len(row[col]) for row in cells) for col in range(len(headers))
    ]
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    header_line = " | ".join(
        cell.rjust(width) for cell, width in zip(cells[0], widths)
    )
    out.write(" " + header_line + "\n")
    out.write("-" + "-+-".join("-" * width for width in widths) + "\n")
    for row in cells[1:]:
        out.write(
            " "
            + " | ".join(cell.rjust(width) for cell, width in zip(row, widths))
            + "\n"
        )
    return out.getvalue().rstrip("\n")


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def to_csv(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Minimal CSV writer (no quoting needs arise for our numeric tables)."""
    lines = [",".join(str(h) for h in headers)]
    for row in rows:
        lines.append(",".join(_fmt(value) for value in row))
    return "\n".join(lines)


def format_series(
    name: str, xs: Sequence[float], ys: Sequence[float]
) -> str:
    """One named series as `name: (x, y) (x, y) ...` for log output."""
    pairs = " ".join(f"({_fmt(x)}, {_fmt(y)})" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


#: Timeline glyphs by slot state.
_TIMELINE_GLYPHS = {
    "silence": ".",
    "collision": "X",
    "corrupted": "!",
    "success": None,  # replaced by the transmitting station's digit
}

#: Timeline glyphs of the run-length events, one per slot of the run.
_TIMELINE_RUNS = {"channel/idle": ".", "channel/jammed": "!"}


def render_timeline(events, width: int = 96, start: int = 0) -> str:
    """Render a channel's flight-recorder events as a per-slot activity strip.

    One character per channel round, reading left to right in time:
    ``.`` silence, ``X`` collision, ``!`` noise-corrupted slot, and a
    digit/letter identifying the transmitting station on a success
    (station id modulo 36).  ``events`` are
    :class:`~repro.obs.tracer.TraceEvent` objects (``recorder.events()``
    or :func:`~repro.obs.tracer.load_trace`); the strip reads an
    unprefixed channel's ``channel/slot`` events and expands each
    ``channel/idle`` run of ``n`` slots into ``n`` dots and each
    ``channel/jammed`` run into ``n`` ``!`` (a jammed slot is
    corrupted).  Slots that start before ``start`` are left out, also
    inside a run.

    >>> # '0X12.' reads: station 0 sent, collision, stations 1 then 2
    >>> # sent after resolution, then one idle slot.
    """
    symbols: list[str] = []
    limit = width * 8
    alphabet = "0123456789abcdefghijklmnopqrstuvwxyz"
    for event in events:
        data = event.data
        run = _TIMELINE_RUNS.get(event.kind)
        if run is not None:
            # Slots of the run starting before ``start``:
            # ceil((start - t) / slot).
            early = max(0, -((data["t"] - start) // data["slot"]))
            symbols.extend(run * min(data["n"] - early, limit - len(symbols)))
        elif event.kind == "channel/slot" and data["t"] >= start:
            state = data["state"]
            if state == "success":
                source = data["source"]
                symbols.append(alphabet[int(source) % len(alphabet)])
            else:
                symbols.append(_TIMELINE_GLYPHS.get(str(state), "?"))
        if len(symbols) >= limit:
            break
    if not symbols:
        return "(empty timeline)"
    lines = [
        "".join(symbols[offset : offset + width])
        for offset in range(0, len(symbols), width)
    ]
    legend = ". silence   X collision   ! corrupted   digit/letter = sender"
    return "\n".join([legend] + lines)


def ascii_plot(
    series: dict[str, tuple[Sequence[float], Sequence[float]]],
    width: int = 72,
    height: int = 20,
) -> str:
    """A rough character plot of one or more series (paper-figure shapes).

    Each series gets its own glyph; axes are annotated with min/max.  Only
    meant to make bench output human-checkable at a glance.
    """
    glyphs = "*o+x#@%&"
    all_x = [x for xs, _ in series.values() for x in xs]
    all_y = [y for _, ys in series.values() for y in ys]
    if not all_x:
        return "(empty plot)"
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    x_span = (x_hi - x_lo) or 1
    y_span = (y_hi - y_lo) or 1
    grid = [[" "] * width for _ in range(height)]
    for index, (name, (xs, ys)) in enumerate(series.items()):
        glyph = glyphs[index % len(glyphs)]
        for x, y in zip(xs, ys):
            col = round((x - x_lo) / x_span * (width - 1))
            row = height - 1 - round((y - y_lo) / y_span * (height - 1))
            grid[row][col] = glyph
    lines = ["".join(row) for row in grid]
    legend = "  ".join(
        f"{glyphs[i % len(glyphs)]}={name}"
        for i, name in enumerate(series.keys())
    )
    header = f"y: [{_fmt(y_lo)}, {_fmt(y_hi)}]  x: [{_fmt(x_lo)}, {_fmt(x_hi)}]"
    return "\n".join([header, legend] + lines)
