"""Shared argparse parents: one spelling for the flags every CLI takes.

``repro.experiments``, ``repro.tools.bench``, ``repro.tools.check`` and
``repro.experiments sweep`` all accept the same execution knobs.  Each
CLI historically declared its own copies, which let spellings, defaults
and help strings drift; these parent parsers are the single source of
truth — build a CLI with ``parents=[execution_options(), ...]`` and the
flags stay identical everywhere.
"""

from __future__ import annotations

import argparse

from repro.net.engine import ENGINES

__all__ = ["cache_options", "execution_options", "positive_int"]


def positive_int(text: str) -> int:
    """Argparse type for strictly positive integer flags."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def execution_options() -> argparse.ArgumentParser:
    """``--jobs / --seed / --engine / --telemetry`` parent parser."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("execution")
    group.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="run up to N tasks in parallel worker processes (default: 1)",
    )
    group.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="override the root seed of seeded simulation runs",
    )
    group.add_argument(
        "--engine",
        choices=ENGINES,
        default=None,
        help="simulation engine: batch (the default) or des, the per-slot "
        "reference; engines are result-identical, so this only affects "
        "speed",
    )
    group.add_argument(
        "--telemetry",
        metavar="FILE.jsonl",
        default=None,
        help="write one telemetry manifest per run as JSON Lines "
        "(inspect with `python -m repro.tools.obs summarize FILE`)",
    )
    return parent


def cache_options() -> argparse.ArgumentParser:
    """``--cache-dir / --no-cache / --force`` parent parser."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("result cache")
    group.add_argument(
        "--cache-dir",
        default=".repro-cache",
        metavar="DIR",
        help="result cache directory (default: %(default)s)",
    )
    group.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the result cache entirely",
    )
    group.add_argument(
        "--force",
        action="store_true",
        help="recompute even when a cached result exists",
    )
    return parent


def validate_jobs(parser: argparse.ArgumentParser, jobs: int) -> None:
    if jobs < 1:
        parser.error(f"--jobs must be >= 1, got {jobs}")
