"""Every script under ``examples/`` runs to completion from a checkout."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]
#: Scripts too slow for the tier-1 fast path (run with ``pytest -m slow``).
_SLOW = {"atm_switch.py"}


@pytest.mark.parametrize(
    "script",
    [
        pytest.param(path, marks=pytest.mark.slow)
        if path.name in _SLOW
        else path
        for path in sorted((_ROOT / "examples").glob("*.py"))
    ],
    ids=lambda path: path.name,
)
def test_example_runs(script, tmp_path):
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(_ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
