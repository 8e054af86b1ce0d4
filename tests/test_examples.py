"""Every script under ``examples/`` runs to completion from a checkout."""

from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]
#: Scripts too slow for the tier-1 fast path (run with ``pytest -m slow``).
_SLOW = {"atm_switch.py"}
#: sha256 of a script's stdout, for scripts whose output is pinned.  The
#: timeline strips are rendered from flight-recorder events; their
#: clean run leaps idle stretches and must still draw every slot.
_STDOUT_SHA256 = {
    "channel_timeline.py": (
        "934b607017260ba3d87306ce5c62241c16c121cea17ff6ffa349c6125a5d3190"
    ),
}


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
    pinned = _STDOUT_SHA256.get(script.name)
    if pinned is not None:
        digest = hashlib.sha256(completed.stdout.encode()).hexdigest()
        assert digest == pinned, completed.stdout
