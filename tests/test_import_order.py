"""Import order: every observation-layer module imports first in a fresh process.

``repro.trace`` depends on nothing in ``repro`` but ``exceptions``, ``utils``
and its own modules, so the session, service, engine and scenario layers
import the tracer and the telemetry sink at module level.  A cycle through
any of them shows up here as an ImportError in a fresh interpreter, whatever
the test process has already imported.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.trace

SRC = str(Path(__file__).resolve().parent.parent / "src")

MODULES = [
    "repro.trace",
    "repro.trace.tracer",
    "repro.trace.reservoir",
    "repro.telemetry",
    "repro.telemetry.sink",
    "repro.api.session",
    "repro.service",
    "repro.engine.executor",
    "repro.scenarios.run",
]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first_in_a_fresh_process(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_trace_package_exports_eagerly():
    """No lazy-export loader: the package binds every export at import."""
    assert "__getattr__" not in vars(repro.trace)
    for name in repro.trace.__all__:
        assert name in vars(repro.trace), name
