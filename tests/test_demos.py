"""Demo smoke tests: a demo script runs to the end as a user would start it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> str:
    """Run demos/<name> in a fresh interpreter; returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_rotation_assist_demo_runs():
    # The only demo that imports cocarry.geometry directly.
    assert "detector fired 0 times" in run_demo("rotation_assist.py")


def test_trace_determinism_demo_runs():
    assert "second run byte-identical: True" in run_demo("trace_determinism.py")
