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


def test_rigid_rod_deadlock_demo_runs():
    # A per-interval alpha: the force channel leads on the rigid rod.
    assert "steady motion [0.8, 3.9) s  alpha = 0.054" in run_demo("rigid_rod_deadlock.py")


def test_slack_rope_regime_demo_runs():
    # A per-interval alpha: the motion channel leads on the slack rope.
    assert "steady motion [0.8, 3.9) s  alpha = 1.000" in run_demo("slack_rope_regime.py")


def test_bag_direction_sweep_demo_runs():
    # The interval alphas, ordered by the bag's stiffness per direction.
    out = run_demo("bag_direction_sweep.py")
    assert "ordering: pull 0.06 < push 0.84 < sideways 0.90 < vertical 0.96" in out
