"""Demo smoke tests: a demo script runs to the end as a user would start it,
and its stdout keeps the bytes recorded in tests/reference_digests.json."""

import os
import subprocess
import sys
from pathlib import Path

from reference_runs import text_digest
from test_reference_digests import RECORDED, require_recorded_environment

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


def assert_recorded(name: str, stdout: str):
    """The stdout of demos/<name> is the one `tools/reference_runs.py
    --digests` recorded."""
    require_recorded_environment()
    assert text_digest(stdout) == RECORDED["demo_stdout"][name], stdout


def test_rotation_assist_demo_runs():
    # The only demo that imports cocarry.geometry directly.
    out = run_demo("rotation_assist.py")
    assert "detector fired 0 times" in out
    assert_recorded("rotation_assist.py", out)


def test_trace_determinism_demo_runs():
    out = run_demo("trace_determinism.py")
    assert "second run byte-identical: True" in out
    assert_recorded("trace_determinism.py", out)


def test_rigid_rod_deadlock_demo_runs():
    # A per-interval alpha: the force channel leads on the rigid rod.
    out = run_demo("rigid_rod_deadlock.py")
    assert "steady motion [0.8, 3.9) s  alpha = 0.054" in out
    assert_recorded("rigid_rod_deadlock.py", out)


def test_slack_rope_regime_demo_runs():
    # A per-interval alpha: the motion channel leads on the slack rope.
    out = run_demo("slack_rope_regime.py")
    assert "steady motion [0.8, 3.9) s  alpha = 1.000" in out
    assert_recorded("slack_rope_regime.py", out)


def test_bag_direction_sweep_demo_runs():
    # The interval alphas, ordered by the bag's stiffness per direction.
    out = run_demo("bag_direction_sweep.py")
    assert "ordering: pull 0.06 < push 0.84 < sideways 0.90 < vertical 0.96" in out
    assert_recorded("bag_direction_sweep.py", out)
