"""Shared test helpers."""

import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cocarry.geometry import Pose, quat_from_rotvec, quat_multiply, quat_normalize
from cocarry.scenario import load_scenario, scenario_path
from cocarry.sim import Simulation

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from reference_runs import RUNS  # noqa: E402


def _cubic_pose(start: Pose, traj, t: float) -> Pose:
    """The pose at t of a `CubicTrajectory` built from `start`: the chord and
    the shortest arc, each travelled to s(tau) = 3 tau^2 - 2 tau^3."""
    tau = traj._tau(t)
    s = tau * tau * (3.0 - 2.0 * tau)
    pos = start.position + s * np.array(traj.direction[:3])
    rot = quat_from_rotvec([s * r for r in traj.direction[3:]])
    return Pose(pos, quat_normalize(quat_multiply(rot, start.orientation.tolist())))


@pytest.fixture
def cubic_pose():
    return _cubic_pose


@pytest.fixture(scope="session")
def reference_run():
    """`reference_run(name)` runs one of the reference runs of
    `tools/reference_runs.py` in memory, once per session: its config, the
    `Simulation`, trace, metrics and the wall time of construction and run."""
    done = {}

    def run(name):
        if name not in done:
            scenario, overrides = RUNS[name]
            cfg = load_scenario(scenario_path(scenario), overrides or None)
            start = time.perf_counter()
            sim = Simulation(cfg)
            trace, metrics = sim.run()
            wall = time.perf_counter() - start
            done[name] = SimpleNamespace(
                cfg=cfg, sim=sim, trace=trace, metrics=metrics, wall=wall
            )
        return done[name]

    return run
