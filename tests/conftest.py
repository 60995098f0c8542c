"""Shared test helpers."""

import numpy as np
import pytest

from cocarry.geometry import Pose, quat_from_rotvec, quat_multiply, quat_normalize


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
