"""Kinematics of a mobile manipulator: planar base plus a serial revolute arm.

The base contributes three joints (x, y, yaw) and every arm joint is revolute
with a fixed parent offset and a unit rotation axis, both given in the parent
frame.  Chains are plain data so alternative arms can be loaded from config.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from .geometry import Pose, _quat_from_rows

BASE_DOFS = 3


class KinematicsError(ValueError):
    pass


@dataclass
class ArmJoint:
    """Revolute joint: rotation `axis` (unit, local frame) after a fixed `offset`."""

    axis: np.ndarray
    offset: Pose = field(default_factory=Pose)

    def __post_init__(self):
        self.axis = np.asarray(self.axis, dtype=float).reshape(3)
        n = np.linalg.norm(self.axis)
        if abs(n - 1.0) > 1e-6:
            raise KinematicsError(f"joint axis must be a unit vector, got norm {n:.6g}")


@dataclass
class KinematicModel:
    """Planar base + arm chain + tool offset, with the damping schedule limits."""

    arm: list
    ee_offset: Pose = field(default_factory=Pose)
    w_threshold: float = 0.05
    k_max: float = 0.1

    def __post_init__(self):
        if self.n_joints <= 6:
            raise KinematicsError(
                f"redundancy requires more than 6 joints, model has {self.n_joints}"
            )
        if self.w_threshold <= 0.0 or self.k_max < 0.0:
            raise KinematicsError("w_threshold must be positive and k_max non-negative")
        # Fixed per-joint quantities as float tuples, cached so the chain
        # walk runs on Python floats.  Identity offset rotations are stored
        # as None and skipped outright.
        def _flat_or_none(pose):
            R = pose.rotation_matrix()
            return None if np.array_equal(R, np.eye(3)) else tuple(R.ravel().tolist())

        self._links = [
            (
                tuple(j.offset.position.tolist()),
                _flat_or_none(j.offset),
                tuple(j.axis.tolist()),
            )
            for j in self.arm
        ]
        self._ee_p = tuple(self.ee_offset.position.tolist())
        self._ee_R = _flat_or_none(self.ee_offset)

    @property
    def n_arm(self) -> int:
        return len(self.arm)

    @property
    def n_joints(self) -> int:
        return BASE_DOFS + len(self.arm)


def _check_q(model: KinematicModel, q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape[0] != model.n_joints:
        raise KinematicsError(
            f"expected {model.n_joints} joint values, got {q.shape[0]}"
        )
    return q


def _mul3(a: tuple, b: tuple) -> tuple:
    """Product of two 3x3 matrices held as row-major 9-tuples of floats."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = a
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = b
    return (
        a00 * b00 + a01 * b10 + a02 * b20,
        a00 * b01 + a01 * b11 + a02 * b21,
        a00 * b02 + a01 * b12 + a02 * b22,
        a10 * b00 + a11 * b10 + a12 * b20,
        a10 * b01 + a11 * b11 + a12 * b21,
        a10 * b02 + a11 * b12 + a12 * b22,
        a20 * b00 + a21 * b10 + a22 * b20,
        a20 * b01 + a21 * b11 + a22 * b21,
        a20 * b02 + a21 * b12 + a22 * b22,
    )


def _chain(model: KinematicModel, q: np.ndarray):
    """World origin and axis of every arm joint plus the EE frame.

    Returns (origins, axes, R_ee, p_ee) where origins[i]/axes[i] are float
    triples describing arm joint i in the world frame, R_ee is the EE
    rotation as a row-major 9-tuple and p_ee the EE position triple.  The
    walk runs on Python floats, with each rotation a row-major 9-tuple.
    """
    cos = np.cos(q[2:]).tolist()
    sin = np.sin(q[2:]).tolist()
    c, s = cos[0], sin[0]
    R = (c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0)  # base yaw
    px, py = q[:2].tolist()
    pz = 0.0
    origins = []
    axes = []
    for ((ox, oy, oz), off_R, (x, y, z)), c, s in zip(model._links, cos[1:], sin[1:]):
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
        px += r00 * ox + r01 * oy + r02 * oz
        py += r10 * ox + r11 * oy + r12 * oz
        pz += r20 * ox + r21 * oy + r22 * oz
        origins.append((px, py, pz))
        if off_R is not None:
            R = _mul3(R, off_R)
            r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
        axes.append((
            r00 * x + r01 * y + r02 * z,
            r10 * x + r11 * y + r12 * z,
            r20 * x + r21 * y + r22 * z,
        ))
        # The joint's rotation about its local axis (Rodrigues).
        C = 1.0 - c
        R = _mul3(R, (
            c + x * x * C, x * y * C - z * s, x * z * C + y * s,
            y * x * C + z * s, c + y * y * C, y * z * C - x * s,
            z * x * C - y * s, z * y * C + x * s, c + z * z * C,
        ))  # fmt: skip
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
    ox, oy, oz = model._ee_p
    p_ee = (
        px + (r00 * ox + r01 * oy + r02 * oz),
        py + (r10 * ox + r11 * oy + r12 * oz),
        pz + (r20 * ox + r21 * oy + r22 * oz),
    )
    if model._ee_R is not None:
        R = _mul3(R, model._ee_R)
    return origins, axes, R, p_ee


def _pose(R: tuple, p: tuple) -> Pose:
    return Pose(np.array(p), np.array(_quat_from_rows(*R)))


@dataclass
class ChainState:
    """One chain evaluation shared by everything that needs it in a tick."""

    pose: Pose
    jacobian: np.ndarray
    manipulability: float


def chain_state(model: KinematicModel, q: np.ndarray) -> ChainState:
    """Evaluate pose, whole-body Jacobian, and manipulability in one pass.

    The Jacobian is 6 x m and maps qdot to the world-frame EE twist.  The
    manipulability w = sqrt(det(Ja Ja^T)) uses only the arm columns Ja, so it
    depends on the arm configuration, not on where the base happens to be.
    For a square Ja (a six-joint arm) it is taken as the equal |det Ja|.
    """
    q = _check_q(model, q)
    origins, axes, R_ee, p_ee = _chain(model, q)
    ex, ey, ez = p_ee
    qx, qy = q[:2].tolist()
    # Base translation: unit linear motion along world x and y.  Base yaw
    # rotates about the vertical axis through the base origin.
    rows = (
        [1.0, 0.0, qy - ey],
        [0.0, 1.0, ex - qx],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
    )
    for (zx, zy, zz), (ox, oy, oz) in zip(axes, origins):
        rx = ex - ox
        ry = ey - oy
        rz = ez - oz
        rows[0].append(zy * rz - zz * ry)
        rows[1].append(zz * rx - zx * rz)
        rows[2].append(zx * ry - zy * rx)
        rows[3].append(zx)
        rows[4].append(zy)
        rows[5].append(zz)
    J = np.array(rows[0] + rows[1] + rows[2] + rows[3] + rows[4] + rows[5])
    J = J.reshape(6, model.n_joints)
    Ja = J[:, BASE_DOFS:]
    if model.n_arm == 6:
        w = abs(_linalg.det(Ja))
    else:
        w = math.sqrt(max(_linalg.det(Ja.dot(Ja.T)), 0.0))
    return ChainState(_pose(R_ee, p_ee), J, w)


def forward_kinematics(model: KinematicModel, q: np.ndarray) -> Pose:
    """World pose of the end effector for joint vector q (base first)."""
    q = _check_q(model, q)
    _, _, R_ee, p_ee = _chain(model, q)
    return _pose(R_ee, p_ee)


def damping_factor(w: float, model: KinematicModel) -> float:
    """Singularity-avoidance damping: zero above the manipulability threshold,
    rising quadratically to k_max as w falls to zero."""
    if w >= model.w_threshold:
        return 0.0
    ratio = 1.0 - w / model.w_threshold
    return model.k_max * ratio * ratio


def default_model(**limits) -> KinematicModel:
    """Six-axis arm with UR16e-like link offsets on a planar base; `limits`
    (w_threshold, k_max) go to the KinematicModel."""
    arm = [
        ArmJoint(axis=[0.0, 0.0, 1.0], offset=Pose([0.20, 0.0, 0.681])),
        ArmJoint(axis=[0.0, 1.0, 0.0], offset=Pose([0.0, 0.176, 0.0])),
        ArmJoint(axis=[0.0, 1.0, 0.0], offset=Pose([0.478, 0.0, 0.0])),
        ArmJoint(axis=[0.0, 1.0, 0.0], offset=Pose([0.360, 0.0, 0.174])),
        ArmJoint(axis=[0.0, 0.0, 1.0], offset=Pose([0.0, 0.0, 0.120])),
        ArmJoint(axis=[0.0, 1.0, 0.0], offset=Pose([0.0, 0.117, 0.0])),
    ]
    return KinematicModel(
        arm=arm,
        ee_offset=Pose([0.0, 0.0, 0.0925]),
        **limits,
    )
