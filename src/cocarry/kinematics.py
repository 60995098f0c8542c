"""Kinematics of a mobile manipulator: planar base plus a serial revolute arm.

The base contributes three joints (x, y, yaw) and every arm joint is revolute
with a fixed parent offset and a unit rotation axis, both given in the parent
frame.  Chains are plain data so alternative arms can be loaded from config.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from ._rules import NON_NEGATIVE, POSITIVE, check, ruled
from .geometry import Pose, quat_from_matrix

BASE_DOFS = 3


class KinematicsError(ValueError):
    pass


@dataclass(frozen=True)
class ArmJoint:
    """Revolute joint: rotation `axis` (unit, local frame) after a fixed `offset`."""

    axis: np.ndarray = ruled(None, shape=3)
    offset: Pose = field(default_factory=Pose)

    def __post_init__(self):
        check(self, KinematicsError)
        n = math.hypot(*self.axis.tolist())
        if not abs(n - 1.0) <= 1e-6:  # a NaN axis fails too
            raise KinematicsError(f"joint axis must be a unit vector, got norm {n:.6g}")


@dataclass(frozen=True)
class KinematicModel:
    """Planar base + arm chain + tool offset, with the damping schedule limits.
    The chain walk reads the links as cached here."""

    arm: tuple
    ee_offset: Pose = field(default_factory=Pose)
    w_threshold: float = ruled(POSITIVE, 0.05)
    k_max: float = ruled(NON_NEGATIVE, 0.1)

    def __post_init__(self):
        object.__setattr__(self, "arm", tuple(self.arm))
        if self.n_joints <= 6:
            raise KinematicsError(
                f"redundancy requires more than 6 joints, model has {self.n_joints}"
            )
        check(self, KinematicsError)
        # Fixed per-joint quantities as float tuples, cached so the chain
        # walk runs on Python floats.  Identity offset rotations are stored
        # as None and skipped outright: `quat_to_matrix` gives exactly the
        # identity when, and only when, the quaternion's vector part is zero.
        def _flat_or_none(pose):
            _, x, y, z = pose.orientation.tolist()
            if x == y == z == 0.0:
                return None
            return tuple(pose.rotation_matrix().ravel().tolist())

        object.__setattr__(self, "_links", tuple(
            (
                tuple(j.offset.position.tolist()),
                _flat_or_none(j.offset),
                tuple(j.axis.tolist()),
            )
            for j in self.arm
        ))
        object.__setattr__(self, "_ee_p", tuple(self.ee_offset.position.tolist()))
        object.__setattr__(self, "_ee_R", _flat_or_none(self.ee_offset))

    @property
    def n_arm(self) -> int:
        return len(self.arm)

    @property
    def n_joints(self) -> int:
        return BASE_DOFS + len(self.arm)


def _check_q(model: KinematicModel, q: np.ndarray) -> np.ndarray:
    q = np.array(q, dtype=float).reshape(-1)  # an array of its own
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
    walk runs on Python floats, with the running rotation in nine locals.
    """
    cos = np.cos(q[2:]).tolist()
    sin = np.sin(q[2:]).tolist()
    c, s = cos[0], sin[0]
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0
    px, py = q[:2].tolist()
    pz = 0.0
    origins = []
    axes = []
    for ((ox, oy, oz), off_R, (x, y, z)), c, s in zip(model._links, cos[1:], sin[1:]):
        px += r00 * ox + r01 * oy + r02 * oz
        py += r10 * ox + r11 * oy + r12 * oz
        pz += r20 * ox + r21 * oy + r22 * oz
        origins.append((px, py, pz))
        if off_R is not None:
            R = _mul3((r00, r01, r02, r10, r11, r12, r20, r21, r22), off_R)
            r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
        axes.append((
            r00 * x + r01 * y + r02 * z,
            r10 * x + r11 * y + r12 * z,
            r20 * x + r21 * y + r22 * z,
        ))
        # R times the joint's rotation about its local axis (Rodrigues), row
        # by row, in the operation order of _mul3.
        C = 1.0 - c
        m00, m01, m02 = c + x * x * C, x * y * C - z * s, x * z * C + y * s
        m10, m11, m12 = y * x * C + z * s, c + y * y * C, y * z * C - x * s
        m20, m21, m22 = z * x * C - y * s, z * y * C + x * s, c + z * z * C
        r00, r01, r02 = (r00 * m00 + r01 * m10 + r02 * m20,
                         r00 * m01 + r01 * m11 + r02 * m21,
                         r00 * m02 + r01 * m12 + r02 * m22)  # fmt: skip
        r10, r11, r12 = (r10 * m00 + r11 * m10 + r12 * m20,
                         r10 * m01 + r11 * m11 + r12 * m21,
                         r10 * m02 + r11 * m12 + r12 * m22)  # fmt: skip
        r20, r21, r22 = (r20 * m00 + r21 * m10 + r22 * m20,
                         r20 * m01 + r21 * m11 + r22 * m21,
                         r20 * m02 + r21 * m12 + r22 * m22)  # fmt: skip
    R = (r00, r01, r02, r10, r11, r12, r20, r21, r22)
    ox, oy, oz = model._ee_p
    p_ee = (
        px + (r00 * ox + r01 * oy + r02 * oz),
        py + (r10 * ox + r11 * oy + r12 * oz),
        pz + (r20 * ox + r21 * oy + r22 * oz),
    )
    if model._ee_R is not None:
        R = _mul3(R, model._ee_R)
    return origins, axes, R, p_ee


@dataclass
class ChainState:
    """One chain evaluation, at the joint vector `q`, shared within a tick.

    The EE pose is 7 floats: position, then the (w, x, y, z) quaternion.
    """

    q: np.ndarray
    pose: list
    jacobian: np.ndarray
    manipulability: float
    # The last command `wbc.compute` solved at this chain, after the inputs
    # it was solved for: (packed reference, params, k, saturated read-only
    # command).
    command: tuple | None = field(default=None, repr=False, compare=False)


def chain_state(model: KinematicModel, q: np.ndarray) -> ChainState:
    """Evaluate pose, whole-body Jacobian, and manipulability in one pass.

    The Jacobian is 6 x m, read-only like q, and maps qdot to the
    world-frame EE twist.  The manipulability w = sqrt(det(Ja Ja^T)) uses
    only the arm columns Ja, so it depends on the arm configuration, not on
    where the base happens to be.
    For a square Ja (a six-joint arm) it is taken as the equal |det Ja|.
    """
    q = _check_q(model, q)
    q.flags.writeable = False  # the chain's q cannot leave its pose and J
    origins, axes, R_ee, p_ee = _chain(model, q)
    ex, ey, ez = p_ee
    qx, qy = q[:2].tolist()
    # The linear rows: base translation is unit motion along world x and y,
    # base yaw rotates about the vertical axis through the base origin.
    vx, vy, vz = [1.0, 0.0, qy - ey], [0.0, 1.0, ex - qx], [0.0, 0.0, 0.0]
    for (zx, zy, zz), (ox, oy, oz) in zip(axes, origins):
        rx = ex - ox
        ry = ey - oy
        rz = ez - oz
        vx.append(zy * rz - zz * ry)
        vy.append(zz * rx - zx * rz)
        vz.append(zx * ry - zy * rx)
    wx, wy, wz = zip(*axes)  # the angular rows
    n = model.n_joints
    rows = struct.pack(
        f"{6 * n}d", *vx, *vy, *vz, 0.0, 0.0, 0.0, *wx, 0.0, 0.0, 0.0, *wy, 0.0, 0.0, 1.0, *wz
    )
    J = np.frombuffer(rows).reshape(6, n)
    Ja = J[:, BASE_DOFS:]
    if model.n_arm == 6:
        w = abs(_linalg.det(Ja))
    else:
        w = math.sqrt(max(_linalg.det(Ja.dot(Ja.T)), 0.0))
    return ChainState(q, [*p_ee, *quat_from_matrix(R_ee)], J, w)


def forward_kinematics(model: KinematicModel, q: np.ndarray) -> Pose:
    """World pose of the end effector for joint vector q (base first)."""
    q = _check_q(model, q)
    _, _, R_ee, p_ee = _chain(model, q)
    return Pose(p_ee, quat_from_matrix(R_ee))


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
