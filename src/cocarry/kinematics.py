"""Kinematics of a mobile manipulator: planar base plus a six-joint arm.

The base contributes three joints (x, y, yaw).  Each arm joint is revolute:
it sits behind a fixed translation in its parent frame and turns about a
signed coordinate axis of its own frame (exactly +-x, +-y or +-z).  A tool
offset, a translation too, ends the chain.

A joint is walked in two columns: its world axis is that column of the
running rotation R (negated for a negative axis), the turn mixes the other
two columns, and the third is scaled by the Rodrigues diagonal c + (1.0 - c).
These are the nonzero terms of the full Rodrigues product; the two forms
differ only where the full product adds a structurally zero term r * 0.0: a
value that is exactly zero may carry the other sign (the zero-sign rule), in
R, in the angular rows of J and in the EE quaternion, while every nonzero
value keeps its bits.
"""

import struct
from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from ._rules import FINITE, NON_NEGATIVE, POSITIVE, check, compared_by_bytes, ruled
from .geometry import Pose, quat_from_matrix

BASE_DOFS = 3


class KinematicsError(ValueError):
    pass


def _coordinate_turn(axis: np.ndarray) -> tuple:
    """(index, sign) of a joint axis that is exactly +-1.0 on one coordinate
    axis and zero on the others; any other axis, NaN included, is refused."""
    values = axis.tolist()
    for k, v in enumerate(values):
        if abs(v) == 1.0 and values.count(0.0) == 2:
            return k, v
    raise KinematicsError(f"joint axis must be a unit vector along +-x, +-y or +-z, got {axis}")


@compared_by_bytes
@dataclass(frozen=True)
class ArmJoint:
    """Revolute joint: turns about `axis`, a signed coordinate axis of its
    own frame, after the fixed translation `offset` in its parent's."""

    axis: np.ndarray = ruled(None, shape=3)
    offset: np.ndarray = ruled(FINITE, (0.0, 0.0, 0.0), shape=3)

    def __post_init__(self):
        check(self, KinematicsError)
        _coordinate_turn(self.axis)


@compared_by_bytes
@dataclass(frozen=True)
class KinematicModel:
    """Planar base + six-joint arm + tool offset, with the damping schedule
    limits.  The chain walk reads the links as cached here."""

    arm: tuple
    ee_offset: np.ndarray = ruled(FINITE, (0.0, 0.0, 0.0), shape=3)
    w_threshold: float = ruled(POSITIVE, 0.05)
    k_max: float = ruled(NON_NEGATIVE, 0.1)

    def __post_init__(self):
        object.__setattr__(self, "arm", tuple(self.arm))
        if self.n_arm != 6:
            raise KinematicsError(f"the arm must have 6 joints, got {self.n_arm}")
        check(self, KinematicsError)
        # Per joint, the offset triple and the (index, sign) of its turn, as
        # Python floats for the chain walk.
        object.__setattr__(self, "_links", tuple(
            (tuple(j.offset.tolist()), _coordinate_turn(j.axis)) for j in self.arm
        ))
        object.__setattr__(self, "_ee_p", tuple(self.ee_offset.tolist()))
        # J's 6 x m floats, row-major, packed in one call.
        object.__setattr__(self, "_J", struct.Struct(f"{6 * self.n_joints}d"))

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


def _chain(model: KinematicModel, q: np.ndarray):
    """World origin and axis of every arm joint plus the EE frame.

    Returns (origins, axes, R_ee, p_ee) where origins[i]/axes[i] are float
    triples describing arm joint i in the world frame, R_ee is the EE
    rotation as a row-major 9-tuple and p_ee the EE position triple.  The
    walk runs on Python floats, with the running rotation in nine locals.

    Each joint reads its world axis as a column of R and turns R in two
    columns: for the axis z, with s negated for -z, the columns (a, b) =
    (0, 1) become (a c + b s, b c - a s) and column 2 is scaled by
    d = c + (1.0 - c), the Rodrigues diagonal (not always 1.0); for x the
    columns are (1, 2) and for y (2, 0).  These are the nonzero terms of the
    Rodrigues product: each value keeps its bits, but one that is exactly
    zero may carry the other sign.
    """
    cos = np.cos(q[2:]).tolist()
    sin = np.sin(q[2:]).tolist()
    c, s = cos[0], sin[0]
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0
    px, py = q[:2].tolist()
    pz = 0.0
    origins = []
    axes = []
    for ((ox, oy, oz), (k, sign)), c, s in zip(model._links, cos[1:], sin[1:]):
        px += r00 * ox + r01 * oy + r02 * oz
        py += r10 * ox + r11 * oy + r12 * oz
        pz += r20 * ox + r21 * oy + r22 * oz
        origins.append((px, py, pz))
        s *= sign
        d = c + (1.0 - c)
        if k == 2:
            axes.append((r02 * sign, r12 * sign, r22 * sign))
            r00, r01, r02 = r00 * c + r01 * s, r01 * c - r00 * s, r02 * d
            r10, r11, r12 = r10 * c + r11 * s, r11 * c - r10 * s, r12 * d
            r20, r21, r22 = r20 * c + r21 * s, r21 * c - r20 * s, r22 * d
        elif k == 1:
            axes.append((r01 * sign, r11 * sign, r21 * sign))
            r00, r01, r02 = r00 * c - r02 * s, r01 * d, r02 * c + r00 * s
            r10, r11, r12 = r10 * c - r12 * s, r11 * d, r12 * c + r10 * s
            r20, r21, r22 = r20 * c - r22 * s, r21 * d, r22 * c + r20 * s
        else:
            axes.append((r00 * sign, r10 * sign, r20 * sign))
            r00, r01, r02 = r00 * d, r01 * c + r02 * s, r02 * c - r01 * s
            r10, r11, r12 = r10 * d, r11 * c + r12 * s, r12 * c - r11 * s
            r20, r21, r22 = r20 * d, r21 * c + r22 * s, r22 * c - r21 * s
    ox, oy, oz = model._ee_p
    p_ee = (
        px + (r00 * ox + r01 * oy + r02 * oz),
        py + (r10 * ox + r11 * oy + r12 * oz),
        pz + (r20 * ox + r21 * oy + r22 * oz),
    )
    return origins, axes, (r00, r01, r02, r10, r11, r12, r20, r21, r22), p_ee


@dataclass(eq=False)
class ChainState:
    """One chain evaluation, at the joint vector `q`, shared within a tick;
    per-tick state, so `==` compares by identity.

    The EE pose is 7 floats: position, then the (w, x, y, z) quaternion.
    """

    q: np.ndarray
    pose: list
    jacobian: np.ndarray
    manipulability: float
    # The last command `wbc.compute` solved at this chain, after the inputs
    # it was solved for: (packed reference, params, k, saturated read-only
    # command).
    command: tuple | None = field(default=None, repr=False)


def chain_state(model: KinematicModel, q: np.ndarray) -> ChainState:
    """Evaluate pose, whole-body Jacobian, and manipulability in one pass.

    The Jacobian is 6 x m, read-only like q, and maps qdot to the
    world-frame EE twist.  The manipulability w = sqrt(det(Ja Ja^T)) uses
    only the arm columns Ja, so it depends on the arm configuration, not on
    where the base happens to be; for the square Ja it is the equal |det Ja|.
    """
    return _evaluate(model, _check_q(model, q))


def _evaluate(model: KinematicModel, q: np.ndarray) -> ChainState:
    """`chain_state` at a q the caller hands over: a float64 array of
    `model.n_joints` entries, used without a copy and made read-only."""
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
    rows = model._J.pack(
        *vx, *vy, *vz, 0.0, 0.0, 0.0, *wx, 0.0, 0.0, 0.0, *wy, 0.0, 0.0, 1.0, *wz
    )
    J = np.frombuffer(rows).reshape(6, model.n_joints)
    w = abs(_linalg.det(J[:, BASE_DOFS:]))
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
        ArmJoint(axis=[0.0, 0.0, 1.0], offset=[0.20, 0.0, 0.681]),
        ArmJoint(axis=[0.0, 1.0, 0.0], offset=[0.0, 0.176, 0.0]),
        ArmJoint(axis=[0.0, 1.0, 0.0], offset=[0.478, 0.0, 0.0]),
        ArmJoint(axis=[0.0, 1.0, 0.0], offset=[0.360, 0.0, 0.174]),
        ArmJoint(axis=[0.0, 0.0, 1.0], offset=[0.0, 0.0, 0.120]),
        ArmJoint(axis=[0.0, 1.0, 0.0], offset=[0.0, 0.117, 0.0]),
    ]
    return KinematicModel(arm=arm, ee_offset=[0.0, 0.0, 0.0925], **limits)
