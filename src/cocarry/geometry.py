"""Minimal rigid-body math: unit quaternions, rotations and poses.

Quaternions are in scalar-first order (w, x, y, z) and are kept unit-norm by
construction.  All twists and angular quantities are expressed in the world
frame unless a function says otherwise.  `Pose` is the type of the API edges
and of values built once, and holds read-only float64 arrays.  Inside a
control tick a pose is 7 floats (position, then the (w, x, y, z) quaternion,
the trace's column order) and a twist is 6 floats (linear, then angular).  The
quaternion laws, `pose_error` and `integrate_pose` take float sequences and
return Python floats in a list or tuple; a caller that needs an array wraps
the result.

The quaternion laws, `quat_normalize` and `integrate_pose` take their norms
with `math.hypot` and their angles with `math.atan2`, `math.cos` and
`math.sin`, not through numpy: results are deterministic on a host and not
tied to the BLAS kernel numpy would pick for a small dot product.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._rules import FINITE, check, compared_by_bytes, ruled

_EPS = 1e-12


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def _unit(q) -> list:
    """The 4 floats of q divided by their norm."""
    n = math.hypot(*q)
    if n < _EPS:
        raise ValueError("cannot normalize a zero quaternion")
    return [c / n for c in q]


def quat_normalize(q) -> np.ndarray:
    return np.array(_unit(np.asarray(q, dtype=float).reshape(4).tolist()))


def quat_multiply(a, b) -> list:
    """Hamilton product a*b of two (w, x, y, z) float sequences (apply b
    first, then a, for rotation quaternions)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return [
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ]


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=float).tolist()
    return np.array([w, -x, -y, -z])


def quat_rotate(q, v) -> np.ndarray:
    """Rotate vector v by quaternion q, as an array.

    The Rodrigues-style expansion v + 2 u x (u x v + w v), with u the vector
    part of q, written out on floats in the operation order of np.cross.
    """
    w, x, y, z = np.asarray(q, dtype=float).tolist()
    vx, vy, vz = np.asarray(v, dtype=float).tolist()
    ax = (y * vz - z * vy) + w * vx
    ay = (z * vx - x * vz) + w * vy
    az = (x * vy - y * vx) + w * vz
    return np.array([
        vx + 2.0 * (y * az - z * ay),
        vy + 2.0 * (z * ax - x * az),
        vz + 2.0 * (x * ay - y * ax),
    ])


def quat_from_rotvec(r) -> list:
    """Unit quaternion of the rotation vector r (3 floats)."""
    x, y, z = r
    if not (x or y or z):
        # Exactly what the expansion below gives: its norm is sqrt(1) = 1.
        return [1.0, 0.5 * x, 0.5 * y, 0.5 * z]
    angle = math.hypot(x, y, z)
    if angle < _EPS:
        # First-order expansion keeps the map smooth through zero.
        return _unit([1.0, 0.5 * x, 0.5 * y, 0.5 * z])
    half = 0.5 * angle
    s = math.sin(half)
    return [math.cos(half), s * (x / angle), s * (y / angle), s * (z / angle)]


def quat_to_rotvec(q) -> list:
    """Axis-angle vector of the quaternion q (4 floats), angle in [0, pi]."""
    w, x, y, z = q
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    sin_half = math.hypot(x, y, z)
    if sin_half < _EPS:
        return [2.0 * x, 2.0 * y, 2.0 * z]
    f = 2.0 * math.atan2(sin_half, w) / sin_half
    return [f * x, f * y, f * z]


def quat_from_matrix(rows) -> list:
    """Unit quaternion of the rotation matrix given row by row as 9 floats.

    Shepperd's method; stable for all rotation matrices.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = rows
    t = r00 + r11 + r22
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        q = [0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s]
    elif r00 >= r11 and r00 >= r22:
        s = math.sqrt(1.0 + r00 - r11 - r22) * 2.0
        q = [(r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s]
    elif r11 >= r22:
        s = math.sqrt(1.0 + r11 - r00 - r22) * 2.0
        q = [(r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s]
    else:
        s = math.sqrt(1.0 + r22 - r00 - r11) * 2.0
        q = [(r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s]
    if q[0] < 0.0:
        q = [-c for c in q]
    return _unit(q)


def quat_from_yaw(yaw: float) -> tuple:
    """(w, x, y, z) of the rotation by `yaw` about the vertical axis."""
    half = 0.5 * yaw
    return (math.cos(half), 0.0, 0.0, math.sin(half))


def yaw_from_quat(q) -> float:
    """Z-Y-X yaw of the rotation (angle of the rotated x axis in the xy plane)."""
    w, x, y, z = q
    return math.atan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z))


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    return float(np.pi - np.mod(np.pi - a, 2.0 * np.pi))


@compared_by_bytes
@dataclass(frozen=True)
class Pose:
    """Position plus unit-quaternion orientation of a frame in the world."""

    position: np.ndarray = ruled(FINITE, (0.0, 0.0, 0.0), shape=3)
    orientation: np.ndarray = ruled(FINITE, (1.0, 0.0, 0.0, 0.0), shape=4)

    def __post_init__(self):
        check(self)

    def compose(self, other: "Pose") -> "Pose":
        """This pose followed by `other` expressed in this pose's frame."""
        return Pose(
            self.position + quat_rotate(self.orientation, other.position),
            quat_normalize(quat_multiply(self.orientation, other.orientation)),
        )

    def inverse(self) -> "Pose":
        qi = quat_conjugate(self.orientation)
        return Pose(-quat_rotate(qi, self.position), qi)

    def yaw(self) -> float:
        return yaw_from_quat(self.orientation)


def pose_error(desired, current) -> list:
    """6 floats [position error; orientation error as a world-frame rotation
    vector] between two poses of 7 floats.

    The orientation part is the axis-angle of R_d R^T, i.e. the rotation that
    carries the current orientation onto the desired one.
    """
    px, py, pz, w, x, y, z = current
    dx, dy, dz, *q_d = desired
    dq = quat_multiply(q_d, (w, -x, -y, -z))
    return [dx - px, dy - py, dz - pz] + quat_to_rotvec(dq)


def integrate_pose(pose, twist, dt: float) -> list:
    """Euler step of a pose of 7 floats under a world-frame twist of 6 floats
    (linear, then angular), as a list of 7; orientation via the exponential
    of the angular increment, renormalized."""
    px, py, pz, *q = pose
    vx, vy, vz, wx, wy, wz = twist
    q = quat_multiply(quat_from_rotvec((wx * dt, wy * dt, wz * dt)), q)
    return [px + vx * dt, py + vy * dt, pz + vz * dt, *_unit(q)]
