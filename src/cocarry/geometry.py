"""Minimal rigid-body math: unit quaternions, rotations, poses, twists, wrenches.

Quaternions are numpy arrays in scalar-first order (w, x, y, z) and are kept
unit-norm by construction.  All twists and angular quantities are expressed in
the world frame unless a function says otherwise.
"""

import math
from dataclasses import dataclass, field

import numpy as np

_EPS = 1e-12
_F64 = np.dtype(float)


def _vec(v, n: int) -> np.ndarray:
    """`v` as a float64 array of shape (n,); such an array is returned as is."""
    if type(v) is np.ndarray and v.dtype is _F64 and v.shape == (n,):
        return v
    return np.asarray(v, dtype=float).reshape(n)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float64 vector, bitwise equal to `np.linalg.norm`.

    For a contiguous vector `np.linalg.norm` reduces to sqrt(v . v); this
    skips its dispatch overhead.
    """
    if v.flags.c_contiguous:
        return math.sqrt(v.dot(v))
    return float(np.linalg.norm(v))


def quat_identity() -> np.ndarray:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = _norm(q)
    if n < _EPS:
        raise ValueError("cannot normalize a zero quaternion")
    return q / n


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a*b (apply b first, then a, for rotation quaternions)."""
    return np.array(
        _qmul(np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist())
    )


def _qmul(a, b) -> list:
    """Hamilton product of two (w, x, y, z) float sequences."""
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


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector v by quaternion q."""
    w = q[0]
    u = q[1:]
    # Rodrigues-style expansion, cheaper than building the matrix.
    return v + 2.0 * np.cross(u, np.cross(u, v) + w * v)


def quat_from_rotvec(r: np.ndarray) -> np.ndarray:
    return np.array(_rotvec_to_quat(np.asarray(r, dtype=float)))


def _rotvec_to_quat(r: np.ndarray) -> list:
    x, y, z = r.tolist()
    if not (x or y or z):
        # Exactly what the expansion below gives: its norm is sqrt(1) = 1.
        return [1.0, 0.5 * x, 0.5 * y, 0.5 * z]
    angle = _norm(r)
    if angle < _EPS:
        # First-order expansion keeps the map smooth through zero.
        q = np.array([1.0, 0.5 * x, 0.5 * y, 0.5 * z])
        n = _norm(q)
        return [v / n for v in q.tolist()]
    half = 0.5 * angle
    s = float(np.sin(half))
    return [float(np.cos(half)), s * (x / angle), s * (y / angle), s * (z / angle)]


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Axis-angle vector of q with angle in [0, pi]."""
    return np.array(_rotvec(*np.asarray(q, dtype=float).tolist()))


def _rotvec(w: float, x: float, y: float, z: float) -> list:
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    sin_half = _norm(np.array([x, y, z]))
    if sin_half < _EPS:
        return [2.0 * x, 2.0 * y, 2.0 * z]
    f = float(2.0 * np.arctan2(sin_half, w)) / sin_half
    return [f * x, f * y, f * z]


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_from_matrix(R: np.ndarray) -> np.ndarray:
    """Shepperd's method; stable for all rotation matrices."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = np.asarray(
        R, dtype=float
    ).tolist()
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
    q = np.array(q)
    if q[0] < 0.0:
        q = -q
    return q / _norm(q)


def quat_from_yaw(yaw: float) -> np.ndarray:
    half = 0.5 * yaw
    return np.array([np.cos(half), 0.0, 0.0, np.sin(half)])


def yaw_from_quat(q: np.ndarray) -> float:
    """Z-Y-X yaw of the rotation (angle of the rotated x axis in the xy plane)."""
    w, x, y, z = np.asarray(q, dtype=float).tolist()
    return float(np.arctan2(2.0 * (w * z + x * y), 1.0 - 2.0 * (y * y + z * z)))


def rotz(yaw: float) -> np.ndarray:
    c, s = float(np.cos(yaw)), float(np.sin(yaw))
    return np.array([c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0]).reshape(3, 3)


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi]."""
    return float(np.pi - np.mod(np.pi - a, 2.0 * np.pi))


@dataclass
class Pose:
    """Position plus unit-quaternion orientation of a frame in the world."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    orientation: np.ndarray = field(default_factory=quat_identity)

    def __post_init__(self):
        self.position = _vec(self.position, 3)
        self.orientation = _vec(self.orientation, 4)

    def copy(self) -> "Pose":
        return Pose(self.position.copy(), self.orientation.copy())

    def rotation_matrix(self) -> np.ndarray:
        return quat_to_matrix(self.orientation)

    def compose(self, other: "Pose") -> "Pose":
        """This pose followed by `other` expressed in this pose's frame."""
        return Pose(
            self.position + quat_rotate(self.orientation, other.position),
            quat_normalize(quat_multiply(self.orientation, other.orientation)),
        )

    def inverse(self) -> "Pose":
        qi = quat_conjugate(self.orientation)
        return Pose(-quat_rotate(qi, self.position), qi)

    def transform_point(self, p: np.ndarray) -> np.ndarray:
        return self.position + quat_rotate(self.orientation, np.asarray(p, dtype=float))

    def yaw(self) -> float:
        return yaw_from_quat(self.orientation)

    def as_vector(self) -> np.ndarray:
        """(px, py, pz, qw, qx, qy, qz)."""
        return np.concatenate([self.position, self.orientation])

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "Pose":
        v = np.asarray(v, dtype=float)
        return cls(v[:3], quat_normalize(v[3:7]))

    @classmethod
    def from_xyz_rpy(cls, xyz=(0.0, 0.0, 0.0), rpy=(0.0, 0.0, 0.0)) -> "Pose":
        roll, pitch, yaw = rpy
        q = quat_multiply(
            quat_from_yaw(yaw),
            quat_multiply(
                np.array([np.cos(pitch / 2), 0.0, np.sin(pitch / 2), 0.0]),
                np.array([np.cos(roll / 2), np.sin(roll / 2), 0.0, 0.0]),
            ),
        )
        return cls(np.asarray(xyz, dtype=float), quat_normalize(q))


@dataclass
class Twist:
    """6-D velocity: linear and angular parts in the world frame."""

    linear: np.ndarray = field(default_factory=lambda: np.zeros(3))
    angular: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.linear = _vec(self.linear, 3)
        self.angular = _vec(self.angular, 3)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.linear, self.angular])

    @classmethod
    def from_vector(cls, v: np.ndarray) -> "Twist":
        v = np.asarray(v, dtype=float)
        return cls(v[:3], v[3:6])


@dataclass
class Wrench:
    """6-D force-torque carrier in the world frame."""

    force: np.ndarray = field(default_factory=lambda: np.zeros(3))
    torque: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.force = _vec(self.force, 3)
        self.torque = _vec(self.torque, 3)

    def __neg__(self) -> "Wrench":
        return Wrench(-self.force, -self.torque)


def pose_error(desired: Pose, current: Pose) -> np.ndarray:
    """6-vector [position error; orientation error as a world-frame rotation vector].

    The orientation part is the axis-angle of R_d R^T, i.e. the rotation that
    carries the current orientation onto the desired one.
    """
    w, x, y, z = current.orientation.tolist()
    dq = _qmul(desired.orientation.tolist(), (w, -x, -y, -z))
    dp = [a - b for a, b in zip(desired.position.tolist(), current.position.tolist())]
    return np.array(dp + _rotvec(*dq))


def integrate_pose(pose: Pose, twist: Twist, dt: float) -> Pose:
    """Euler step of a pose under a world-frame twist; orientation via the
    exponential of the angular increment, renormalized."""
    q = _qmul(_rotvec_to_quat(twist.angular * dt), pose.orientation.tolist())
    return Pose(pose.position + twist.linear * dt, quat_normalize(np.array(q)))
