"""Quaternion and pose algebra against scipy.spatial.transform as the oracle.

scipy stores quaternions scalar-last; the helpers below convert so the two
representations can be compared directly.
"""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from cocarry.geometry import (
    Pose,
    integrate_pose,
    pose_error,
    quat_conjugate,
    quat_from_matrix,
    quat_from_rotvec,
    quat_from_yaw,
    quat_identity,
    quat_multiply,
    quat_normalize,
    quat_rotate,
    quat_to_rotvec,
    wrap_angle,
    yaw_from_quat,
)


def to_scipy(q):
    return Rotation.from_quat([q[1], q[2], q[3], q[0]])


def matrix(q):
    """The rotation matrix of the (w, x, y, z) quaternion q, by scipy."""
    return to_scipy(q).as_matrix()


def from_scipy(r):
    x, y, z, w = r.as_quat()
    return np.array([w, x, y, z])


def random_quat(rng):
    return quat_normalize(rng.normal(size=4))


def assert_quat_close(a, b, atol=1e-12):
    # q and -q are the same rotation
    a, b = np.asarray(a), np.asarray(b)
    assert min(np.abs(a - b).max(), np.abs(a + b).max()) < atol


def test_identity_and_normalize():
    q = quat_identity()
    assert q.tolist() == [1.0, 0.0, 0.0, 0.0]
    n = quat_normalize(np.array([2.0, 0.0, 0.0, 0.0]))
    np.testing.assert_allclose(n, q)
    with pytest.raises(ValueError):
        quat_normalize(np.zeros(4))


def test_multiply_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = random_quat(rng), random_quat(rng)
        ours = quat_multiply(a, b)
        oracle = from_scipy(to_scipy(a) * to_scipy(b))
        assert_quat_close(ours, oracle)


def test_multiply_applies_second_factor_first():
    rng = np.random.default_rng(12)
    for _ in range(100):
        a, b = random_quat(rng), random_quat(rng)
        v = rng.normal(size=3)
        lhs = quat_rotate(quat_multiply(a, b), v)
        rhs = quat_rotate(a, quat_rotate(b, v))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_rotate_matches_scipy():
    rng = np.random.default_rng(13)
    for _ in range(200):
        q = random_quat(rng)
        v = rng.normal(size=3)
        np.testing.assert_allclose(
            quat_rotate(q, v), to_scipy(q).apply(v), atol=1e-12
        )


def test_rotate_equals_cross_product_form_bitwise():
    # quat_rotate runs the np.cross expansion on floats in the same order.
    rng = np.random.default_rng(16)
    for i in range(500):
        q = random_quat(rng)
        v = rng.normal(size=3) * 10.0 ** rng.uniform(-6, 6)
        v[i % 3] = (0.0, -0.0, v[i % 3])[i % 3]
        w, u = q[0], q[1:]
        oracle = v + 2.0 * np.cross(u, np.cross(u, v) + w * v)
        assert quat_rotate(q, v).tobytes() == oracle.tobytes()


def test_conjugate_inverts():
    rng = np.random.default_rng(14)
    for _ in range(100):
        q = random_quat(rng)
        assert_quat_close(quat_multiply(q, quat_conjugate(q)), quat_identity())


def test_rotvec_round_trip_against_scipy():
    rng = np.random.default_rng(15)
    for _ in range(200):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = axis * rng.uniform(1e-8, 3.1)  # stay clear of the pi ambiguity
        q = quat_from_rotvec(r)
        assert_quat_close(q, from_scipy(Rotation.from_rotvec(r)))
        np.testing.assert_allclose(quat_to_rotvec(q), r, atol=1e-9)
        np.testing.assert_allclose(
            quat_to_rotvec(q), to_scipy(q).as_rotvec(), atol=1e-9
        )


def test_rotvec_smooth_through_zero():
    q = quat_from_rotvec(np.array([1e-14, 0.0, 0.0]))
    assert abs(np.linalg.norm(q) - 1.0) < 1e-12
    np.testing.assert_allclose(quat_to_rotvec(quat_identity()), np.zeros(3))


def test_matrix_round_trip_against_scipy():
    rng = np.random.default_rng(16)
    for _ in range(200):
        q = random_quat(rng)
        assert_quat_close(quat_from_matrix(matrix(q).ravel()), q, atol=1e-9)
    # exercise all four branches of the reconstruction
    for rv in ([np.pi - 1e-3, 0, 0], [0, np.pi - 1e-3, 0], [0, 0, np.pi - 1e-3]):
        q = quat_from_rotvec(np.array(rv, dtype=float))
        assert_quat_close(quat_from_matrix(matrix(q).ravel()), q, atol=1e-9)


def test_yaw_helpers():
    rng = np.random.default_rng(17)
    for yaw in rng.uniform(-np.pi + 1e-6, np.pi, size=100):
        q = quat_from_yaw(yaw)
        assert abs(yaw_from_quat(q) - yaw) < 1e-12
        c, s = np.cos(yaw), np.sin(yaw)
        yaw_matrix = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
        np.testing.assert_allclose(matrix(q), yaw_matrix, atol=1e-12)


def test_wrap_angle():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(0.0) == 0.0
    rng = np.random.default_rng(19)
    for a in rng.uniform(-20, 20, size=200):
        w = wrap_angle(a)
        assert -np.pi < w <= np.pi + 1e-15
        assert abs(np.sin(w) - np.sin(a)) < 1e-12
        assert abs(np.cos(w) - np.cos(a)) < 1e-12
        for n in (-2, 1, 3):
            assert abs(wrap_angle(a + 2 * np.pi * n) - w) < 1e-9


def homogeneous(pose):
    T = np.eye(4)
    T[:3, :3] = matrix(pose.orientation)
    T[:3, 3] = pose.position
    return T


def random_pose(rng):
    return Pose(rng.normal(size=3), random_quat(rng))


def seven(pose):
    """A Pose as the 7 floats of a pose inside the tick."""
    return pose.position.tolist() + pose.orientation.tolist()


def test_pose_compose_matches_matrix_product():
    rng = np.random.default_rng(20)
    for _ in range(200):
        a, b = random_pose(rng), random_pose(rng)
        T = homogeneous(a) @ homogeneous(b)
        c = a.compose(b)
        np.testing.assert_allclose(homogeneous(c), T, atol=1e-12)


def test_pose_inverse():
    rng = np.random.default_rng(21)
    for _ in range(100):
        p = random_pose(rng)
        ident = p.compose(p.inverse())
        np.testing.assert_allclose(ident.position, np.zeros(3), atol=1e-12)
        assert_quat_close(ident.orientation, quat_identity())
        np.testing.assert_allclose(
            homogeneous(p.inverse()), np.linalg.inv(homogeneous(p)), atol=1e-12
        )


def test_pose_error_position_and_rotvec():
    rng = np.random.default_rng(25)
    for _ in range(200):
        d, c = random_pose(rng), random_pose(rng)
        e = pose_error(seven(d), seven(c))
        np.testing.assert_allclose(e[:3], d.position - c.position)
        oracle = (to_scipy(d.orientation) * to_scipy(c.orientation).inv()).as_rotvec()
        np.testing.assert_allclose(e[3:], oracle, atol=1e-9)


def test_pose_error_zero_for_identical_poses():
    rng = np.random.default_rng(26)
    p = seven(random_pose(rng))
    np.testing.assert_allclose(pose_error(p, list(p)), np.zeros(6), atol=1e-12)


def test_integrate_pose_constant_twist():
    # pure translation integrates exactly; rotation follows the exponential
    tw = (0.1, -0.2, 0.3, 0.0, 0.0, 0.5)
    out = seven(Pose())
    for _ in range(1000):
        out = integrate_pose(out, tw, 1e-3)
    assert len(out) == 7
    np.testing.assert_allclose(out[:3], [0.1, -0.2, 0.3], atol=1e-12)
    assert abs(yaw_from_quat(out[3:]) - 0.5) < 1e-9
    assert abs(np.linalg.norm(out[3:]) - 1.0) < 1e-12


def test_integrate_pose_recovers_twist():
    rng = np.random.default_rng(27)
    dt = 1e-4
    for _ in range(50):
        p = seven(random_pose(rng))
        tw = np.concatenate([rng.normal(size=3), rng.normal(size=3)])
        nxt = integrate_pose(p, tw, dt)
        v = (np.array(nxt[:3]) - p[:3]) / dt
        dq = quat_multiply(nxt[3:], quat_conjugate(p[3:]))
        w = np.array(quat_to_rotvec(dq)) / dt
        np.testing.assert_allclose(v, tw[:3], atol=1e-9)
        np.testing.assert_allclose(w, tw[3:], atol=1e-3)
