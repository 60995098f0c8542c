"""Forward kinematics and Jacobian checks against independent oracles.

The FK oracle composes homogeneous matrices with scipy rotations; the
Jacobian oracle uses central finite differences of the FK.
"""

import math
import struct
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from cocarry.geometry import (
    Pose,
    quat_conjugate,
    quat_from_matrix,
    quat_multiply,
    quat_to_rotvec,
)
from cocarry.kinematics import (
    BASE_DOFS,
    ArmJoint,
    KinematicModel,
    KinematicsError,
    chain_state,
    damping_factor,
    default_model,
    forward_kinematics,
)

HOME = np.array([0.0, 0.0, 0.0, 0.0, -0.65, 1.75, -0.2, 1.5707963, 0.0])


def fk_oracle(model, q):
    """Naive chain composition with 4x4 matrices, independent of _chain."""

    def tmat(R, p):
        T = np.eye(4)
        T[:3, :3] = R
        T[:3, 3] = p
        return T

    T = tmat(
        Rotation.from_rotvec([0, 0, q[2]]).as_matrix(), [q[0], q[1], 0.0]
    )
    for i, joint in enumerate(model.arm):
        T = T @ tmat(joint.offset.rotation_matrix(), joint.offset.position)
        T = T @ tmat(
            Rotation.from_rotvec(joint.axis * q[BASE_DOFS + i]).as_matrix(),
            np.zeros(3),
        )
    T = T @ tmat(model.ee_offset.rotation_matrix(), model.ee_offset.position)
    return T


def random_q(rng, model):
    q = np.empty(model.n_joints)
    q[:3] = rng.uniform([-1, -1, -np.pi], [1, 1, np.pi])
    q[3:] = rng.uniform(-2.0, 2.0, size=model.n_arm)
    return q


def test_fk_identity_config():
    model = default_model()
    pose = forward_kinematics(model, np.zeros(model.n_joints))
    # all offsets accumulate with no rotation anywhere
    expected = np.zeros(3)
    for joint in model.arm:
        expected += joint.offset.position
    expected += model.ee_offset.position
    np.testing.assert_allclose(pose.position, expected, atol=1e-15)
    np.testing.assert_allclose(pose.orientation, [1, 0, 0, 0], atol=1e-15)


def test_fk_pure_base_translation():
    model = default_model()
    q = np.zeros(model.n_joints)
    p0 = forward_kinematics(model, q).position
    q[:2] = [1.0, 2.0]
    p1 = forward_kinematics(model, q).position
    np.testing.assert_allclose(p1 - p0, [1.0, 2.0, 0.0], atol=1e-15)


def random_model(rng, n_arm):
    """An arm of random unit joint axes behind random offset poses."""
    arm = []
    for _ in range(n_arm):
        axis = rng.normal(size=3)
        arm.append(
            ArmJoint(
                axis=axis / np.linalg.norm(axis),
                offset=Pose.from_xyz_rpy(
                    rng.uniform(-0.3, 0.3, size=3), rng.uniform(-np.pi, np.pi, size=3)
                ),
            )
        )
    return KinematicModel(arm=arm)


def test_fk_matches_matrix_oracle():
    rng = np.random.default_rng(31)
    # The default arm, a 7-joint arm whose joints turn about random unit
    # axes, and one with negative coordinate axes beside a tilted one: the
    # two-column turns and the inline Rodrigues matrices against scipy's.
    for model in (default_model(), random_model(rng, 7), mixed_axes_model()):
        for _ in range(200):
            q = random_q(rng, model)
            pose = forward_kinematics(model, q)
            T = fk_oracle(model, q)
            np.testing.assert_allclose(pose.position, T[:3, 3], atol=1e-12)
            np.testing.assert_allclose(pose.rotation_matrix(), T[:3, :3], atol=1e-12)


def test_jacobian_base_columns():
    model = default_model()
    rng = np.random.default_rng(32)
    for _ in range(20):
        J = chain_state(model, random_q(rng, model)).jacobian
        np.testing.assert_allclose(J[:, 0], [1, 0, 0, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(J[:, 1], [0, 1, 0, 0, 0, 0], atol=1e-15)
        np.testing.assert_allclose(J[3:, 2], [0, 0, 1], atol=1e-15)


def test_jacobian_matches_finite_differences():
    model = default_model()
    rng = np.random.default_rng(33)
    h = 1e-6
    for _ in range(30):
        q = random_q(rng, model)
        J = chain_state(model, q).jacobian
        for j in range(model.n_joints):
            dq = np.zeros(model.n_joints)
            dq[j] = h
            plus = forward_kinematics(model, q + dq)
            minus = forward_kinematics(model, q - dq)
            dp = (plus.position - minus.position) / (2 * h)
            np.testing.assert_allclose(J[:3, j], dp, atol=1e-5)
            rel = quat_multiply(plus.orientation, quat_conjugate(minus.orientation))
            dw = np.array(quat_to_rotvec(rel)) / (2 * h)
            np.testing.assert_allclose(J[3:, j], dw, atol=1e-5)


def test_jacobian_fk_consistency_is_second_order():
    # ||FK(q+dq) - (FK(q) + J dq)|| should shrink quadratically
    model = default_model()
    rng = np.random.default_rng(34)
    q = HOME.copy()
    J = chain_state(model, q).jacobian
    base = forward_kinematics(model, q)
    dq = rng.normal(size=model.n_joints)
    dq *= 1e-4 / np.linalg.norm(dq)
    moved = forward_kinematics(model, q + dq)
    residual = np.linalg.norm(moved.position - (base.position + J[:3] @ dq))
    assert residual < 1e-6


def test_zero_qdot_zero_twist():
    model = default_model()
    J = chain_state(model, HOME).jacobian
    np.testing.assert_allclose(J @ np.zeros(model.n_joints), np.zeros(6))


def test_chain_state_consistent_with_pieces():
    model = default_model()
    rng = np.random.default_rng(35)
    for _ in range(20):
        q = random_q(rng, model)
        st = chain_state(model, q)
        pose = forward_kinematics(model, q)
        # The tick's EE pose is 7 floats, bit for bit the forward kinematics.
        assert all(type(c) is float for c in st.pose)
        assert st.pose == pose.position.tolist() + pose.orientation.tolist()


def test_chain_holds_a_read_only_copy_of_q():
    # The chain's q is the one its pose and Jacobian were evaluated at: a
    # later change to the caller's array does not reach it, and it cannot be
    # written through.
    model = default_model()
    q = HOME.copy()
    st = chain_state(model, q)
    q[4] += 0.1
    assert st.q.tobytes() == HOME.tobytes()
    with pytest.raises(ValueError):
        st.q[4] = 0.1


def test_manipulability_base_invariant():
    # The six-joint arm's square Ja takes |det Ja|; a seven-joint arm keeps
    # sqrt(det(Ja Ja^T)).  Both must equal the Gram form and ignore the base.
    rng = np.random.default_rng(36)
    for model in (default_model(), random_model(rng, 7)):
        for _ in range(50):
            q = random_q(rng, model)
            st = chain_state(model, q)
            Ja = st.jacobian[:, BASE_DOFS:]
            gram = np.sqrt(np.linalg.det(Ja @ Ja.T))
            assert st.manipulability == pytest.approx(gram, rel=1e-9)
            q2 = q.copy()
            q2[:3] = rng.uniform([-5, -5, -np.pi], [5, 5, np.pi])
            w2 = chain_state(model, q2).manipulability
            assert abs(w2 - st.manipulability) < 1e-9


def test_manipulability_home_and_singular():
    model = default_model()
    assert chain_state(model, HOME).manipulability == pytest.approx(0.146, abs=5e-3)
    # fully stretched arm is rank deficient
    assert chain_state(model, np.zeros(model.n_joints)).manipulability < 1e-9
    rng = np.random.default_rng(37)
    assert chain_state(model, random_q(rng, model)).manipulability >= 0.0


def test_damping_factor_schedule():
    model = default_model()
    assert damping_factor(model.w_threshold, model) == 0.0
    assert damping_factor(0.3, model) == 0.0
    assert damping_factor(0.0, model) == pytest.approx(model.k_max)
    assert damping_factor(model.w_threshold / 2, model) == pytest.approx(
        0.25 * model.k_max
    )
    # continuity at the threshold and monotone decrease below it
    ws = np.linspace(0.0, model.w_threshold, 50)
    ks = [damping_factor(w, model) for w in ws]
    assert all(a >= b for a, b in zip(ks, ks[1:]))
    assert damping_factor(model.w_threshold - 1e-12, model) < 1e-15


def test_dimension_mismatch_rejected():
    model = default_model()
    with pytest.raises(KinematicsError):
        forward_kinematics(model, np.zeros(5))
    with pytest.raises(KinematicsError):
        chain_state(model, np.zeros(model.n_joints + 1))


def test_model_validation():
    with pytest.raises(KinematicsError):
        ArmJoint(axis=[0.0, 0.0, 2.0])
    with pytest.raises(KinematicsError):  # no redundancy with 3 arm joints
        KinematicModel(arm=[ArmJoint(axis=[0, 0, 1.0]) for _ in range(3)])
    with pytest.raises(KinematicsError):
        default_model(w_threshold=0.0)


def test_model_cannot_change_under_its_cached_chain():
    # The chain walk reads the links cached at construction.  A tool offset
    # set in place used to leave the chain at the old one, and a NaN
    # w_threshold set in place went unchecked.
    model = default_model()
    with pytest.raises(FrozenInstanceError):
        model.ee_offset = Pose([0.0, 0.0, 0.5])
    with pytest.raises(FrozenInstanceError):
        model.w_threshold = math.nan
    assert isinstance(model.arm, tuple)
    longer = replace(model, ee_offset=Pose([0.0, 0.0, 0.5]))
    np.testing.assert_allclose(
        chain_state(longer, np.zeros(9)).pose[:3], fk_oracle(longer, np.zeros(9))[:3, 3]
    )
    assert chain_state(longer, np.zeros(9)).pose[2] == pytest.approx(1.475)
    with pytest.raises(KinematicsError, match="w_threshold must be finite"):
        replace(model, w_threshold=math.nan)


def test_joint_cannot_change_under_its_model():
    # A model caches its joints' links.  An offset set on a joint in place
    # used to leave the chain at the old offset.
    model = default_model()
    with pytest.raises(FrozenInstanceError):
        model.arm[2].offset = Pose([0.478, 0.5, 0.0])
    with pytest.raises(ValueError):
        model.arm[2].axis[0] = 1.0
    np.testing.assert_allclose(chain_state(model, np.zeros(9)).pose[:3], [1.038, 0.293, 1.0675])
    axis = np.array([0.0, 0.0, 1.0])
    joint = ArmJoint(axis)
    axis[0] = 1.0  # the joint holds a copy
    assert joint.axis.tolist() == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize(
    "build, names",
    [
        (lambda v: KinematicModel(default_model().arm, ee_offset=Pose([0, v, 0.09])), "position"),
        (
            lambda v: KinematicModel(default_model().arm, ee_offset=Pose([0, 0, 0.09], [v, 0, 0, 0])),
            "orientation",
        ),
        (lambda v: ArmJoint([0, 0, 1.0], Pose([v, 0, 0])), "position"),
        (lambda v: ArmJoint([0, 0, 1.0], Pose([0, 0, 0], [1.0, 0, v, 0])), "orientation"),
    ],
    ids=["ee_position", "ee_quaternion", "joint_position", "joint_quaternion"],
)
def test_non_finite_offsets_rejected_by_name(build, names, value):
    # A NaN tool offset used to build, and the simulation then failed in the
    # object's rest pose with a message that named neither.
    with pytest.raises(ValueError, match=f"{names} must be finite"):
        build(value)


def rotated_offset_model():
    """Six joints, two of them and the tool behind offsets with a fixed rotation."""
    arm = [
        ArmJoint(axis=[0, 0, 1.0], offset=Pose.from_xyz_rpy([0.1, 0, 0.3], [0.3, 0, 0])),
        ArmJoint(axis=[0, 1.0, 0], offset=Pose.from_xyz_rpy([0.2, 0, 0], [0, 0.2, 0])),
        ArmJoint(axis=[0, 1.0, 0], offset=Pose([0.2, 0, 0])),
        ArmJoint(axis=[1.0, 0, 0], offset=Pose([0.1, 0.05, 0])),
        ArmJoint(axis=[0, 0, 1.0], offset=Pose([0, 0, 0.1])),
        ArmJoint(axis=[0, 1.0, 0], offset=Pose([0, 0.05, 0])),
    ]
    return KinematicModel(arm=arm, ee_offset=Pose.from_xyz_rpy([0, 0, 0.05], [0, 0, 0.7]))


def test_non_identity_offset_rotation():
    # a joint whose offset includes a fixed rotation must still match the oracle
    model = rotated_offset_model()
    rng = np.random.default_rng(38)
    for _ in range(50):
        q = random_q(rng, model)
        pose = forward_kinematics(model, q)
        T = fk_oracle(model, q)
        np.testing.assert_allclose(pose.position, T[:3, 3], atol=1e-12)
        np.testing.assert_allclose(pose.rotation_matrix(), T[:3, :3], atol=1e-12)


def negated_identity_model():
    """The default model with two offsets at the orientation (-1, 0, 0, 0),
    the identity rotation as the other unit quaternion."""
    model = default_model()
    turned = Pose([0.0, 0.176, 0.0], [-1.0, 0.0, 0.0, 0.0])
    arm = (model.arm[0], replace(model.arm[1], offset=turned), *model.arm[2:])
    return replace(model, arm=arm, ee_offset=Pose([0, 0, 0.0925], [-1.0, 0.0, 0.0, 0.0]))


def links_by_matrix(model):
    """`_links` and `_ee_R` as the rule that compares each offset's rotation
    matrix with np.eye(3) gives them."""

    def flat_or_none(pose):
        R = pose.rotation_matrix()
        return None if np.array_equal(R, np.eye(3)) else tuple(R.ravel().tolist())

    links = tuple(
        (tuple(j.offset.position.tolist()), flat_or_none(j.offset), tuple(j.axis.tolist()))
        for j in model.arm
    )
    return links, flat_or_none(model.ee_offset)


@pytest.mark.parametrize(
    "model",
    [default_model(), rotated_offset_model(), negated_identity_model()],
    ids=["default", "rotated_offsets", "negated_identity"],
)
def test_identity_offsets_told_from_the_quaternion(model):
    # The model skips an offset rotation whose quaternion has a zero vector
    # part; the cache is the one the matrix comparison gives.
    assert (model._links, model._ee_R) == links_by_matrix(model)


def _mul3(a, b):
    """Row-major 9-tuple product, summed left to right."""
    return tuple(
        a[3 * i] * b[j] + a[3 * i + 1] * b[3 + j] + a[3 * i + 2] * b[6 + j]
        for i in range(3)
        for j in range(3)
    )


def coordinate_turn(axis):
    """(index, sign) of an axis that is +-1.0 on one coordinate and zero on
    the others, else None."""
    size = [abs(v) for v in axis]
    if sorted(size) != [0.0, 0.0, 1.0]:
        return None
    k = size.index(1.0)
    return k, axis[k]


def plain_chain_state(model, q, turns=True):
    """(pose, J, manipulability) from the chain walk in its plain form: each
    rotation a 9-tuple multiplied through `_mul3`, or, for a joint about a
    signed coordinate axis k, columns (a, b) = (k + 1, k + 2) mod 3 turned
    and column k scaled by c + (1.0 - c); J built by np.array from six row
    lists.  The same products and sums in the same order as `chain_state`,
    so the bits must agree.  With `turns` False every joint takes the
    Rodrigues product."""
    cos, sin = np.cos(q[2:]).tolist(), np.sin(q[2:]).tolist()
    R = (cos[0], -sin[0], 0.0, sin[0], cos[0], 0.0, 0.0, 0.0, 1.0)
    p = [*q[:2].tolist(), 0.0]
    origins, axes = [], []
    for ((ox, oy, oz), off_R, (x, y, z)), c, s in zip(model._links, cos[1:], sin[1:]):
        p = [p[i] + (R[3 * i] * ox + R[3 * i + 1] * oy + R[3 * i + 2] * oz) for i in range(3)]
        origins.append(p)
        if off_R is not None:
            R = _mul3(R, off_R)
        turn = coordinate_turn((x, y, z)) if turns else None
        if turn is not None:
            k, sign = turn
            a, b = (k + 1) % 3, (k + 2) % 3
            s, d = sign * s, c + (1.0 - c)
            axes.append([sign * R[3 * i + k] for i in range(3)])
            R = list(R)
            for i in range(3):
                ra, rb, rk = R[3 * i + a], R[3 * i + b], R[3 * i + k]
                R[3 * i + a], R[3 * i + b], R[3 * i + k] = ra * c + rb * s, rb * c - ra * s, rk * d
            continue
        axes.append([R[3 * i] * x + R[3 * i + 1] * y + R[3 * i + 2] * z for i in range(3)])
        C = 1.0 - c
        R = _mul3(R, (
            c + x * x * C, x * y * C - z * s, x * z * C + y * s,
            y * x * C + z * s, c + y * y * C, y * z * C - x * s,
            z * x * C - y * s, z * y * C + x * s, c + z * z * C,
        ))  # fmt: skip
    ox, oy, oz = model._ee_p
    e = [p[i] + (R[3 * i] * ox + R[3 * i + 1] * oy + R[3 * i + 2] * oz) for i in range(3)]
    if model._ee_R is not None:
        R = _mul3(R, model._ee_R)
    rows = ([1.0, 0.0, q[1] - e[1]], [0.0, 1.0, e[0] - q[0]], [0.0] * 3, [0.0] * 3, [0.0] * 3,
            [0.0, 0.0, 1.0])  # fmt: skip
    for z, o in zip(axes, origins):
        r = [e[i] - o[i] for i in range(3)]
        rows[0].append(z[1] * r[2] - z[2] * r[1])
        rows[1].append(z[2] * r[0] - z[0] * r[2])
        rows[2].append(z[0] * r[1] - z[1] * r[0])
        for i in range(3):
            rows[3 + i].append(z[i])
    J = np.array(rows[0] + rows[1] + rows[2] + rows[3] + rows[4] + rows[5]).reshape(6, -1)
    Ja = J[:, BASE_DOFS:]
    if model.n_arm == 6:
        return [*e, *quat_from_matrix(R)], J, abs(np.linalg.det(Ja))
    w = math.sqrt(max(np.linalg.det(Ja.dot(Ja.T)), 0.0))
    return [*e, *quat_from_matrix(R)], J, w


def mixed_axes_model():
    """Seven joints about -z, -y, x, a tilted axis, -y behind a rotated
    offset, z written with a -0.0 entry, and x."""
    arm = [
        ArmJoint(axis=[0.0, 0.0, -1.0], offset=Pose([0.2, 0.0, 0.6])),
        ArmJoint(axis=[0.0, -1.0, 0.0], offset=Pose([0.0, 0.17, 0.0])),
        ArmJoint(axis=[1.0, 0.0, 0.0], offset=Pose([0.45, 0.0, 0.0])),
        ArmJoint(axis=[0.6, 0.0, 0.8], offset=Pose([0.35, 0.0, 0.15])),
        ArmJoint(axis=[0.0, -1.0, 0.0], offset=Pose.from_xyz_rpy([0, 0, 0.12], [0.3, 0, 0])),
        ArmJoint(axis=[-0.0, 0.0, 1.0], offset=Pose([0.0, 0.1, 0.0])),
        ArmJoint(axis=[1.0, 0.0, 0.0], offset=Pose([0.0, 0.0, 0.09])),
    ]
    return KinematicModel(arm=arm, ee_offset=Pose([0.0, 0.0, 0.05]))


def test_coordinate_axes_found_exactly():
    # Only an axis that is exactly +-1.0 on one coordinate takes the
    # two-column turn; a unit axis a rounding away from it keeps Rodrigues.
    assert [t[0] if t else None for t in mixed_axes_model()._turns] == [2, 1, 0, None, 1, 2, 0]
    assert [t[1] if t else None for t in mixed_axes_model()._turns] == [
        -1.0, -1.0, 1.0, None, -1.0, 1.0, 1.0
    ]
    near = ArmJoint(axis=[0.0, 1e-9, 1.0])
    assert KinematicModel(arm=[near] * 7)._turns == (None,) * 7


def special_qs(n):
    """q = 0, HOME's entries repeated to n, and the latter with -0.0 in
    every other entry (the base yaw among them)."""
    home = np.resize(HOME, n)
    signed = home.copy()
    signed[::2] = -0.0
    return [np.zeros(n), home, signed, -np.zeros(n)]


@pytest.mark.parametrize(
    "model",
    [
        default_model(),
        rotated_offset_model(),
        random_model(np.random.default_rng(7), 7),
        mixed_axes_model(),
    ],
    ids=["default", "rotated_offsets", "seven_joints", "mixed_axes"],
)
def test_chain_state_bitwise_equals_plain_walk(model):
    # The digests cover only the default model; this holds every model kind,
    # including the det(Ja Ja^T) branch of a seven-joint arm, to the bits,
    # signed zeros included, at the exact zeros and signed zeros of q too.
    rng = np.random.default_rng(21)
    for q in special_qs(model.n_joints) + [random_q(rng, model) for _ in range(200)]:
        st = chain_state(model, q)
        pose, J, w = plain_chain_state(model, q)
        assert np.array(st.pose).tobytes() == np.array(pose).tobytes()
        assert st.jacobian.dtype == np.float64 and st.jacobian.shape == (6, model.n_joints)
        assert st.jacobian.flags.c_contiguous
        assert st.jacobian.tobytes() == J.tobytes()
        assert struct.pack("d", st.manipulability) == struct.pack("d", w)


@pytest.mark.parametrize(
    "model", [default_model(), mixed_axes_model()], ids=["default", "mixed_axes"]
)
def test_coordinate_turn_differs_from_rodrigues_only_in_the_sign_of_zeros(model):
    # The two-column turn drops the Rodrigues product's r * 0.0 terms: every
    # value is equal, so every nonzero value keeps its bits, and only an
    # exact zero may change its sign.
    rng = np.random.default_rng(22)
    for q in special_qs(model.n_joints) + [random_q(rng, model) for _ in range(200)]:
        st = chain_state(model, q)
        pose, J, w = plain_chain_state(model, q, turns=False)
        assert st.pose == pose
        assert (st.jacobian == J).all()
        assert struct.pack("d", st.manipulability) == struct.pack("d", w)
