"""Adaptive interface: admittance, blending index, intention detection,
rotation trajectories, and the reference generator.

The index oracle keeps the window in a deque and re-integrates all of it
on every sample; the detector oracle re-derives every sample's verdict
from scratch by scanning the whole history.
"""

from collections import deque

import numpy as np
import pytest

from cocarry.aci import (
    AciController,
    AciParams,
    AdaptiveIndex,
    AdmittanceParams,
    CubicTrajectory,
    IntentionDetector,
    Mode,
    ReferenceGenerator,
    admittance_step,
    desired_rotation_pose,
    object_translation,
)
from cocarry.geometry import (
    Pose,
    quat_from_yaw,
    quat_multiply,
    quat_normalize,
    quat_rotate,
)
from cocarry.human import HumanState


# -- admittance -----------------------------------------------------------


def test_admittance_zero_input():
    p = AdmittanceParams()
    np.testing.assert_allclose(
        admittance_step(np.zeros(3), np.zeros(3), 1e-3, p), np.zeros(3)
    )


def test_admittance_single_step_value():
    p = AdmittanceParams()
    v = admittance_step(np.array([6.0, 0, 0]), np.zeros(3), 0.01, p)
    assert v[0] == pytest.approx((1 - np.exp(-0.05)) * 0.2, abs=1e-9)
    assert v[0] == pytest.approx(0.009754, abs=5e-7)


def test_admittance_step_response_matches_analytic():
    # constant 30 N along x: v(t) = 1 - exp(-t / 0.2), checked at every sample
    p = AdmittanceParams()
    dt = 1e-3
    f = np.array([30.0, 0.0, 0.0])
    v = np.zeros(3)
    worst = 0.0
    for i in range(2000):
        v = admittance_step(f, v, dt, p)
        t = (i + 1) * dt
        analytic = 1.0 - np.exp(-t / 0.2)
        worst = max(worst, abs(v[0] - analytic))
    assert worst < 1e-12  # exact discretization
    assert abs(v[0] - (1 - np.exp(-10.0))) < 1e-9
    # value at one time constant
    v = np.zeros(3)
    for _ in range(200):
        v = admittance_step(f, v, dt, p)
    assert v[0] == pytest.approx(1 - np.exp(-1.0), abs=1e-6)


def test_admittance_anisotropic_axes():
    p = AdmittanceParams(mass=[6.0, 3.0, 1.0], damping=[30.0, 30.0, 10.0])
    f = np.array([30.0, 30.0, 10.0])
    v = np.zeros(3)
    for _ in range(5000):
        v = admittance_step(f, v, 1e-3, p)
    np.testing.assert_allclose(v, [1.0, 1.0, 1.0], atol=1e-3)


def test_admittance_rejects_bad_inputs():
    with pytest.raises(ValueError):
        admittance_step(np.array([np.nan, 0, 0]), np.zeros(3), 1e-3, AdmittanceParams())
    with pytest.raises(ValueError):
        admittance_step(np.zeros(2), np.zeros(3), 1e-3, AdmittanceParams())
    with pytest.raises(ValueError):
        admittance_step(np.zeros(3), np.zeros(4), 1e-3, AdmittanceParams())
    with pytest.raises(ValueError):
        AdmittanceParams(mass=[0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        AdmittanceParams(damping=[1.0, -1.0, 1.0])


# -- adaptive index -------------------------------------------------------


class DequeIndexOracle:
    """Straight-line reimplementation used to cross-check AdaptiveIndex."""

    def __init__(self, params, alpha0=0.0):
        self.params = params
        self.alpha = alpha0
        self.buf = deque()

    def update(self, t, v_adm, v_h):
        self.buf.append((t, np.array(v_adm, dtype=float), np.array(v_h, dtype=float)))
        while self.buf[0][0] < t - self.params.window_length - 1e-12:
            self.buf.popleft()
        d_adm = self._disp(1)
        d_h = self._disp(2)
        if d_adm < self.params.deadband and d_h < self.params.deadband:
            return self.alpha
        raw = 1.0 - d_adm / (d_h + self.params.epsilon)
        self.alpha = min(1.0, max(0.0, raw))
        return self.alpha

    def _disp(self, idx):
        if len(self.buf) < 2:
            return 0.0
        t = np.array([sample[0] for sample in self.buf])
        v = np.array([sample[idx] for sample in self.buf])
        total = (0.5 * np.diff(t)[:, None] * (v[:-1] + v[1:])).sum(axis=0)
        return float(np.linalg.norm(total))


def drive_pair(params, dts, rng, alpha0=0.0):
    ours = AdaptiveIndex(params, alpha0=alpha0)
    oracle = DequeIndexOracle(params, alpha0=alpha0)
    t = 0.0
    for dt in dts:
        t += dt
        v_adm = rng.normal(scale=0.3, size=3)
        v_h = rng.normal(scale=0.3, size=3)
        a = ours.update(t, v_adm, v_h)
        b = oracle.update(t, v_adm, v_h)
        assert a == pytest.approx(b, abs=1e-12)
        assert 0.0 <= a <= 1.0


def test_index_matches_deque_oracle_short_window():
    # ~250 live samples: exercises in-place compaction of the ring
    rng = np.random.default_rng(51)
    drive_pair(AciParams(), rng.uniform(0.0008, 0.0012, size=4000), rng)


def test_index_matches_deque_oracle_long_window():
    # >512 live samples: forces the backing arrays to grow
    rng = np.random.default_rng(52)
    drive_pair(AciParams(), np.full(3000, 0.0004), rng)


def test_index_matches_deque_oracle_jittered_timing():
    rng = np.random.default_rng(53)
    drive_pair(AciParams(), rng.uniform(0.0002, 0.004, size=3000), rng)


def test_index_matches_deque_oracle_after_transient():
    # A 1e4-scale velocity burst, then a long 1e-3-scale stretch above the
    # deadband: rounding that the burst leaves in the window sums must not
    # outlive the burst's stay in the window.
    rng = np.random.default_rng(54)
    params = AciParams()
    ours = AdaptiveIndex(params)
    oracle = DequeIndexOracle(params)
    drift_adm = np.array([5e-4, 2e-4, 0.0])
    drift_h = np.array([1e-3, 0.0, 3e-4])
    alphas = []
    for i in range(2000):
        t = (i + 1) * 1e-3
        if 300 <= i < 320:
            v_adm, v_h = rng.normal(scale=1e4, size=(2, 3))
        else:
            v_adm = drift_adm * (1.0 + 0.3 * rng.normal(size=3))
            v_h = drift_h * (1.0 + 0.3 * rng.normal(size=3))
        a = ours.update(t, v_adm, v_h)
        assert a == pytest.approx(oracle.update(t, v_adm, v_h), abs=1e-12)
        alphas.append(a)
    # the stretch is above the deadband: alpha is computed, not held
    tail = alphas[-1000:]
    assert 0.0 < min(tail) and max(tail) < 1.0 and len(set(tail)) > 900


def test_index_limit_values():
    p = AciParams()
    idx = AdaptiveIndex(p)
    t = 0.0
    # hand moves, admittance still: fully deformable reading
    for _ in range(400):
        t += 1e-3
        a = idx.update(t, np.zeros(3), np.array([0.4, 0, 0]))
    assert a > 0.99
    # both move identically: rigid reading
    idx = AdaptiveIndex(p)
    t = 0.0
    for _ in range(400):
        t += 1e-3
        a = idx.update(t, np.array([0.4, 0, 0]), np.array([0.4, 0, 0]))
    assert a < 0.01
    # admittance moves twice as far: saturates at zero
    idx = AdaptiveIndex(p)
    t = 0.0
    for _ in range(400):
        t += 1e-3
        a = idx.update(t, np.array([0.6, 0, 0]), np.array([0.3, 0, 0]))
    assert a == 0.0


def test_index_ratio_value():
    # constant speeds chosen so the window displacements are 0.3 and 0.6
    p = AciParams(window_length=1.0)
    idx = AdaptiveIndex(p)
    t = 0.0
    for _ in range(3000):
        t += 1e-3
        a = idx.update(t, np.array([0.3, 0, 0]), np.array([0.6, 0, 0]))
    assert a == pytest.approx(1.0 - 0.3 / 0.6001, abs=1e-4)


def test_index_deadband_holds_previous_value():
    p = AciParams()
    idx = AdaptiveIndex(p, alpha0=0.7)
    t = 0.0
    for _ in range(600):
        t += 1e-3
        a = idx.update(t, np.zeros(3), np.zeros(3))
        assert a == 0.7
    # motion overrides the hold...
    for _ in range(400):
        t += 1e-3
        a = idx.update(t, np.zeros(3), np.array([0.3, 0, 0]))
    assert a > 0.99
    # ...and stopping again freezes the last computed value
    for _ in range(2000):
        t += 1e-3
        a = idx.update(t, np.zeros(3), np.zeros(3))
    assert a > 0.99


def test_index_is_window_local():
    # identical trailing windows give identical alpha regardless of prehistory
    p = AciParams()
    rng = np.random.default_rng(54)
    tail = [(rng.normal(size=3), rng.normal(size=3)) for _ in range(300)]

    def run(prefix_len, seed):
        r = np.random.default_rng(seed)
        idx = AdaptiveIndex(p)
        t = 0.0
        for _ in range(prefix_len):
            t += 1e-3
            idx.update(t, r.normal(size=3), r.normal(size=3))
        a = None
        for v_adm, v_h in tail:
            t += 1e-3
            a = idx.update(t, v_adm, v_h)
        return a

    assert run(0, 1) == pytest.approx(run(500, 2), abs=1e-12)
    assert run(100, 3) == pytest.approx(run(2000, 4), abs=1e-12)


def test_object_translation_blend():
    v_adm = np.array([0.1, 0.0, 0.0])
    v_h = np.array([0.2, 0.0, 0.0])
    np.testing.assert_allclose(object_translation(v_adm, v_h, 0.0), v_adm)
    np.testing.assert_allclose(object_translation(np.zeros(3), v_h, 1.0), v_h)
    np.testing.assert_allclose(object_translation(v_adm, v_h, 0.5), [0.2, 0, 0])


# -- intention detection --------------------------------------------------


def make_yaw_trace(rng, n=400):
    """Random piecewise yaw walk with rest phases for both channels."""
    torso = np.zeros(n)
    hand = np.zeros(n)
    rate = np.zeros(n)
    th = tt = 0.0
    for i in range(n):
        r = rng.random()
        if r < 0.4:
            tt += rng.normal(scale=0.02)
        if r > 0.55:
            th += rng.normal(scale=0.02)
        torso[i] = tt
        hand[i] = th
        rate[i] = rng.normal(scale=0.08)
    return hand, torso, rate


def detector_oracle(params, hand, torso, rate):
    """Per-sample re-derivation: for each i, find the start of the current
    above-lower-threshold streak by scanning backward, then evaluate the
    three firing conditions directly."""
    n = len(hand)
    out = np.zeros(n, dtype=bool)
    for i in range(n):
        if abs(hand[i] - torso[i]) <= params.lower_angle:
            continue
        s = i
        while s > 0 and abs(hand[s - 1] - torso[s - 1]) > params.lower_angle:
            s -= 1
        delta_h = abs(hand[i] - hand[s])
        delta_t = abs(torso[i] - torso[s])
        out[i] = (
            abs(hand[i] - torso[i]) > params.upper_angle
            and delta_t > delta_h
            and abs(rate[i]) < params.velocity_threshold
        )
    return out


def run_detector(params, hand, torso, rate, latch):
    det = IntentionDetector(params, latch=latch)
    torso_position = (0.0, 0.0, 0.0)
    fired = []
    for th, tt, td in zip(hand, torso, rate):
        f, _ = det.step(th - tt, th, tt, td, torso_position)
        fired.append(f)
    return np.array(fired)


def test_detector_matches_per_sample_oracle():
    params = AciParams()
    rng = np.random.default_rng(55)
    for _ in range(100):
        hand, torso, rate = make_yaw_trace(rng)
        got = run_detector(params, hand, torso, rate, latch=False)
        want = detector_oracle(params, hand, torso, rate)
        assert np.array_equal(got, want)


def test_detector_quiet_below_threshold():
    params = AciParams()
    rng = np.random.default_rng(56)
    n = 300
    torso = rng.uniform(-0.08, 0.08, size=n)
    hand = torso + rng.uniform(-0.15, 0.15, size=n)  # |relative| < lower
    rate = rng.normal(scale=0.2, size=n)
    assert not run_detector(params, hand, torso, rate, latch=True).any()


def scripted_torso_turn(n_settle=50):
    """Hand fixed in world; torso turns -0.5 rad then comes to rest."""
    ramp = np.linspace(0.0, -0.5, 100)
    torso = np.concatenate([np.zeros(20), ramp, np.full(n_settle, -0.5)])
    hand = np.zeros_like(torso)
    rate = np.gradient(torso, 0.01)
    return hand, torso, rate


def test_detector_fires_on_torso_led_turn():
    params = AciParams()
    hand, torso, rate = scripted_torso_turn()
    fired = run_detector(params, hand, torso, rate, latch=True)
    assert fired.sum() == 1
    i = int(np.argmax(fired))
    # at the firing sample every guard held
    assert abs(hand[i] - torso[i]) > params.upper_angle
    assert abs(rate[i]) < params.velocity_threshold
    # and it is the first such sample
    oracle = detector_oracle(params, hand, torso, rate)
    assert i == int(np.argmax(oracle))


def test_detector_ignores_hand_led_turn():
    params = AciParams()
    torso = np.zeros(170)
    hand = np.concatenate([np.zeros(20), np.linspace(0, 0.5, 100), np.full(50, 0.5)])
    rate = np.zeros_like(torso)  # torso at rest the whole time
    assert not run_detector(params, hand, torso, rate, latch=True).any()


def test_detector_latch_and_rearm():
    params = AciParams()
    det = IntentionDetector(params)
    torso_position = (0.0, 0.0, 0.0)

    def feed(th, tt, td):
        return det.step(th - tt, th, tt, td, torso_position)[0]

    # torso-led entry, settle, fire
    for tt in np.linspace(0, -0.5, 50):
        feed(0.0, tt, -0.3)
    assert feed(0.0, -0.5, 0.0)
    # latched: identical conditions no longer fire
    for _ in range(50):
        assert not feed(0.0, -0.5, 0.0)
    # finishing the rotation alone is not enough while the angle stays high
    det.rotation_finished()
    assert not feed(0.0, -0.5, 0.0)
    # dropping below the lower threshold re-arms
    assert not feed(0.0, -0.1, 0.0)
    for tt in np.linspace(-0.1, -0.7, 50):
        feed(0.0, tt, -0.3)
    assert feed(0.0, -0.7, 0.0)


def test_detector_bounds_latch_at_regime_entry():
    # hand drifts before the regime starts; only in-regime deltas count
    params = AciParams()
    det = IntentionDetector(params, latch=False)
    torso_position = (0.0, 0.0, 0.0)
    for th in np.linspace(0.0, 0.15, 30):  # below lower threshold
        det.step(th, th, 0.0, 0.0, torso_position)
    # now torso turns away, hand stays: delta_t accumulates from entry
    fired = False
    for tt in np.linspace(0.0, -0.5, 60):
        fired, _ = det.step(0.15 - tt, 0.15, tt, 0.0, torso_position)
    assert fired


# -- rotation goal and trajectory -----------------------------------------


def test_desired_rotation_pose_identity():
    rel = Pose([0.4, -0.1, 0.0], quat_from_yaw(0.3))
    out = desired_rotation_pose(Pose(), rel)
    np.testing.assert_allclose(out.position, rel.position, atol=1e-15)
    np.testing.assert_allclose(out.orientation, rel.orientation, atol=1e-15)


def test_desired_rotation_pose_matches_matrix_oracle():
    rng = np.random.default_rng(57)
    for _ in range(200):
        torso = Pose(rng.normal(size=3), quat_normalize(rng.normal(size=4)))
        rel = Pose(rng.normal(size=3), quat_normalize(rng.normal(size=4)))

        def hom(p):
            T = np.eye(4)
            T[:3, :3] = p.rotation_matrix()
            T[:3, 3] = p.position
            return T

        out = desired_rotation_pose(torso, rel)
        np.testing.assert_allclose(hom(out), hom(torso) @ hom(rel), atol=1e-12)


def test_desired_rotation_pose_yawed_torso():
    # a torso yawed by phi swings the goal about the torso origin by phi
    phi = 0.8
    torso_pos = np.array([2.0, 1.0, 0.9])
    rel = Pose([-0.5, 0.2, 0.1], quat_from_yaw(0.0))
    out = desired_rotation_pose(Pose(torso_pos, quat_from_yaw(phi)), rel)
    np.testing.assert_allclose(
        out.position, torso_pos + quat_rotate(quat_from_yaw(phi), rel.position),
        atol=1e-12,
    )
    assert out.yaw() == pytest.approx(phi)


def test_cubic_trajectory_boundaries():
    rng = np.random.default_rng(58)
    for _ in range(50):
        start = Pose(rng.normal(size=3), quat_normalize(rng.normal(size=4)))
        goal = Pose(rng.normal(size=3), quat_normalize(rng.normal(size=4)))
        t0 = rng.uniform(0, 5)
        T = rng.uniform(0.5, 4.0)
        traj = CubicTrajectory(start, goal, t0, T)
        p0, v0 = traj.sample(t0)
        p1, v1 = traj.sample(t0 + T)
        np.testing.assert_allclose(p0.position, start.position, atol=1e-12)
        np.testing.assert_allclose(p1.position, goal.position, atol=1e-12)
        assert abs(np.dot(p0.orientation, start.orientation)) > 1 - 1e-12
        assert abs(np.dot(p1.orientation, goal.orientation)) > 1 - 1e-12
        np.testing.assert_allclose(v0.as_vector(), np.zeros(6), atol=1e-12)
        np.testing.assert_allclose(v1.as_vector(), np.zeros(6), atol=1e-12)


def test_cubic_trajectory_midpoint_and_peak_speed():
    start = Pose([0.0, 0.0, 0.0])
    goal = Pose([0.6, 0.0, 0.0], quat_from_yaw(0.4))
    traj = CubicTrajectory(start, goal, 1.0, 2.0)
    mid, vmid = traj.sample(2.0)
    np.testing.assert_allclose(mid.position, [0.3, 0, 0], atol=1e-12)
    assert np.linalg.norm(vmid.linear) == pytest.approx(1.5 * 0.6 / 2.0)
    assert vmid.angular[2] == pytest.approx(1.5 * 0.4 / 2.0)
    # midpoint is the speed maximum
    speeds = [
        np.linalg.norm(traj.sample(t)[1].linear) for t in np.linspace(1.0, 3.0, 101)
    ]
    assert np.argmax(speeds) == 50
    assert traj.done(3.0) and not traj.done(2.999)
    with pytest.raises(ValueError):
        CubicTrajectory(start, goal, 0.0, 0.0)


def test_cubic_trajectory_clamps_outside_span():
    traj = CubicTrajectory(Pose(), Pose([1, 0, 0]), 0.0, 1.0)
    before, vb = traj.sample(-0.5)
    after, va = traj.sample(1.5)
    np.testing.assert_allclose(before.position, [0, 0, 0])
    np.testing.assert_allclose(after.position, [1, 0, 0])
    np.testing.assert_allclose(vb.as_vector(), np.zeros(6))
    np.testing.assert_allclose(va.as_vector(), np.zeros(6))


# -- reference generator --------------------------------------------------


def test_reference_integrates_constant_velocity():
    ref = ReferenceGenerator(Pose())
    v = np.array([0.1, 0.0, 0.0])
    for _ in range(2000):
        pose, twist = ref.step(0, None, v, 1e-3)
    np.testing.assert_allclose(pose.position, [0.2, 0, 0], atol=1e-12)
    np.testing.assert_allclose(twist, [0.1, 0, 0, 0, 0, 0])


def test_reference_rotation_branch_overrides_translation():
    ref = ReferenceGenerator(Pose())
    rot = (0.0, 0.0, 0.0, 0.0, 0.0, 0.5)
    _, twist = ref.step(1, rot, (9.0, 9.0, 9.0), 1e-3)
    np.testing.assert_allclose(twist, rot)


def test_reference_derivative_consistency():
    rng = np.random.default_rng(59)
    ref = ReferenceGenerator(Pose())
    dt = 1e-3
    prev = ref.x_d.copy()
    for _ in range(500):
        v_adm = rng.normal(scale=0.2, size=3)
        v_h = rng.normal(scale=0.2, size=3)
        pose, twist = ref.step(0, None, object_translation(v_adm, v_h, 0.5), dt)
        fd = (pose.position - prev.position) / dt
        np.testing.assert_allclose(fd, twist[:3], atol=1e-9)
        prev = pose.copy()


# -- full controller ------------------------------------------------------


def human_sample(hand_yaw=0.0, torso_yaw=0.0, rate=0.0, v=(0, 0, 0)):
    return HumanState(
        hand_position=(1.0, 0.0, 1.0),
        hand_orientation=tuple(quat_from_yaw(hand_yaw).tolist()),
        hand_velocity=tuple(float(c) for c in v),
        torso_position=(1.5, 0.0, 1.0),
        theta_h_w=hand_yaw,
        theta_t_w=torso_yaw,
        theta_h_t=hand_yaw - torso_yaw,
        thetadot_t_w=rate,
    )


def make_controller(mode, ee=None, torso=None):
    return AciController(
        AciParams(),
        AdmittanceParams(),
        mode,
        Pose([0.5, 0, 1.0]) if ee is None else ee,
        Pose([1.5, 0, 1.0]) if torso is None else torso,
    )


def run_controller(mode, force, v_h, ticks=300, dt=1e-3):
    ctrl = make_controller(mode)
    out = None
    t = 0.0
    for _ in range(ticks):
        t += dt
        out = ctrl.step(t, np.array(force, dtype=float), human_sample(v=v_h), dt)
    return out


def test_controller_admittance_matches_fresh_step_across_dt():
    # The admittance decay is kept per dt.  Stepped with two alternating
    # dts, the controller's v_adm must equal, bit for bit, an admittance
    # step computed from scratch with fresh parameters on every tick.
    mass, damping = [6.0, 3.0, 1.5], [30.0, 12.0, 9.0]
    ctrl = AciController(
        AciParams(),
        AdmittanceParams(mass, damping),
        Mode.ADMITTANCE,
        Pose([0.5, 0, 1.0]),
        Pose([1.5, 0, 1.0]),
    )
    rng = np.random.default_rng(60)
    v = (0.0, 0.0, 0.0)
    t = 0.0
    for i in range(400):
        dt = (1e-3, 2.5e-3)[i % 2]
        t += dt
        force = tuple(rng.normal(scale=20.0, size=3).tolist())
        out = ctrl.step(t, force, human_sample(), dt)
        v = admittance_step(force, v, dt, AdmittanceParams(mass, damping))
        assert np.array(out.v_adm).tobytes() == np.array(v).tobytes()


def test_reference_mode_pins_blend():
    force = (12.0, 0.0, 0.0)
    v_h = (0.0, 0.3, 0.0)
    adm = run_controller(Mode.ADMITTANCE, force, v_h)
    for other_v_h in ((0.0, 0.0, 0.0), (5.0, 5.0, 5.0)):  # hand input must be invisible
        other = run_controller(Mode.ADMITTANCE, force, other_v_h)
        np.testing.assert_allclose(other.xdot_d[:3], adm.xdot_d[:3])
    tel = run_controller(Mode.TELEOP, force, v_h)
    for other_force in ((0.0, 0.0, 0.0), (5.0, 5.0, 5.0)):  # force channel must be invisible
        other = run_controller(Mode.TELEOP, other_force, v_h)
        np.testing.assert_allclose(other.xdot_d[:3], tel.xdot_d[:3])
        np.testing.assert_allclose(other.xdot_d[:3], v_h)


def test_controller_mode_outputs():
    force = (12.0, 0.0, 0.0)
    v_h = (0.0, 0.3, 0.0)
    for mode in (Mode.ACI, Mode.ADMITTANCE, Mode.TELEOP):
        out = run_controller(mode, force, v_h)
        if mode is Mode.ADMITTANCE:
            np.testing.assert_allclose(out.v_trans, out.v_adm)
        elif mode is Mode.TELEOP:
            np.testing.assert_allclose(out.v_trans, v_h)
        else:
            np.testing.assert_allclose(
                out.v_trans, out.v_adm + out.alpha * np.array(v_h)
            )
        # the reference moves with the mode's translational command
        np.testing.assert_allclose(out.xdot_d[:3], out.v_trans)
        assert out.zeta == 0


def test_controller_rotation_cycle():
    dt = 1e-3
    ctrl = make_controller(Mode.ACI)
    t = 0.0
    # settle period, then torso-led turn of -0.5 rad
    for _ in range(100):
        t += dt
        out = ctrl.step(t, np.zeros(3), human_sample(), dt)
        assert out.zeta == 0
    for tt in np.linspace(0.0, -0.5, 400):
        t += dt
        out = ctrl.step(t, np.zeros(3), human_sample(torso_yaw=tt, rate=-1.25), dt)
        assert out.zeta == 0  # torso still moving
    fire_t = None
    for _ in range(3000):
        t += dt
        out = ctrl.step(t, np.zeros(3), human_sample(torso_yaw=-0.5, rate=0.0), dt)
        if out.zeta and fire_t is None:
            fire_t = t
        if fire_t is not None and not out.zeta:
            break
    assert fire_t is not None
    # the commanded duration covers |0.5| rad at 0.3 rad/s, floored at 2 s
    assert t - fire_t == pytest.approx(2.0, abs=2 * dt)
    # x_d converged on the re-seated arrangement around the detected torso
    goal = desired_rotation_pose(
        Pose([1.5, 0, 1.0], quat_from_yaw(-0.5)), ctrl.ee_in_torso
    )
    np.testing.assert_allclose(ctrl.reference.x_d.position, goal.position, atol=5e-3)
    assert ctrl.reference.x_d.yaw() == pytest.approx(goal.yaw(), abs=5e-3)
    # translation stayed frozen during the maneuver
    assert ctrl.trajectory is None


def test_controller_no_rotation_outside_aci_mode():
    dt = 1e-3
    for mode in (Mode.ADMITTANCE, Mode.TELEOP):
        ctrl = make_controller(mode)
        t = 0.0
        for tt in np.linspace(0.0, -0.5, 300):
            t += dt
            out = ctrl.step(t, np.zeros(3), human_sample(torso_yaw=tt, rate=0.0), dt)
            assert out.zeta == 0
        for _ in range(500):
            t += dt
            out = ctrl.step(t, np.zeros(3), human_sample(torso_yaw=-0.5, rate=0.0), dt)
            assert out.zeta == 0


def test_aci_params_validation():
    with pytest.raises(ValueError):
        AciParams(window_length=0.0)
    with pytest.raises(ValueError):  # the index divides by it
        AciParams(epsilon=0.0)
    with pytest.raises(ValueError):  # the rotation duration divides by it
        AciParams(rotation_rate=0.0)
    with pytest.raises(ValueError):
        AciParams(lower_angle=0.5, upper_angle=0.4)
