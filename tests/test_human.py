"""Scripted partner: impedance hand and yaw channels."""

import numpy as np
import pytest

from cocarry.human import (
    HandYaw,
    Hold,
    HumanParams,
    MotionScript,
    SimulatedHuman,
    TorsoYaw,
    Translate,
)

DT = 1e-3


def make_human(segments, hand0=(1.0, 0.0, 1.0), torso0=(1.5, 0.0, 1.0), **kw):
    params = HumanParams(**kw)
    script = MotionScript(segments, hand0)
    return SimulatedHuman(params, script, torso0)


def run_free(human, steps):
    state = None
    for _ in range(steps):
        state = human.step(np.zeros(3), DT)
    return state


def test_equilibrium_hold():
    human = make_human([Hold(1.0)])
    p0 = human.hand_position
    state = run_free(human, 500)
    np.testing.assert_allclose(state.hand_position, p0, atol=1e-12)
    np.testing.assert_allclose(state.hand_velocity, np.zeros(3))
    assert state.theta_t_w == 0.0 and state.thetadot_t_w == 0.0


def test_free_hand_reaches_target():
    # 0.3 m translate in 1 s; settled well within three time constants after
    human = make_human([Translate([0.3, 0.0, 0.0], 1.0), Hold(1.0)])
    state = run_free(human, 1600)
    np.testing.assert_allclose(
        state.hand_position, [1.3, 0.0, 1.0], atol=1e-3
    )


def test_series_spring_statics():
    # hand coupled to a pinned EE through a stiff spring: the steady
    # displacement follows the series-spring ratio K_h / (K_h + k)
    k = 1e4
    human = make_human([Translate([0.1, 0.0, 0.0], 1.0), Hold(4.0)])
    anchor = np.array(human.hand_position)
    state = None
    for _ in range(5000):
        force = -k * (np.array(human.hand_position) - anchor)
        state = human.step(force, DT)
    expected = 600.0 * 0.1 / (600.0 + k)
    got = state.hand_position[0] - anchor[0]
    assert got == pytest.approx(expected, rel=1e-3)


def test_hand_impedance_is_passive():
    # target frozen, no object force: kinetic + elastic energy never grows
    human = make_human([Hold(3.0)])
    human.hand_velocity = (0.4, -0.2, 0.3)
    p = human.params
    target = human.script.hand0

    def energy():
        v = np.array(human.hand_velocity)
        v2 = float(v @ v)
        d = np.array(human.hand_position) - target
        return 0.5 * p.hand_mass * v2 + 0.5 * p.hand_stiffness * float(d @ d)

    prev = energy()
    for _ in range(2000):
        human.step(np.zeros(3), DT)
        cur = energy()
        assert cur <= prev + 1e-12
        prev = cur


def test_velocity_deadband_reads_zero():
    human = make_human([Translate([0.2, 0.0, 0.0], 1.0)], velocity_deadband=0.5)
    state = run_free(human, 400)
    # true velocity is well below the (exaggerated) deadband: measured as rest
    assert np.linalg.norm(human.hand_velocity) > 0.0
    np.testing.assert_allclose(state.hand_velocity, np.zeros(3))


def test_torso_yaw_rate_is_filtered_finite_difference():
    human = make_human([TorsoYaw(0.5, 1.0), Hold(1.0)])
    rates = []
    yaws = []
    for _ in range(2000):
        s = human.step(np.zeros(3), DT)
        rates.append(s.thetadot_t_w)
        yaws.append(s.theta_t_w)
    # oracle: same finite difference + first-order low-pass on the yaw stream
    tau = 1.0 / (2.0 * np.pi * 5.0)
    beta = DT / (tau + DT)
    filt = 0.0
    prev = 0.0
    oracle = []
    for y in yaws:
        raw = (y - prev) / DT
        prev = y
        filt += beta * (raw - filt)
        oracle.append(filt)
    np.testing.assert_allclose(rates, oracle, atol=1e-12)
    assert abs(yaws[-1] - 0.5) < 1e-12
    assert abs(rates[-1]) < 1e-3  # settled


def test_hand_yaw_channel_independent_of_torso():
    human = make_human([TorsoYaw(0.6, 1.0), HandYaw(0.3, 1.0), Hold(0.5)])
    seen = []
    for _ in range(2500):
        s = human.step(np.zeros(3), DT)
        seen.append((s.theta_h_w, s.theta_t_w, s.theta_h_t))
    # during the torso turn the hand yaw stayed put in the world
    mid = seen[900]
    assert mid[1] > 0.5 and abs(mid[0]) < 1e-12
    # afterwards the hand turned alone
    end = seen[-1]
    assert end[0] == pytest.approx(0.3, abs=1e-12)
    assert end[1] == pytest.approx(0.6, abs=1e-12)
    # the relative angle is always the plain difference
    for th, tt, rel in seen[::97]:
        assert rel == pytest.approx(th - tt, abs=1e-9)


def test_torso_translates_with_scripted_hand():
    human = make_human([Translate([0.2, -0.1, 0.0], 0.5), Hold(0.5)])
    state = run_free(human, 1000)
    np.testing.assert_allclose(
        state.torso_position, [1.7, -0.1, 1.0], atol=1e-12
    )


def test_script_timeline():
    script = MotionScript(
        [Hold(0.5), Translate([0.3, 0, 0], 1.0), TorsoYaw(0.4, 2.0)],
        hand0=[0, 0, 0],
    )
    assert script.duration == pytest.approx(3.5)
    assert script.first_motion_time() == pytest.approx(0.5)
    assert script.motion_spans() == [(0.5, 1.5)]
    tgt = script.target(1.0)  # halfway through the translate
    np.testing.assert_allclose(tgt.position, [0.15, 0, 0], atol=1e-12)
    assert tgt.velocity[0] == pytest.approx(1.5 * 0.3 / 1.0)  # cubic peak rate
    after = script.target(10.0)
    np.testing.assert_allclose(after.position, [0.3, 0, 0])
    assert after.torso_yaw == pytest.approx(0.4)
    with pytest.raises(ValueError):
        MotionScript([Hold(0.0)], hand0=[0, 0, 0])


def test_determinism_with_noise():
    noise = {"hand_position": 0.001, "hand_velocity": 0.002, "torso_yaw": 0.0005}
    runs = []
    for _ in range(2):
        human = make_human(
            [Translate([0.2, 0, 0], 0.5), Hold(0.5)], noise=noise
        )
        human.rng = np.random.default_rng(123)
        rows = []
        for _ in range(1000):
            s = human.step(np.zeros(3), DT)
            rows.append(np.concatenate([s.hand_position, s.hand_velocity]))
        runs.append(np.array(rows))
    assert np.array_equal(runs[0], runs[1])
    # and the noise actually perturbs the measurements
    clean = make_human([Translate([0.2, 0, 0], 0.5), Hold(0.5)])
    rows = []
    for _ in range(1000):
        s = clean.step(np.zeros(3), DT)
        rows.append(np.concatenate([s.hand_position, s.hand_velocity]))
    assert not np.array_equal(runs[0], np.array(rows))


def test_params_validation():
    with pytest.raises(ValueError):
        HumanParams(hand_mass=0.0)
    with pytest.raises(ValueError):
        HumanParams(hand_damping=-1.0)
    with pytest.raises(ValueError):
        HumanParams(yaw_filter_cutoff=0.0)


def test_rejects_non_finite_force():
    human = make_human([Hold(1.0)])
    with pytest.raises(ValueError):
        human.step(np.array([np.inf, 0, 0]), DT)


def test_rejects_wrong_length_force():
    human = make_human([Hold(1.0)])
    with pytest.raises(ValueError):
        human.step(np.zeros(2), DT)
