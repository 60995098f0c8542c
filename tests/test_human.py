"""Scripted partner: impedance hand and yaw channels."""

import math
import re

import numpy as np
import pytest

from cocarry.human import (
    _NOISE_BLOCK,
    NOISE_CHANNELS,
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
    return SimulatedHuman(params, script, torso0, DT)


def run_free(human, steps):
    state = None
    for n in range(1, steps + 1):
        state = human.step(n * DT, np.zeros(3))
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
    for n in range(1, 5001):
        force = -k * (np.array(human.hand_position) - anchor)
        state = human.step(n * DT, force)
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
    for n in range(1, 2001):
        human.step(n * DT, np.zeros(3))
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
    for n in range(1, 2001):
        s = human.step(n * DT, np.zeros(3))
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
    for n in range(1, 2501):
        s = human.step(n * DT, np.zeros(3))
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
    tgt = script.target(1.0)  # halfway through the translate
    np.testing.assert_allclose(tgt.position, [0.15, 0, 0], atol=1e-12)
    assert tgt.velocity[0] == pytest.approx(1.5 * 0.3 / 1.0)  # cubic peak rate
    after = script.target(10.0)
    np.testing.assert_allclose(after.position, [0.3, 0, 0])
    assert after.torso_yaw == pytest.approx(0.4)
    with pytest.raises(ValueError):
        MotionScript([Hold(0.0)], hand0=[0, 0, 0])


# name -> (script built with the value v, what the message names)
NON_FINITE_SCRIPTS = {
    "hold": (lambda v: MotionScript([Hold(v)], (0, 0, 0)), r"segment 0 \(Hold\): duration"),
    "translate": (
        lambda v: MotionScript([Hold(1.0), Translate([0, v, 0], 1.0)], (0, 0, 0)),
        r"segment 1 \(Translate\): offset",
    ),
    "translate_duration": (
        lambda v: MotionScript([Translate([0, 0, 0.1], v)], (0, 0, 0)),
        r"segment 0 \(Translate\): duration",
    ),
    "torso_yaw": (
        lambda v: MotionScript([Hold(1.0), Hold(1.0), TorsoYaw(v, 1.0)], (0, 0, 0)),
        r"segment 2 \(TorsoYaw\): target",
    ),
    "hand_yaw": (
        lambda v: MotionScript([HandYaw(v, 1.0)], (0, 0, 0)),
        r"segment 0 \(HandYaw\): target",
    ),
    "hand0": (lambda v: MotionScript([Hold(1.0)], (0, v, 0)), "script hand0"),
    "torso_yaw0": (
        lambda v: MotionScript([Hold(1.0)], (0, 0, 0), torso_yaw0=v),
        "script torso_yaw0",
    ),
    "hand_yaw0": (
        lambda v: MotionScript([Hold(1.0)], (0, 0, 0), hand_yaw0=v),
        "script hand_yaw0",
    ),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("case", list(NON_FINITE_SCRIPTS))
def test_script_rejects_non_finite_values(case, value):
    # The scenario reader rejects these first; built from Python, a NaN hold
    # ended in "unreachable" at tick 0 and a NaN torso yaw ran without a word.
    build, names = NON_FINITE_SCRIPTS[case]
    with pytest.raises(ValueError, match=f"{names} must be finite"):
        build(value)


def test_determinism_with_noise():
    noise = {"hand_position": 0.001, "hand_velocity": 0.002, "torso_yaw": 0.0005}
    runs = []
    for _ in range(2):
        human = make_human(
            [Translate([0.2, 0, 0], 0.5), Hold(0.5)], noise=noise
        )
        human.rng = np.random.default_rng(123)
        rows = []
        for n in range(1, 1001):
            s = human.step(n * DT, np.zeros(3))
            rows.append(np.concatenate([s.hand_position, s.hand_velocity]))
        runs.append(np.array(rows))
    assert np.array_equal(runs[0], runs[1])
    # and the noise actually perturbs the measurements
    clean = make_human([Translate([0.2, 0, 0], 0.5), Hold(0.5)])
    rows = []
    for n in range(1, 1001):
        s = clean.step(n * DT, np.zeros(3))
        rows.append(np.concatenate([s.hand_position, s.hand_velocity]))
    assert not np.array_equal(runs[0], np.array(rows))


def bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize(
    "noise",
    [
        {"hand_position": 1e-3, "hand_velocity": 2e-3, "torso_yaw": 5e-4, "hand_yaw": 7e-4},
        {"hand_velocity": 2e-3, "torso_yaw": 5e-4},
        # 3 draws a tick: a tick's triple straddles the end of a block
        {"hand_position": 1e-3},
    ],
)
def test_noise_matches_per_channel_normal_calls(noise):
    # The noise is drawn in blocks; the measured channels must still be
    # bitwise what one rng.normal call per configured channel and tick gives,
    # in channel order, and an unconfigured channel draws nothing.
    script = MotionScript(
        [Translate([0.2, -0.1, 0.05], 0.4), TorsoYaw(0.5, 0.3), HandYaw(-0.3, 0.3)],
        hand0=(1.0, 0.0, 1.0),
    )
    params = HumanParams(noise=noise, velocity_deadband=0.0)
    human = SimulatedHuman(params, script, (1.5, 0.0, 1.0), DT, seed=77)
    oracle = np.random.default_rng(77)
    draws_per_tick = sum(3 if k in ("hand_position", "hand_velocity") else 1 for k in noise)
    ticks = 2 * _NOISE_BLOCK // draws_per_tick + 50
    assert ticks * draws_per_tick > 2 * _NOISE_BLOCK

    def draw(key, n):
        std = noise.get(key, 0.0)
        if std <= 0.0:
            return [0.0] * n if n else 0.0
        if n:
            return oracle.normal(0.0, std, size=n).tolist()
        return float(oracle.normal(0.0, std))

    for n in range(1, ticks + 1):
        state = human.step(n * DT, (0.0, 0.0, 0.0))
        j_pos, j_vel = draw("hand_position", 3), draw("hand_velocity", 3)
        j_torso, j_hand = draw("torso_yaw", 0), draw("hand_yaw", 0)
        _, _, torso_yaw, _, hand_yaw = script.sample(n * DT)
        assert bits(state.hand_position) == bits(
            [x + j for x, j in zip(human.hand_position, j_pos)]
        )
        assert bits(state.hand_velocity) == bits(
            [v + j for v, j in zip(human.hand_velocity, j_vel)]
        )
        assert bits([state.theta_t_w, state.theta_h_w]) == bits(
            [torso_yaw + j_torso, hand_yaw + j_hand]
        )


def test_params_validation():
    with pytest.raises(ValueError):
        HumanParams(hand_mass=0.0)
    with pytest.raises(ValueError):
        HumanParams(hand_damping=-1.0)
    with pytest.raises(ValueError):
        HumanParams(yaw_filter_cutoff=0.0)
    with pytest.raises(ValueError):
        HumanParams(velocity_deadband=-0.01)
    HumanParams(velocity_deadband=0.0)


def test_noise_settings_validated():
    # A misspelt channel or a negative std would otherwise run without noise.
    with pytest.raises(ValueError, match="unknown noise channel 'hand_positon'"):
        HumanParams(noise={"hand_positon": 5e-4})
    with pytest.raises(ValueError, match=re.escape("noise must be non-negative, got {'torso_yaw'")):
        HumanParams(noise={"torso_yaw": -1.0})
    HumanParams(noise=dict.fromkeys(NOISE_CHANNELS, 0.0))


def test_rejects_non_finite_force():
    human = make_human([Hold(1.0)])
    with pytest.raises(ValueError):
        human.step(DT, np.array([np.inf, 0, 0]))


def test_rejects_wrong_length_force():
    human = make_human([Hold(1.0)])
    with pytest.raises(ValueError):
        human.step(DT, np.zeros(2))


@pytest.mark.parametrize(
    "entry",
    [
        lambda script, human: script.sample(math.nan),
        lambda script, human: script.target(math.nan),
        lambda script, human: human.step(math.nan, np.zeros(3)),
    ],
    ids=["sample", "target", "human_step"],
)
def test_nan_time_is_named(entry):
    # A nan t compares false with every segment's bounds; it used to fall
    # through to a bare AssertionError("unreachable").
    script = MotionScript([Hold(1.0), Translate([0.1, 0.0, 0.0], 1.0)], (0.0, 0.0, 1.0))
    human = SimulatedHuman(HumanParams(), script, (0.5, 0.0, 1.0), DT)
    with pytest.raises(ValueError, match=r"script has no target at t=nan"):
        entry(script, human)
