"""Coupling model: preset force laws, asymmetry, slack, and passivity.

`elastic_energy` is the test oracle for the force law: the force on the EE
must be minus the displacement-gradient of this stored energy.
"""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from cocarry.geometry import Pose, quat_from_yaw
from cocarry.objects import ObjectModel, object_wrench, presets
from cocarry.scenario import ConfigError, load_scenario, scenario_path
from cocarry.sim import Simulation


def rotz(yaw: float) -> np.ndarray:
    """Rotation matrix of `yaw` about the vertical axis."""
    c, s = float(np.cos(yaw)), float(np.sin(yaw))
    return np.array([c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0]).reshape(3, 3)


def elastic_energy(model: ObjectModel, hand_pose: Pose, ee_pose: Pose) -> float:
    """Stored elastic energy of the coupling; non-negative by construction."""
    rest_world = rotz(ee_pose.yaw() - model.ref_yaw) @ model.rest_vector
    rest_len = np.linalg.norm(rest_world)
    deviation = (ee_pose.position - hand_pose.position) - rest_world
    if rest_len <= 1e-12:
        return 0.5 * model.lateral_stiffness * float(deviation @ deviation)
    axis = rest_world / rest_len
    s = float(axis @ deviation)
    lateral = deviation - s * axis
    energy = 0.5 * model.lateral_stiffness * float(lateral @ lateral)
    if s > model.slack_length:
        energy += 0.5 * model.axial_stiffness_tension * (s - model.slack_length) ** 2
    elif s < 0.0:
        energy += 0.5 * model.axial_stiffness_compression * s * s
    return energy


def wrench_at(model, hand_p, ee_p, hand_v=(0, 0, 0), ee_v=(0, 0, 0), ee_yaw=0.0):
    """(force on the EE, force on the hand) as arrays; the hand takes the
    negative of the force `object_wrench` returns, as the simulator does."""
    ee = [float(c) for c in ee_p] + list(quat_from_yaw(ee_yaw))
    on_ee = np.array(
        object_wrench(
            model,
            [float(c) for c in hand_p],
            [float(c) for c in hand_v],
            ee,
            [float(c) for c in ee_v],
        )
    )
    return on_ee, -on_ee


def test_rest_state_zero_wrench():
    model = presets()["rigid_rod"].with_rest([0.5, 0.0, 0.0])
    on_ee, on_hand = wrench_at(model, [0, 0, 0], [0.5, 0, 0])
    np.testing.assert_allclose(on_ee, np.zeros(3))
    np.testing.assert_allclose(on_hand, np.zeros(3))


def test_rigid_axial_stretch_force():
    # 0.01 m stretch at 1e4 N/m: 100 N pulling the EE back toward the hand
    model = presets()["rigid_rod"].with_rest([0.5, 0.0, 0.0])
    on_ee, on_hand = wrench_at(model, [0, 0, 0], [0.51, 0, 0])
    np.testing.assert_allclose(on_ee, [-100.0, 0, 0], atol=1e-9)
    np.testing.assert_allclose(on_hand, [100.0, 0, 0], atol=1e-9)


def test_bag_tension_compression_asymmetry():
    model = presets()["peanut_bag"].with_rest([0.5, 0.0, 0.0])
    pulled, _ = wrench_at(model, [0, 0, 0], [0.52, 0, 0])
    pushed, _ = wrench_at(model, [0, 0, 0], [0.48, 0, 0])
    assert np.linalg.norm(pulled) == pytest.approx(100.0)
    assert np.linalg.norm(pushed) == pytest.approx(6.0)
    assert pulled[0] < 0 < pushed[0]


def test_bag_lateral_stiffness():
    model = presets()["peanut_bag"].with_rest([0.5, 0.0, 0.0])
    on_ee, _ = wrench_at(model, [0, 0, 0], [0.5, 0.02, 0])
    np.testing.assert_allclose(on_ee, [0, -150.0 * 0.02, 0], atol=1e-9)


def test_rope_is_a_one_way_constraint():
    model = presets()["slack_rope"].with_rest([0.5, 0.0, 0.0])
    rng = np.random.default_rng(61)
    # anywhere inside the slack ball: no force at all
    for _ in range(200):
        ee = np.array([0.5, 0, 0]) + rng.uniform(-0.4, 0.4, size=3)
        on_ee, _ = wrench_at(model, [0, 0, 0], ee)
        np.testing.assert_allclose(on_ee, np.zeros(3))
    # compressed: still nothing (tension-only)
    on_ee, _ = wrench_at(model, [0, 0, 0], [0.1, 0, 0])
    np.testing.assert_allclose(on_ee, np.zeros(3))
    # stretched past rest + slack: tension engages
    on_ee, _ = wrench_at(model, [0, 0, 0], [0.5 + 1.0 + 0.01, 0, 0])
    np.testing.assert_allclose(on_ee, [-100.0, 0, 0], atol=1e-9)


def test_damping_acts_on_relative_velocity():
    model = presets()["rigid_rod"].with_rest([0.5, 0.0, 0.0])
    on_ee, on_hand = wrench_at(
        model, [0, 0, 0], [0.5, 0, 0], hand_v=(0.1, 0, 0), ee_v=(0.3, 0, 0)
    )
    np.testing.assert_allclose(on_ee, [-50.0 * 0.2, 0, 0], atol=1e-12)
    np.testing.assert_allclose(on_hand, -on_ee)
    # equal velocities: no damping force
    on_ee, _ = wrench_at(
        model, [0, 0, 0], [0.5, 0, 0], hand_v=(0.2, 0, 0), ee_v=(0.2, 0, 0)
    )
    np.testing.assert_allclose(on_ee, np.zeros(3))


def test_action_reaction_exact():
    # Each tick the hand feels exactly the negative of the force on the EE
    # that the same tick records, for every preset, with the hand displaced
    # so that the coupling carries load (the slack rope stays slack).
    rng = np.random.default_rng(62)
    loaded = 0.0
    for name in presets():
        sim = Simulation(load_scenario(scenario_path("smoke"), {"object": name}))
        shift = rng.normal(scale=0.05, size=3)
        sim.human.hand_position = tuple(np.add(sim.human.hand_position, shift).tolist())
        on_hand = []
        real_step = sim.human.step

        def spy_step(t, force):
            on_hand.append(tuple(force))
            return real_step(t, force)

        sim.human.step = spy_step
        for _ in range(201):
            sim.step()
        on_ee = sim.trace[["fx", "fy", "fz"]]
        loaded = max(loaded, np.abs(on_ee).max())
        for f_ee, f_hand in zip(on_ee[:-1], on_hand[1:]):
            assert np.array_equal(f_hand, -f_ee)
            assert all(type(f) is float for f in f_hand)
    assert loaded > 0.1


def test_force_continuity_at_breakpoints():
    # piecewise-linear law must match at the slack and compression boundaries
    model = ObjectModel(
        rest_vector=[0.5, 0.0, 0.0],
        axial_stiffness_tension=1e4,
        axial_stiffness_compression=300.0,
        lateral_stiffness=150.0,
        damping=0.0,
        slack_length=0.05,
    )
    eps = 1e-9
    for s in (0.0, 0.05):  # compression onset, tension onset
        lo, _ = wrench_at(model, [0, 0, 0], [0.5 + s - eps, 0, 0])
        hi, _ = wrench_at(model, [0, 0, 0], [0.5 + s + eps, 0, 0])
        assert np.linalg.norm(hi - lo) < 1e-4


def test_rest_vector_follows_ee_yaw():
    # yawing the EE re-seats the rest geometry, so a co-rotated arrangement
    # stays force-free
    model = presets()["peanut_bag"].with_rest([0.5, 0.0, 0.0], ref_yaw=0.0)
    phi = 0.9
    ee_p = np.array([np.cos(phi), np.sin(phi), 0.0]) * 0.5
    on_ee, _ = wrench_at(model, [0, 0, 0], ee_p, ee_yaw=phi)
    np.testing.assert_allclose(on_ee, np.zeros(3), atol=1e-9)
    # without the yaw the same positions are loaded
    on_ee, _ = wrench_at(model, [0, 0, 0], ee_p, ee_yaw=0.0)
    assert np.linalg.norm(on_ee) > 1.0


def test_degenerate_rest_treats_everything_as_lateral():
    model = ObjectModel(
        rest_vector=np.zeros(3),
        axial_stiffness_tension=1e4,
        axial_stiffness_compression=1e4,
        lateral_stiffness=200.0,
        damping=0.0,
    )
    on_ee, _ = wrench_at(model, [0, 0, 0], [0.03, -0.01, 0.02])
    np.testing.assert_allclose(on_ee, [-6.0, 2.0, -4.0], atol=1e-9)


def force_oracle(model, hand_p, hand_v, ee_pose, ee_v) -> np.ndarray:
    """The coupling force on the EE in array form."""
    rest_world = rotz(ee_pose.yaw() - model.ref_yaw) @ model.rest_vector
    rest_len = np.linalg.norm(rest_world)
    deviation = (ee_pose.position - hand_p) - rest_world
    if rest_len > 1e-12:
        axis = rest_world / rest_len
        s = float(axis @ deviation)
        force = -model.lateral_stiffness * (deviation - s * axis)
        if s > model.slack_length:
            force -= model.axial_stiffness_tension * (s - model.slack_length) * axis
        elif s < 0.0:
            force -= model.axial_stiffness_compression * s * axis
    else:
        force = -model.lateral_stiffness * deviation
    return force - model.damping * (ee_v - hand_v)


def test_wrench_matches_array_form():
    rng = np.random.default_rng(65)
    for name in presets():
        for i in range(400):
            degenerate = i % 10 == 0
            rest = np.zeros(3) if degenerate else rng.normal(scale=0.5, size=3)
            model = presets()[name].with_rest(rest, ref_yaw=rng.uniform(-np.pi, np.pi))
            ee = Pose(rng.normal(scale=0.5, size=3), quat_from_yaw(rng.uniform(-4, 4)))
            hand_p, hand_v, ee_v = rng.normal(scale=0.5, size=(3, 3))
            ee_pose = ee.position.tolist() + ee.orientation.tolist()
            force = object_wrench(
                model, hand_p.tolist(), hand_v.tolist(), ee_pose, ee_v.tolist()
            )
            expected = force_oracle(model, hand_p, hand_v, ee, ee_v)
            bound = 1e-12 * max(1.0, np.linalg.norm(expected))
            assert np.abs(np.array(force) - expected).max() <= bound, (name, i)


def test_elastic_energy_properties():
    rng = np.random.default_rng(63)
    for name in presets():
        model = presets()[name].with_rest([0.5, 0.0, 0.0])
        for _ in range(200):
            hand = Pose(rng.normal(scale=0.3, size=3))
            ee = Pose([0.5, 0, 0] + rng.normal(scale=0.3, size=3))
            assert elastic_energy(model, hand, ee) >= 0.0
        # exactly at rest: zero stored energy
        hand = Pose([0, 0, 0])
        ee = Pose([0.5, 0, 0])
        assert elastic_energy(model, hand, ee) == 0.0
    # inside the slack band the rope stores nothing
    rope = presets()["slack_rope"].with_rest([0.5, 0.0, 0.0])
    ee = Pose([0.9, 0, 0])
    assert elastic_energy(rope, Pose(np.zeros(3)), ee) == 0.0


def test_energy_is_the_spring_potential():
    # force must be the negative displacement-gradient of the energy
    model = presets()["peanut_bag"].with_rest([0.5, 0.0, 0.0])
    rng = np.random.default_rng(64)
    h = 1e-6
    for _ in range(50):
        ee_p = np.array([0.5, 0, 0]) + rng.uniform(-0.05, 0.05, size=3)
        on_ee, _ = wrench_at(model, [0, 0, 0], ee_p)
        grad = np.zeros(3)
        for j in range(3):
            dp = np.zeros(3)
            dp[j] = h
            e_hi = elastic_energy(model, Pose(np.zeros(3)), Pose(ee_p + dp))
            e_lo = elastic_energy(model, Pose(np.zeros(3)), Pose(ee_p - dp))
            grad[j] = (e_hi - e_lo) / (2 * h)
        np.testing.assert_allclose(on_ee, -grad, atol=1e-3)


def test_preset_catalog():
    cat = presets()
    assert set(cat) == {"rigid_rod", "slack_rope", "peanut_bag", "wrapped_manikin"}
    rod = cat["rigid_rod"]
    assert rod.axial_stiffness_tension == rod.axial_stiffness_compression == 1e4
    assert rod.lateral_stiffness == 1e4 and rod.damping == 50.0
    rope = cat["slack_rope"]
    assert rope.axial_stiffness_compression == 0.0
    assert rope.lateral_stiffness == 0.0 and rope.slack_length == 1.0
    bag = cat["peanut_bag"]
    assert (bag.axial_stiffness_tension, bag.axial_stiffness_compression) == (5e3, 300.0)
    assert bag.lateral_stiffness == 150.0 and bag.damping == 20.0
    # a preset cannot be changed in place, so the registry stays as declared
    with pytest.raises(FrozenInstanceError):
        rod.damping = 0.0
    assert presets()["rigid_rod"].damping == 50.0


def test_unknown_preset():
    # A scenario is where a preset is named; an unknown name lists the known.
    with pytest.raises(ConfigError, match="unknown object preset 'feather_pillow'") as info:
        load_scenario(scenario_path("rigid_rod"), overrides={"object": "feather_pillow"})
    assert str(sorted(presets())) in str(info.value)


def test_model_validation():
    with pytest.raises(ValueError):
        ObjectModel(
            rest_vector=np.zeros(3),
            axial_stiffness_tension=-1.0,
            axial_stiffness_compression=0.0,
            lateral_stiffness=0.0,
            damping=0.0,
        )


def test_static_deflection_under_load():
    # a 10 N pull deflects the rigid rod by 1 mm at steady state
    model = presets()["rigid_rod"].with_rest([0.5, 0.0, 0.0])
    on_ee, _ = wrench_at(model, [0, 0, 0], [0.501, 0, 0])
    assert np.linalg.norm(on_ee) == pytest.approx(10.0)
