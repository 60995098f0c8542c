"""End-to-end acceptance gate.

Ten numbered criteria covering the controller regimes, the rotation
maneuver, oracle equivalence, determinism, and the invariant fuzz suite.
Each test prints one ACCEPTANCE <n> PASS/FAIL line (visible with -s) and
carries the same verdict in its own pass/fail status.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from cocarry.aci import (
    AciParams,
    AdaptiveIndex,
    AdmittanceParams,
    CubicTrajectory,
    IntentionDetector,
    admittance_step,
)
from cocarry.geometry import (
    Pose,
    Twist,
    integrate_pose,
    pose_error,
    quat_from_yaw,
    quat_normalize,
    wrap_angle,
    yaw_from_quat,
)
from cocarry.kinematics import chain_state, default_model
from cocarry.objects import ObjectModel, object_wrench
from cocarry.scenario import load_scenario, scenario_path
from cocarry.sim import Simulation, run_scenario
from cocarry.wbc import WbcParams, solve_tracking, tracking_objective

EE_P = ["ee_px", "ee_py", "ee_pz"]
EE_Q = ["ee_qw", "ee_qx", "ee_qy", "ee_qz"]


def verdict(n, checks):
    ok = all(flag for _, flag in checks)
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}")
    failed = [label for label, flag in checks if not flag]
    assert not failed, f"criterion {n} failed: {failed}"


def _run(name, **overrides):
    cfg = load_scenario(scenario_path(name), overrides=overrides or None)
    start = time.perf_counter()
    sim = Simulation(cfg)
    trace, metrics = sim.run()
    wall = time.perf_counter() - start
    return SimpleNamespace(cfg=cfg, sim=sim, trace=trace, metrics=metrics, wall=wall)


def initial_ee(cfg) -> Pose:
    return chain_state(cfg.model, cfg.q0).pose


@pytest.fixture(scope="module")
def rigid_aci():
    return _run("rigid_rod")


@pytest.fixture(scope="module")
def rigid_teleop():
    return _run("rigid_rod", mode="teleop", duration=24.0)


@pytest.fixture(scope="module")
def rope_aci():
    return _run("slack_rope")


@pytest.fixture(scope="module")
def rope_adm():
    return _run("slack_rope", mode="admittance")


@pytest.fixture(scope="module")
def bag_aci():
    return _run("peanut_bag")


@pytest.fixture(scope="module")
def bag_adm():
    return _run("peanut_bag", mode="admittance")


def test_criterion_01_rigid_regime(rigid_aci, rigid_teleop):
    m = rigid_aci.metrics
    steady = float(np.mean(m.interval_alpha))
    ee0 = initial_ee(rigid_teleop.cfg).position
    script = rigid_teleop.cfg.script
    commanded = np.linalg.norm(
        script.target(script.duration).position - rigid_teleop.cfg.hand0
    )
    window = script.first_motion_time() + 2.0 * m.t_c
    trace = rigid_teleop.trace
    disp = np.linalg.norm(trace[EE_P][trace["t"] <= window] - ee0, axis=1).max()
    verdict(
        1,
        [
            ("aci completes all waypoints", m.completed),
            (f"steady-motion mean alpha {steady:.3f} < 0.1", steady < 0.1),
            (
                f"teleop displacement {disp:.4f} < 10% of {commanded:.4f}",
                disp < 0.1 * commanded,
            ),
            (f"aci runtime {rigid_aci.wall:.1f}s < 10s", rigid_aci.wall < 10.0),
            (f"teleop runtime {rigid_teleop.wall:.1f}s < 10s", rigid_teleop.wall < 10.0),
        ],
    )


def test_time_is_tick_count_times_dt(rigid_teleop):
    # 24,000 additions of 1e-3 drift to 24.00000000000635; n * dt does not.
    assert rigid_teleop.cfg.dt == 1e-3
    assert len(rigid_teleop.trace) == 24000
    assert rigid_teleop.sim.t == 24.0
    assert rigid_teleop.sim.human.t == 24.0
    assert rigid_teleop.trace["t"][-1] == 24.0


def test_criterion_02_deformable_regime(rope_aci, rope_adm):
    ee0 = initial_ee(rope_adm.cfg).position
    max_disp = np.linalg.norm(rope_adm.trace[EE_P] - ee0, axis=1).max()
    verdict(
        2,
        [
            ("aci completes all waypoints", rope_aci.metrics.completed),
            (
                f"mean alpha {rope_aci.metrics.mean_alpha:.3f} > 0.9",
                rope_aci.metrics.mean_alpha > 0.9,
            ),
            (f"admittance-only EE moved {max_disp * 100:.2f} cm < 1 cm", max_disp < 0.01),
        ],
    )


def test_criterion_03_bag_ordering(bag_aci):
    # intervals: lowering/lifting, pulling, sideways right, pushing, sideways left
    lift, pull, side_r, push, side_l = bag_aci.metrics.interval_alpha
    side = 0.5 * (side_r + side_l)
    verdict(
        3,
        [
            (
                f"ordering pull {pull:.2f} < push {push:.2f} < side {side:.2f} "
                f"< lift {lift:.2f}",
                pull < push < side < lift,
            ),
            (f"pulling alpha {pull:.2f} < 0.2", pull < 0.2),
            (f"lifting alpha {lift:.2f} > 0.7", lift > 0.7),
        ],
    )


def test_criterion_04_comparative_performance(bag_aci, bag_adm):
    a, b = bag_aci.metrics, bag_adm.metrics
    verdict(
        4,
        [
            ("both controllers complete", a.completed and b.completed),
            (f"t_c {a.t_c:.2f} <= 0.9 * {b.t_c:.2f}", a.t_c <= 0.9 * b.t_c),
            (f"d_am {a.d_am:.4f} <= 0.8 * {b.d_am:.4f}", a.d_am <= 0.8 * b.d_am),
        ],
    )


def test_criterion_05_rotation_intention():
    rot = _run("rotation_showcase")
    null = _run("hand_rotation_null")
    cfg = rot.cfg
    trace = rot.trace
    t = trace["t"]
    zeta = trace["zeta"]
    torso_yaw = trace["torso_yaw"]

    # re-apply the causal first-order filter the partner model uses on its
    # torso yaw rate, from the recorded yaw stream alone
    tau = 1.0 / (2.0 * math.pi * cfg.human.yaw_filter_cutoff)
    beta = cfg.dt / (tau + cfg.dt)
    filt = np.zeros(len(trace))
    prev = cfg.torso_yaw0
    level = 0.0
    for i, yaw in enumerate(torso_yaw):
        level += beta * ((yaw - prev) / cfg.dt - level)
        filt[i] = level
        prev = yaw

    above = np.nonzero(np.abs(filt) >= cfg.aci.velocity_threshold)[0]
    fire = np.nonzero(zeta == 1)[0]
    if above.size == 0 or fire.size == 0:
        verdict(5, [("turn observed and zeta fired", False)])
    t_settle = t[above[-1] + 1]  # first sample with the filtered rate settled
    t_fire = t[fire[0]]

    ee0 = initial_ee(cfg)
    torso_ref = Pose(cfg.torso0, quat_from_yaw(cfg.torso_yaw0))
    torso_det = Pose(cfg.torso0, quat_from_yaw(torso_yaw[fire[0]]))
    goal = torso_det.compose(torso_ref.inverse().compose(ee0))
    end = fire[-1]
    pos_err = np.linalg.norm(trace[EE_P][end] - goal.position)
    yaw_err = abs(wrap_angle(yaw_from_quat(trace[EE_Q][end]) - goal.yaw()))

    max_null_zeta = null.trace["zeta"].max()
    verdict(
        5,
        [
            (f"torso turn {abs(torso_yaw[fire[0]]):.2f} rad > 0.4", abs(torso_yaw[fire[0]]) > 0.4),
            ("zeta not before settling", t_fire >= t_settle),
            (
                f"zeta {t_fire - t_settle:.3f} s after settling (<= 0.3)",
                t_fire - t_settle <= 0.3,
            ),
            (f"EE position error {pos_err:.4f} m < 1e-2", pos_err < 1e-2),
            (f"EE yaw error {yaw_err:.4f} rad < 1e-2", yaw_err < 1e-2),
            ("hand-only rotation never fires", max_null_zeta == 0),
        ],
    )


def test_criterion_06_admittance_fidelity():
    params = AdmittanceParams(mass=[6.0, 6.0, 6.0], damping=[30.0, 30.0, 30.0])
    dt = 1e-3
    force = np.array([9.0, -3.0, 4.5])
    v_ss = force / 30.0
    v = np.zeros(3)
    worst = 0.0
    at_tau = None
    for i in range(1, 2001):
        v = admittance_step(force, v, dt, params)
        analytic = v_ss * (1.0 - math.exp(-i * dt / 0.2))
        worst = max(worst, float(np.max(np.abs(v - analytic) / np.abs(v_ss))))
        if i == 200:
            at_tau = v / v_ss
    tau_err = float(np.max(np.abs(at_tau - (1.0 - math.exp(-1.0)))))
    verdict(
        6,
        [
            (f"worst relative defect {worst:.2e} < 0.1%", worst < 1e-3),
            (f"one-time-constant level off by {tau_err:.2e} < 0.1%", tau_err < 1e-3),
        ],
    )


def stacked_oracle(J, b, k, w_task, w_damp):
    """Weighted least squares via an explicit stacked system and QR/SVD route,
    independent of the normal-equations implementation under test."""
    rows = np.sqrt(w_task)[:, None] * J
    rhs = np.sqrt(w_task) * b
    if k > 0.0:
        rows = np.vstack([rows, k * np.diag(np.sqrt(w_damp))])
        rhs = np.concatenate([rhs, np.zeros(len(w_damp))])
    sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    return sol


def nullspace(J):
    """N = I - J# J at k = 0 and unit weights, built column by column as
    e_i + J# (-J e_i) through the controller's own solve."""
    n = J.shape[1]
    ones_task, ones_joint = np.ones(J.shape[0]), np.ones(n)
    return np.column_stack(
        [e + solve_tracking(J, -J @ e, 0.0, ones_task, ones_joint) for e in np.eye(n)]
    )


def test_criterion_07_wbc_oracle_equivalence():
    # Randomized whole-body instances: robot configurations with perturbed
    # pose references, mixed undamped and damped.  Draws whose stacked
    # system is conditioned worse than 3e3 are redrawn; past that point the
    # two dense routes disagree by more than 1e-8 for numerical rather than
    # algebraic reasons (their difference grows like cond^2 * eps).
    model = default_model()
    params = WbcParams.defaults(model, q_def=np.zeros(model.n_joints))
    rng = np.random.default_rng(707)
    bad_solve = 0
    done = 0
    while done < 1000:
        q = np.concatenate(
            [
                rng.uniform([-1, -1, -math.pi], [1, 1, math.pi]),
                rng.uniform(-2.0, 2.0, size=model.n_arm),
            ]
        )
        chain = chain_state(model, q)
        k = 0.0 if done % 4 == 0 else float(rng.uniform(0.02, 0.2))
        stack = np.sqrt(params.w_task)[:, None] * chain.jacobian
        if k > 0.0:
            stack = np.vstack([stack, k * np.diag(np.sqrt(params.w_damp))])
        if np.linalg.cond(stack) > 3e3:
            continue
        x_d = Pose(
            chain.pose.position + rng.normal(scale=0.2, size=3),
            quat_normalize(chain.pose.orientation + rng.normal(scale=0.1, size=4)),
        )
        xdot_d = Twist(rng.normal(scale=0.3, size=3), rng.normal(scale=0.3, size=3))
        got = solve_tracking(
            chain.jacobian,
            tracking_objective(chain.pose, x_d, xdot_d.as_vector(), params),
            k,
            params.w_task,
            params.w_damp,
        )
        b = xdot_d.as_vector() + params.k_gain * pose_error(x_d, chain.pose)
        want = stacked_oracle(chain.jacobian, b, k, params.w_task, params.w_damp)
        rel = np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))
        if rel > 1e-8:
            bad_solve += 1
        done += 1

    bad_leak = 0
    for _ in range(1000):
        m = int(rng.integers(7, 12))
        J = rng.normal(size=(6, m))
        while np.linalg.cond(J) > 1e8:
            J = rng.normal(size=(6, m))
        N = nullspace(J)
        v = rng.normal(size=m)
        if np.linalg.norm(J @ (N @ v)) >= 1e-9:
            bad_leak += 1

    verdict(
        7,
        [
            (f"{bad_solve} / 1000 solves off beyond 1e-8", bad_solve == 0),
            (f"{bad_leak} / 1000 nullspace leaks beyond 1e-9", bad_leak == 0),
        ],
    )


def random_yaw_walk(rng, n=400):
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


def per_sample_oracle(params, hand, torso, rate):
    """Direct evaluation of the firing conditions at each sample, with the
    reference yaws found by scanning back to the start of the current
    above-threshold streak."""
    n = len(hand)
    out = np.zeros(n, dtype=bool)
    for i in range(n):
        if abs(hand[i] - torso[i]) <= params.lower_angle:
            continue
        s = i
        while s > 0 and abs(hand[s - 1] - torso[s - 1]) > params.lower_angle:
            s -= 1
        out[i] = (
            abs(hand[i] - torso[i]) > params.upper_angle
            and abs(torso[i] - torso[s]) > abs(hand[i] - hand[s])
            and abs(rate[i]) < params.velocity_threshold
        )
    return out


def test_criterion_08_detector_oracle_equivalence():
    params = AciParams()
    rng = np.random.default_rng(808)
    mismatches = 0
    for _ in range(100):
        hand, torso, rate = random_yaw_walk(rng)
        det = IntentionDetector(params, latch=False)
        torso_position = (0.0, 0.0, 0.0)
        got = np.array(
            [
                det.step(h - s, h, s, w, torso_position)[0]
                for h, s, w in zip(hand, torso, rate)
            ]
        )
        if not np.array_equal(got, per_sample_oracle(params, hand, torso, rate)):
            mismatches += 1
    verdict(8, [(f"{mismatches} / 100 traces disagree with the oracle", mismatches == 0)])


def test_criterion_09_determinism(tmp_path):
    pairs = []
    for name, overrides in [
        ("smoke", {"human": {"noise": {"hand_position": 5e-4, "torso_yaw": 1e-3}}}),
        ("rotation_showcase", {}),
    ]:
        blobs = []
        for i in range(2):
            path = tmp_path / f"{name}_{i}.csv"
            cfg = load_scenario(
                scenario_path(name), overrides={**overrides, "trace_path": str(path)}
            )
            run_scenario(cfg)
            blobs.append(path.read_bytes())
        pairs.append((name, blobs[0] == blobs[1] and len(blobs[0]) > 1000))
    verdict(9, [(f"{name} reruns byte-identical", same) for name, same in pairs])


def test_criterion_10_invariant_fuzz():
    start = time.perf_counter()
    rng = np.random.default_rng(1010)

    alpha_cases = 0
    alpha_bad = 0
    for _ in range(25):
        params = AciParams(window_length=float(rng.choice([0.05, 0.25, 0.6])))
        index = AdaptiveIndex(params, alpha0=float(rng.uniform()))
        scale_a = 10.0 ** rng.uniform(-6, 2)
        scale_h = 10.0 ** rng.uniform(-6, 2)
        t = 0.0
        for _ in range(500):
            t += float(rng.uniform(2e-4, 4e-3))
            v_adm = rng.normal(scale=scale_a, size=3)
            v_h = rng.normal(scale=scale_h, size=3)
            if rng.random() < 0.05:
                v_adm = np.zeros(3)
            if rng.random() < 0.05:
                v_h = np.zeros(3)
            alpha = index.update(t, v_adm, v_h)
            alpha_cases += 1
            if not 0.0 <= alpha <= 1.0:
                alpha_bad += 1

    # The hand takes the exact negative of the one force object_wrench
    # returns; test_objects checks that negation tick by tick.  Here every
    # random coupling must give 3 finite floats.
    force_cases = 0
    force_bad = 0
    for _ in range(10000):
        model = ObjectModel(
            rest_vector=rng.normal(size=3) * (0.0 if rng.random() < 0.05 else 1.0),
            axial_stiffness_tension=float(rng.uniform(0, 1e4)),
            axial_stiffness_compression=float(rng.uniform(0, 1e4)),
            lateral_stiffness=float(rng.uniform(0, 500)),
            damping=float(rng.uniform(0, 60)),
            slack_length=float(rng.uniform(0, 0.5)) if rng.random() < 0.3 else 0.0,
            ref_yaw=float(rng.uniform(-3, 3)),
        )
        hand = Pose(rng.normal(size=3), quat_normalize(rng.normal(size=4)))
        ee = Pose(rng.normal(size=3), quat_normalize(rng.normal(size=4)))
        vh = Twist(rng.normal(size=3), rng.normal(size=3))
        ve = Twist(rng.normal(size=3), rng.normal(size=3))
        force = object_wrench(
            model, hand.position.tolist(), vh.linear.tolist(), ee, ve.linear.tolist()
        )
        force_cases += 1
        if not (
            len(force) == 3
            and all(type(f) is float and math.isfinite(f) for f in force)
        ):
            force_bad += 1

    quat_cases = 0
    quat_bad = 0
    for _ in range(10000):
        pose = Pose(rng.normal(size=3), quat_normalize(rng.normal(size=4)))
        for _ in range(3):
            twist = Twist(rng.normal(size=3), rng.normal(scale=3.0, size=3))
            pose = integrate_pose(pose, twist.as_vector(), float(rng.uniform(1e-4, 0.5)))
        pose = pose.compose(Pose(rng.normal(size=3), quat_normalize(rng.normal(size=4))))
        quat_cases += 1
        if abs(np.linalg.norm(pose.orientation) - 1.0) >= 1e-9:
            quat_bad += 1

    cubic_cases = 0
    cubic_bad = 0
    for _ in range(10000):
        start_pose = Pose(rng.normal(size=3), quat_normalize(rng.normal(size=4)))
        goal_pose = Pose(rng.normal(size=3), quat_normalize(rng.normal(size=4)))
        t0 = float(rng.uniform(-5, 5))
        duration = 10.0 ** rng.uniform(-2, 1)
        traj = CubicTrajectory(start_pose, goal_pose, t0, duration)
        p0, tw0 = traj.sample(t0)
        p1, tw1 = traj.sample(t0 + duration)
        cubic_cases += 1
        good = (
            np.linalg.norm(p0.position - start_pose.position) < 1e-12
            and abs(float(np.dot(p0.orientation, start_pose.orientation))) > 1.0 - 1e-12
            and np.linalg.norm(p1.position - goal_pose.position) < 1e-12
            and abs(float(np.dot(p1.orientation, goal_pose.orientation))) > 1.0 - 1e-12
            and not np.any(tw0.as_vector())
            and not np.any(tw1.as_vector())
        )
        if not good:
            cubic_bad += 1

    elapsed = time.perf_counter() - start
    verdict(
        10,
        [
            (f"alpha bounds: {alpha_bad} / {alpha_cases} violations", alpha_bad == 0 and alpha_cases >= 10000),
            (f"coupling force: {force_bad} / {force_cases} not 3 finite floats", force_bad == 0 and force_cases >= 10000),
            (f"quaternion norm: {quat_bad} / {quat_cases} violations", quat_bad == 0 and quat_cases >= 10000),
            (f"cubic boundaries: {cubic_bad} / {cubic_cases} violations", cubic_bad == 0 and cubic_cases >= 10000),
            (f"fuzz runtime {elapsed:.1f}s < 120s", elapsed < 120.0),
        ],
    )
