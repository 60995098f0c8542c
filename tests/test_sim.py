"""Closed-loop simulation: tick ordering, metrics, traces, determinism."""

import gc
import math
import struct
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import yaml

import cocarry.sim as sim_mod
import cocarry.wbc
from cocarry.aci import Mode
from cocarry.geometry import Pose, quat_identity, quat_normalize
from cocarry.scenario import load_scenario, scenario_path
from cocarry.sim import (
    Metrics,
    Simulation,
    SimulationError,
    Trace,
    alignment_metric,
    interval_stats,
    read_trace,
    trace_columns,
    write_metrics,
    write_trace,
)
from reference_runs import PACKAGED

RIGID_Q0 = [0.0, 0.0, 0.0, 0.0, -0.65, 1.75, -0.2, 1.5707963, 0.0]
HAND0 = [1.5426, 0.176, 0.9521]
TORSO0 = [1.95, 0.176, 0.9521]


def make_config(tmp_path, **patch):
    raw = {
        "name": "synthetic",
        "duration": 1.0,
        "dt": 1e-3,
        "mode": "aci",
        "object": "rigid_rod",
        "q0": RIGID_Q0,
        "hand0": HAND0,
        "torso0": TORSO0,
        "script": [{"hold": 1.0}],
    }
    raw.update(patch)
    path = tmp_path / "scen.yaml"
    path.write_text(yaml.safe_dump(raw))
    return load_scenario(str(path))


COLUMNS = trace_columns(9)
EE_P = ["ee_px", "ee_py", "ee_pz"]


def set_pose(row, prefix, pose):
    names = [f"{prefix}_{c}" for c in ("px", "py", "pz", "qw", "qx", "qy", "qz")]
    row.update(zip(names, [*pose.position, *pose.orientation]))


def rec(t, ee_p, hand_p, alpha=0.0, force=(0.0, 0.0, 0.0)):
    """Synthetic trace row {column: value}; only the metric-relevant fields vary."""
    row = dict.fromkeys(COLUMNS, 0.0)
    row.update(t=t, alpha=alpha, fx=force[0], fy=force[1], fz=force[2])
    set_pose(row, "ee", Pose(ee_p, quat_identity()))
    set_pose(row, "xd", Pose(ee_p, quat_identity()))
    set_pose(row, "hand", Pose(hand_p, quat_identity()))
    return row


def trace_of(rows) -> Trace:
    data = np.array([[r[c] for c in COLUMNS] for r in rows], dtype=float)
    return Trace(data.reshape(len(rows), len(COLUMNS)), COLUMNS)


# -- alignment metric ------------------------------------------------------


def test_alignment_linear_ramp_default_reference():
    # rel grows linearly 0 -> 0.1; trapezoid is exact on a linear integrand
    recs = [rec(t, [0.1 * t, 0, 0], [0, 0, 0]) for t in np.linspace(0, 1, 21)]
    assert alignment_metric(trace_of(recs)) == pytest.approx(0.05, abs=1e-12)


def test_alignment_time_reversal_invariance():
    # The drift is measured from the first row; with the last row's
    # arrangement equal to the first, both directions share that reference.
    rng = np.random.default_rng(17)
    t = np.sort(rng.uniform(0, 5, 40))
    rels = rng.normal(scale=0.1, size=(40, 3))
    rels[-1] = rels[0]
    fwd = [rec(ti, ri, [0, 0, 0]) for ti, ri in zip(t, rels)]
    t_rev = t[-1] - t[::-1]
    rev = [rec(ti, ri, [0, 0, 0]) for ti, ri in zip(t_rev, rels[::-1])]
    a = alignment_metric(trace_of(fwd))
    b = alignment_metric(trace_of(rev))
    assert a > 0.01
    assert a == pytest.approx(b, rel=1e-12)


def test_alignment_needs_two_samples():
    with pytest.raises(ValueError, match="at least two samples"):
        alignment_metric(trace_of([]))
    with pytest.raises(ValueError, match="at least two samples"):
        alignment_metric(trace_of([rec(0.0, [0, 0, 0], [0, 0, 0])]))


def test_alignment_zero_span():
    recs = [rec(1.0, [0.2, 0, 0], [0, 0, 0]), rec(1.0, [0.4, 0, 0], [0, 0, 0])]
    assert alignment_metric(trace_of(recs)) == 0.0


def noisy_trace(n, seed) -> Trace:
    """n rows of normal noise with unit quaternions and t rising by random steps."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, len(COLUMNS)))
    for prefix in ("ee", "xd", "hand"):
        i = COLUMNS.index(f"{prefix}_qw")
        data[:, i : i + 4] /= np.linalg.norm(data[:, i : i + 4], axis=1, keepdims=True)
    data[:, 0] = np.cumsum(rng.uniform(0.0, 2e-3, n))
    return Trace(data, COLUMNS)


def alignment_oracle(trace):
    """`alignment_metric` in its n x 3 form: np.linalg.norm(axis=1) and
    np.trapezoid."""
    t = trace["t"]
    rel = trace[EE_P] - trace[["hand_px", "hand_py", "hand_pz"]]
    dev = np.linalg.norm(rel - rel[0], axis=1)
    span = t[-1] - t[0]
    if span <= 0.0:
        return 0.0
    return float(np.trapezoid(dev, t) / span)


ALIGNMENT_CASES = ["whole"]  # the metric has one form: the whole trace


@pytest.mark.parametrize("case", ALIGNMENT_CASES)
def test_alignment_matches_n_by_3_oracle_bitwise(case):
    # Short traces let a last-bit change in one row reach the result.
    for seed in range(150):
        trace = noisy_trace(1500 if seed == 0 else 2 + seed % 7, seed)
        assert alignment_metric(trace) == alignment_oracle(trace), seed


@pytest.mark.parametrize("case", ALIGNMENT_CASES)
def test_alignment_zero_span_matches_oracle(case):
    trace = noisy_trace(40, 4)
    trace.data[:, 0] = 0.8
    assert alignment_metric(trace) == alignment_oracle(trace) == 0.0


# -- interval stats --------------------------------------------------------


def test_interval_stats_constant():
    recs = [rec(0.01 * i, [0, 0, 0], [0, 0, 0], alpha=0.6, force=[3, 4, 0]) for i in range(100)]
    mean_a, mean_f = interval_stats(trace_of(recs), [(0.0, 1.0)])
    assert mean_a == [pytest.approx(0.6)]
    assert mean_f == [pytest.approx(5.0)]


def test_interval_stats_half_open_split():
    recs = [
        rec(0.1 * i, [0, 0, 0], [0, 0, 0], alpha=0.0 if 0.1 * i < 0.5 else 1.0)
        for i in range(10)
    ]
    mean_a, _ = interval_stats(trace_of(recs), [(0.0, 0.5), (0.5, 1.0)])
    assert mean_a[0] == 0.0
    assert mean_a[1] == 1.0


def test_interval_stats_matches_streaming_oracle():
    rng = np.random.default_rng(23)
    t = np.sort(rng.uniform(0, 10, 400))
    alphas = rng.uniform(0, 1, 400)
    forces = rng.normal(size=(400, 3))
    recs = [rec(ti, [0, 0, 0], [0, 0, 0], alpha=a, force=f) for ti, a, f in zip(t, alphas, forces)]
    intervals = [(1.0, 3.0), (2.5, 7.0), (8.0, 10.0)]
    mean_a, mean_f = interval_stats(trace_of(recs), intervals)
    for (lo, hi), got_a, got_f in zip(intervals, mean_a, mean_f):
        acc_a = acc_f = 0.0
        n = 0
        for ti, a, f in zip(t, alphas, forces):
            if lo <= ti < hi:
                acc_a += a
                acc_f += math.sqrt(f[0] ** 2 + f[1] ** 2 + f[2] ** 2)
                n += 1
        assert n > 0
        assert got_a == pytest.approx(acc_a / n, rel=1e-12)
        assert got_f == pytest.approx(acc_f / n, rel=1e-12)


def test_interval_stats_empty_interval_reads_nan():
    trace = trace_of([rec(0.1 * i, [0, 0, 0], [0, 0, 0]) for i in range(10)])
    mean_a, mean_f = interval_stats(trace, [(0.0, 0.5), (5.0, 6.0)])
    assert mean_a[0] == 0.0 and mean_f[0] == 0.0
    assert math.isnan(mean_a[1]) and math.isnan(mean_f[1])
    assert interval_stats(trace, []) == ([], [])


def interval_stats_oracle(trace, intervals):
    """`interval_stats` with the n x 3 force block and one batched matmul."""
    t = trace["t"]
    alphas = trace["alpha"]
    f = trace[["fx", "fy", "fz"]].reshape(len(trace), 1, 3)
    forces = np.sqrt(np.matmul(f, f.transpose(0, 2, 1))[:, 0, 0])
    mean_a, mean_f = [], []
    for lo, hi in intervals:
        mask = (t >= lo) & (t < hi)
        if not mask.any():
            mean_a.append(math.nan)
            mean_f.append(math.nan)
            continue
        mean_a.append(float(alphas[mask].mean()))
        mean_f.append(float(forces[mask].mean()))
    return mean_a, mean_f


BLOCK = sim_mod._FORCE_BLOCK


@pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_interval_stats_matches_n_by_3_oracle_bitwise(n):
    trace = noisy_trace(n, n)
    t = trace["t"]
    intervals = [
        (t[0], t[-1] + 1.0),
        (t[n // 3], t[-1]),
        (t[n // 2], t[n // 2] + 0.3),
        (t[-1] + 1.0, t[-1] + 2.0),  # empty
    ]
    got = interval_stats(trace, intervals)
    # == on every mean; an empty interval reads nan on both sides
    np.testing.assert_array_equal(got, interval_stats_oracle(trace, intervals))
    assert math.isnan(got[0][-1]) and math.isnan(got[1][-1])


# -- closed loop -----------------------------------------------------------


def test_hold_script_is_a_fixed_point(tmp_path):
    cfg = make_config(tmp_path)
    sim = Simulation(cfg)
    trace, metrics = sim.run()
    assert len(trace) == 1000
    q0 = np.array(RIGID_Q0)
    n = len(trace)
    np.testing.assert_array_equal(trace[[f"q{i}" for i in range(9)]], np.tile(q0, (n, 1)))
    np.testing.assert_array_equal(trace[["fx", "fy", "fz"]], np.zeros((n, 3)))
    assert (trace["alpha"] == 0.0).all() and (trace["zeta"] == 0).all()
    np.testing.assert_array_equal(trace[EE_P], np.tile(sim.ee0.position, (n, 1)))
    assert metrics.completed  # no waypoints declared
    assert math.isnan(metrics.t_c)
    assert metrics.mean_alpha == 0.0
    assert metrics.d_am == 0.0


def test_deterministic_traces_bitwise(tmp_path):
    paths = [str(tmp_path / f"run{i}.csv") for i in range(2)]
    for p in paths:
        cfg = load_scenario(scenario_path("smoke"), overrides={"trace_path": p})
        Simulation(cfg).run()
    b0 = open(paths[0], "rb").read()
    b1 = open(paths[1], "rb").read()
    assert b0 == b1
    assert len(b0) > 1000


def test_timestep_refinement_first_order(tmp_path):
    finals = []
    for dt in (1e-3, 5e-4, 2.5e-4):
        cfg = make_config(
            tmp_path,
            duration=1.2,
            dt=dt,
            object="peanut_bag",
            script=[{"hold": 0.1}, {"translate": [0.3, 0, 0], "duration": 1.0}, {"hold": 0.1}],
            human={"velocity_deadband": 0.0},
        )
        trace, _ = Simulation(cfg).run()
        finals.append(trace[EE_P][-1].copy())
    e1 = np.linalg.norm(finals[0] - finals[1])
    e2 = np.linalg.norm(finals[1] - finals[2])
    assert e1 > 1e-8  # the refinement must actually move the answer
    ratio = e1 / e2
    assert 1.5 < ratio < 3.3  # halving dt roughly halves the defect


def test_tick_order_and_single_evaluation(tmp_path, monkeypatch):
    cfg = load_scenario(scenario_path("smoke"))
    sim = Simulation(cfg)
    calls = []
    wrench_forces = []
    aci_forces = []

    real_wrench = sim_mod.object_wrench

    def spy_wrench(*args, **kwargs):
        calls.append("wrench")
        on_ee = real_wrench(*args, **kwargs)
        wrench_forces.append(np.array(on_ee))
        return on_ee

    real_compute = cocarry.wbc.compute

    def spy_compute(*args, **kwargs):
        calls.append("wbc")
        return real_compute(*args, **kwargs)

    monkeypatch.setattr(sim_mod, "object_wrench", spy_wrench)
    monkeypatch.setattr(cocarry.wbc, "compute", spy_compute)

    real_human = sim.human.step

    def spy_human(t, force):
        calls.append("human")
        return real_human(t, force)

    real_aci = sim.aci.step

    def spy_aci(t, force, human_state):
        calls.append("aci")
        aci_forces.append(np.asarray(force, dtype=float).copy())
        return real_aci(t, force, human_state)

    sim.human.step = spy_human
    sim.aci.step = spy_aci

    n = 600
    for _ in range(n):
        sim.step()

    assert calls == ["human", "wrench", "aci", "wbc"] * n
    # the interface sees the wrench evaluated in its own tick, not a stale one
    assert len(aci_forces) == len(wrench_forces) == n
    for got, want in zip(aci_forces, wrench_forces):
        np.testing.assert_array_equal(got, want)
    assert max(np.linalg.norm(f) for f in wrench_forces) > 0.5


@pytest.mark.parametrize("scenario, moves", [("hand_rotation_null", False), ("smoke", True)])
def test_chain_evaluated_only_when_q_changes_bits(scenario, moves, monkeypatch):
    # The chain is kept while q keeps its bits, and what is kept is exactly
    # what a fresh evaluation at the current q gives.  The robot of
    # hand_rotation_null never moves; smoke holds, then moves.
    sim = Simulation(load_scenario(scenario_path(scenario)))
    real_chain_state = sim_mod.chain_state
    calls = []

    def spy_chain_state(model, q):
        calls.append(q.tobytes())
        return real_chain_state(model, q)

    monkeypatch.setattr(sim_mod, "chain_state", spy_chain_state)
    changed = 0
    for _ in range(int(round(sim.config.duration / sim.dt))):
        before = sim.q.tobytes()
        sim.step()
        changed += sim.q.tobytes() != before
        fresh = real_chain_state(sim.model, sim.q)
        assert sim._chain.pose == fresh.pose
        assert np.array_equal(sim._chain.jacobian, fresh.jacobian)
        assert sim._chain.manipulability == fresh.manipulability
    assert len(calls) == changed
    assert changed < sim.ticks
    assert (changed > 0) == moves


@pytest.mark.parametrize("scenario", ["hand_rotation_null", "smoke"])
def test_command_solved_only_when_its_inputs_change_bits(scenario, monkeypatch):
    # The command is kept while q, x_d and xdot_d keep their bits, and what
    # is kept is bitwise what a fresh solve on those inputs gives.
    sim = Simulation(load_scenario(scenario_path(scenario)))
    real_solve = cocarry.wbc.solve_tracking
    real_compute = cocarry.wbc.compute
    solves = []
    commands = []

    def spy_solve(*args):
        solves.append(None)
        return real_solve(*args)

    def spy_compute(model, x_d, xdot_d, params, chain):
        out = real_compute(model, x_d, xdot_d, params, chain)
        commands.append((chain.q.copy(), list(x_d), list(xdot_d), out))
        return out

    monkeypatch.setattr(cocarry.wbc, "solve_tracking", spy_solve)
    monkeypatch.setattr(cocarry.wbc, "compute", spy_compute)
    changed, last = 0, None
    for _ in range(int(round(sim.config.duration / sim.dt))):
        sim.step()
        q, x_d, xdot_d, out = commands[-1]
        inputs = (q.tobytes(), struct.pack("13d", *x_d, *xdot_d))
        changed += inputs != last
        last = inputs
        n_solves = len(solves)
        fresh = real_compute(
            sim.model, x_d, xdot_d, sim.wbc_params, sim_mod.chain_state(sim.model, q)
        )
        del solves[n_solves:]  # the fresh solve is not the simulation's
        assert out.tobytes() == fresh.tobytes()
    assert len(commands) == sim.ticks
    assert len(solves) == changed
    assert 0 < changed < sim.ticks


def rigid_teleop(duration=2.0):
    """The criterion-1 deadlock: a rigid rod under teleoperation, where
    neither the robot nor its reference moves."""
    overrides = {"mode": "teleop", "duration": duration, "intervals": []}
    cfg = load_scenario(scenario_path("rigid_rod"), overrides)
    return Simulation(cfg)


def test_still_tick_rows_equal_a_fresh_evaluation(monkeypatch):
    # A still tick reuses the previous tick's q and EE twist; each row must
    # still be what a fresh chain and solve on that tick's inputs give.
    sim = rigid_teleop()
    real_compute = cocarry.wbc.compute
    inputs, outs = [], []

    def spy_compute(model, x_d, xdot_d, params, chain):
        out = real_compute(model, x_d, xdot_d, params, chain)
        inputs.append((chain.q, list(x_d), list(xdot_d)))
        outs.append(out)
        return out

    monkeypatch.setattr(cocarry.wbc, "compute", spy_compute)
    for _ in range(int(round(sim.config.duration / sim.dt))):
        sim.step()
    trace = sim.trace
    n = sim.model.n_joints
    q_rows = trace[[f"q{i}" for i in range(n)]]
    v_rows = trace[["ee_vx", "ee_vy", "ee_vz", "ee_wx", "ee_wy", "ee_wz"]]
    for (q, x_d, xdot_d), q_row, v_row in zip(inputs, q_rows, v_rows):
        chain = sim_mod.chain_state(sim.model, q)
        qdot = real_compute(sim.model, x_d, xdot_d, sim.wbc_params, chain)
        assert q_row.tobytes() == (chain.q + qdot * sim.dt).tobytes()
        assert v_row.tobytes() == chain.jacobian.dot(qdot).tobytes()
    # every tick after the first was handed the kept command
    assert len(outs) == sim.ticks == 2000
    assert all(a is b for a, b in zip(outs, outs[1:]))


def test_replaced_wbc_params_solve_once_on_a_still_robot(monkeypatch):
    # Equal parameters in another object miss the kept command once; the
    # new command has the old one's bits, and so does the trace.
    before = rigid_teleop()
    before.run()
    real_solve = cocarry.wbc.solve_tracking
    solves = []

    def spy_solve(*args):
        solves.append(None)
        return real_solve(*args)

    monkeypatch.setattr(cocarry.wbc, "solve_tracking", spy_solve)
    sim = rigid_teleop()
    for i in range(int(round(sim.config.duration / sim.dt))):
        if i == 1000:
            sim.wbc_params = replace(sim.wbc_params)
            assert len(solves) == 1
        sim.step()
    assert len(solves) == 2
    assert sim.trace.data.tobytes() == before.trace.data.tobytes()


# W+ on every packaged scenario is at most 0.0122 J (smoke); the bound is
# about four times that.
WORK_ON_HAND_BOUND_J = 0.05


@pytest.mark.parametrize("name", PACKAGED)
def test_coupling_does_little_positive_work_on_the_hand(name, reference_run):
    # P = -F . v_h is the power the coupling delivers to the partner's hand
    # (F is the force on the EE); W+ integrates its positive part.  The
    # robot must not drive the partner.
    run = reference_run(name)
    trace = run.trace
    power = -sum(trace[f"f{c}"] * trace[f"vh_{c}"] for c in "xyz")
    positive_work = float(np.maximum(power, 0.0).sum() * run.cfg.dt)
    assert positive_work <= WORK_ON_HAND_BOUND_J


def test_rigid_admittance_completes_with_low_alpha():
    cfg = load_scenario(scenario_path("rigid_rod"), overrides={"mode": "admittance"})
    _, metrics = Simulation(cfg).run()
    assert metrics.completed
    assert metrics.t_c < cfg.duration
    assert all(a < 0.1 for a in metrics.interval_alpha)
    assert list(metrics.waypoint_times) == sorted(metrics.waypoint_times)
    assert len(set(metrics.waypoint_times)) == len(metrics.waypoint_times)


def test_rope_teleop_completes_with_high_alpha():
    cfg = load_scenario(scenario_path("slack_rope"), overrides={"mode": "teleop"})
    _, metrics = Simulation(cfg).run()
    assert metrics.completed
    assert all(a > 0.99 for a in metrics.interval_alpha)


def test_early_stop_degrades_unreached_intervals(tmp_path):
    cfg = make_config(
        tmp_path,
        duration=5.0,
        script=[{"hold": 0.2}, {"translate": [0.1, 0, 0], "duration": 0.6}, {"hold": 4.2}],
        waypoints=[{"offset": [0.1, 0, 0], "tolerance": 0.03}],
        intervals=[[0.2, 0.9], [4.0, 4.5]],
    )
    trace, metrics = Simulation(cfg).run()
    assert metrics.completed
    assert len(trace) < int(round(cfg.duration / cfg.dt))  # stopped early
    assert trace["t"][-1] == metrics.waypoint_times[-1]
    assert math.isfinite(metrics.interval_alpha[0])
    assert math.isnan(metrics.interval_alpha[1])
    assert math.isnan(metrics.interval_force[1])


@pytest.mark.parametrize("name", ["rigid_teleop_24s", "peanut_bag"])
def test_post_run_passes_read_the_trace_in_place(name, reference_run, tmp_path):
    # The metrics pass holds a few vectors of the trace's length, never an
    # n x 3 copy (24 B per tick) or its temporaries; the writer holds one
    # chunk of text.
    run = reference_run(name)

    def peak(fn, *args):
        gc.collect()
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(run.sim._metrics, run.trace) / len(run.trace) <= 32
    assert peak(write_trace, str(tmp_path / "trace.csv"), run.trace) <= 256 * 1024


def test_trace_memory_per_tick():
    # A row of 49 float64 is 392 B; per-tick snapshot objects cost several
    # times that.
    sim = Simulation(load_scenario(scenario_path("rigid_rod")))
    for _ in range(500):  # past the adaptive index's window fill-up
        sim.step()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(2000):
            sim.step()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(sim.trace) == 2500
    assert retained / 2000 < 1024


def count_poses(monkeypatch) -> Counter:
    """Count every `Pose` built from now on, under the key "Pose"."""
    built = Counter()

    def counted(self, real=Pose.__post_init__):
        built["Pose"] += 1
        real(self)

    monkeypatch.setattr(Pose, "__post_init__", counted)
    return built


def test_tick_builds_no_twist_and_few_poses(monkeypatch):
    # The layers of a tick pass floats, poses are 7 floats and twists 6:
    # over 1,000 ACI ticks of peanut_bag with no rotation, no Pose is built.
    sim = Simulation(load_scenario(scenario_path("peanut_bag")))
    built = count_poses(monkeypatch)
    ticks = 1000
    for _ in range(ticks):
        sim.step()
    monkeypatch.undo()
    assert sim.config.mode is Mode.ACI
    assert not sim.trace["zeta"].any()
    assert built["Pose"] == 0


def test_rotating_tick_builds_two_poses(monkeypatch):
    # Only the firing tick of rotation_showcase builds Poses (the torso pose,
    # the goal and the trajectory start); every later rotating tick, x_d and
    # the EE pose included, builds none.
    sim = Simulation(load_scenario(scenario_path("rotation_showcase")))
    built = count_poses(monkeypatch)
    per_tick = []  # (zeta, Poses built) of every tick
    for _ in range(int(round(sim.config.duration / sim.dt))):
        before = built["Pose"]
        sim.step()
        per_tick.append((sim.trace["zeta"][-1], built["Pose"] - before))
    monkeypatch.undo()
    rotating = [n for zeta, n in per_tick if zeta == 1]
    assert len(rotating) > 1000
    assert rotating[0] > 0
    assert max(rotating[1:]) == 0


def test_trace_handed_out_is_a_snapshot(tmp_path):
    sim = Simulation(make_config(tmp_path, duration=0.01))
    trace, _ = sim.run()
    before = trace.data.copy()
    sim.step()
    assert len(trace) == 10
    assert len(sim.trace) == 11
    np.testing.assert_array_equal(trace.data, before)
    np.testing.assert_array_equal(sim.trace.data[:10], before)


def test_step_failure_is_wrapped(tmp_path):
    cfg = make_config(tmp_path)
    sim = Simulation(cfg)
    sim.force_on_hand = (math.nan, 0.0, 0.0)
    with pytest.raises(SimulationError, match="aborted at step 0"):
        sim.run()


def test_step_failure_names_its_layer(tmp_path):
    sim = Simulation(make_config(tmp_path))
    sim.force_on_hand = (math.nan, 0.0, 0.0)
    with pytest.raises(
        SimulationError, match="^aborted at step 0 in human: non-finite force"
    ) as info:
        sim.run()
    assert isinstance(info.value.__cause__, ValueError)


# -- trace and metrics files ----------------------------------------------


def random_trace(n, seed=5):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        # drawn field by field in column order
        rows.append([
            0.001 * (i + 1),
            *rng.normal(size=9),
            *rng.normal(size=3), *quat_normalize(rng.normal(size=4)),
            *rng.normal(size=3), *rng.normal(size=3),
            *rng.normal(size=3),
            *rng.normal(size=3),
            *rng.normal(size=3),
            rng.uniform(),
            float(rng.integers(0, 2)),
            *rng.normal(size=3), *quat_normalize(rng.normal(size=4)),
            *rng.normal(size=3), *quat_normalize(rng.normal(size=4)),
            rng.normal(),
        ])
    return Trace(np.array(rows), COLUMNS)


def test_trace_round_trip(tmp_path):
    trace = random_trace(7)
    path = str(tmp_path / "trace.csv")
    write_trace(path, trace)
    cols = read_trace(path)
    names = trace_columns(9)
    assert cols.columns == names
    assert len(names) == 49
    for name in names:
        np.testing.assert_array_equal(cols[name], trace[name])


CHUNK = sim_mod._WRITE_CHUNK


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_trace_file_across_write_chunks(n, tmp_path):
    trace = noisy_trace(n, n)
    path = tmp_path / "trace.csv"
    write_trace(str(path), trace)
    rows = [",".join(format(v, ".17g") for v in row) for row in trace.data.tolist()]
    assert path.read_text() == "".join(f"{line}\n" for line in [",".join(COLUMNS), *rows])
    loaded = read_trace(str(path))
    assert loaded.columns == COLUMNS
    assert loaded.data.shape == trace.data.shape
    assert loaded.data.tobytes() == trace.data.tobytes()


def test_trace_column_blocks():
    trace = random_trace(5)
    assert trace[EE_P].shape == (5, 3)
    np.testing.assert_array_equal(trace[EE_P][:, 2], trace["ee_pz"])
    np.testing.assert_array_equal(trace[["fz", "fx"]][:, 0], trace["fz"])
    np.testing.assert_array_equal(trace[["fz", "fx"]][:, 1], trace["fx"])


def test_run_trace_equals_its_file_bitwise(tmp_path):
    path = str(tmp_path / "smoke.csv")
    cfg = load_scenario(scenario_path("smoke"), overrides={"trace_path": path})
    trace, _ = Simulation(cfg).run()
    loaded = read_trace(path)
    assert loaded.columns == trace.columns
    assert loaded.data.shape == trace.data.shape == (1200, 49)
    assert loaded.data.tobytes() == trace.data.tobytes()


def test_trace_single_row_keeps_2d_shape(tmp_path):
    path = str(tmp_path / "one.csv")
    write_trace(path, random_trace(1))
    cols = read_trace(path)
    assert cols["t"].shape == (1,)


def test_header_only_trace_reads_back_empty(tmp_path):
    # a run shorter than half a tick records no row: its file is the header
    path = str(tmp_path / "short.csv")
    cfg = load_scenario(
        scenario_path("smoke"),
        overrides={"duration": 0.0004, "intervals": [], "trace_path": path},
    )
    trace, _ = Simulation(cfg).run()
    loaded = read_trace(path)
    assert len(trace) == len(loaded) == 0
    assert loaded.columns == trace.columns
    assert loaded.data.shape == (0, 49)
    # a malformed file still raises
    with open(path, "a") as fh:
        fh.write("1,2,3\n")
    with pytest.raises(ValueError):
        read_trace(path)


def test_trace_write_failure(tmp_path):
    with pytest.raises(SimulationError, match="cannot write trace"):
        write_trace(str(tmp_path / "no_dir" / "t.csv"), random_trace(1))


def test_metrics_file_format(tmp_path):
    m = Metrics(
        completed=True,
        t_c=10.25,
        d_am=math.nan,
        mean_alpha=0.5,
        waypoint_times=[1.0, 2.0],
        interval_alpha=[0.1, math.nan],
        interval_force=[3.0],
    )
    path = tmp_path / "metrics.yaml"
    write_metrics(str(path), m)
    loaded = yaml.safe_load(path.read_text())
    assert loaded["completed"] is True
    assert loaded["t_c"] == pytest.approx(10.25)
    assert math.isnan(loaded["d_am"])
    assert loaded["waypoint_times"] == [1.0, 2.0]
    assert math.isnan(loaded["interval_alpha"][1])
    with pytest.raises(SimulationError, match="cannot write metrics"):
        write_metrics(str(tmp_path / "no_dir" / "m.yaml"), m)


def test_metrics_file_infinities_round_trip(tmp_path):
    m = Metrics(
        completed=False,
        t_c=math.inf,
        d_am=-math.inf,
        mean_alpha=0.5,
        interval_alpha=[math.inf, -math.inf, 0.25],
        interval_force=[-math.inf],
    )
    path = tmp_path / "metrics.yaml"
    write_metrics(str(path), m)
    loaded = yaml.safe_load(path.read_text())
    assert loaded["t_c"] == math.inf
    assert loaded["d_am"] == -math.inf
    assert loaded["interval_alpha"] == [math.inf, -math.inf, 0.25]
    assert loaded["interval_force"] == [-math.inf]
