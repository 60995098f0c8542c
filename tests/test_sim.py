"""Closed-loop simulation: tick ordering, metrics, traces, determinism."""

import gc
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import yaml

import cocarry.sim as sim_mod
import cocarry.wbc
from cocarry.aci import Mode
from cocarry.geometry import Pose, Twist, quat_identity, quat_normalize
from cocarry.scenario import load_scenario, scenario_path
from cocarry.sim import (
    Metrics,
    Simulation,
    SimulationError,
    Trace,
    alignment_metric,
    interval_stats,
    read_trace,
    run_scenario,
    trace_columns,
    write_metrics,
    write_trace,
)

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


def pose_of(row, prefix):
    return Pose(
        [row[f"{prefix}_p{c}"] for c in "xyz"], [row[f"{prefix}_q{c}"] for c in "wxyz"]
    )


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


def test_alignment_constant_deviation_against_explicit_reference():
    recs = [rec(0.1 * i, [0.05, 0, 0], [0, 0, 0]) for i in range(11)]
    out = alignment_metric(trace_of(recs), reference=np.zeros(3))
    assert out == pytest.approx(0.05, abs=1e-15)


def test_alignment_linear_ramp_default_reference():
    # rel grows linearly 0 -> 0.1; trapezoid is exact on a linear integrand
    recs = [rec(t, [0.1 * t, 0, 0], [0, 0, 0]) for t in np.linspace(0, 1, 21)]
    assert alignment_metric(trace_of(recs)) == pytest.approx(0.05, abs=1e-12)


def test_alignment_attachment_offsets_shift_the_arrangement():
    recs = [rec(0.0, [0.3, 0, 0], [0, 0.2, 0]), rec(1.0, [0.3, 0, 0], [0, 0.2, 0])]
    off = ([0.0, 0.0, 0.1], [0.0, 0.1, 0.0])
    out = alignment_metric(trace_of(recs), attachment_offsets=off, reference=np.zeros(3))
    expected = np.linalg.norm([0.3, -0.3, 0.1])
    assert out == pytest.approx(expected, rel=1e-12)


def test_alignment_offsets_match_per_record_transform():
    # Random orientations: identity ones cannot tell a wrong rotation of the
    # attachment offsets from a right one.
    rng = np.random.default_rng(31)
    t = np.sort(rng.uniform(0, 3, 60))
    recs = []
    for ti in t:
        row = rec(ti, rng.normal(size=3), rng.normal(size=3))
        set_pose(row, "ee", Pose(rng.normal(size=3), quat_normalize(rng.normal(size=4))))
        set_pose(row, "hand", Pose(rng.normal(size=3), quat_normalize(rng.normal(size=4))))
        recs.append(row)
    off = ([0.05, -0.1, 0.2], [-0.15, 0.03, 0.07])
    t_start, t_end = 0.5, 2.5
    sel = [r for r in recs if t_start <= r["t"] <= t_end]
    rel = [
        pose_of(r, "ee").transform_point(off[0]) - pose_of(r, "hand").transform_point(off[1])
        for r in sel
    ]
    dev = [float(np.linalg.norm(x - rel[0])) for x in rel]
    area = sum(
        0.5 * (b["t"] - a["t"]) * (da + db)
        for a, b, da, db in zip(sel, sel[1:], dev, dev[1:])
    )
    expected = area / (sel[-1]["t"] - sel[0]["t"])
    out = alignment_metric(
        trace_of(recs), attachment_offsets=off, t_start=t_start, t_end=t_end
    )
    assert out == pytest.approx(expected, rel=1e-12)


def test_alignment_time_reversal_invariance():
    rng = np.random.default_rng(17)
    t = np.sort(rng.uniform(0, 5, 40))
    rels = rng.normal(scale=0.1, size=(40, 3))
    ref = rng.normal(scale=0.1, size=3)
    fwd = [rec(ti, ri, [0, 0, 0]) for ti, ri in zip(t, rels)]
    t_rev = t[-1] - t[::-1]
    rev = [rec(ti, ri, [0, 0, 0]) for ti, ri in zip(t_rev, rels[::-1])]
    a = alignment_metric(trace_of(fwd), reference=ref)
    b = alignment_metric(trace_of(rev), reference=ref)
    assert a == pytest.approx(b, rel=1e-12)


def test_alignment_window_selection():
    recs = [rec(t, [0.1 * t, 0, 0], [0, 0, 0]) for t in np.linspace(0, 1, 101)]
    # restricted to the second half the ramp still averages its own midpoint
    out = alignment_metric(trace_of(recs), reference=np.zeros(3), t_start=0.5, t_end=1.0)
    assert out == pytest.approx(0.075, abs=1e-12)


def test_alignment_needs_two_samples():
    with pytest.raises(ValueError, match="at least two samples"):
        alignment_metric(trace_of([]))
    with pytest.raises(ValueError, match="at least two samples"):
        alignment_metric(trace_of([rec(0.0, [0, 0, 0], [0, 0, 0])]))
    recs = [rec(0.0, [0, 0, 0], [0, 0, 0]), rec(1.0, [0, 0, 0], [0, 0, 0])]
    with pytest.raises(ValueError, match="at least two samples"):
        alignment_metric(trace_of(recs), t_start=0.5, t_end=0.9)


def test_alignment_zero_span():
    recs = [rec(1.0, [0.2, 0, 0], [0, 0, 0]), rec(1.0, [0.4, 0, 0], [0, 0, 0])]
    assert alignment_metric(trace_of(recs)) == 0.0


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


def test_interval_stats_empty_interval_raises():
    trace = trace_of([rec(0.1 * i, [0, 0, 0], [0, 0, 0]) for i in range(10)])
    with pytest.raises(ValueError, match="contains no samples"):
        interval_stats(trace, [(5.0, 6.0)])
    assert interval_stats(trace, []) == ([], [])


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
        run_scenario(cfg)
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
        trace, _ = run_scenario(cfg)
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

    def spy_human(force, dt):
        calls.append("human")
        return real_human(force, dt)

    real_aci = sim.aci.step

    def spy_aci(t, force, human_state, dt):
        calls.append("aci")
        aci_forces.append(np.asarray(force, dtype=float).copy())
        return real_aci(t, force, human_state, dt)

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


def test_rigid_admittance_completes_with_low_alpha():
    cfg = load_scenario(scenario_path("rigid_rod"), overrides={"mode": "admittance"})
    _, metrics = run_scenario(cfg)
    assert metrics.completed
    assert metrics.t_c < cfg.duration
    assert all(a < 0.1 for a in metrics.interval_alpha)
    assert list(metrics.waypoint_times) == sorted(metrics.waypoint_times)
    assert len(set(metrics.waypoint_times)) == len(metrics.waypoint_times)


def test_rope_teleop_completes_with_high_alpha():
    cfg = load_scenario(scenario_path("slack_rope"), overrides={"mode": "teleop"})
    _, metrics = run_scenario(cfg)
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
    trace, metrics = run_scenario(cfg)
    assert metrics.completed
    assert len(trace) < int(round(cfg.duration / cfg.dt))  # stopped early
    assert trace["t"][-1] == metrics.waypoint_times[-1]
    assert math.isfinite(metrics.interval_alpha[0])
    assert math.isnan(metrics.interval_alpha[1])
    assert math.isnan(metrics.interval_force[1])


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


def test_tick_builds_no_twist_and_few_poses(monkeypatch):
    # The layers of a tick pass floats: over 1,000 ACI ticks of peanut_bag
    # with no rotation, a tick builds no Twist and at most 3 Poses.
    sim = Simulation(load_scenario(scenario_path("peanut_bag")))
    built = Counter()
    for cls in (Pose, Twist):

        def counted(self, real=cls.__post_init__, name=cls.__name__):
            built[name] += 1
            real(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    ticks = 1000
    for _ in range(ticks):
        sim.step()
    monkeypatch.undo()
    assert sim.config.mode is Mode.ACI
    assert not sim.trace["zeta"].any()
    assert built["Twist"] == 0
    assert built["Pose"] <= 3 * ticks


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


def test_trace_column_blocks():
    trace = random_trace(5)
    assert trace[EE_P].shape == (5, 3)
    np.testing.assert_array_equal(trace[EE_P][:, 2], trace["ee_pz"])
    np.testing.assert_array_equal(trace[["fz", "fx"]][:, 0], trace["fz"])
    np.testing.assert_array_equal(trace[["fz", "fx"]][:, 1], trace["fx"])


def test_run_trace_equals_its_file_bitwise(tmp_path):
    path = str(tmp_path / "smoke.csv")
    cfg = load_scenario(scenario_path("smoke"), overrides={"trace_path": path})
    trace, _ = run_scenario(cfg)
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
    trace, _ = run_scenario(cfg)
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
