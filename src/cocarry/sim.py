"""Fixed-timestep closed-loop simulation and its metrics.

One tick advances the world in a fixed order: the human moves under the
previous object reaction, the coupling force is evaluated once from the
fresh states, the collaborative interface turns force and human motion into
an EE reference, the whole-body controller resolves it to saturated joint
velocities, and the robot integrates.  Every tick appends one trace row.
The layers hand each other Python floats and the float64 arrays of the
Jacobian and joint vectors; outside a rotation, the EE and reference poses
are the only `Pose`s built per tick.
The whole pipeline is deterministic: identical configuration and seed give
bitwise-identical traces.
"""

import itertools
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from . import wbc as _wbc
from .aci import AciController
from .geometry import Pose, _norm, quat_from_yaw
from .human import SimulatedHuman
from .kinematics import chain_state
from .objects import object_wrench
from .scenario import ScenarioConfig


class SimulationError(RuntimeError):
    pass


def _pose_columns(prefix: str) -> list:
    return [f"{prefix}_{c}" for c in ("px", "py", "pz", "qw", "qx", "qy", "qz")]


def trace_columns(n_joints: int) -> list:
    cols = ["t"]
    cols += [f"q{i}" for i in range(n_joints)]
    cols += _pose_columns("ee")
    cols += ["ee_vx", "ee_vy", "ee_vz", "ee_wx", "ee_wy", "ee_wz"]
    cols += ["fx", "fy", "fz"]
    cols += ["vadm_x", "vadm_y", "vadm_z"]
    cols += ["vh_x", "vh_y", "vh_z"]
    cols += ["alpha", "zeta"]
    cols += _pose_columns("xd")
    cols += _pose_columns("hand")
    cols += ["torso_yaw"]
    return cols


class Trace:
    """Per-tick trace: one float64 row of `columns` per tick.

    `len(trace)` is the number of ticks, `trace["ee_px"]` one column (a view)
    and `trace[["ee_px", "ee_py", "ee_pz"]]` a C-ordered (n x 3) copy.  Runs
    return a trace and `read_trace` loads one, so a file and an in-memory run
    share one format.
    """

    def __init__(self, data: np.ndarray, columns: list):
        if data.ndim != 2 or data.shape[1] != len(columns):
            raise ValueError(
                f"trace data of shape {data.shape} does not fit {len(columns)} columns"
            )
        self.data = data
        self.columns = list(columns)
        self._index = {name: i for i, name in enumerate(self.columns)}

    def __len__(self) -> int:
        return self.data.shape[0]

    def __getitem__(self, key) -> np.ndarray:
        if isinstance(key, str):
            return self.data[:, self._index[key]]
        return self.data.take([self._index[name] for name in key], axis=1)


# Rows formatted per write: bounds the text held in memory at once.
_WRITE_CHUNK = 512


def write_trace(path: str, trace: Trace):
    """Delimited text, one row per tick, full float precision.

    Each row is one `%` operation; "%.17g" prints a float exactly as
    format(v, ".17g") does.
    """
    line = ",".join(["%.17g"] * len(trace.columns)) + "\n"
    data = trace.data
    try:
        with open(path, "w") as fh:
            fh.write(",".join(trace.columns) + "\n")
            for i in range(0, len(data), _WRITE_CHUNK):
                rows = data[i : i + _WRITE_CHUNK].tolist()
                fh.write("".join([line % tuple(row) for row in rows]))
    except OSError as exc:
        raise SimulationError(f"cannot write trace to {path}: {exc}") from exc


def read_trace(path: str) -> Trace:
    """Load a trace file written by `write_trace`; a header-only file (from a
    run shorter than half a tick) loads as a trace with no rows."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        first = fh.readline()
        if not first:
            return Trace(np.empty((0, len(header))), header)
        data = np.loadtxt(itertools.chain([first], fh), delimiter=",", ndmin=2)
    return Trace(data, header)


@dataclass
class Metrics:
    """Outcome summary of one run."""

    completed: bool
    t_c: float
    d_am: float
    mean_alpha: float
    waypoint_times: list = field(default_factory=list)
    interval_alpha: list = field(default_factory=list)
    interval_force: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "completed": self.completed,
            "t_c": self.t_c,
            "d_am": self.d_am,
            "mean_alpha": self.mean_alpha,
            "waypoint_times": list(self.waypoint_times),
            "interval_alpha": list(self.interval_alpha),
            "interval_force": list(self.interval_force),
        }


def write_metrics(path: str, metrics: Metrics):
    """Key-value text document, one key per line (YAML-compatible)."""

    def _fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return ".nan" if math.isnan(v) else format(v, ".17g")
        if isinstance(v, list):
            return "[" + ", ".join(_fmt(x) for x in v) + "]"
        return str(v)

    try:
        with open(path, "w") as fh:
            for key, val in metrics.as_dict().items():
                fh.write(f"{key}: {_fmt(val)}\n")
    except OSError as exc:
        raise SimulationError(f"cannot write metrics to {path}: {exc}") from exc


class Simulation:
    """Owns the world state and advances it tick by tick."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.model = config.model
        self.dt = config.dt
        self.ticks = 0
        self.q = np.array(config.q0, dtype=float)
        self.qdot = np.zeros_like(self.q)
        self.human = SimulatedHuman(
            config.human, config.script, config.torso0, seed=config.seed
        )
        self._chain = chain_state(self.model, self.q)
        ee0 = self._chain.pose
        self.ee0 = ee0
        rest_world = ee0.position - config.hand0
        self.object_model = config.object_model.with_rest(
            rest_world, ref_yaw=ee0.yaw()
        )
        torso0_pose = Pose(config.torso0, quat_from_yaw(config.torso_yaw0))
        self.aci = AciController(
            config.aci, config.admittance, config.mode, ee0, torso0_pose
        )
        self.wbc_params = config.wbc
        self.force_on_hand = (0.0, 0.0, 0.0)
        self._columns = trace_columns(self.model.n_joints)
        # The trace rows, flat in column order; it grows by one row per tick.
        self._rows = array("d")
        self.waypoint_times: list = []
        self._next_waypoint = 0
        self._waypoint_targets = [ee0.position + wp.offset for wp in config.waypoints]

    @property
    def t(self) -> float:
        """Simulated time: the tick count times dt, never a running sum of dt."""
        return self.ticks * self.dt

    @property
    def trace(self) -> Trace:
        """The rows recorded so far.

        The trace views the simulation's own store; a tick taken after it was
        handed out goes on in a copy, so the trace keeps what it showed.
        """
        width = len(self._columns)
        data = np.frombuffer(self._rows).reshape(len(self._rows) // width, width)
        data.flags.writeable = False
        return Trace(data, self._columns)

    # -- single tick ------------------------------------------------------

    def step(self):
        """Advance one tick and append its row to the trace.

        A failure inside the tick is raised as a SimulationError that names
        the part it came from: human, objects, aci, wbc, kinematics or trace.
        """
        dt = self.dt
        layer = "human"
        try:
            human_state = self.human.step(self.force_on_hand, dt)

            layer = "objects"
            chain = self._chain  # evaluated when self.q was last updated
            J = chain.jacobian
            force = object_wrench(
                self.object_model,
                human_state.hand_position,
                human_state.hand_velocity,
                chain.pose,
                J.dot(self.qdot)[:3].tolist(),
            )
            fx, fy, fz = force
            self.force_on_hand = (-fx, -fy, -fz)

            layer = "aci"
            t_new = (self.ticks + 1) * dt
            out = self.aci.step(t_new, force, human_state, dt)

            layer = "wbc"
            qdot_d = _wbc.compute(
                self.model, self.q, out.x_d, out.xdot_d, self.wbc_params, chain=chain
            )
            qdot_d = _wbc.clamp_velocities(qdot_d, self.wbc_params)

            layer = "kinematics"
            ee_twist = J.dot(qdot_d)
            self.q = self.q + qdot_d * dt
            self.qdot = qdot_d
            self.ticks += 1
            self._chain = chain_state(self.model, self.q)

            layer = "trace"
            # One row in `trace_columns` order: arrays copied in as bytes,
            # float sequences extended.
            rows = self._rows
            try:
                rows.append(t_new)
            except BufferError:  # a handed-out trace views the store
                rows = self._rows = array("d", rows)
                rows.append(t_new)
            ee = self._chain.pose
            rows.frombytes(self.q.tobytes())
            rows.frombytes(ee.position.tobytes())
            rows.frombytes(ee.orientation.tobytes())
            rows.frombytes(ee_twist.tobytes())
            rows.extend(force)
            rows.extend(out.v_adm)
            rows.extend(human_state.hand_velocity)
            rows.append(out.alpha)
            rows.append(out.zeta)
            rows.frombytes(out.x_d.position.tobytes())
            rows.frombytes(out.x_d.orientation.tobytes())
            rows.extend(human_state.hand_position)
            rows.extend(human_state.hand_orientation)
            rows.append(human_state.theta_t_w)
            self._check_waypoints(ee.position, ee_twist[:3])
        except Exception as exc:
            raise SimulationError(f"in {layer}: {exc}") from exc

    def _check_waypoints(self, ee_position: np.ndarray, ee_linear: np.ndarray):
        wps = self.config.waypoints
        if self._next_waypoint >= len(wps):
            return
        wp = wps[self._next_waypoint]
        target = self._waypoint_targets[self._next_waypoint]
        near = _norm(ee_position - target) <= wp.tolerance
        slow = _norm(ee_linear) < self.config.waypoint_speed
        if near and slow:
            self.waypoint_times.append(self.t)
            self._next_waypoint += 1

    # -- full run ---------------------------------------------------------

    def run(self) -> tuple[Trace, Metrics]:
        """Execute until the duration elapses or every waypoint is achieved."""
        n_steps = int(round(self.config.duration / self.dt))
        have_waypoints = bool(self.config.waypoints)
        for i in range(n_steps):
            try:
                self.step()
            except SimulationError as exc:
                raise SimulationError(f"aborted at step {i} {exc}") from exc.__cause__
            if have_waypoints and self._next_waypoint >= len(self.config.waypoints):
                break
        trace = self.trace
        metrics = self._metrics(trace)
        if self.config.trace_path:
            write_trace(self.config.trace_path, trace)
        if self.config.metrics_path:
            write_metrics(self.config.metrics_path, metrics)
        return trace, metrics

    def _metrics(self, trace: Trace) -> Metrics:
        completed = self._next_waypoint >= len(self.config.waypoints)
        if self.config.waypoints and completed:
            t_c = self.waypoint_times[-1] - self.config.script.first_motion_time()
        else:
            t_c = math.nan
        mean_alpha = float(trace["alpha"].mean()) if len(trace) else math.nan
        d_am = alignment_metric(trace) if len(trace) >= 2 else math.nan
        # Intervals the run never reached (early stop) degrade to nan instead
        # of aborting the metric pass.
        interval_alpha, interval_force = interval_stats(
            trace, self.config.intervals, empty=math.nan
        )
        return Metrics(
            completed=completed,
            t_c=t_c,
            d_am=d_am,
            mean_alpha=mean_alpha,
            waypoint_times=list(self.waypoint_times),
            interval_alpha=interval_alpha,
            interval_force=interval_force,
        )


def run_scenario(config: ScenarioConfig) -> tuple[Trace, Metrics]:
    return Simulation(config).run()


def alignment_metric(
    trace: Trace,
    attachment_offsets: tuple = None,
    reference: np.ndarray | None = None,
    t_start: float | None = None,
    t_end: float | None = None,
) -> float:
    """Time-averaged drift of the hand-to-EE arrangement from its reference.

    Integrates || (r_ee - r_hand) - reference || over the selected span with
    the trapezoid rule and divides by the span length.  The reference defaults
    to the arrangement at the first selected sample; attachment offsets (in
    the EE and hand body frames) let the comparison use marker-like points
    instead of the frame origins.  Fewer than two selected samples leave no
    span to average over and raise.
    """
    off_r = np.zeros(3) if attachment_offsets is None else np.asarray(
        attachment_offsets[0], dtype=float
    )
    off_h = np.zeros(3) if attachment_offsets is None else np.asarray(
        attachment_offsets[1], dtype=float
    )
    t = trace["t"]
    keep = np.ones(t.shape, dtype=bool)
    if t_start is not None:
        keep &= t >= t_start
    if t_end is not None:
        keep &= t <= t_end
    if np.count_nonzero(keep) < 2:
        raise ValueError("alignment metric needs at least two samples in the span")
    t = t[keep]
    ee = _attachment_points(trace, "ee", keep, off_r)
    hand = _attachment_points(trace, "hand", keep, off_h)
    rel = ee - hand
    if reference is None:
        reference = rel[0]
    dev = np.linalg.norm(rel - reference, axis=1)
    span = t[-1] - t[0]
    if span <= 0.0:
        return 0.0
    return float(np.trapezoid(dev, t) / span)


def _attachment_points(
    trace: Trace, prefix: str, keep: np.ndarray, offset: np.ndarray
) -> np.ndarray:
    """World positions (n x 3) of a body-frame offset on the kept rows' poses.

    Row-wise `Pose.transform_point`.  A zero offset leaves the frame origins:
    rotating it adds only signed zeros, which cannot change the metric.
    """
    cols = _pose_columns(prefix)
    p = trace[cols[:3]][keep]
    if not offset.any():
        return p
    q = trace[cols[3:]][keep]
    w, u = q[:, :1], q[:, 1:]
    return p + (offset + 2.0 * np.cross(u, np.cross(u, offset) + w * offset))


def interval_stats(
    trace: Trace, intervals: list, empty: float | None = None
) -> tuple[list, list]:
    """Per-interval arithmetic means of alpha and of the force magnitude.

    Intervals are (start, end) pairs over half-open spans [start, end).  An
    interval containing no samples raises, unless `empty` is given: then it
    stands for both of that interval's means.
    """
    if not intervals:
        return [], []
    t = trace["t"]
    alphas = trace["alpha"]
    f = trace[["fx", "fy", "fz"]].reshape(len(trace), 1, 3)
    # Row by row f . f through the BLAS dot that np.linalg.norm(force) uses;
    # np.linalg.norm(axis=1) sums differently in the last bit.
    forces = np.sqrt(np.matmul(f, f.transpose(0, 2, 1))[:, 0, 0])
    mean_a, mean_f = [], []
    for lo, hi in intervals:
        mask = (t >= lo) & (t < hi)
        if not mask.any():
            if empty is None:
                raise ValueError(f"interval [{lo}, {hi}) contains no samples")
            mean_a.append(empty)
            mean_f.append(empty)
            continue
        mean_a.append(float(alphas[mask].mean()))
        mean_f.append(float(forces[mask].mean()))
    return mean_a, mean_f
