"""Fixed-timestep closed-loop simulation and its metrics.

One tick advances the world in a fixed order: the human moves under the
previous object reaction, the coupling force is evaluated once from the
fresh states, the collaborative interface turns force and human motion into
an EE reference, the whole-body controller resolves it to saturated joint
velocities, and the robot integrates.  Every tick appends one trace row to
a flat `array('d')`, in 5 calls.  numpy runs only the matrix work (the
Jacobian and 6x6 products, the 6x6 solve, the determinant, the joint-angle
cos/sin); every 3-, 4- and 7-vector and scalar is Python floats, and the
coupling, the admittance step, the adaptive index and the blend work on them
one component at a time.  The EE and reference
poses are 7 floats in the trace's column order (position, then the
(w, x, y, z) quaternion); a tick builds a `Pose` only when a rotation fires.
Each value a tick reads has one holder: the simulation is the clock (tick
n ends at n * dt; the human and the interface take dt once) and the chain
state holds q.  The still-tick rule: the chain state (q, EE pose, Jacobian,
manipulability) is a pure function of q, so it is kept while q keeps its
bits, and the whole-body command solved at a chain is kept while its other
inputs (x_d, xdot_d, the WBC parameters and the damping factor) keep
theirs.  A robot that stands still keeps its chain, under a still
reference its command too, and the EE velocity J qdot it starts a tick
with is the previous tick's EE twist.  The controller hands a kept command
back as the same read-only array, so a tick that gets the command of a
chain kept on the tick before reuses that tick's outcome (the q and EE
twist bytes and the EE velocity) and makes no numpy call after the
reference pack.  Identical configuration and seed give bitwise-identical
traces on a host; the small-vector results do not depend on the BLAS
kernel numpy picks.
"""

import itertools
import math
from array import array
from dataclasses import asdict, dataclass, field

import numpy as np

from . import wbc as _wbc
from .aci import AciController
from .geometry import Pose, quat_from_yaw
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


# Rows formatted per write.  One chunk's Python floats and text, about 3.5 kB
# a row, are all the writer holds at once.
_WRITE_CHUNK = 64


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
        return asdict(self)


def write_metrics(path: str, metrics: Metrics):
    """Key-value text document, one key per line (YAML-compatible)."""

    def _fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):  # YAML spells nan and +-inf .nan and +-.inf
            text = format(v, ".17g")
            return {"nan": ".nan", "inf": ".inf", "-inf": "-.inf"}.get(text, text)
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
        self._chain = chain_state(self.model, config.q0)
        # The EE velocity J qdot[:3] that the next tick starts with: at rest.
        self._ee_velocity = [0.0, 0.0, 0.0]
        # The outcome of the last tick that kept its chain: (command, q bytes,
        # EE twist bytes, EE velocity).  A tick handed that same command
        # array is at the same chain, so the same J, qdot, q and dt give it
        # the same bits.
        self._still = (None,)
        self.human = SimulatedHuman(
            config.human, config.script, config.torso0, self.dt, seed=config.seed
        )
        ee0 = self.ee0 = Pose(self._chain.pose[:3], self._chain.pose[3:])
        rest_world = ee0.position - config.hand0
        self.object_model = config.object_model.with_rest(
            rest_world, ref_yaw=ee0.yaw()
        )
        torso0_pose = Pose(config.torso0, quat_from_yaw(config.torso_yaw0))
        self.aci = AciController(
            config.aci, config.admittance, config.mode, ee0, torso0_pose, self.dt
        )
        self.wbc_params = config.wbc
        self.force_on_hand = (0.0, 0.0, 0.0)
        self._columns = trace_columns(self.model.n_joints)
        # The trace rows, flat in column order; it grows by one row per tick.
        self._rows = array("d")
        self.waypoint_times: list = []
        self._next_waypoint = 0
        self._waypoint_targets = [
            (ee0.position + wp.offset).tolist() for wp in config.waypoints
        ]

    @property
    def t(self) -> float:
        """Simulated time: the tick count times dt, never a running sum of dt."""
        return self.ticks * self.dt

    @property
    def q(self) -> np.ndarray:
        """The joint vector (read-only): the one the current chain holds."""
        return self._chain.q

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
        t_new = (self.ticks + 1) * dt
        chain = self._chain
        layer = "human"
        try:
            human_state = self.human.step(t_new, self.force_on_hand)

            layer = "objects"
            force = object_wrench(
                self.object_model,
                human_state.hand_position,
                human_state.hand_velocity,
                chain.pose,
                self._ee_velocity,
            )
            fx, fy, fz = force
            self.force_on_hand = (-fx, -fy, -fz)

            layer = "aci"
            out = self.aci.step(t_new, force, human_state)

            layer = "wbc"
            qdot_d = _wbc.compute(self.model, out.x_d, out.xdot_d, self.wbc_params, chain)

            layer = "kinematics"
            self.ticks += 1
            if qdot_d is self._still[0]:  # the kept command at the kept chain
                _, q_bytes, twist_bytes, ee_velocity = self._still
            else:
                ee_twist = chain.jacobian.dot(qdot_d)
                q = chain.q + qdot_d * dt
                q_bytes = q.tobytes()
                twist_bytes = ee_twist.tobytes()
                ee_velocity = ee_twist.tolist()[:3]
                if q_bytes != chain.q.tobytes():  # a 0.0 that turns -0.0 counts
                    self._chain = chain_state(self.model, q)
                    self._ee_velocity = self._chain.jacobian.dot(qdot_d)[:3].tolist()
                else:  # same J and qdot: next tick's J qdot is this ee_twist
                    self._ee_velocity = ee_velocity
                    self._still = (qdot_d, q_bytes, twist_bytes, ee_velocity)

            layer = "trace"
            # One row in `trace_columns` order, in 5 calls: t, the q bytes,
            # the EE pose, the EE twist bytes, then the other 26 floats.
            rows = self._rows
            try:
                rows.append(t_new)
            except BufferError:  # a handed-out trace views the store
                rows = self._rows = array("d", rows)
                rows.append(t_new)
            ee = self._chain.pose
            rows.frombytes(q_bytes)
            rows.extend(ee)
            rows.frombytes(twist_bytes)
            rows.extend((
                fx, fy, fz,
                *out.v_adm,
                *human_state.hand_velocity,
                out.alpha, out.zeta,
                *out.x_d,
                *human_state.hand_position,
                *human_state.hand_orientation,
                human_state.theta_t_w,
            ))  # fmt: skip
            self._check_waypoints(ee, ee_velocity)
        except Exception as exc:
            raise SimulationError(f"in {layer}: {exc}") from exc

    def _check_waypoints(self, ee_pose: list, ee_velocity: list):
        wps = self.config.waypoints
        if self._next_waypoint >= len(wps):
            return
        wp = wps[self._next_waypoint]
        tx, ty, tz = self._waypoint_targets[self._next_waypoint]
        ex, ey, ez = ee_pose[:3]
        near = math.hypot(ex - tx, ey - ty, ez - tz) <= wp.tolerance
        vx, vy, vz = ee_velocity
        slow = math.hypot(vx, vy, vz) < self.config.waypoint_speed
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
        interval_alpha, interval_force = interval_stats(trace, self.config.intervals)
        return Metrics(
            completed=completed,
            t_c=t_c,
            d_am=d_am,
            mean_alpha=mean_alpha,
            waypoint_times=list(self.waypoint_times),
            interval_alpha=interval_alpha,
            interval_force=interval_force,
        )


def alignment_metric(trace: Trace) -> float:
    """Time-averaged drift of the hand-to-EE arrangement from its first row.

    Integrates || (r_ee - r_hand) - (r_ee - r_hand)[0] || of the frame
    origins over the trace with the trapezoid rule and divides by the time
    span.  Fewer than two rows leave no span to average over and raise.  The
    trace is read column by column, in the operation order of
    np.linalg.norm(axis=1) and np.trapezoid.
    """
    t = trace["t"]
    if len(t) < 2:
        raise ValueError("alignment metric needs at least two samples")
    span = t[-1] - t[0]
    if span <= 0.0:
        return 0.0
    dev = 0.0  # (dx^2 + dy^2) + dz^2, the sum order of norm(axis=1)
    for c in "xyz":
        d = trace[f"ee_p{c}"] - trace[f"hand_p{c}"]
        d -= d[0]
        d *= d
        d += dev
        dev = d
    np.sqrt(dev, out=dev)
    area = np.diff(t)  # np.trapezoid's order: diff(t) * (y1 + y0) / 2.0
    area *= dev[1:] + dev[:-1]
    area /= 2.0
    return float(area.sum() / span)


_FORCE_BLOCK = 1024  # rows per block of the force magnitudes' n x 3 copy


def interval_stats(trace: Trace, intervals: list) -> tuple[list, list]:
    """Per-interval arithmetic means of alpha and of the force magnitude.

    Intervals are (start, end) pairs over half-open spans [start, end).  An
    interval containing no samples (one an early stop never reached) reads
    nan for both of its means.
    """
    if not intervals:
        return [], []
    t = trace["t"]
    alphas = trace["alpha"]
    forces = np.empty(len(trace))
    # Row by row f . f through the BLAS dot that np.linalg.norm(force) uses;
    # np.linalg.norm(axis=1) sums differently in the last bit.
    for i in range(0, len(trace), _FORCE_BLOCK):
        j = i + _FORCE_BLOCK
        f = np.stack([trace[c][i:j] for c in ("fx", "fy", "fz")], axis=1)[:, None]
        np.sqrt(np.matmul(f, f.transpose(0, 2, 1))[:, 0, 0], out=forces[i:j])
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
