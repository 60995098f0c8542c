"""Hierarchical velocity-level whole-body control.

The primary task tracks a 6-D end-effector reference b; a secondary posture
task s keeps the arm near a default configuration.  Both go through one
weighted damped pseudoinverse of the task Jacobian,

    J# = W2^-1 J^T (J W2^-1 J^T + k^2 W1^-1)^-1

(Nakamura & Hanafusa 1986; Chiaverini 1997): the command is
J# b + (I - J# J) s, so the posture task moves only in the damped nullspace of
the primary task, and both use the same task weights W1, joint weights W2 and
manipulability-scheduled damping factor k.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from .geometry import Pose, _norm, _pose_error
from .kinematics import (
    BASE_DOFS,
    ChainState,
    KinematicModel,
    chain_state,
    damping_factor,
)


class WbcError(RuntimeError):
    pass


@dataclass(frozen=True)
class WbcParams:
    """Gains and weights; all weight matrices are diagonal and stored as vectors.

    Frozen, with read-only arrays, because the per-tick products of the gains
    are formed once here: `dataclasses.replace` makes a changed copy.
    """

    k_gain: np.ndarray
    w_task: np.ndarray
    w_damp: np.ndarray
    w_posture: np.ndarray
    q_def: np.ndarray
    posture_gain: float = 0.5
    qdot_limits: np.ndarray | None = None
    # posture_gain * w_posture, -qdot_limits and k_gain as 6 floats.
    _posture_scale: np.ndarray = field(init=False, repr=False, compare=False)
    _lower_limits: np.ndarray | None = field(init=False, repr=False, compare=False)
    _k_gain: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        def put(name, value, size=-1):
            if value is not None:
                value = np.array(value, dtype=float).reshape(size)
                value.flags.writeable = False
            object.__setattr__(self, name, value)

        put("k_gain", self.k_gain, 6)
        put("w_task", self.w_task, 6)
        put("w_damp", self.w_damp)
        put("w_posture", self.w_posture)
        put("q_def", self.q_def)
        put("qdot_limits", self.qdot_limits)
        put("_posture_scale", self.posture_gain * self.w_posture)
        put("_lower_limits", None if self.qdot_limits is None else -self.qdot_limits)
        object.__setattr__(self, "_k_gain", self.k_gain.tolist())
        if np.any(self.w_task <= 0.0) or np.any(self.w_damp <= 0.0):
            raise WbcError("task and damping weights must be positive")
        if np.any(self.w_posture < 0.0):
            raise WbcError("posture weights must be non-negative")
        if self.qdot_limits is not None and np.any(self.qdot_limits <= 0.0):
            raise WbcError("velocity limits must be positive")

    @classmethod
    def defaults(
        cls,
        model: KinematicModel,
        q_def: np.ndarray | None = None,
        base_lin_limit: float = 1.0,
        base_ang_limit: float = 1.0,
        arm_limit: float = 1.5,
        **fields,
    ) -> "WbcParams":
        """The standard gains and weights for `model`; keyword `fields`
        (k_gain, w_task, posture_gain, ...) replace single entries."""
        m = model.n_joints
        if q_def is None:
            q_def = np.zeros(m)
        limits = np.concatenate([
            [base_lin_limit, base_lin_limit, base_ang_limit],
            np.full(model.n_arm, arm_limit),
        ])
        standard = dict(
            k_gain=np.array([1.0, 1.0, 1.0, 0.1, 0.1, 0.1]),
            w_task=100.0 * np.array([10.0, 10.0, 10.0, 5.0, 5.0, 5.0]),
            w_damp=np.full(m, 3.0),
            w_posture=np.concatenate([np.zeros(BASE_DOFS), np.ones(model.n_arm)]),
            q_def=np.asarray(q_def, dtype=float),
            qdot_limits=limits,
        )
        return cls(**{**standard, **fields})


def tracking_objective(pose: Pose, x_d: Pose, xdot_d, params: WbcParams) -> np.ndarray:
    """Reference twist b = xdot_d + K * (x_d minus the current pose), for the
    reference twist xdot_d as 6 floats (linear, then angular)."""
    return np.array(
        [v + k * e for v, k, e in zip(xdot_d, params._k_gain, _pose_error(x_d, pose))]
    )


def solve_tracking(
    J: np.ndarray, b: np.ndarray, k: float, w_task: np.ndarray, w_damp: np.ndarray
) -> np.ndarray:
    """J# b: the qdot minimizing ||b - J qdot||^2_W1 + k^2 ||qdot||^2_W2.

    W1 = diag(w_task) and W2 = diag(w_damp).  One task-space system
    (J W2^-1 J^T + k^2 W1^-1) y = b is solved and W2^-1 J^T y returned.  This
    is the minimizer for every k >= 0, and its k -> 0 limit is the
    W2-weighted minimum-norm exact solution, so the command does not jump
    when damping switches off.  With k = 0 the system is singular unless J
    has full row rank.
    """
    JW = J / w_damp
    G = JW.dot(J.T)
    if k > 0.0:
        diagonal = G.reshape(-1)[:: G.shape[0] + 1]  # a view: G is a new array
        diagonal += (k * k) / w_task
    try:
        y = _linalg.solve(G, b)
    except np.linalg.LinAlgError as exc:
        raise WbcError(
            "primary task is singular with zero damping; use a nonzero damping factor"
        ) from exc
    if not all(map(math.isfinite, y.tolist())) or _norm(G.dot(y) - b) > 1e-6 * max(
        1.0, _norm(b)
    ):
        raise WbcError(
            "primary task is singular with zero damping; use a nonzero damping factor"
        )
    return JW.T.dot(y)


def solve_secondary(q: np.ndarray, params: WbcParams) -> np.ndarray:
    """Raw posture velocities pulling the configuration toward q_def."""
    return params._posture_scale * (params.q_def - q)


def compute(
    model: KinematicModel,
    q: np.ndarray,
    x_d: Pose,
    xdot_d,
    params: WbcParams,
    chain: ChainState | None = None,
) -> np.ndarray:
    """Full hierarchical command J# b + (I - J# J) s for the posture velocity s.

    xdot_d is the reference twist as 6 floats (linear, then angular).  The
    command is formed as s + J# (b - J s), which needs one solve and no
    projector.
    """
    if chain is None:
        chain = chain_state(model, q)
    k = damping_factor(chain.manipulability, model)
    J = chain.jacobian
    b = tracking_objective(chain.pose, x_d, xdot_d, params)
    s = solve_secondary(q, params)
    return s + solve_tracking(J, b - J.dot(s), k, params.w_task, params.w_damp)


def clamp_velocities(qdot: np.ndarray, params: WbcParams) -> np.ndarray:
    """Component-wise saturation to the per-joint velocity limits."""
    if params.qdot_limits is None:
        return qdot
    return np.asarray(qdot).clip(params._lower_limits, params.qdot_limits)
