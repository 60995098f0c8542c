"""Hierarchical velocity-level whole-body control.

The primary task tracks a 6-D end-effector reference; a secondary posture task
keeps the arm near a default configuration and is projected through the damped
nullspace of the primary Jacobian so it cannot disturb tracking.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _linalg
from .geometry import Pose, Twist, _norm, pose_error
from .kinematics import (
    BASE_DOFS,
    ChainState,
    KinematicModel,
    chain_state,
    damping_factor,
    forward_kinematics,
)


class WbcError(RuntimeError):
    pass


@dataclass
class WbcParams:
    """Gains and weights; all weight matrices are diagonal and stored as vectors."""

    k_gain: np.ndarray
    w_task: np.ndarray
    w_damp: np.ndarray
    w_posture: np.ndarray
    q_def: np.ndarray
    posture_gain: float = 0.5
    qdot_limits: np.ndarray | None = None

    def __post_init__(self):
        self.k_gain = np.asarray(self.k_gain, dtype=float).reshape(6)
        self.w_task = np.asarray(self.w_task, dtype=float).reshape(6)
        self.w_damp = np.asarray(self.w_damp, dtype=float).reshape(-1)
        self.w_posture = np.asarray(self.w_posture, dtype=float).reshape(-1)
        self.q_def = np.asarray(self.q_def, dtype=float).reshape(-1)
        if self.qdot_limits is not None:
            self.qdot_limits = np.asarray(self.qdot_limits, dtype=float).reshape(-1)
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


def tracking_objective(
    model: KinematicModel,
    q: np.ndarray,
    x_d: Pose,
    xdot_d: Twist,
    params: WbcParams,
    pose: Pose | None = None,
) -> np.ndarray:
    """Reference twist b = xdot_d + K * (x_d minus current pose)."""
    x = forward_kinematics(model, q) if pose is None else pose
    return np.array(
        [
            v + k * e
            for v, k, e in zip(
                xdot_d.linear.tolist() + xdot_d.angular.tolist(),
                params.k_gain.tolist(),
                pose_error(x_d, x).tolist(),
            )
        ]
    )


def solve_tracking(
    J: np.ndarray, b: np.ndarray, k: float, w_task: np.ndarray, w_damp: np.ndarray
) -> np.ndarray:
    """Minimize ||b - J qdot||^2_W1 + k^2 ||qdot||^2_W2 for diagonal weights.

    With k > 0 the regularized normal equations have a unique solution.  With
    k = 0 the task is solved exactly through the row space, which requires J to
    have full row rank; the minimum-norm solution is returned.
    """
    if k > 0.0:
        JtW = J.T * w_task
        A = JtW.dot(J) + (k * k) * np.diag(w_damp)
        return _linalg.solve(A, JtW.dot(b))
    G = J.dot(J.T)
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
    return J.T.dot(y)


def solve_primary(
    model: KinematicModel,
    q: np.ndarray,
    x_d: Pose,
    xdot_d: Twist,
    params: WbcParams,
    k: float | None = None,
    chain: ChainState | None = None,
) -> np.ndarray:
    """Primary-task joint velocities for tracking the EE reference.

    The damping factor is derived from the current arm manipulability unless
    an explicit k is supplied.  A precomputed chain evaluation may be passed
    to avoid redundant kinematics.
    """
    if chain is None:
        chain = chain_state(model, q)
    if k is None:
        k = damping_factor(chain.manipulability, model)
    b = tracking_objective(model, q, x_d, xdot_d, params, pose=chain.pose)
    return solve_tracking(chain.jacobian, b, k, params.w_task, params.w_damp)


def nullspace_projector(J: np.ndarray, k: float) -> np.ndarray:
    """N = I - J# J with the damped pseudoinverse J# = J^T (J J^T + k^2 I)^-1."""
    G = J.dot(J.T) + (k * k) * _identity(J.shape[0])
    J_pinv = J.T.dot(_linalg.inv(G))
    return _identity(J.shape[1]) - J_pinv.dot(J)


@functools.cache
def _identity(n: int) -> np.ndarray:
    """Read-only n x n identity, built once per size."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def solve_secondary(q: np.ndarray, params: WbcParams) -> np.ndarray:
    """Raw posture velocities pulling the configuration toward q_def."""
    return params.posture_gain * params.w_posture * (params.q_def - q)


def compute(
    model: KinematicModel,
    q: np.ndarray,
    x_d: Pose,
    xdot_d: Twist,
    params: WbcParams,
    chain: ChainState | None = None,
) -> np.ndarray:
    """Full hierarchical command: primary tracking plus projected posture task."""
    if chain is None:
        chain = chain_state(model, q)
    k = damping_factor(chain.manipulability, model)
    J = chain.jacobian
    b = tracking_objective(model, q, x_d, xdot_d, params, pose=chain.pose)
    qdot1 = solve_tracking(J, b, k, params.w_task, params.w_damp)
    N = nullspace_projector(J, k)
    return qdot1 + N.dot(solve_secondary(q, params))


def clamp_velocities(qdot: np.ndarray, params: WbcParams) -> np.ndarray:
    """Component-wise saturation to the per-joint velocity limits."""
    if params.qdot_limits is None:
        return qdot
    return np.asarray(qdot).clip(-params.qdot_limits, params.qdot_limits)
