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
import struct
from dataclasses import dataclass, field

import numpy as np

from . import _linalg
from ._rules import FINITE, NON_NEGATIVE, POSITIVE, check, read_only, ruled
from .geometry import pose_error
from .kinematics import BASE_DOFS, ChainState, KinematicModel, damping_factor


class WbcError(RuntimeError):
    pass


# A reference as the bits of 13 doubles: x_d, then xdot_d.
_REFERENCE = struct.Struct("13d")


@dataclass(frozen=True)
class WbcParams:
    """Gains and weights; all weight matrices are diagonal and stored as vectors.
    The per-tick products of the gains are formed once here."""

    k_gain: np.ndarray = ruled(FINITE, shape=6)
    w_task: np.ndarray = ruled(POSITIVE, shape=6)
    w_damp: np.ndarray = ruled(POSITIVE, shape=-1)
    w_posture: np.ndarray = ruled(NON_NEGATIVE, shape=-1)
    q_def: np.ndarray = ruled(FINITE, shape=-1)
    qdot_limits: np.ndarray = ruled(POSITIVE, shape=-1)
    posture_gain: float = ruled(FINITE, 0.5)
    # posture_gain * w_posture, -qdot_limits and k_gain as 6 floats.
    _posture_scale: np.ndarray = field(init=False, repr=False, compare=False)
    _lower_limits: np.ndarray = field(init=False, repr=False, compare=False)
    _k_gain: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check(self, WbcError)
        object.__setattr__(self, "_posture_scale", read_only(self.posture_gain * self.w_posture))
        object.__setattr__(self, "_lower_limits", read_only(-self.qdot_limits))
        object.__setattr__(self, "_k_gain", tuple(self.k_gain.tolist()))

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
        (k_gain, w_task, posture_gain, ...) replace single entries.  The
        limit scalars fill `qdot_limits` and so hold to its rule."""
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
            q_def=q_def,
            qdot_limits=limits,
        )
        return cls(**{**standard, **fields})


def tracking_objective(pose, x_d, xdot_d, params: WbcParams) -> np.ndarray:
    """Reference twist b = xdot_d + K * (x_d minus the current pose), for
    poses of 7 floats and the reference twist xdot_d as 6 floats (linear,
    then angular)."""
    return np.array(
        [v + k * e for v, k, e in zip(xdot_d, params._k_gain, pose_error(x_d, pose))]
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
    residual = math.hypot(*(G.dot(y) - b).tolist())
    bound = 1e-6 * max(1.0, math.hypot(*b.tolist()))
    if not all(map(math.isfinite, y.tolist())) or residual > bound:
        raise WbcError(
            "primary task is singular with zero damping; use a nonzero damping factor"
        )
    return JW.T.dot(y)


def solve_secondary(q: np.ndarray, params: WbcParams) -> np.ndarray:
    """Raw posture velocities pulling the configuration toward q_def."""
    return params._posture_scale * (params.q_def - q)


def compute(
    model: KinematicModel, x_d, xdot_d, params: WbcParams, chain: ChainState
) -> np.ndarray:
    """The delivered command: J# b + (I - J# J) s for the posture velocity s,
    saturated to the joint velocity limits (`clamp_velocities`).

    The command is solved at the chain's q, for the reference pose x_d as
    7 floats (position, then the (w, x, y, z) quaternion) and the reference
    twist xdot_d as 6 floats (linear, then angular).  It is formed as
    s + J# (b - J s), which needs one solve and no projector.

    The still-tick rule: the chain keeps its last command and returns that
    same read-only array again while the other inputs keep their bits: the
    13 reference floats, packed (a 0.0 that turns -0.0 counts as a change),
    the same `params` object and the same damping factor k (what the command
    reads of the model).  A still robot keeps its chain, so under a still
    reference it solves once, and a caller can tell a kept command by its
    identity.  A call that raises keeps nothing.
    """
    reference = _REFERENCE.pack(*x_d, *xdot_d)
    k = damping_factor(chain.manipulability, model)
    kept = chain.command
    if kept is not None and kept[0] == reference and kept[1] is params and kept[2] == k:
        return kept[3]
    J = chain.jacobian
    b = tracking_objective(chain.pose, x_d, xdot_d, params)
    s = solve_secondary(chain.q, params)
    qdot = s + solve_tracking(J, b - J.dot(s), k, params.w_task, params.w_damp)
    qdot = clamp_velocities(qdot, params)
    qdot.flags.writeable = False
    chain.command = (reference, params, k, qdot)
    return qdot


def clamp_velocities(qdot: np.ndarray, params: WbcParams) -> np.ndarray:
    """Component-wise saturation to the per-joint velocity limits, as
    `np.clip` gives it, in an array of its own."""
    out = np.maximum(qdot, params._lower_limits)
    return np.minimum(out, params.qdot_limits, out=out)
