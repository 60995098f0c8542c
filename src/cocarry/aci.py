"""Adaptive collaborative interface for shared object transport.

Translation blends an admittance response to the measured interaction force
with the measured hand velocity.  The blend weight adapts online: it compares
how far the admittance channel and the hand have each moved over a short
sliding window, so a stiff coupling (force moves the robot as much as the
hand moves) drives the weight to zero, while a fully slack coupling (force
carries no motion) drives it to one.

Rotation is handled separately.  A streaming detector watches the relative
yaw between the human hand and torso; a torso-led twist that comes to rest
triggers a point-to-point rotation of the end effector about the torso,
executed as a cubic trajectory while translation is frozen.
"""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Pose,
    Twist,
    quat_from_rotvec,
    quat_multiply,
    quat_normalize,
    quat_to_rotvec,
    quat_conjugate,
    integrate_pose,
)


class Mode(enum.Enum):
    """Controller variants: full interface, pure admittance, pure teleoperation."""

    ACI = "aci"
    ADMITTANCE = "admittance"
    TELEOP = "teleop"


@dataclass
class AdmittanceParams:
    """Diagonal virtual mass and damping of the translational admittance."""

    mass: np.ndarray = field(default_factory=lambda: np.full(3, 6.0))
    damping: np.ndarray = field(default_factory=lambda: np.full(3, 30.0))

    def __post_init__(self):
        self.mass = np.asarray(self.mass, dtype=float).reshape(3)
        self.damping = np.asarray(self.damping, dtype=float).reshape(3)
        if np.any(self.mass <= 0.0) or np.any(self.damping <= 0.0):
            raise ValueError("admittance mass and damping must be positive")


@dataclass
class AciParams:
    """Window, guard, and threshold settings of the adaptive interface."""

    window_length: float = 0.25
    epsilon: float = 1e-4
    deadband: float = 1e-4
    lower_angle: float = 0.2
    upper_angle: float = 0.4
    velocity_threshold: float = 0.05
    rotation_rate: float = 0.3
    min_rotation_duration: float = 2.0

    def __post_init__(self):
        for name in ("window_length", "epsilon", "rotation_rate"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.lower_angle < self.upper_angle:
            raise ValueError("angle thresholds must satisfy 0 < lower < upper")


def admittance_step(
    force: np.ndarray, v_prev: np.ndarray, dt: float, params: AdmittanceParams
) -> np.ndarray:
    """Advance the admittance velocity one step under a constant force.

    Each axis is the first-order system M vdot + D v = F discretized exactly
    under a zero-order hold, so the update is stable for any dt and matches
    the continuous response at the sample instants.
    """
    force = np.asarray(force, dtype=float).reshape(3).tolist()
    if not all(map(math.isfinite, force)):
        raise ValueError("non-finite force input to admittance (sensor fault?)")
    # Component-wise float arithmetic in the same order as the vector form.
    damping = params.damping.tolist()
    decay = np.exp([-(d / m) * dt for d, m in zip(damping, params.mass.tolist())])
    v_prev = np.asarray(v_prev, dtype=float).tolist()
    return np.array(
        [
            e * v + (1.0 - e) * f / d
            for e, v, f, d in zip(decay.tolist(), v_prev, force, damping)
        ]
    )


class AdaptiveIndex:
    """Sliding-window comparison of admittance displacement vs hand displacement.

    alpha = clamp(1 - d_adm / (d_h + epsilon), 0, 1), where each displacement
    is the norm of the trapezoidal integral of the respective velocity stream
    over the trailing window.  When both displacements are inside the deadband
    the previous alpha is held, so the index stays put at rest.
    """

    def __init__(self, params: AciParams, alpha0: float = 0.0):
        self.params = params
        self.alpha = float(alpha0)
        # Flat ring over growing arrays; [lo, hi) is the live window, whose
        # integral sums rows lo + 1 .. hi - 1.  Row i is written when sample
        # i arrives, with the trapezoid term of the sample pair (i - 1, i).
        # Terms from row _mid on are also added to the running sum _back.
        # Rows below _mid hold suffix sums instead: row r holds the terms of
        # rows r .. _mid - 1.  The window integral is then row lo + 1 plus
        # _back, and no term is ever subtracted, so rounding from samples
        # that left the window cannot linger.  When the window start passes
        # _mid, the live window is re-summed into suffix sums: once per
        # window length, so an update costs O(1) amortised.
        self._t = np.empty(512)
        self._terms = np.empty((512, 6))  # columns 0:3 v_adm, 3:6 v_h
        self._lo = 0
        self._hi = 0
        self._mid = 0
        self._back = [0.0] * 6
        self._last = None  # (t, six velocities) of the newest sample

    def update(self, t: float, v_adm: np.ndarray, v_h: np.ndarray) -> float:
        t = float(t)
        v = np.asarray(v_adm, dtype=float).tolist()
        v += np.asarray(v_h, dtype=float).tolist()
        cap = self._t.shape[0]
        if self._hi == cap:
            lo = self._lo
            n = self._hi - lo
            if n == cap:
                self._t = np.concatenate([self._t, np.empty(cap)])
                self._terms = np.concatenate([self._terms, np.empty((cap, 6))])
            else:
                self._t[:n] = self._t[lo : self._hi]
                self._terms[:n] = self._terms[lo : self._hi]
                self._lo, self._mid, self._hi = 0, self._mid - lo, n
        i = self._hi
        self._t[i] = t
        if self._last is not None:
            t_prev, v_prev = self._last
            half_dt = 0.5 * (t - t_prev)
            term = [half_dt * (a + b) for a, b in zip(v, v_prev)]
            self._terms[i] = term
            self._back = [s + x for s, x in zip(self._back, term)]
        self._last = (t, v)
        self._hi = i + 1
        cutoff = t - self.params.window_length - 1e-12
        lo = self._lo
        while self._t[lo] < cutoff:
            lo += 1
        self._lo = lo
        if lo >= self._mid:
            rows = self._terms[lo + 1 : self._hi]
            rows[::-1] = np.cumsum(rows[::-1], axis=0)
            self._mid = self._hi
            self._back = [0.0] * 6
        disp = self._back
        if lo + 1 < self._mid:
            disp = [s + x for s, x in zip(self._terms[lo + 1].tolist(), disp)]
        d_adm = math.hypot(*disp[:3])
        d_h = math.hypot(*disp[3:])
        if d_adm < self.params.deadband and d_h < self.params.deadband:
            return self.alpha
        raw = 1.0 - d_adm / (d_h + self.params.epsilon)
        self.alpha = min(1.0, max(0.0, raw))
        return self.alpha


def object_translation(v_adm: np.ndarray, v_h: np.ndarray, alpha: float) -> np.ndarray:
    """Blended translational command v_adm + alpha * v_h."""
    return np.asarray(v_adm, dtype=float) + alpha * np.asarray(v_h, dtype=float)


class IntentionDetector:
    """Streaming detector for torso-led rotation intention.

    While the relative hand-torso yaw magnitude stays above the lower angle
    threshold, the detector tracks how much the hand and torso world yaws have
    each moved since entering that regime.  A sample fires when the relative
    yaw exceeds the upper threshold, the torso has turned more than the hand,
    and the torso yaw rate has settled below the velocity threshold.

    With latching enabled (the default), a fired sample arms an external
    rotation maneuver and the detector stays quiet until the maneuver is
    reported finished AND the relative yaw has dropped back below the lower
    threshold.  With latching disabled every sample reports the raw condition.
    """

    def __init__(self, params: AciParams, latch: bool = True):
        self.params = params
        self.latch = latch
        self._tracking = False
        self._suppressed = False
        self._rotating = False
        self._theta_h_low = 0.0
        self._theta_t_low = 0.0

    def step(
        self,
        theta_h_t: float,
        theta_h_w: float,
        theta_t_w: float,
        torso_yaw_rate: float,
        torso_pose: Pose,
    ) -> tuple[bool, Pose | None]:
        """Feed one sample; returns (fired, torso pose at detection or None)."""
        p = self.params
        above = abs(theta_h_t) > p.lower_angle
        if not above:
            self._tracking = False
            if self._suppressed and not self._rotating:
                self._suppressed = False  # re-armed
            return False, None
        if not self._tracking:
            self._tracking = True
            self._theta_h_low = theta_h_w
            self._theta_t_low = theta_t_w
        delta_h = abs(theta_h_w - self._theta_h_low)
        delta_t = abs(theta_t_w - self._theta_t_low)
        fired = (
            abs(theta_h_t) > p.upper_angle
            and delta_t > delta_h
            and abs(torso_yaw_rate) < p.velocity_threshold
        )
        if not self.latch:
            return fired, torso_pose.copy() if fired else None
        if self._suppressed or self._rotating:
            return False, None
        if fired:
            self._suppressed = True
            self._rotating = True
            return True, torso_pose.copy()
        return False, None

    def rotation_finished(self):
        """Tell the detector the commanded rotation trajectory has completed."""
        self._rotating = False


def desired_rotation_pose(torso_at_detection: Pose, ee_in_torso: Pose) -> Pose:
    """Rotation goal: the initial EE-in-torso transform re-expressed at the
    detected torso pose, so the starting spatial arrangement is preserved."""
    return torso_at_detection.compose(ee_in_torso)


class CubicTrajectory:
    """Point-to-point pose trajectory with zero boundary velocities.

    Timing follows s(tau) = 3 tau^2 - 2 tau^3; position interpolates linearly
    along the chord and orientation along the shortest arc, so the angular
    velocity stays aligned with a fixed rotation vector.
    """

    def __init__(self, start: Pose, goal: Pose, t0: float, duration: float):
        if duration <= 0.0:
            raise ValueError("trajectory duration must be positive")
        self.start = start.copy()
        self.goal = goal.copy()
        self.t0 = float(t0)
        self.duration = float(duration)
        self._delta_p = goal.position - start.position
        rel = quat_multiply(goal.orientation, quat_conjugate(start.orientation))
        self._rotvec = quat_to_rotvec(rel)

    @property
    def t_end(self) -> float:
        return self.t0 + self.duration

    def done(self, t: float) -> bool:
        return t >= self.t_end

    def sample(self, t: float) -> tuple[Pose, Twist]:
        # endpoint comparisons on t itself, so sampling at exactly t0 or
        # t_end lands on the boundary even when the division rounds short
        if t <= self.t0:
            tau = 0.0
        elif t >= self.t_end:
            tau = 1.0
        else:
            tau = min(1.0, max(0.0, (t - self.t0) / self.duration))
        s = tau * tau * (3.0 - 2.0 * tau)
        s_rate = 6.0 * tau * (1.0 - tau) / self.duration
        pos = self.start.position + s * self._delta_p
        q = quat_normalize(
            quat_multiply(quat_from_rotvec(s * self._rotvec), self.start.orientation)
        )
        return Pose(pos, q), Twist(s_rate * self._delta_p, s_rate * self._rotvec)


class ReferenceGenerator:
    """Integrates the commanded EE reference from the controller's twist.

    The emitted twist is the rotation-trajectory twist while a rotation is
    active (zeta = 1) and the translational command otherwise; the reference
    pose is its running integral, started at the initial EE pose.
    """

    def __init__(self, initial_pose: Pose):
        self.x_d = initial_pose.copy()

    def step(
        self, zeta: int, xdot_rot: Twist | None, v_trans: np.ndarray, dt: float
    ) -> tuple[Pose, Twist]:
        if zeta and xdot_rot is not None:
            xdot_d = xdot_rot
        else:
            xdot_d = Twist(v_trans, np.zeros(3))
        self.x_d = integrate_pose(self.x_d, xdot_d, dt)
        return self.x_d, xdot_d


@dataclass
class AciOutput:
    """Per-step controller outputs consumed by the robot and the logger."""

    x_d: Pose
    xdot_d: Twist
    v_adm: np.ndarray
    v_trans: np.ndarray
    alpha: float
    zeta: int


class AciController:
    """Composes admittance, adaptive blending, and rotation handling per tick.

    The mode picks the translational command once per tick: the admittance
    velocity, the hand velocity, or (full ACI) their blend.  The rotation unit
    is active only in full ACI mode; the other variants keep zeta at zero.
    """

    def __init__(
        self,
        params: AciParams,
        admittance: AdmittanceParams,
        mode: Mode,
        initial_ee_pose: Pose,
        initial_torso_pose: Pose,
    ):
        self.params = params
        self.admittance = admittance
        self.mode = mode
        self.index = AdaptiveIndex(params)
        self.detector = IntentionDetector(params)
        self.reference = ReferenceGenerator(initial_ee_pose)
        self.ee_in_torso = initial_torso_pose.inverse().compose(initial_ee_pose)
        self.v_adm = np.zeros(3)
        self.trajectory: CubicTrajectory | None = None

    def step(self, t: float, force: np.ndarray, human, dt: float) -> AciOutput:
        """Advance one control tick from the measured force and human state."""
        self.v_adm = admittance_step(force, self.v_adm, dt, self.admittance)
        v_h = human.hand_twist.linear
        alpha = self.index.update(t, self.v_adm, v_h)
        if self.mode is Mode.ADMITTANCE:
            v_trans = self.v_adm
        elif self.mode is Mode.TELEOP:
            v_trans = v_h
        else:
            v_trans = object_translation(self.v_adm, v_h, alpha)

        zeta = 0
        xdot_rot = None
        if self.mode is Mode.ACI:
            fired, torso_at_detection = self.detector.step(
                human.theta_h_t,
                human.theta_h_w,
                human.theta_t_w,
                human.thetadot_t_w,
                human.torso_pose,
            )
            if fired and self.trajectory is None:
                goal = desired_rotation_pose(torso_at_detection, self.ee_in_torso)
                start = self.reference.x_d
                dyaw = quat_to_rotvec(
                    quat_multiply(goal.orientation, quat_conjugate(start.orientation))
                )[2]
                duration = max(
                    self.params.min_rotation_duration,
                    abs(dyaw) / self.params.rotation_rate,
                )
                self.trajectory = CubicTrajectory(start, goal, t, duration)
            if self.trajectory is not None:
                if self.trajectory.done(t):
                    self.trajectory = None
                    self.detector.rotation_finished()
                else:
                    zeta = 1
                    _, xdot_rot = self.trajectory.sample(t)

        x_d, xdot_d = self.reference.step(zeta, xdot_rot, v_trans, dt)
        return AciOutput(x_d, xdot_d, self.v_adm, v_trans, alpha, zeta)
