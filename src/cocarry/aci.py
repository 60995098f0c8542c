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

The controller integrates its own reference pose x_d from the twist it
chooses each tick.  Inside the tick x_d is 7 floats (position, then the
(w, x, y, z) quaternion); a `Pose` is built only on the tick a rotation
fires, for its goal and the trajectory start.
"""

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from ._rules import FINITE, NON_NEGATIVE, POSITIVE, check, ruled
from .geometry import (
    Pose,
    quat_from_yaw,
    quat_multiply,
    quat_to_rotvec,
    quat_conjugate,
    integrate_pose,
)


class Mode(enum.Enum):
    """Controller variants: full interface, pure admittance, pure teleoperation."""

    ACI = "aci"
    ADMITTANCE = "admittance"
    TELEOP = "teleop"


@dataclass(frozen=True)
class AdmittanceParams:
    """Diagonal virtual mass and damping of the translational admittance."""

    mass: np.ndarray = ruled(POSITIVE, (6.0, 6.0, 6.0), shape=3)
    damping: np.ndarray = ruled(POSITIVE, (30.0, 30.0, 30.0), shape=3)
    _damping: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check(self)
        object.__setattr__(self, "_damping", tuple(self.damping.tolist()))

    def decay(self, dt: float) -> list:
        """Per-axis zero-order-hold decay exp(-D/M dt) of one step of dt."""
        return np.exp(
            [-(d / m) * dt for d, m in zip(self._damping, self.mass.tolist())]
        ).tolist()


@dataclass(frozen=True)
class AciParams:
    """Window, guard, and threshold settings of the adaptive interface."""

    window_length: float = ruled(POSITIVE, 0.25)
    epsilon: float = ruled(POSITIVE, 1e-4)
    deadband: float = ruled(NON_NEGATIVE, 1e-4)
    lower_angle: float = ruled(FINITE, 0.2)
    upper_angle: float = ruled(FINITE, 0.4)
    velocity_threshold: float = ruled(POSITIVE, 0.05)
    rotation_rate: float = ruled(POSITIVE, 0.3)
    min_rotation_duration: float = ruled(POSITIVE, 2.0)

    def __post_init__(self):
        check(self)
        if not 0.0 < self.lower_angle < self.upper_angle:
            raise ValueError("angle thresholds must satisfy 0 < lower < upper")


def admittance_step(force, v_prev, decay, params: AdmittanceParams) -> tuple:
    """Advance the admittance velocity one step under a constant force.

    Force and velocities are float triples, and `decay` is
    `params.decay(dt)` for the step length dt.  Each axis is the first-order
    system M vdot + D v = F discretized exactly under a zero-order hold, so
    the update is stable for any dt and matches the continuous response at
    the sample instants.
    """
    if len(force) != 3 or len(v_prev) != 3:
        raise ValueError("admittance force and velocity must have 3 components")
    fx, fy, fz = force
    if not (math.isfinite(fx) and math.isfinite(fy) and math.isfinite(fz)):
        raise ValueError("non-finite force input to admittance (sensor fault?)")
    ex, ey, ez = decay
    vx, vy, vz = v_prev
    dx, dy, dz = params._damping
    return (
        ex * vx + (1.0 - ex) * fx / dx,
        ey * vy + (1.0 - ey) * fy / dy,
        ez * vz + (1.0 - ez) * fz / dz,
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
        # The window's sample times are _times; between each two neighbours
        # lies one trapezoid term of six floats (0:3 v_adm, 3:6 v_h), older
        # terms first.  The older terms are held as suffix sums in _suffix:
        # entry j sums the older terms j .. end.  The newer terms are held
        # as they came in _newer, and their running sum is _back.  The
        # window integral is then _suffix[0] plus _back, and no term is ever
        # subtracted, so rounding from samples that left the window cannot
        # linger.  When a newer term leaves the window, the newer terms
        # still in it are re-summed into suffix sums, from the newest back:
        # once per window length, so an update costs O(1) amortised.  The
        # newest sample, each term and _back are 6-float tuples, formed per
        # component.
        self._times = deque()
        self._suffix = deque()
        self._newer = []
        self._back = _ZERO6
        self._last = None  # the six velocities of the newest sample

    def update(self, t: float, v_adm, v_h) -> float:
        """Add the sample of both velocity triples at t; returns alpha."""
        t = float(t)
        ax, ay, az = v_adm
        hx, hy, hz = v_h
        times = self._times
        if times:
            half_dt = 0.5 * (t - times[-1])
            lax, lay, laz, lhx, lhy, lhz = self._last
            term = (
                half_dt * (ax + lax),
                half_dt * (ay + lay),
                half_dt * (az + laz),
                half_dt * (hx + lhx),
                half_dt * (hy + lhy),
                half_dt * (hz + lhz),
            )
            self._newer.append(term)
            b0, b1, b2, b3, b4, b5 = self._back
            t0, t1, t2, t3, t4, t5 = term
            self._back = (b0 + t0, b1 + t1, b2 + t2, b3 + t3, b4 + t4, b5 + t5)
        self._last = (ax, ay, az, hx, hy, hz)
        times.append(t)
        cutoff = t - self.params.window_length - 1e-12
        suffix = self._suffix
        left = 0  # newer terms that left the window
        while times[0] < cutoff:
            times.popleft()
            if suffix:
                suffix.popleft()
            else:
                left += 1
        if left:
            suffix.extend(accumulate(reversed(self._newer[left:]), _add6))
            suffix.reverse()
            self._newer = []
            self._back = _ZERO6
        d0, d1, d2, d3, d4, d5 = self._back
        if suffix:
            s0, s1, s2, s3, s4, s5 = suffix[0]
            d0, d1, d2, d3, d4, d5 = s0 + d0, s1 + d1, s2 + d2, s3 + d3, s4 + d4, s5 + d5
        d_adm = math.hypot(d0, d1, d2)
        d_h = math.hypot(d3, d4, d5)
        if d_adm < self.params.deadband and d_h < self.params.deadband:
            return self.alpha
        raw = 1.0 - d_adm / (d_h + self.params.epsilon)
        self.alpha = min(1.0, max(0.0, raw))
        return self.alpha


_ZERO6 = (0.0,) * 6


def _add6(s, x) -> list:
    """Elementwise s + x of two six-float window sums."""
    return [a + b for a, b in zip(s, x)]


def object_translation(v_adm, v_h, alpha: float) -> tuple:
    """Blended translational command v_adm + alpha * v_h, as 3 floats."""
    ax, ay, az = v_adm
    hx, hy, hz = v_h
    return (ax + alpha * hx, ay + alpha * hy, az + alpha * hz)


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
        torso_position,
    ) -> tuple[bool, Pose | None]:
        """Feed one sample; returns (fired, torso pose at detection or None).

        The torso pose is built only when the detector fires, from the torso
        position triple and the torso yaw theta_t_w.
        """
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
            return fired, _torso_pose(torso_position, theta_t_w) if fired else None
        if self._suppressed or self._rotating:
            return False, None
        if fired:
            self._suppressed = True
            self._rotating = True
            return True, _torso_pose(torso_position, theta_t_w)
        return False, None

    def rotation_finished(self):
        """Tell the detector the commanded rotation trajectory has completed."""
        self._rotating = False


def _torso_pose(position, yaw: float) -> Pose:
    return Pose(position, quat_from_yaw(yaw))


def desired_rotation_pose(torso_at_detection: Pose, ee_in_torso: Pose) -> Pose:
    """Rotation goal: the initial EE-in-torso transform re-expressed at the
    detected torso pose, so the starting spatial arrangement is preserved."""
    return torso_at_detection.compose(ee_in_torso)


class CubicTrajectory:
    """Point-to-point pose trajectory with zero boundary velocities.

    Timing follows s(tau) = 3 tau^2 - 2 tau^3; position interpolates linearly
    along the chord and orientation along the shortest arc, so the angular
    velocity stays aligned with a fixed rotation vector.  `direction` holds
    both as 6 floats (position change, then rotation vector), and the twist
    at any time is ds/dt times it.
    """

    def __init__(self, start: Pose, goal: Pose, t0: float, duration: float):
        if duration <= 0.0:
            raise ValueError("trajectory duration must be positive")
        self.t0 = float(t0)
        self.duration = float(duration)
        rel = quat_multiply(
            goal.orientation.tolist(), quat_conjugate(start.orientation).tolist()
        )
        delta_p = (goal.position - start.position).tolist()
        self.direction = tuple(delta_p + quat_to_rotvec(rel))

    @property
    def t_end(self) -> float:
        return self.t0 + self.duration

    def done(self, t: float) -> bool:
        return t >= self.t_end

    def _tau(self, t: float) -> float:
        # endpoint comparisons on t itself, so sampling at exactly t0 or
        # t_end lands on the boundary even when the division rounds short
        if t <= self.t0:
            return 0.0
        if t >= self.t_end:
            return 1.0
        return min(1.0, max(0.0, (t - self.t0) / self.duration))

    def twist(self, t: float) -> tuple:
        """The twist at t as 6 floats (linear, then angular)."""
        tau = self._tau(t)
        s_rate = 6.0 * tau * (1.0 - tau) / self.duration
        return tuple([s_rate * d for d in self.direction])


@dataclass
class AciOutput:
    """Per-step controller outputs consumed by the robot and the logger.

    The reference pose x_d is 7 floats (position, then the (w, x, y, z)
    quaternion), the reference twist 6 floats (linear, then angular) and the
    velocity channels float triples.
    """

    x_d: list
    xdot_d: tuple
    v_adm: tuple
    v_trans: tuple
    alpha: float
    zeta: int


class AciController:
    """Composes admittance, adaptive blending, and rotation handling per tick.

    The mode picks the translational command once per tick: the admittance
    velocity, the hand velocity, or (full ACI) their blend.  The rotation unit
    is active only in full ACI mode; the other variants keep zeta at zero.
    While a rotation runs (zeta = 1) the reference twist is the trajectory's,
    otherwise it is the translational command with no rotation.  The
    reference pose `x_d` (7 floats) is the running integral of the chosen
    twist, started at the initial EE pose.  Each tick lasts `dt`, and its
    time is the caller's.
    """

    def __init__(
        self,
        params: AciParams,
        admittance: AdmittanceParams,
        mode: Mode,
        initial_ee_pose: Pose,
        initial_torso_pose: Pose,
        dt: float,
    ):
        self.params = params
        self.admittance = admittance
        self.mode = mode
        self.dt = dt
        self._decay = admittance.decay(dt)
        self.index = AdaptiveIndex(params)
        self.detector = IntentionDetector(params)
        ee0 = initial_ee_pose
        self.x_d = ee0.position.tolist() + ee0.orientation.tolist()
        self.ee_in_torso = initial_torso_pose.inverse().compose(ee0)
        self.v_adm = (0.0, 0.0, 0.0)
        self.trajectory: CubicTrajectory | None = None

    def step(self, t: float, force, human) -> AciOutput:
        """Advance to time t from the measured force (3 floats) and the human state."""
        self.v_adm = admittance_step(force, self.v_adm, self._decay, self.admittance)
        v_h = human.hand_velocity
        alpha = self.index.update(t, self.v_adm, v_h)
        if self.mode is Mode.ADMITTANCE:
            v_trans = self.v_adm
        elif self.mode is Mode.TELEOP:
            v_trans = v_h
        else:
            v_trans = object_translation(self.v_adm, v_h, alpha)

        zeta = 0
        vx, vy, vz = v_trans
        xdot_d = (vx, vy, vz, 0.0, 0.0, 0.0)
        if self.mode is Mode.ACI:
            fired, torso_at_detection = self.detector.step(
                human.theta_h_t,
                human.theta_h_w,
                human.theta_t_w,
                human.thetadot_t_w,
                human.torso_position,
            )
            if fired and self.trajectory is None:
                goal = desired_rotation_pose(torso_at_detection, self.ee_in_torso)
                # at least the minimum duration, longer if the yaw change
                # (the z component of the rotation vector) needs it at the
                # rotation rate
                traj = CubicTrajectory(
                    Pose(self.x_d[:3], self.x_d[3:]),
                    goal,
                    t,
                    self.params.min_rotation_duration,
                )
                traj.duration = max(
                    traj.duration, abs(traj.direction[5]) / self.params.rotation_rate
                )
                self.trajectory = traj
            if self.trajectory is not None:
                if self.trajectory.done(t):
                    self.trajectory = None
                    self.detector.rotation_finished()
                else:
                    zeta = 1
                    xdot_d = self.trajectory.twist(t)

        self.x_d = integrate_pose(self.x_d, xdot_d, self.dt)
        return AciOutput(self.x_d, xdot_d, self.v_adm, v_trans, alpha, zeta)
