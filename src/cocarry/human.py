"""Scripted human partner: impedance-held hand, kinematic torso yaw.

The hand follows a scripted target through a mass-spring-damper law and feels
the object reaction force, so it yields realistically when the coupling loads
up.  Torso yaw follows its script exactly; its rate is produced the way a
motion-capture pipeline would produce it, by finite differencing the angle
and low-pass filtering the result.  Emitted measurements can be perturbed by
configured noise, and hand velocity below a configurable deadband reads as
zero, mimicking the noise floor of a tracking system: velocities that small
are indistinguishable from standing still.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import _norm, _yaw_quat


@dataclass
class HumanParams:
    hand_mass: float = 2.0
    hand_stiffness: float = 600.0
    hand_damping: float = 40.0
    velocity_deadband: float = 0.02
    yaw_filter_cutoff: float = 5.0
    noise: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.hand_mass <= 0.0:
            raise ValueError("hand mass must be positive")
        if self.hand_stiffness < 0.0 or self.hand_damping < 0.0:
            raise ValueError("hand stiffness and damping must be non-negative")
        if self.yaw_filter_cutoff <= 0.0:
            raise ValueError("yaw filter cutoff must be positive")


@dataclass
class HumanState:
    """Measured snapshot of the partner, as the robot-side pipeline sees it.

    Positions and the hand's linear velocity are world-frame float triples;
    the hand orientation is the (w, x, y, z) float quaternion of its yaw
    theta_h_w, and the torso's orientation is its yaw theta_t_w.
    """

    hand_position: tuple
    hand_orientation: tuple
    hand_velocity: tuple
    torso_position: tuple
    theta_h_w: float
    theta_t_w: float
    theta_h_t: float
    thetadot_t_w: float


@dataclass
class Hold:
    duration: float


@dataclass
class Translate:
    offset: np.ndarray
    duration: float

    def __post_init__(self):
        self.offset = np.asarray(self.offset, dtype=float).reshape(3)


@dataclass
class TorsoYaw:
    target: float
    duration: float


@dataclass
class HandYaw:
    target: float
    duration: float


def _cubic(tau: float) -> tuple[float, float]:
    """Smoothstep timing s(tau) and its derivative ds/dtau."""
    tau = min(1.0, max(0.0, tau))
    return tau * tau * (3.0 - 2.0 * tau), 6.0 * tau * (1.0 - tau)


_ZERO3 = (0.0, 0.0, 0.0)


@dataclass
class ScriptTarget:
    position: np.ndarray
    velocity: np.ndarray
    torso_yaw: float
    torso_yaw_rate: float
    hand_yaw: float


class MotionScript:
    """Piecewise cubic schedule for the hand target and the yaw channels.

    Translations move the hand target; TorsoYaw turns only the torso while
    the hand grip stays put in the world, and HandYaw turns only the hand.
    Each segment starts where the previous one ended.
    """

    def __init__(self, segments, hand0, torso_yaw0: float = 0.0, hand_yaw0=None):
        self.segments = list(segments)
        for seg in self.segments:
            if seg.duration <= 0.0:
                raise ValueError("script segment durations must be positive")
        self.hand0 = np.asarray(hand0, dtype=float).reshape(3)
        self.torso_yaw0 = float(torso_yaw0)
        self.hand_yaw0 = float(torso_yaw0 if hand_yaw0 is None else hand_yaw0)
        # (start time, hand target triple, torso yaw, hand yaw) per segment.
        self._starts = []
        t = 0.0
        pos = tuple(self.hand0.tolist())
        tyaw = self.torso_yaw0
        hyaw = self.hand_yaw0
        for seg in self.segments:
            self._starts.append((t, pos, tyaw, hyaw))
            t += seg.duration
            if isinstance(seg, Translate):
                pos = tuple([p + o for p, o in zip(pos, seg.offset.tolist())])
            elif isinstance(seg, TorsoYaw):
                tyaw = seg.target
            elif isinstance(seg, HandYaw):
                hyaw = seg.target
        self._end = (t, pos, tyaw, hyaw)

    @property
    def duration(self) -> float:
        return self._end[0]

    def first_motion_time(self) -> float:
        """Start time of the first segment that commands any motion."""
        for seg, (t0, _, _, _) in zip(self.segments, self._starts):
            if not isinstance(seg, Hold):
                return t0
        return 0.0

    def motion_spans(self) -> list:
        """(start, end) of every Translate segment, in order."""
        return [
            (t0, t0 + seg.duration)
            for seg, (t0, _, _, _) in zip(self.segments, self._starts)
            if isinstance(seg, Translate)
        ]

    def target(self, t: float) -> ScriptTarget:
        pos, vel, tyaw, tyaw_rate, hyaw = self.sample(t)
        return ScriptTarget(np.array(pos), np.array(vel), tyaw, tyaw_rate, hyaw)

    def sample(self, t: float) -> tuple:
        """The target at t as (position, velocity, torso yaw, torso yaw rate,
        hand yaw), with position and velocity float triples."""
        if t >= self.duration:
            _, pos, tyaw, hyaw = self._end
            return pos, _ZERO3, tyaw, 0.0, hyaw
        for seg, (t0, pos, tyaw, hyaw) in zip(self.segments, self._starts):
            if t < t0 + seg.duration:
                tau = (t - t0) / seg.duration
                s, s_rate = _cubic(tau)
                s_rate /= seg.duration
                if isinstance(seg, Translate):
                    (px, py, pz), (ox, oy, oz) = pos, seg.offset.tolist()
                    return (
                        (px + s * ox, py + s * oy, pz + s * oz),
                        (s_rate * ox, s_rate * oy, s_rate * oz),
                        tyaw,
                        0.0,
                        hyaw,
                    )
                if isinstance(seg, TorsoYaw):
                    delta = seg.target - tyaw
                    return pos, _ZERO3, tyaw + s * delta, s_rate * delta, hyaw
                if isinstance(seg, HandYaw):
                    delta = seg.target - hyaw
                    return pos, _ZERO3, tyaw, 0.0, hyaw + s * delta
                return pos, _ZERO3, tyaw, 0.0, hyaw
        raise AssertionError("unreachable")


class SimulatedHuman:
    """Impedance hand plus kinematic torso, stepped at the simulation rate.

    The torso translates with the scripted hand target (the partner walks
    with the object) and yaws kinematically; the hand obeys
    m a = K (x_des - x) + D (v_des - v) + F_obj with semi-implicit Euler
    integration, which keeps the stiff contact loop stable at 1 kHz.
    """

    def __init__(
        self,
        params: HumanParams,
        script: MotionScript,
        torso_position,
        seed: int = 0,
    ):
        self.params = params
        self.script = script
        self.torso_position0 = tuple(
            np.asarray(torso_position, dtype=float).reshape(3).tolist()
        )
        self.rng = np.random.default_rng(seed)
        # Time is the step count times dt, never a running sum of dt.
        self.steps = 0
        self.t = 0.0
        # The hand state as float triples.
        self._hand0 = tuple(script.hand0.tolist())
        self.hand_position = self._hand0
        self.hand_velocity = _ZERO3
        self._prev_torso_yaw = script.torso_yaw0
        self._torso_rate_filt = 0.0

    def step(self, force_on_hand, dt: float) -> HumanState:
        """Advance one tick under the object force on the hand (3 floats)."""
        if len(force_on_hand) != 3:
            raise ValueError("force on the hand must have 3 components")
        if not all(map(math.isfinite, force_on_hand)):
            raise ValueError("non-finite force applied to the human hand")
        p = self.params
        self.steps += 1
        self.t = self.steps * dt
        target_pos, target_vel, torso_yaw, _, hand_yaw = self.script.sample(self.t)

        # Component-wise float arithmetic in the same order as the vector form.
        k, d, m = p.hand_stiffness, p.hand_damping, p.hand_mass
        vel = []
        pos = []
        for tp, tv, x, v, fc in zip(
            target_pos, target_vel, self.hand_position, self.hand_velocity, force_on_hand
        ):
            v = v + (k * (tp - x) + d * (tv - v) + fc) / m * dt
            vel.append(v)
            pos.append(x + v * dt)
        self.hand_velocity = tuple(vel)
        self.hand_position = tuple(pos)

        # Torso yaw is kinematic; its measured rate goes through the same
        # finite-difference + first-order low-pass path a mocap stack uses.
        raw_rate = (torso_yaw - self._prev_torso_yaw) / dt
        self._prev_torso_yaw = torso_yaw
        tau = 1.0 / (2.0 * math.pi * p.yaw_filter_cutoff)
        beta = dt / (tau + dt)
        self._torso_rate_filt += beta * (raw_rate - self._torso_rate_filt)

        return self._measure(target_pos, torso_yaw, hand_yaw)

    def _jitter(self, key: str, n: int = 0):
        """Measurement noise for one channel, a float or (n > 0) a list of n;
        exactly zero when unconfigured."""
        std = self.params.noise.get(key, 0.0)
        if std <= 0.0:
            return [0.0] * n if n else 0.0
        if not n:
            return float(self.rng.normal(0.0, std))
        return self.rng.normal(0.0, std, size=n).tolist()

    def _measure(self, target_pos, torso_yaw: float, hand_yaw: float) -> HumanState:
        # Zero jitter is added too: x + 0.0 turns a -0.0 into 0.0, and the
        # measured values keep those bits.
        jitter = self._jitter("hand_position", 3)
        hand_pos = tuple([x + j for x, j in zip(self.hand_position, jitter)])
        jitter = self._jitter("hand_velocity", 3)
        hand_vel = tuple([v + j for v, j in zip(self.hand_velocity, jitter)])
        if _norm(np.array(hand_vel)) < self.params.velocity_deadband:
            hand_vel = _ZERO3
        theta_t = torso_yaw + self._jitter("torso_yaw")
        theta_h = hand_yaw + self._jitter("hand_yaw")
        torso_pos = tuple([
            t0 + (tp - h0)
            for t0, tp, h0 in zip(self.torso_position0, target_pos, self._hand0)
        ])
        return HumanState(
            hand_position=hand_pos,
            hand_orientation=_yaw_quat(theta_h),
            hand_velocity=hand_vel,
            torso_position=torso_pos,
            theta_h_w=theta_h,
            theta_t_w=theta_t,
            theta_h_t=theta_h - theta_t,
            thetadot_t_w=self._torso_rate_filt,
        )
