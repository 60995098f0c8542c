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
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ._rules import FINITE, NON_NEGATIVE, POSITIVE, check, complaint, problems, ruled
from ._rules import compared_by_bytes, freeze, read_only
from .geometry import quat_from_yaw

# Standard normal draws taken from the generator at once for the measurement
# noise; the block is refilled when a tick needs more than it has left.
_NOISE_BLOCK = 256

# The measured channels that take noise, each with a standard deviation.
NOISE_CHANNELS = ("hand_position", "hand_velocity", "torso_yaw", "hand_yaw")


@dataclass(frozen=True)
class HumanParams:
    hand_mass: float = ruled(POSITIVE, 2.0)
    hand_stiffness: float = ruled(NON_NEGATIVE, 600.0)
    hand_damping: float = ruled(NON_NEGATIVE, 40.0)
    velocity_deadband: float = ruled(NON_NEGATIVE, 0.02)
    yaw_filter_cutoff: float = ruled(POSITIVE, 5.0)
    noise: Mapping = ruled(NON_NEGATIVE, default_factory=dict)  # std per channel

    def __post_init__(self):
        object.__setattr__(self, "noise", MappingProxyType(dict(self.noise)))
        check(self)
        for channel in self.noise:
            if channel not in NOISE_CHANNELS:
                raise ValueError(
                    f"unknown noise channel {channel!r}; expected one of {NOISE_CHANNELS}"
                )


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


@dataclass(frozen=True)
class Hold:
    duration: float = ruled(POSITIVE)


@compared_by_bytes
@dataclass(frozen=True)
class Translate:
    offset: np.ndarray = ruled(FINITE, shape=3)
    duration: float = ruled(POSITIVE)

    def __post_init__(self):
        freeze(self)  # the script applies the rules, naming the segment


@dataclass(frozen=True)
class TorsoYaw:
    target: float = ruled(FINITE)
    duration: float = ruled(POSITIVE)


@dataclass(frozen=True)
class HandYaw:
    target: float = ruled(FINITE)
    duration: float = ruled(POSITIVE)


def _cubic(tau: float) -> tuple[float, float]:
    """Smoothstep timing s(tau) and its derivative ds/dtau."""
    tau = min(1.0, max(0.0, tau))
    return tau * tau * (3.0 - 2.0 * tau), 6.0 * tau * (1.0 - tau)


_ZERO3 = (0.0, 0.0, 0.0)


@dataclass(eq=False)
class ScriptTarget:
    """The script's target at one instant; per-tick state, so `==`
    compares by identity."""

    position: np.ndarray
    velocity: np.ndarray
    torso_yaw: float
    torso_yaw_rate: float
    hand_yaw: float


class MotionScript:
    """Piecewise cubic schedule for the hand target and the yaw channels.

    Translations move the hand target; TorsoYaw turns only the torso while
    the hand grip stays put in the world, and HandYaw turns only the hand.
    Each segment starts where the previous one ended.  Every value is finite.
    The script applies its segments' field rules, so that a message names
    the segment's index and kind.
    """

    def __init__(self, segments, hand0, torso_yaw0: float = 0.0, hand_yaw0=None):
        self.segments = tuple(segments)
        self.hand0 = read_only(hand0, 3, "hand0")
        self.torso_yaw0 = float(torso_yaw0)
        self.hand_yaw0 = float(torso_yaw0 if hand_yaw0 is None else hand_yaw0)
        start = {n: getattr(self, n) for n in ("hand0", "torso_yaw0", "hand_yaw0")}
        found = [f"script {n} {c}" for n, v in start.items() if (c := complaint(FINITE, v))]
        for i, seg in enumerate(self.segments):
            kind = f"{i} ({type(seg).__name__})"
            found += [f"script segment {kind}: {c}" for c in problems(seg)]
        if found:
            raise ValueError("; ".join(found))
        # (start time, hand target triple, torso yaw, hand yaw) per segment.
        starts = []
        t = 0.0
        pos = tuple(self.hand0.tolist())
        tyaw = self.torso_yaw0
        hyaw = self.hand_yaw0
        for seg in self.segments:
            starts.append((t, pos, tyaw, hyaw))
            t += seg.duration
            if isinstance(seg, Translate):
                pos = tuple([p + o for p, o in zip(pos, seg.offset.tolist())])
            elif isinstance(seg, TorsoYaw):
                tyaw = seg.target
            elif isinstance(seg, HandYaw):
                hyaw = seg.target
        self._starts = tuple(starts)
        self._end = (t, pos, tyaw, hyaw)

    def _key(self) -> tuple:
        return self.segments, self.hand0.tobytes(), self.torso_yaw0, self.hand_yaw0

    def __eq__(self, other):
        """Scripts compare by their segments and start, hand0 by its bytes."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def duration(self) -> float:
        return self._end[0]

    def first_motion_time(self) -> float:
        """Start time of the first segment that commands any motion."""
        for seg, (t0, _, _, _) in zip(self.segments, self._starts):
            if not isinstance(seg, Hold):
                return t0
        return 0.0

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
        # Only a t no segment holds gets here: nan, or t < 0 with no segments.
        raise ValueError(f"script has no target at t={t}")


class SimulatedHuman:
    """Impedance hand plus kinematic torso, stepped at the simulation rate.

    The torso translates with the scripted hand target (the partner walks
    with the object) and yaws kinematically; the hand obeys
    m a = K (x_des - x) + D (v_des - v) + F_obj with semi-implicit Euler
    integration, which keeps the stiff contact loop stable at 1 kHz.  Each
    step lasts `dt`, and its time is the caller's.
    """

    def __init__(self, params: HumanParams, script: MotionScript, torso_position, dt, seed=0):
        self.params = params
        self.script = script
        self.dt = dt
        tau = 1.0 / (2.0 * math.pi * params.yaw_filter_cutoff)
        self._beta = dt / (tau + dt)
        self.torso_position0 = tuple(
            np.asarray(torso_position, dtype=float).reshape(3).tolist()
        )
        self.rng = np.random.default_rng(seed)
        p, v, t, h = [params.noise.get(channel, 0.0) for channel in NOISE_CHANNELS]
        self._stds = (p, p, p, v, v, v, t, h)  # one per value `_jitter` returns
        # Drawn from `rng` when first needed, so a generator swapped in
        # before the first step is the one read.
        self._normals: list = []
        self._next_normal = 0
        # The hand state as float triples.
        self._hand0 = tuple(script.hand0.tolist())
        self.hand_position = self._hand0
        self.hand_velocity = _ZERO3
        self._prev_torso_yaw = script.torso_yaw0
        self._torso_rate_filt = 0.0

    def step(self, t: float, force_on_hand) -> HumanState:
        """Advance to time t under the object force on the hand (3 floats)."""
        if len(force_on_hand) != 3:
            raise ValueError("force on the hand must have 3 components")
        if not all(map(math.isfinite, force_on_hand)):
            raise ValueError("non-finite force applied to the human hand")
        p = self.params
        dt = self.dt
        target_pos, target_vel, torso_yaw, _, hand_yaw = self.script.sample(t)

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
        self._torso_rate_filt += self._beta * (raw_rate - self._torso_rate_filt)

        return self._measure(target_pos, torso_yaw, hand_yaw)

    def _jitter(self) -> list:
        """The tick's measurement noise, 8 floats: 3 for the hand position,
        3 for the hand velocity, 1 each for the torso and hand yaw; exactly
        zero for an unconfigured channel, which draws nothing.

        Each value is 0.0 + std * z for the next standard normal z of the
        generator, in that order, which is how `rng.normal(0.0, std)` forms
        it, so the values are bitwise those of one `rng.normal` call per
        configured channel and tick.
        """
        stds = self._stds
        z, i = self._normals, self._next_normal
        if i + len(stds) > len(z) and any(stds):
            z = z[i:] + self.rng.standard_normal(_NOISE_BLOCK).tolist()
            self._normals, i = z, 0
        jitter = []
        for std in stds:
            if std > 0.0:
                jitter.append(0.0 + std * z[i])
                i += 1
            else:
                jitter.append(0.0)
        self._next_normal = i
        return jitter

    def _measure(self, target_pos, torso_yaw: float, hand_yaw: float) -> HumanState:
        # Zero jitter is added too: x + 0.0 turns a -0.0 into 0.0, and the
        # measured values keep those bits.
        jx, jy, jz, jvx, jvy, jvz, j_torso, j_hand = self._jitter()
        x, y, z = self.hand_position
        hand_pos = (x + jx, y + jy, z + jz)
        vx, vy, vz = self.hand_velocity
        hand_vel = (vx + jvx, vy + jvy, vz + jvz)
        if math.hypot(*hand_vel) < self.params.velocity_deadband:
            hand_vel = _ZERO3
        theta_t = torso_yaw + j_torso
        theta_h = hand_yaw + j_hand
        torso_pos = tuple([
            t0 + (tp - h0)
            for t0, tp, h0 in zip(self.torso_position0, target_pos, self._hand0)
        ])
        return HumanState(
            hand_position=hand_pos,
            hand_orientation=quat_from_yaw(theta_h),
            hand_velocity=hand_vel,
            torso_position=torso_pos,
            theta_h_w=theta_h,
            theta_t_w=theta_t,
            theta_h_t=theta_h - theta_t,
            thetadot_t_w=self._torso_rate_filt,
        )
