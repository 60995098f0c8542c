"""Quasi-static coupling models for the carried object.

The object is reduced to the grasp-to-grasp interaction between the human
hand and the robot end effector.  Deviation of that relative displacement
from a rest offset is split into an axial part (along the rest direction)
and a lateral part, each with its own stiffness; the axial channel is
asymmetric between tension and compression and can carry slack.  A damping
term acts on the relative velocity.  Forces obey action-reaction and the
model stores no energy of its own beyond the elastic deflection.

The rest offset is interpreted in the yaw frame of the end effector, so an
intentional reorientation of the robot re-seats the coupling geometry; in
translation-only scenarios this is identical to a world-frame offset.
"""

import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from ._rules import FINITE, NON_NEGATIVE, check, compared_by_bytes, ruled
from .geometry import yaw_from_quat


@compared_by_bytes
@dataclass(frozen=True)
class ObjectModel:
    """Anisotropic spring-damper between the hand and the end effector.

    rest_vector is the nominal hand-to-EE offset, expressed in the EE yaw
    frame at rest (ref_yaw).  slack_length is the axial extension below which
    tension does not engage.  The coupling reads the rest vector as the float
    triple `_rest`, formed once from the field.
    """

    rest_vector: np.ndarray = ruled(FINITE, (0.0, 0.0, 0.0), shape=3)
    axial_stiffness_tension: float = ruled(NON_NEGATIVE, 0.0)
    axial_stiffness_compression: float = ruled(NON_NEGATIVE, 0.0)
    lateral_stiffness: float = ruled(NON_NEGATIVE, 0.0)
    damping: float = ruled(NON_NEGATIVE, 0.0)
    slack_length: float = ruled(NON_NEGATIVE, 0.0)
    ref_yaw: float = ruled(FINITE, 0.0)
    label: str = ""
    _rest: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check(self)
        object.__setattr__(self, "_rest", tuple(self.rest_vector.tolist()))

    def with_rest(self, rest_vector: np.ndarray, ref_yaw: float = 0.0) -> "ObjectModel":
        """Copy of the model with the rest geometry bound to a scenario."""
        return replace(self, rest_vector=rest_vector, ref_yaw=ref_yaw)


def object_wrench(
    model: ObjectModel,
    hand_position,
    hand_velocity,
    ee_pose,
    ee_velocity,
) -> tuple:
    """Coupling force on the EE, as 3 floats, for the current states.

    Hand position and the linear velocities of hand and EE are float triples,
    and the EE pose is 7 floats (position, then the (w, x, y, z) quaternion).
    The hand feels the negative of the returned force.  Axial force is
    piecewise linear in the axial deviation: tension engages only beyond the
    slack length, compression for negative deviation, and the force is
    continuous across both breakpoints.  There is no torque: the grasp is
    treated as a point coupling.
    """
    # The rest vector turned by the EE's yaw change about the vertical axis.
    ex, ey, ez, *ee_q = ee_pose
    yaw = yaw_from_quat(ee_q) - model.ref_yaw
    c, sn = math.cos(yaw), math.sin(yaw)
    vx, vy, rz = model._rest
    rx, ry = c * vx - sn * vy, sn * vx + c * vy
    rest_len = math.hypot(rx, ry, rz)
    hx, hy, hz = hand_position
    dx, dy, dz = (ex - hx) - rx, (ey - hy) - ry, (ez - hz) - rz
    fx = fy = fz = 0.0
    if rest_len > 1e-12:
        ax, ay, az = rx / rest_len, ry / rest_len, rz / rest_len
        s = ax * dx + ay * dy + az * dz
        lx, ly, lz = dx - s * ax, dy - s * ay, dz - s * az
        if s > model.slack_length:
            k = model.axial_stiffness_tension * (s - model.slack_length)
            fx, fy, fz = fx - k * ax, fy - k * ay, fz - k * az
        elif s < 0.0:
            k = model.axial_stiffness_compression * s
            fx, fy, fz = fx - k * ax, fy - k * ay, fz - k * az
        k = model.lateral_stiffness
        fx, fy, fz = fx - k * lx, fy - k * ly, fz - k * lz
    else:
        # Degenerate rest geometry: treat every direction as lateral.
        k = model.lateral_stiffness
        fx, fy, fz = fx - k * dx, fy - k * dy, fz - k * dz

    k = model.damping
    vex, vey, vez = ee_velocity
    vhx, vhy, vhz = hand_velocity
    return (fx - k * (vex - vhx), fy - k * (vey - vhy), fz - k * (vez - vhz))


_PRESETS = MappingProxyType({
    "rigid_rod": ObjectModel(
        axial_stiffness_tension=1e4,
        axial_stiffness_compression=1e4,
        lateral_stiffness=1e4,
        damping=50.0,
        label="rigid_rod",
    ),
    "slack_rope": ObjectModel(
        axial_stiffness_tension=1e4,
        axial_stiffness_compression=0.0,
        lateral_stiffness=0.0,
        damping=0.0,
        slack_length=1.0,
        label="slack_rope",
    ),
    "peanut_bag": ObjectModel(
        axial_stiffness_tension=5e3,
        axial_stiffness_compression=300.0,
        lateral_stiffness=150.0,
        damping=20.0,
        label="peanut_bag",
    ),
    "wrapped_manikin": ObjectModel(
        axial_stiffness_tension=5e3,
        axial_stiffness_compression=300.0,
        lateral_stiffness=150.0,
        damping=60.0,
        label="wrapped_manikin",
    ),
})


def presets() -> MappingProxyType:
    """Named coupling presets spanning rigid, slack, and in-between objects."""
    return _PRESETS
