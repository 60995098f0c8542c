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

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import Pose, Twist, Wrench, _norm, rotz


@dataclass
class ObjectModel:
    """Anisotropic spring-damper between the hand and the end effector.

    rest_vector is the nominal hand-to-EE offset, expressed in the EE yaw
    frame at rest (ref_yaw).  slack_length is the axial extension below which
    tension does not engage.
    """

    rest_vector: np.ndarray = field(default_factory=lambda: np.zeros(3))
    axial_stiffness_tension: float = 0.0
    axial_stiffness_compression: float = 0.0
    lateral_stiffness: float = 0.0
    damping: float = 0.0
    slack_length: float = 0.0
    ref_yaw: float = 0.0
    label: str = ""

    def __post_init__(self):
        self.rest_vector = np.asarray(self.rest_vector, dtype=float).reshape(3)
        for name in (
            "axial_stiffness_tension",
            "axial_stiffness_compression",
            "lateral_stiffness",
            "damping",
            "slack_length",
        ):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")

    def with_rest(self, rest_vector: np.ndarray, ref_yaw: float = 0.0) -> "ObjectModel":
        """Copy of the model with the rest geometry bound to a scenario."""
        return replace(
            self,
            rest_vector=np.asarray(rest_vector, dtype=float).reshape(3),
            ref_yaw=float(ref_yaw),
        )


def object_wrench(
    model: ObjectModel,
    hand_pose: Pose,
    hand_twist: Twist,
    ee_pose: Pose,
    ee_twist: Twist,
) -> tuple[Wrench, Wrench]:
    """Coupling wrenches (on the EE, on the hand) for the current states.

    Axial force is piecewise linear in the axial deviation: tension engages
    only beyond the slack length, compression for negative deviation, and the
    force is continuous across both breakpoints.  Torques are zero; the grasp
    is treated as a point coupling.
    """
    rest_world = rotz(ee_pose.yaw() - model.ref_yaw).dot(model.rest_vector)
    rest_len = _norm(rest_world)
    # Component-wise float arithmetic in the same order as the vector form.
    ex, ey, ez = ee_pose.position.tolist()
    hx, hy, hz = hand_pose.position.tolist()
    rx, ry, rz = rest_world.tolist()
    dx, dy, dz = (ex - hx) - rx, (ey - hy) - ry, (ez - hz) - rz
    fx = fy = fz = 0.0
    if rest_len > 1e-12:
        axis = rest_world / rest_len
        s = float(axis.dot(np.array([dx, dy, dz])))
        ax, ay, az = axis.tolist()
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
    vex, vey, vez = ee_twist.linear.tolist()
    vhx, vhy, vhz = hand_twist.linear.tolist()
    force_ee = np.array(
        [fx - k * (vex - vhx), fy - k * (vey - vhy), fz - k * (vez - vhz)]
    )
    on_ee = Wrench(force_ee, np.zeros(3))
    return on_ee, -on_ee


def elastic_energy(model: ObjectModel, hand_pose: Pose, ee_pose: Pose) -> float:
    """Stored elastic energy of the coupling; non-negative by construction."""
    rest_world = rotz(ee_pose.yaw() - model.ref_yaw) @ model.rest_vector
    rest_len = np.linalg.norm(rest_world)
    deviation = (ee_pose.position - hand_pose.position) - rest_world
    if rest_len <= 1e-12:
        return 0.5 * model.lateral_stiffness * float(deviation @ deviation)
    axis = rest_world / rest_len
    s = float(axis @ deviation)
    lateral = deviation - s * axis
    energy = 0.5 * model.lateral_stiffness * float(lateral @ lateral)
    if s > model.slack_length:
        energy += 0.5 * model.axial_stiffness_tension * (s - model.slack_length) ** 2
    elif s < 0.0:
        energy += 0.5 * model.axial_stiffness_compression * s * s
    return energy


_PRESETS = {
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
}


def presets() -> dict:
    """Named coupling presets spanning rigid, slack, and in-between objects."""
    return {name: replace(model) for name, model in _PRESETS.items()}


def preset(name: str) -> ObjectModel:
    try:
        return replace(_PRESETS[name])
    except KeyError:
        raise KeyError(
            f"unknown object preset {name!r}; available: {sorted(_PRESETS)}"
        ) from None
