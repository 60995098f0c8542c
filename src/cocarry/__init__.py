"""Deformability-adaptive control and simulation for human-robot co-transport.

The package splits into small layers: rigid-body math (`geometry`), the
mobile-manipulator model (`kinematics`), the hierarchical velocity controller
(`wbc`), the adaptive collaborative interface (`aci`), object coupling models
(`objects`), the scripted partner (`human`), scenario configuration
(`scenario`), the closed-loop simulator (`sim`), and a CLI (`cli`).
"""

from .aci import (
    AciController,
    AciParams,
    AdaptiveIndex,
    AdmittanceParams,
    CubicTrajectory,
    IntentionDetector,
    Mode,
    admittance_step,
    desired_rotation_pose,
    object_translation,
)
from .geometry import Pose
from .human import (
    HandYaw,
    Hold,
    HumanParams,
    HumanState,
    MotionScript,
    SimulatedHuman,
    TorsoYaw,
    Translate,
)
from .kinematics import (
    ArmJoint,
    KinematicModel,
    damping_factor,
    default_model,
    forward_kinematics,
)
from .objects import ObjectModel, object_wrench, presets
from .scenario import ConfigError, ScenarioConfig, Waypoint, load_scenario, scenario_path
from .sim import (
    Metrics,
    Simulation,
    SimulationError,
    Trace,
    alignment_metric,
    interval_stats,
    read_trace,
    write_trace,
)
from .wbc import WbcParams, compute, solve_secondary

__version__ = "0.1.0"
