"""Benchmark workloads: a packaged scenario, its overrides, and the outcome
the run must show for its result to count as correct.

Each check takes the finished `Simulation`, the records and the `Metrics` of
one run and returns the list of what went wrong (empty when the run passed).
Checks read only `Metrics`, the record count and the joint vector, so they
survive changes to the record type.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Tracking noise on every measured partner channel; it is the only RNG draw
# in any workload, so the seed changes only `bag_aci_trace`.
BAG_NOISE = {
    "hand_position": 5e-4,
    "hand_velocity": 5e-3,
    "torso_yaw": 2e-3,
    "hand_yaw": 2e-3,
}


def _check_rigid_teleop(sim, records, metrics) -> list:
    # Criterion 1's deadlock: the rod transmits the force, teleop mirrors the
    # hand's (deadbanded) velocity, so neither side moves.
    from cocarry.kinematics import forward_kinematics

    cfg = sim.config
    script = cfg.script
    commanded = np.linalg.norm(script.target(script.duration).position - cfg.hand0)
    moved = np.linalg.norm(
        forward_kinematics(cfg.model, sim.q).position
        - forward_kinematics(cfg.model, cfg.q0).position
    )
    problems = []
    if metrics.completed:
        problems.append("teleop completed; expected a deadlock")
    if len(records) != 24000:
        problems.append(f"ran {len(records)} ticks, expected 24000")
    if not moved < 0.1 * commanded:
        problems.append(f"EE moved {moved:.4f} m, not < 10% of {commanded:.4f} m")
    return problems


def _check_bag(sim, records, metrics) -> list:
    # Criterion 3's ordering: pulling stretches the bag, so its interval has
    # the lowest alpha of the five phases.
    problems = []
    if not metrics.completed or len(metrics.waypoint_times) != 6:
        problems.append(f"reached {len(metrics.waypoint_times)} of 6 waypoints")
    alphas = metrics.interval_alpha
    if len(alphas) != 5 or not alphas[1] < min(alphas[:1] + alphas[2:]):
        problems.append(f"pulling is not the lowest interval alpha: {alphas}")
    return problems


def _check_rope(sim, records, metrics) -> list:
    problems = []
    if not metrics.completed:
        problems.append("slack rope run did not complete")
    if not metrics.mean_alpha > 0.9:
        problems.append(f"mean alpha {metrics.mean_alpha:.4f} not > 0.9")
    return problems


def _check_smoke(sim, records, metrics) -> list:
    return [] if len(records) == 1200 else [f"ran {len(records)} ticks, expected 1200"]


@dataclass(frozen=True)
class Workload:
    scenario: str
    overrides: dict
    check: Callable
    writes_files: bool = False

    def scenario_overrides(self, seed: int, tmp_dir: str | None) -> dict:
        out = {**self.overrides, "seed": seed}
        if self.writes_files:
            out["trace_path"] = f"{tmp_dir}/trace.csv"
            out["metrics_path"] = f"{tmp_dir}/metrics.yaml"
        return out


WORKLOADS = {
    "rigid_teleop_24s": Workload(
        "rigid_rod", {"mode": "teleop", "duration": 24.0}, _check_rigid_teleop
    ),
    "bag_aci_trace": Workload(
        "peanut_bag", {"human": {"noise": BAG_NOISE}}, _check_bag, writes_files=True
    ),
    "rope_damped": Workload(
        "slack_rope",
        {"model": {"w_threshold": 0.3}, "aci": {"window_length": 1.0}},
        _check_rope,
    ),
}

# Exercised only by selfcheck.py; not a benchmark workload.
SMOKE = Workload("smoke", {}, _check_smoke, writes_files=True)
