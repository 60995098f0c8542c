"""Run the off-nominal stress runs and print what each one reaches.

Usage:  python3 tools/stress_runs.py

The package is imported from this checkout's `src`, never from an installed
copy.  Each run drives a packaged scenario where no reference run goes:
near the singularity, past the joint velocity limits, or through a
rotation released under load.  The lifts and the stroke are `rigid_rod`
with its script replaced by a 0.3 s hold, one translation and a hold to the
end, another object, and no waypoints or intervals; the rotations are
`rotation_showcase` with a stiff object in place of its slack rope.

One row per run:
  damped     ticks whose command was solved with a damping factor k > 0
  max_k      the largest k
  sat        ticks whose command has a joint at its velocity limit
  flips      ticks with a joint at one limit that was at the other limit
             on the tick before
  lead       the largest distance of the reference x_d from the EE (m)
  peak_F     the largest coupling force (N)
  W+         the work of the coupling's positive power into the hand (J)
  peak_P     the largest power into the hand, -F . v_h (W)
  xdot_step  the largest per-tick step of the linear xdot_d (m/s)
  qdot_step  the largest per-tick step of one joint velocity (rad/s)
The text depends only on the runs, so two invocations print the same, and
a parent and a changed checkout compare by `diff` of the output.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from cocarry import Simulation, load_scenario, scenario_path  # noqa: E402


def _stroke(preset: str, offset: list, seconds: float, duration: float) -> tuple:
    """`rigid_rod` with `preset` as object and one translation by `offset`."""
    script = [
        {"hold": 0.3},
        {"translate": offset, "duration": seconds},
        {"hold": duration - 0.3 - seconds},
    ]
    overrides = {
        "object": preset,
        "script": script,
        "waypoints": [],
        "intervals": [],
        "duration": duration,
    }
    return "rigid_rod", overrides


# run name -> (packaged scenario, overrides)
RUNS = {
    "manikin_lift_0.8m_3s": _stroke("wrapped_manikin", [0.0, 0.0, 0.8], 3.0, 7.0),
    "rod_lift_0.9m_3s": _stroke("rigid_rod", [0.0, 0.0, 0.9], 3.0, 7.0),
    "rod_stroke_1.5m_1s": _stroke("rigid_rod", [1.5, 0.0, 0.0], 1.0, 5.0),
    "rotation_rod": ("rotation_showcase", {"object": "rigid_rod"}),
    "rotation_bag": ("rotation_showcase", {"object": "peanut_bag"}),
}

COLUMNS = (
    ("damped", "{:d}"),
    ("max_k", "{:.4f}"),
    ("sat", "{:d}"),
    ("flips", "{:d}"),
    ("lead", "{:.3f}"),
    ("peak_F", "{:.2f}"),
    ("W+", "{:.3f}"),
    ("peak_P", "{:.1f}"),
    ("xdot_step", "{:.4f}"),
    ("qdot_step", "{:.4f}"),
)


def command_steps(trace, q0, x0, dt: float) -> tuple:
    """The largest per-tick step of xdot_d (the norm of its linear part,
    from the x_d columns) and of one joint's qdot (from the q columns), each
    from rest at q0 and at the reference's start x0."""
    n = len(q0)
    x_d = np.vstack([x0, x0, trace[["xd_px", "xd_py", "xd_pz"]]])
    q = np.vstack([q0, q0, trace[[f"q{i}" for i in range(n)]]])
    xdot_step = np.diff(x_d, 2, axis=0) / dt
    qdot_step = np.diff(q, 2, axis=0) / dt
    return float(np.linalg.norm(xdot_step, axis=1).max()), float(np.abs(qdot_step).max())


def stress(scenario: str, overrides: dict) -> dict:
    """Run one scenario to its duration and return its row."""
    cfg = load_scenario(scenario_path(scenario), overrides)
    sim = Simulation(cfg)
    ks, commands = [], []
    for _ in range(int(round(cfg.duration / cfg.dt))):
        chain = sim._chain  # the chain this tick's command is solved at
        sim.step()
        _, _, k, qdot = chain.command
        ks.append(k)
        commands.append(qdot)
    trace = sim.trace
    limits = cfg.wbc.qdot_limits
    commands = np.array(commands)
    high, low = commands == limits, commands == -limits
    flips = (high[1:] & low[:-1]) | (low[1:] & high[:-1])
    lead = trace[["xd_px", "xd_py", "xd_pz"]] - trace[["ee_px", "ee_py", "ee_pz"]]
    force = trace[["fx", "fy", "fz"]]
    power = -(force * trace[["vh_x", "vh_y", "vh_z"]]).sum(axis=1)
    xdot_step, qdot_step = command_steps(trace, cfg.q0, sim.ee0.position, cfg.dt)
    return {
        "damped": sum(k > 0.0 for k in ks),
        "max_k": max(ks),
        "sat": int((high | low).any(axis=1).sum()),
        "flips": int(flips.any(axis=1).sum()),
        "lead": float(np.linalg.norm(lead, axis=1).max()),
        "peak_F": float(np.linalg.norm(force, axis=1).max()),
        "W+": float(np.maximum(power, 0.0).sum() * cfg.dt),
        "peak_P": float(power.max()),
        "xdot_step": xdot_step,
        "qdot_step": qdot_step,
    }


def main() -> int:
    width = max(map(len, RUNS))
    print(f"{'run':<{width}}" + "".join(f"{name:>11}" for name, _ in COLUMNS))
    for run, (scenario, overrides) in RUNS.items():
        row = stress(scenario, overrides)
        cells = "".join(f"{fmt.format(row[name]):>11}" for name, fmt in COLUMNS)
        print(f"{run:<{width}}{cells}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
