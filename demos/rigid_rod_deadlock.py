"""Why displacement teleoperation deadlocks on a rigid object.

A rigid rod couples the human hand to the end effector almost directly.
Under displacement teleoperation the robot only moves as far as the hand
has already moved, but the hand cannot move until the robot gives way,
so the pair creeps.  The adaptive interface recognises the regime (the
admittance displacement tracks the hand displacement, so the adaptive
index stays near zero) and lets the force channel do the work.

Run:  python3 demos/rigid_rod_deadlock.py
"""

import numpy as np

from cocarry import Simulation, load_scenario, scenario_path
from cocarry.kinematics import forward_kinematics


def main():
    path = scenario_path("rigid_rod")

    cfg = load_scenario(path)
    _, metrics = Simulation(cfg).run()
    print("adaptive interface on the rigid rod")
    print(f"  completed waypoints : {metrics.completed}")
    print(f"  completion time     : {metrics.t_c:.2f} s")
    print(f"  mean adaptive index : {metrics.mean_alpha:.3f}  (stays low: force channel leads)")
    for (lo, hi), a in zip(cfg.intervals, metrics.interval_alpha):
        print(f"    steady motion [{lo:.1f}, {hi:.1f}) s  alpha = {a:.3f}")

    # same scenario, same hand script, but pure displacement teleoperation;
    # give it twice the adaptive completion time and then some
    cfg_t = load_scenario(path, overrides={"mode": "teleop", "duration": 24.0})
    trace_t, metrics_t = Simulation(cfg_t).run()
    ee0 = forward_kinematics(cfg_t.model, cfg_t.q0).position
    script = cfg_t.script
    commanded = np.linalg.norm(script.target(script.duration).position - cfg_t.hand0)
    window = script.first_motion_time() + 2.0 * metrics.t_c
    ee_p = trace_t[["ee_px", "ee_py", "ee_pz"]][trace_t["t"] <= window]
    creep = np.linalg.norm(ee_p - ee0, axis=1).max()
    print("\ndisplacement teleoperation on the same rod")
    print(f"  commanded hand travel        : {commanded:.3f} m")
    print(f"  end-effector travel by {window:.1f} s : {creep:.3f} m "
          f"({100 * creep / commanded:.1f}% of commanded)")
    print(f"  completed waypoints          : {metrics_t.completed}")


if __name__ == "__main__":
    main()
