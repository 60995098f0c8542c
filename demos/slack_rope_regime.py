"""A slack rope transmits no pushing force, so admittance control goes deaf.

With a metre of slack the rope never tightens during the carry; the force
sensor reads zero and an admittance-only robot simply stands still.  The
adaptive interface sees the hand moving with no matching admittance
displacement, drives the adaptive index to one, and steers the reference
from the hand motion instead.

Run:  python3 demos/slack_rope_regime.py
"""

import numpy as np

from cocarry import Simulation, load_scenario, scenario_path
from cocarry.kinematics import forward_kinematics

path = scenario_path("slack_rope")

cfg_adm = load_scenario(path, overrides={"mode": "admittance"})
trace, _ = Simulation(cfg_adm).run()
ee0 = forward_kinematics(cfg_adm.model, cfg_adm.q0).position
moved = np.linalg.norm(trace[["ee_px", "ee_py", "ee_pz"]] - ee0, axis=1).max()
peak_force = np.linalg.norm(trace[["fx", "fy", "fz"]], axis=1).max()
print("admittance only, slack rope")
print(f"  peak coupling force      : {peak_force:.4f} N")
print(f"  end-effector travel      : {moved * 100:.2f} cm  (the robot never hears the human)")

cfg = load_scenario(path)
_, metrics = Simulation(cfg).run()
print("\nadaptive interface, same rope")
print(f"  completed waypoints      : {metrics.completed}")
print(f"  completion time          : {metrics.t_c:.2f} s")
print(f"  mean adaptive index      : {metrics.mean_alpha:.3f}  (near one: motion channel leads)")
for (lo, hi), a in zip(cfg.intervals, metrics.interval_alpha):
    print(f"    steady motion [{lo:.1f}, {hi:.1f}) s  alpha = {a:.3f}")
