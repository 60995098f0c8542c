"""Turning the object together: torso-turn detection and the assist move.

Mid-carry the human turns their torso by half a radian and pauses.  The
detector waits for the turn to finish (filtered torso yaw velocity back
under threshold), then replays the end effector to the pose that keeps
its original placement relative to the torso, on a smooth point-to-point
trajectory.  Turning only the hand must not trigger anything.

Run:  python3 demos/rotation_assist.py
"""

import numpy as np

from cocarry import Pose, Simulation, load_scenario, scenario_path
from cocarry.geometry import quat_from_yaw, wrap_angle, yaw_from_quat
from cocarry.kinematics import forward_kinematics


def main():
    cfg = load_scenario(scenario_path("rotation_showcase"))
    trace, _ = Simulation(cfg).run()

    fired = np.flatnonzero(trace["zeta"] == 1)[0]
    turn = trace["torso_yaw"][fired]
    print(f"torso turn of {abs(turn):.2f} rad detected at t = {trace['t'][fired]:.2f} s")

    # where the end effector should end up: same pose relative to the torso
    # as before the turn
    ee0 = forward_kinematics(cfg.model, cfg.q0)
    torso_before = Pose(cfg.torso0, quat_from_yaw(cfg.torso_yaw0))
    torso_after = Pose(cfg.torso0, quat_from_yaw(turn))
    goal = torso_after.compose(torso_before.inverse().compose(ee0))

    pos_err = np.linalg.norm(trace[["ee_px", "ee_py", "ee_pz"]][-1] - goal.position)
    ee_yaw = yaw_from_quat(trace[["ee_qw", "ee_qx", "ee_qy", "ee_qz"]][-1])
    yaw_err = abs(wrap_angle(ee_yaw - goal.yaw()))
    print(f"assist trajectory finished by t = {trace['t'][-1]:.2f} s")
    print(f"  position error to the re-seated pose : {pos_err * 1000:.2f} mm")
    print(f"  yaw error                            : {yaw_err * 1000:.2f} mrad")

    cfg_null = load_scenario(scenario_path("hand_rotation_null"))
    null_trace, _ = Simulation(cfg_null).run()
    fires = int(null_trace["zeta"].sum())
    print(f"\nhand-only rotation of 0.5 rad: detector fired {fires} times (wrist "
          "action is not a carry intention)")


if __name__ == "__main__":
    main()
