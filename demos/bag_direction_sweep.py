"""Direction-dependent coupling of a part-filled bag.

A bag of loose fill is stiff when you pull on it, mushy when you push,
and barely coupled sideways or vertically.  The scenario walks one carry
through five movement directions; the adaptive index settles at a
different level in each, ordered by how much force the bag can pass.

Run:  python3 demos/bag_direction_sweep.py
"""

from cocarry import Simulation, load_scenario, scenario_path

LABELS = [
    "lower then lift",
    "pull (toward human)",
    "sideways right",
    "push (away)",
    "sideways left",
]

cfg = load_scenario(scenario_path("peanut_bag"))
_, metrics = Simulation(cfg).run()

print(f"completed: {metrics.completed}   completion time: {metrics.t_c:.2f} s\n")
print("direction            window         mean alpha   mean |F|")
for label, (lo, hi), a, f in zip(
    LABELS, cfg.intervals, metrics.interval_alpha, metrics.interval_force
):
    print(f"{label:<20} [{lo:>4.1f}, {hi:>4.1f}) s   {a:>7.3f}    {f:>7.2f} N")

lift, pull, side_r, push, side_l = metrics.interval_alpha
side = 0.5 * (side_r + side_l)
print(
    f"\nordering: pull {pull:.2f} < push {push:.2f} < sideways {side:.2f}"
    f" < vertical {lift:.2f}"
)
print("the stiffer the direction, the more the force channel is trusted")
