"""Trace files: layout, round trip, and bit-for-bit reproducibility.

Every run can dump a comma-separated trace with one row per control
tick, floats printed with 17 significant digits so a rerun with the same
seed produces a byte-identical file.

Run:  python3 demos/trace_determinism.py
"""

import filecmp
import tempfile
from pathlib import Path

from cocarry import Simulation, load_scenario, read_trace, scenario_path
from cocarry.sim import trace_columns

with tempfile.TemporaryDirectory() as td:
    a = Path(td) / "run_a.txt"
    b = Path(td) / "run_b.txt"
    for out in (a, b):
        cfg = load_scenario(
            scenario_path("smoke"), overrides={"trace_path": str(out)}
        )
        Simulation(cfg).run()

    print(f"columns ({len(trace_columns(cfg.model.n_joints))}):")
    print("  " + " ".join(trace_columns(cfg.model.n_joints)[:8]) + " ...")

    trace = read_trace(a)
    print(f"rows: {len(trace)}   (duration {cfg.duration} s at dt {cfg.dt} s)")
    print(f"first tick t = {trace['t'][0]}, last tick t = {trace['t'][-1]}")

    same = filecmp.cmp(a, b, shallow=False)
    print(f"\nsecond run byte-identical: {same}")
