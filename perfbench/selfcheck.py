"""Fast self-check of the benchmark harness, on the `smoke` scenario.

    python3 perfbench/selfcheck.py

Runs run.py untraced and traced on `smoke` and checks that
- every metric that BENCHMARK.json names is reported, with its unit;
- the per-layer self times inside `Simulation.step` add up to the traced
  step time, so no time inside a tick escapes the named layers;
- no run failed (`fail_frac` is 0);
- without a source tree next to it, run.py exits non-zero and prints no result.
Exits non-zero if any check fails.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
ARGS = ["--workload", "smoke", "--seed", "1", "--seconds", "1"]
STEP_LAYERS = (
    "sim.step", "human", "objects", "aci", "aci.index", "aci.detector",
    "wbc", "wbc.solve", "wbc.nullspace", "wbc.clamp", "kinematics",
)


def run_bench(trace: int, bench_dir: Path = BENCH_DIR) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(bench_dir / "run.py"), *ARGS, "--trace", str(trace)]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=120)


def check_run(trace: int, expected_units: dict) -> list:
    proc = run_bench(trace)
    if proc.returncode != 0:
        return [f"trace {trace}: run.py exited {proc.returncode}: {proc.stderr[-2000:]}"]
    last = json.loads(proc.stdout.splitlines()[-1])
    result = json.loads((BENCH_DIR / "out" / f"smoke.trace{trace}.seed1.json").read_text())
    problems = []
    units = {name: m["unit"] for name, m in last["metrics"].items()}
    if units != expected_units:
        problems.append(f"trace {trace}: metrics {units} != BENCHMARK.json {expected_units}")
    if result["fail_frac"] != 0 or last["failed"] or not last["correct"]:
        problems.append(f"trace {trace}: fail_frac {result['fail_frac']}: {result['problems']}")
    for run in result["runs"]:
        if not run["traced"]:
            continue
        layers = run["layers"]
        self_s = sum(layers[f"{n}.us_per_tick"] for n in STEP_LAYERS) * layers["sim.ticks"] / 1e6
        if abs(self_s - run["step_total_s"]) > 1e-9 * run["step_total_s"]:
            problems.append(
                f"layer self times sum to {self_s} s, traced step time is {run['step_total_s']} s"
            )
    return problems


def check_no_source() -> list:
    """In a directory holding only the benchmark, run.py must refuse to run."""
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("out"))
        proc = run_bench(0, bare / BENCH_DIR.name)
    if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
        return ["run.py without a source tree exited 0 or printed a result"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        problems += check_run(trace, {m["name"]: m["unit"] for m in spec[key]})
    problems += check_no_source()
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "FAILED" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
