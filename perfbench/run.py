"""Closed-loop benchmark of the cocarry simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process runs one simulation at a time through the public
API (`load_scenario`, then `Simulation.run`), each in a fresh worker process
(worker.py).  It starts the next only after the previous one has finished,
and only if one more run is expected to end within S seconds; there is at
least one run.  The workload seed is passed as the scenario `seed` override.

With --trace 0 the runs are untraced and the end-to-end metrics are printed.
With --trace 1 one untraced run is followed by traced runs, and the per-layer
metrics are printed; `trace.overhead_ratio` is the traced over the untraced
run time.  Every run's outcome is checked (workloads.py); a run that raises or
fails its check counts as failed.  Whether the outputs still match those
recorded on the baseline commit (reference.json) is reported as
`outputs_identical` and is not a failure.  The full result, with the
environment it ran in, is written to perfbench/out/; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"
# A run must end within 180 s; no run is started that would likely pass this.
DEADLINE_S = 170.0
# One client, no threads: numpy's BLAS pool would otherwise spin on the
# second CPU, which the load shape leaves to everything else.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"tick_p1_us": "us", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed and written to the result file, but not in the last line.  On a
# shared VM a tick runs at one of two host speeds about 2x apart, and the
# share of slow ticks drifts over seconds to minutes, so whole-run times and
# the median and tail of tick times move with it: over 5-10 seeds their
# IQR/median was 0.13-0.23 (run_s) and up to 0.37 (ticks).  The 1st
# percentile stays at the fast speed and tracks the program's own cost.
INFO = {"run_s": "s", "tick_p50_us": "us", "tick_p99_us": "us"}

PER_LAYER = {
    "kinematics.us_per_tick": "us",
    "kinematics.calls": "count",
    "wbc.us_per_tick": "us",
    "wbc.solve.us_per_tick": "us",
    "wbc.nullspace.us_per_tick": "us",
    "wbc.clamp.us_per_tick": "us",
    "wbc.damped_ticks": "count",
    "wbc.saturated_ticks": "count",
    "aci.us_per_tick": "us",
    "aci.index.us_per_tick": "us",
    "aci.detector.us_per_tick": "us",
    "aci.rotation_ticks": "count",
    "human.us_per_tick": "us",
    "objects.us_per_tick": "us",
    "sim.step.us_per_tick": "us",
    "gc.pause_s": "s",
    "gc.collections.gen0": "count",
    "gc.collections.gen1": "count",
    "gc.collections.gen2": "count",
    "sim.metrics.alignment_s": "s",
    "sim.metrics.interval_s": "s",
    "sim.write_trace_s": "s",
    "sim.write_metrics_s": "s",
    "scenario.load_s": "s",
    "sim.init_s": "s",
    "sim.ticks": "count",
    "sim.waypoints_reached": "count",
    "trace.overhead_ratio": "ratio",
}


def run_worker(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload]
    cmd += ["--seed", str(seed)] + (["--traced"] if traced else [])
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            cmd,
            capture_output=True,
            text=True,
            env={**os.environ, **WORKER_ENV},
            timeout=max(deadline - t0, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "problems": ["worker timed out"]}
    if proc.returncode != 0:
        err = proc.stderr.strip()[-2000:]
        return {"traced": traced, "problems": [f"worker exited {proc.returncode}: {err}"]}
    result = json.loads(proc.stdout.splitlines()[-1])
    result["traced"] = traced
    result["wall_s"] = perf_counter() - t0
    return result


def run_workers(args) -> list:
    """Closed loop: the next worker starts only when the previous one ended."""
    start = perf_counter()
    deadline = start + DEADLINE_S
    runs = []
    if args.trace:
        runs.append(run_worker(args.workload, args.seed, False, deadline))
    while True:
        runs.append(run_worker(args.workload, args.seed, bool(args.trace), deadline))
        # Start another run only if one more like the last ends in time.
        expected_end = perf_counter() + runs[-1].get("wall_s", 0.0)
        if expected_end - start > args.seconds or expected_end > deadline:
            return runs


def end_to_end(runs: list) -> dict:
    ticks = np.concatenate([r["tick_us"] for r in runs])
    return {
        "run_s": statistics.median(r["run_s"] for r in runs),
        "tick_p1_us": float(np.percentile(ticks, 1)),
        "tick_p50_us": float(np.percentile(ticks, 50)),
        "tick_p99_us": float(np.percentile(ticks, 99)),
        "setup_s": statistics.median(s for r in runs for s in r["setup_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }


def per_layer(traced: list, untraced: list) -> dict:
    out = {
        name: statistics.median(r["layers"][name] for r in traced)
        for name in traced[0]["layers"]
    }
    out["trace.overhead_ratio"] = statistics.median(
        r["run_s"] for r in traced
    ) / statistics.median(r["run_s"] for r in untraced)
    return out


def outputs_identical(workload: str, seed: int, runs: list):
    """True/False against the recorded outputs, None if none were recorded."""
    recorded = json.loads(REFERENCE.read_text()).get(workload, {})
    expected = recorded.get(str(seed), recorded.get("*"))
    if expected is None:
        return None
    return all(r["fingerprint"] == expected for r in runs)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return None
    return proc.stdout.strip() or None


def environment(seed: int, runs: list) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in runs if "numpy" in r), np.__version__),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "smoke"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cocarry" / "__init__.py").is_file():
        sys.exit(f"no cocarry source tree under {ROOT / 'src'}; nothing to benchmark")

    runs = run_workers(args)
    failed = [r for r in runs if r["problems"]]
    done = [r for r in runs if "run_s" in r]
    untraced = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not untraced or (args.trace and not traced):
        for r in failed:
            print("\n".join(r["problems"]), file=sys.stderr)
        sys.exit("no run finished; no metrics to report")

    if args.trace:
        values, units, info_units = per_layer(traced, untraced), PER_LAYER, {}
    else:
        values, units, info_units = end_to_end(untraced), END_TO_END, INFO
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    info = {name: {"value": values[name], "unit": unit} for name, unit in info_units.items()}
    missing = sorted({name for r in traced for name in r["missing"]})
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(args.seed, runs),
        "attempted": len(runs),
        "failed": len(failed),
        "fail_frac": len(failed) / len(runs),
        "problems": [p for r in failed for p in r["problems"]],
        "outputs_identical": outputs_identical(args.workload, args.seed, done),
        "missing_hooks": missing,
        "metrics": metrics,
        "info": info,
        "runs": [{k: v for k, v in r.items() if k != "tick_us"} for r in runs],
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}.trace{args.trace}.seed{args.seed}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")

    for name, m in {**metrics, **info}.items():
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'fail_frac':28s} {result['fail_frac']:>16.6g} ({len(failed)}/{len(runs)} runs)")
    for problem in result["problems"]:
        print(f"  failed: {problem}")
    print(f"{'outputs_identical':28s} {str(result['outputs_identical']):>16s}")
    if missing:
        print(f"{'missing hooks':28s} {', '.join(missing)}")
    print(f"result file: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
