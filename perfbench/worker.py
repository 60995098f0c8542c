"""One benchmark simulation in a fresh process; prints one JSON object.

    python3 perfbench/worker.py --workload NAME --seed N [--traced]

The scenario is set up SETUPS times (`load_scenario` plus `Simulation`), each
timed, and the last one runs.  Untraced, the only timer reads perf_counter
around each `Simulation.step` call.  Traced, every hook in `tracer.HOOKS` is
wrapped and GC pauses are recorded.  The run's outcome check and the
fingerprints of its outputs are part of the result; a fresh process per run
makes its peak RSS that of this workload alone.
"""

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUPS = 7


def import_package():
    """Import `cocarry` from this checkout's source tree, never an installed copy."""
    sys.path.insert(0, str(SRC_DIR))
    import cocarry

    if Path(cocarry.__file__).resolve().parent != SRC_DIR / "cocarry":
        raise SystemExit(f"cocarry imported from {cocarry.__file__}, not {SRC_DIR}")


def fingerprint(metrics, trace_path) -> dict:
    """sha256 of the metrics (exact float repr) and of the written trace file."""
    canon = json.dumps(metrics.as_dict(), sort_keys=True).encode()
    trace = None
    if trace_path:
        digest = hashlib.sha256()
        with open(trace_path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                digest.update(chunk)
        trace = digest.hexdigest()
    return {"metrics_sha256": hashlib.sha256(canon).hexdigest(), "trace_sha256": trace}


def measure(workload, seed: int, tracer, tmp_dir) -> dict:
    import numpy as np

    from cocarry import scenario as scenario_mod
    from cocarry import sim as sim_mod

    path = scenario_mod.scenario_path(workload.scenario)
    overrides = workload.scenario_overrides(seed, tmp_dir)
    result = {"numpy": np.__version__}

    setup_s, load_s, init_s = [], [], []
    for _ in range(SETUPS):
        if tracer:
            load0, init0 = tracer.incl_s["scenario.load"], tracer.incl_s["sim.init"]
        t0 = perf_counter()
        cfg = scenario_mod.load_scenario(path, overrides)
        sim = sim_mod.Simulation(cfg)
        setup_s.append(perf_counter() - t0)
        if tracer:
            load_s.append(tracer.incl_s["scenario.load"] - load0)
            init_s.append(tracer.incl_s["sim.init"] - init0)
    result["setup_s"] = setup_s

    tick_s = []
    if tracer:
        tracer.watch_gc(True)
    else:
        step = sim.step

        def timed_step():
            t0 = perf_counter()
            record = step()
            tick_s.append(perf_counter() - t0)
            return record

        sim.step = timed_step
    t0 = perf_counter()
    try:
        records, metrics = sim.run()
    except Exception:
        result["problems"] = ["run raised: " + traceback.format_exc(limit=3)]
        return result
    result["run_s"] = perf_counter() - t0
    if tracer:
        tracer.watch_gc(False)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["problems"] = workload.check(sim, records, metrics)
    result["fingerprint"] = fingerprint(metrics, cfg.trace_path)
    if tracer:
        layers = tracer.layer_metrics(len(records))
        layers["scenario.load_s"] = statistics.median(load_s)
        layers["sim.init_s"] = statistics.median(init_s)
        layers["sim.ticks"] = len(records)
        layers["sim.waypoints_reached"] = len(metrics.waypoint_times)
        result["layers"] = layers
        result["missing"] = tracer.missing
        result["step_total_s"] = tracer.incl_s["sim.step"]
    else:
        result["tick_us"] = [t * 1e6 for t in tick_s]
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    import_package()
    sys.path.insert(0, str(BENCH_DIR))
    from tracer import Tracer
    from workloads import SMOKE, WORKLOADS

    workload = SMOKE if args.workload == "smoke" else WORKLOADS[args.workload]
    tracer = None
    if args.traced:
        tracer = Tracer()
        tracer.install()
    OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = tempfile.mkdtemp(dir=OUT_DIR) if workload.writes_files else None
    try:
        result = measure(workload, args.seed, tracer, tmp_dir)
    finally:
        if tmp_dir:
            shutil.rmtree(tmp_dir)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
