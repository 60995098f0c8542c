"""Run every workload untraced and traced and collect the results in one file.

    python3 perfbench/baseline.py --out perfbench/BENCH_<n>.json [--seed 1] [--seconds 40]

The file maps each workload to its --trace 0 and --trace 1 result files as
run.py wrote them (environment, metrics with units, fail_frac,
outputs_identical, per-worker figures).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import OUT_DIR
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    args = ap.parse_args(argv)
    collected = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name]
            cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
            subprocess.run(cmd + ["--trace", str(trace)], check=True)
            result = OUT_DIR / f"{name}.trace{trace}.seed{args.seed}.json"
            collected.setdefault(name, {})[f"trace{trace}"] = json.loads(result.read_text())
    Path(args.out).write_text(json.dumps(collected, indent=1) + "\n")


if __name__ == "__main__":
    main()
