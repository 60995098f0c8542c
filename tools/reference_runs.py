"""Write the outputs of the reference runs, so two checkouts compare by `diff -r`.

Usage:  python3 tools/reference_runs.py OUT_DIR
        python3 tools/reference_runs.py --digests

The package is imported from this checkout's `src`, never from an installed
copy.  For each of the 11 reference runs (the six packaged scenarios and
five overrides of them) the trace and metrics files go to
OUT_DIR/<run>.trace.csv and OUT_DIR/<run>.metrics.yaml.  The stdout of each
demo goes to OUT_DIR/demo_<name>.txt and that of
`cocarry compare --scenario peanut_bag` to OUT_DIR/compare_peanut_bag.txt.
Runs go one at a time.  To check that a change keeps every output:

    python3 tools/reference_runs.py /tmp/before   # in the parent checkout
    python3 tools/reference_runs.py /tmp/after    # in the changed checkout
    diff -r /tmp/before /tmp/after

With --digests, the 11 runs go in memory only, and the SHA-256 digests of
each run's trace data and metrics go to tests/reference_digests.json, next
to the numpy and BLAS build they were computed with.  For the runs in
TEXT_RUNS the digest of the text `write_trace` makes of the trace goes
there too, so the trace writer is checked as well as the numbers, and so
does the digest of each demo's stdout.  The tier-1 tests
tests/test_reference_digests.py and tests/test_demos.py recompute them; a
change that names a numeric change re-records them with this command.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from cocarry import Simulation, load_scenario, scenario_path  # noqa: E402
from cocarry.sim import write_trace  # noqa: E402

DIGEST_FILE = ROOT / "tests" / "reference_digests.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

PACKAGED = (
    "hand_rotation_null",
    "peanut_bag",
    "rigid_rod",
    "rotation_showcase",
    "slack_rope",
    "smoke",
)

# run name -> (packaged scenario, overrides)
RUNS = {
    **{name: (name, {}) for name in PACKAGED},
    "rigid_teleop_24s": ("rigid_rod", {"mode": "teleop", "duration": 24.0}),
    "rope_admittance": ("slack_rope", {"mode": "admittance"}),
    "bag_admittance": ("peanut_bag", {"mode": "admittance"}),
    "bag_noise_seed3": (
        "peanut_bag",
        {
            "seed": 3,
            "human": {
                "noise": {
                    "hand_position": 5e-4,
                    "hand_velocity": 5e-3,
                    "torso_yaw": 2e-3,
                    "hand_yaw": 2e-3,
                }
            },
        },
    ),
    "rope_damped": (
        "slack_rope",
        {"model": {"w_threshold": 0.3}, "aci": {"window_length": 1.0}},
    ),
}


# runs whose trace file text is digested besides their numbers
TEXT_RUNS = ("peanut_bag",)


def environment() -> dict:
    """The numpy version and BLAS/LAPACK build the 6x6 work runs on."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict form
        deps = {}
    env = {"numpy": np.__version__, "machine": platform.machine()}
    for lib in ("blas", "lapack"):
        info = deps.get(lib, {})
        keys = ("name", "version", "openblas configuration")
        env[lib] = " | ".join(str(info[k]) for k in keys if k in info) or "unknown"
    return env


def digests(trace, metrics) -> dict:
    """SHA-256 of the trace's float64 rows and of the metrics as sorted JSON
    (Python's float repr round-trips every bit but a NaN's payload)."""
    blob = json.dumps(metrics.as_dict(), sort_keys=True).encode()
    return {
        "trace": hashlib.sha256(trace.data.tobytes()).hexdigest(),
        "metrics": hashlib.sha256(blob).hexdigest(),
    }


def trace_text_digest(trace, path) -> str:
    """SHA-256 of the file `write_trace` writes of `trace` to `path`."""
    write_trace(str(path), trace)
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def text_digest(text: str) -> str:
    """SHA-256 of a program's stdout, as UTF-8."""
    return hashlib.sha256(text.encode()).hexdigest()


def record_digests():
    runs, texts = {}, {}
    for run, (scenario, overrides) in RUNS.items():
        cfg = load_scenario(scenario_path(scenario), overrides or None)
        trace, metrics = Simulation(cfg).run()
        runs[run] = digests(trace, metrics)
        if run in TEXT_RUNS:
            with tempfile.TemporaryDirectory() as tmp:
                texts[run] = trace_text_digest(trace, Path(tmp) / "trace.csv")
        print(f"{run}: digested", flush=True)
    demos = {}
    for demo in DEMOS:
        demos[demo.name] = text_digest(stdout_of(demo.name, [sys.executable, str(demo)]))
        print(f"{demo.name}: digested", flush=True)
    doc = {
        "environment": environment(),
        "runs": runs,
        "trace_text": texts,
        "demo_stdout": demos,
    }
    DIGEST_FILE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"written to {DIGEST_FILE}")


def write_runs(out: Path):
    for run, (scenario, overrides) in RUNS.items():
        paths = {
            "trace_path": str(out / f"{run}.trace.csv"),
            "metrics_path": str(out / f"{run}.metrics.yaml"),
        }
        Simulation(load_scenario(scenario_path(scenario), {**overrides, **paths})).run()
        print(f"{run}: written", flush=True)


def stdout_of(name: str, argv: list) -> str:
    """The stdout of one command, run on this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{name} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def write_stdout(out: Path):
    commands = {f"demo_{demo.stem}": [sys.executable, str(demo)] for demo in DEMOS}
    commands["compare_peanut_bag"] = [
        sys.executable, "-m", "cocarry.cli",
        "compare", "--scenario", scenario_path("peanut_bag"),
    ]  # fmt: skip
    for name, argv in commands.items():
        (out / f"{name}.txt").write_text(stdout_of(name, argv))
        print(f"{name}: written", flush=True)


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    if argv[0] == "--digests":
        record_digests()
        return 0
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    write_runs(out)
    write_stdout(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
