"""Run the benchmark in alternating pairs on two checkouts and compare them.

Usage:
    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed N \
        --pairs K --seconds S [--out FILE]

Each pair runs `perfbench/run.py --workload W --seed N --seconds S --trace 0`
once from each checkout, one after the other; pair k runs the parent first
when k is even and the change first when k is odd, so a drift of the host's
speed does not favour one side.  The end-to-end metrics, their directions and
their bounds are read from CHANGE_DIR/BENCHMARK.json.

For each metric the script prints both sides' medians, the parent's
quartiles, how many pairs the change won, and two verdicts:
  - claim: the change won at least 9 in 10 of the pairs and its median is
    better than the parent's by more than the parent's interquartile range;
  - bound: "kept" when the change's median is not worse than the parent's
    by more than the metric's bound (a fraction of the parent's median),
    "EXCEEDED" when it is; "unresolved" in place of "kept" when the parent's
    interquartile range is wider than bound x median, so the runs spread too
    widely to tell, unless every change run beats every parent run.
Beside them it prints each side's median of the informational metrics the
benchmark stores under `info` (run_s, tick_p50_us, tick_p99_us), which carry
no verdict.  The peak_rss_mb line also shows each side's median runs per
invocation (`attempted` in the result file): a worker's peak RSS includes
the benchmark's own at spawn time, which grows with each finished run, so a
side that fits more runs into S seconds reads a higher peak RSS.  It also prints how many runs of each side passed the
benchmark's outcome check and each side's mean and largest share of failed
runs.  When any run failed its outcome check, or the change's mean
fail_frac exceeds the parent's, no claim can stand: every claim verdict
reads "fails", the script says why and exits 1.
With --out, the pairs are stored in FILE under "pairs" as "W.seedN", in the
layout of the BENCH_*.json files, each side's runs per invocation under
"attempted"; an existing FILE keeps its other entries.
The parent's commit is read from PARENT_DIR with git before any pair runs,
so PARENT_DIR must be a git checkout (a `git clone`, not a `git archive`
copy); when it is not, the script exits 1 and names the directory.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

INFO = ("run_s", "tick_p50_us", "tick_p99_us")
SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One invocation of the benchmark from `checkout`: its end-to-end
    metrics, the informational ones and the share of failed runs."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]  # fmt: skip
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: benchmark exited {done.returncode}:\n{done.stderr}")
    last = json.loads(done.stdout.splitlines()[-1])
    result_file = checkout / "perfbench" / "out" / f"{workload}.trace0.seed{seed}.json"
    result = json.loads(result_file.read_text())
    return {
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
        "info": {name: result["info"][name]["value"] for name in INFO},
        "fail_frac": result["fail_frac"],
        "attempted": result["attempted"],
        "correct": last["correct"],
        "environment": result["environment"],
    }


def quartiles(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list, change: list, better: str) -> dict:
    """Both sides' values of one metric, the change's wins and quartiles."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    return {
        "parent": parent,
        "change": change,
        "change_wins": wins,
        "parent_quartiles": quartiles(parent),
        "change_quartiles": quartiles(change),
    }


def verdicts(entry: dict, better: str, bound: float) -> tuple:
    """(claim holds, bound verdict, relative change of the median); the bound
    verdict is "kept", "unresolved" or "EXCEEDED" (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = entry["parent_quartiles"], entry["change_quartiles"]
    pairs = len(entry["parent"])
    iqr = p["q3"] - p["q1"]
    gain = sign * (p["median"] - c["median"])
    claim = entry["change_wins"] >= math.ceil(0.9 * pairs) and gain > iqr
    rel = (c["median"] - p["median"]) / p["median"] if p["median"] else 0.0
    if sign * rel > bound:
        return claim, "EXCEEDED", rel
    beats_all = max(sign * v for v in entry["change"]) < min(sign * v for v in entry["parent"])
    if iqr > bound * abs(p["median"]) and not beats_all:
        return claim, "unresolved", rel
    return claim, "kept", rel


def info_lines(info: dict) -> list:
    """One line per informational metric: each side's median and the
    change's relative to the parent's."""
    lines = []
    for name, sides in info.items():
        p, c = (float(np.median(sides[side])) for side in SIDES)
        rel = (c - p) / p if p else 0.0
        lines.append(f"  {name:12s} parent {p:.6g}  change {c:.6g}  ({rel:+.1%})  info")
    return lines


def runs_note(attempted: dict) -> str:
    """Each side's median runs per invocation, for the peak_rss_mb line."""
    p, c = (float(np.median(attempted[side])) for side in SIDES)
    return f"  runs/invocation parent {p:g} change {c:g}"


def git_head(checkout: Path) -> str:
    """The commit checked out in `checkout`; exits when `checkout` is not the
    top of a git work tree (a copy inside another repository would name that
    repository's commit)."""
    done = subprocess.run(
        ["git", "-C", str(checkout), "rev-parse", "--show-toplevel", "HEAD"],
        capture_output=True,
        text=True,
    )
    lines = done.stdout.split()
    if done.returncode != 0 or Path(lines[0]).resolve() != checkout:
        raise SystemExit(
            f"{checkout}: cannot read the parent commit, it is not a git checkout"
            f" (make it with git clone) {done.stderr.strip()}"
        )
    return lines[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir", type=Path)
    ap.add_argument("change_dir", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    checkouts = {"parent": args.parent_dir.resolve(), "change": args.change_dir.resolve()}
    declared = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    parent_commit = git_head(checkouts["parent"]) if args.out else None
    metrics = declared["end_to_end"]

    runs = {side: [] for side in SIDES}
    first = []
    for k in range(args.pairs):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            r = run_once(checkouts[side], args.workload, args.seed, args.seconds)
            runs[side].append(r)
            shown = "  ".join(f"{m['name']} {r['metrics'][m['name']]:.6g}" for m in metrics)
            print(f"pair {k} {side:6s} {shown}  fail_frac {r['fail_frac']:.3g}", flush=True)

    def values(side, pick):
        return [pick(r) for r in runs[side]]

    entry = {
        "seed": args.seed,
        "workload": args.workload,
        "pairs": args.pairs,
        "first_in_pair": first,
        "fail_frac": {side: values(side, lambda r: r["fail_frac"]) for side in SIDES},
        "attempted": {side: values(side, lambda r: r["attempted"]) for side in SIDES},
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
    }
    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs:")
    correct = {side: sum(bool(r["correct"]) for r in runs[side]) for side in SIDES}
    print(
        f"  correct      parent {correct['parent']}/{args.pairs}"
        f"  change {correct['change']}/{args.pairs}"
    )
    fails = entry["fail_frac"]
    mean_fail = {side: sum(fails[side]) / args.pairs for side in SIDES}
    print(
        f"  fail_frac    parent mean {mean_fail['parent']:.3g} max {max(fails['parent']):.3g}"
        f"  change mean {mean_fail['change']:.3g} max {max(fails['change']):.3g}"
    )
    faults = []
    if not entry["correct"]:
        faults.append("a run failed its outcome check")
    if mean_fail["change"] > mean_fail["parent"]:
        faults.append("the change fails a larger share of runs")
    for m in metrics:
        name = m["name"]
        entry[name] = e = compare(
            values("parent", lambda r: r["metrics"][name]),
            values("change", lambda r: r["metrics"][name]),
            m["better"],
        )
        claim, bound_verdict, rel = verdicts(e, m["better"], m["bound"])
        p, c = e["parent_quartiles"], e["change_quartiles"]
        print(
            f"  {name:12s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
            f"  change {c['median']:.6g}  ({rel:+.1%})  change wins {e['change_wins']}"
            f"/{args.pairs}  claim {'holds' if claim and not faults else 'fails'}"
            f"  bound {m['bound']:.0%} {bound_verdict}"
            + (runs_note(entry["attempted"]) if name == "peak_rss_mb" else "")
        )
    entry["info"] = {
        name: {side: values(side, lambda r: r["info"][name]) for side in SIDES}
        for name in INFO
    }
    print("\n".join(info_lines(entry["info"])))
    if faults:
        print(f"  no claim can stand: {'; '.join(faults)}")

    if args.out:
        doc = json.loads(args.out.read_text()) if args.out.exists() else {}
        environment = dict(runs["change"][0]["environment"])
        environment.pop("git_commit", None)
        doc.update(
            parent_commit=parent_commit,
            environment=environment,
            command=(
                f"python3 perfbench/run.py --workload W --seed N --seconds {args.seconds:g}"
                " --trace 0, parent and change alternately, each from its own copy of the"
                " tree; pair k runs the parent first when k is even (first_in_pair lists"
                " it)"
            ),
        )
        doc.setdefault("pairs", {})[f"{args.workload}.seed{args.seed}"] = entry
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"written to {args.out}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
