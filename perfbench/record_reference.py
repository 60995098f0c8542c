"""Record what each workload outputs on this commit into reference.json.

    python3 perfbench/record_reference.py [--seeds 32]

run.py compares every run's fingerprints (sha256 of `Metrics.as_dict()` and
of the written trace file) with these and reports `outputs_identical`.  A
workload whose outputs are the same for seeds 0 and 1 draws nothing from the
RNG and is recorded once, as seed "*"; the others are recorded for seeds 0 to
N-1.  Re-record only on a commit that changes the numerics on purpose.
"""

import argparse
import json
from time import perf_counter

from run import REFERENCE, run_worker
from workloads import WORKLOADS


def fingerprint(name: str, seed: int) -> dict:
    result = run_worker(name, seed, False, perf_counter() + 170.0)
    if result["problems"]:
        raise SystemExit(f"{name} seed {seed} failed: {result['problems']}")
    return result["fingerprint"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=32)
    args = ap.parse_args(argv)
    reference = {}
    for name in WORKLOADS:
        first = {"0": fingerprint(name, 0), "1": fingerprint(name, 1)}
        if first["0"] == first["1"]:
            reference[name] = {"*": first["0"]}
        else:
            reference[name] = first | {str(s): fingerprint(name, s) for s in range(2, args.seeds)}
        print(name, len(reference[name]), "entries", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
