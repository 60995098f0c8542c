"""The reference runs keep their bits.

`tests/reference_digests.json` holds, for each of the 11 reference runs of
`tools/reference_runs.py`, the SHA-256 of its trace data and of its metrics,
and for the runs of `TEXT_RUNS` that of the trace file `write_trace` makes.
The 6x6 solves and products go through LAPACK and BLAS, so the digests
belong to the numpy and BLAS build they were recorded with; under another
build the test fails and names both.  A change that alters a run's numbers
on purpose says so and re-records the file with
`python3 tools/reference_runs.py --digests`.
"""

import json
from pathlib import Path

import pytest
from reference_runs import RUNS, TEXT_RUNS, digests, environment, trace_text_digest

RECORDED = json.loads((Path(__file__).parent / "reference_digests.json").read_text())


def require_recorded_environment():
    here = environment()
    if here != RECORDED["environment"]:
        pytest.fail(
            f"digests were recorded under {RECORDED['environment']}, "
            f"this environment is {here}; compare the runs by `diff -r` of "
            "tools/reference_runs.py outputs instead, or re-record"
        )


@pytest.mark.parametrize("name", list(RUNS))
def test_reference_run_keeps_its_bits(name, reference_run):
    require_recorded_environment()
    run = reference_run(name)
    assert digests(run.trace, run.metrics) == RECORDED["runs"][name]


@pytest.mark.parametrize("name", TEXT_RUNS)
def test_reference_trace_file_keeps_its_bytes(name, reference_run, tmp_path):
    require_recorded_environment()
    text = trace_text_digest(reference_run(name).trace, tmp_path / "trace.csv")
    assert text == RECORDED["trace_text"][name]
