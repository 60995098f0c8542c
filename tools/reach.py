"""Report the lines of `src/cocarry` that no run, demo or CLI command reaches.

Usage:  python3 tools/reach.py

In one process, under `sys.settrace`, this runs the 11 reference runs of
tools/reference_runs.py, the demos under demos/ (their stdout discarded) and
the CLI commands `run`, `compare`, `validate` and `presets`.  It then prints,
file by file and function by function, each executable line of the package
that none of them reached, and the total.  A line counts as executable when
the compiled code of its function holds an instruction on it; a line shared
by two code objects (a `def` line: the enclosing code binds the name, the
function's own code starts there) counts for each, so a function that never
runs shows its `def` line.  Error branches belong in the report: tier-1
tests cover them, and this is a report, not a gate.  The package is
imported from this checkout's `src`, never from an installed copy.
"""

import contextlib
import io
import os
import runpy
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "cocarry"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(ROOT / "tools"))


def _key(code) -> tuple:
    """One function's identity, the same for a compiled and a running copy."""
    return code.co_filename, code.co_qualname, code.co_firstlineno


def executable_lines(path: Path) -> dict:
    """{function key: set of line numbers with an instruction} of one file."""
    found = {}
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        found[_key(code)] = {line for _, _, line in code.co_lines() if line}  # not None or 0
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return found


class Reach:
    """The lines reached in the package's files, by function key."""

    def __init__(self, files: set):
        self.files = files
        self.lines = defaultdict(set)
        self._local = {}  # code object -> its set of reached lines, or None

    def _lines_of(self, code):
        if code not in self._local:
            inside = code.co_filename in self.files
            self._local[code] = self.lines[_key(code)] if inside else None
        return self._local[code]

    def __call__(self, frame, event, arg):
        """The global trace function: trace only frames of the package."""
        lines = self._lines_of(frame.f_code)
        if lines is None:
            return None
        lines.add(frame.f_code.co_firstlineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local


def exercise(tmp: Path):
    """Everything the report covers: the reference runs, demos and CLI."""
    from reference_runs import DEMOS, RUNS

    from cocarry import Simulation, cli, load_scenario, scenario_path

    for scenario, overrides in RUNS.values():
        Simulation(load_scenario(scenario_path(scenario), overrides or None)).run()
    for demo in DEMOS:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(demo), run_name="__main__")
    smoke = scenario_path("smoke")
    commands = [
        ["run", "--scenario", smoke, "--out-trace", str(tmp / "t.csv"),
         "--out-metrics", str(tmp / "m.yaml")],
        ["compare", "--scenario", smoke],
        ["validate", "--scenario", smoke],
        ["presets"],
    ]  # fmt: skip
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != cli.EXIT_OK:
                raise SystemExit(f"cocarry {' '.join(argv)} failed")


def ranges(lines: list) -> str:
    """'3, 7-9' for the sorted line numbers [3, 7, 8, 9]."""
    spans = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main() -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    executable = {}
    for path in paths:
        executable.update(executable_lines(path))
    reach = Reach({str(p) for p in paths})
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(reach)
        try:
            exercise(Path(tmp))
        finally:
            sys.settrace(None)
    total = sum(map(len, executable.values()))
    unreached = 0
    for key in sorted(executable, key=lambda k: (k[0], k[2], k[1])):
        missed = sorted(executable[key] - reach.lines.get(key, set()))
        if missed:
            path, name, _ = key
            print(f"{os.path.relpath(path, ROOT)}  {name}: {ranges(missed)}")
            unreached += len(missed)
    print(f"{unreached} of {total} executable lines in src/cocarry unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
