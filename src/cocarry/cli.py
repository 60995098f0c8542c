"""Command-line front end: run scenarios, compare controllers, validate configs.

Exit codes: 0 on success, 2 for configuration problems, 3 for runtime
failures during simulation or output writing.
"""

import argparse
import math
import sys
from dataclasses import replace

from .aci import Mode
from .objects import presets
from .scenario import ConfigError, load_scenario
from .sim import Simulation, SimulationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "nan" if math.isnan(value) else f"{value:.4f}"
    return str(value)


def _load(args, mode=None):
    overrides = {
        "mode": mode if mode is not None else args.controller,
        "seed": args.seed,
        "dt": args.dt,
    }
    if getattr(args, "out_trace", None):
        overrides["trace_path"] = args.out_trace
    if getattr(args, "out_metrics", None):
        overrides["metrics_path"] = args.out_metrics
    return load_scenario(args.scenario, overrides)


def cmd_run(args) -> int:
    try:
        config = _load(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        _, metrics = Simulation(config).run()
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(
        f"completed={_fmt(metrics.completed)} t_c={_fmt(metrics.t_c)} "
        f"d_am={_fmt(metrics.d_am)} mean_alpha={_fmt(metrics.mean_alpha)}"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    rows = []
    for mode in (Mode.ACI, Mode.ADMITTANCE, Mode.TELEOP):
        try:
            config = _load(args, mode=mode.value)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        config = replace(config, trace_path=None, metrics_path=None)
        try:
            _, metrics = Simulation(config).run()
        except SimulationError as exc:
            print(f"error [{mode.value}]: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        rows.append((mode.value, metrics))

    headers = ["controller", "completed", "t_c", "d_am", "mean_alpha"]
    n_intervals = max(len(m.interval_force) for _, m in rows)
    headers += [f"F_int{i + 1}" for i in range(n_intervals)]
    table = [headers]
    for name, m in rows:
        row = [name, _fmt(m.completed), _fmt(m.t_c), _fmt(m.d_am), _fmt(m.mean_alpha)]
        row += [_fmt(f) for f in m.interval_force]
        row += [""] * (n_intervals - len(m.interval_force))
        table.append(row)
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    for r in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        load_scenario(args.scenario)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{args.scenario}: OK")
    return EXIT_OK


def cmd_presets(_args) -> int:
    for name, model in sorted(presets().items()):
        print(
            f"{name}: tension={model.axial_stiffness_tension:g} N/m, "
            f"compression={model.axial_stiffness_compression:g} N/m, "
            f"lateral={model.lateral_stiffness:g} N/m, "
            f"damping={model.damping:g} Ns/m, slack={model.slack_length:g} m"
        )
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, with_outputs: bool):
    parser.add_argument("--scenario", required=True, help="scenario YAML file")
    parser.add_argument(
        "--controller",
        choices=[m.value for m in Mode],
        default=None,
        help="override the scenario's controller mode",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    parser.add_argument("--dt", type=float, default=None, help="override the timestep")
    if with_outputs:
        parser.add_argument("--out-trace", default=None, help="write the trace here")
        parser.add_argument(
            "--out-metrics", default=None, help="write the metrics summary here"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocarry",
        description="Co-transportation scenarios: run, compare, validate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and print a summary line")
    _add_common(p_run, with_outputs=True)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser(
        "compare", help="run a scenario under all three controllers"
    )
    _add_common(p_cmp, with_outputs=False)
    p_cmp.set_defaults(func=cmd_compare)

    p_val = sub.add_parser("validate", help="check a scenario file and exit")
    p_val.add_argument("--scenario", required=True, help="scenario YAML file")
    p_val.set_defaults(func=cmd_validate)

    p_pre = sub.add_parser("presets", help="list the object coupling presets")
    p_pre.set_defaults(func=cmd_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
