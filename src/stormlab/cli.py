"""Command-line front end: `run` a config grid, `check` invariants, or
print fitted `slopes` from a summary file. Exit code 0 means every cell
and every enabled check succeeded."""

from __future__ import annotations

import argparse
import contextlib
import sys

from .harness import (  # noqa: F401 - bench/tracer.py wraps write_outputs here
    load_config,
    load_summary,
    run_grid,
    run_property_checks,
    write_outputs,
)
from .numerics import checked


def _checked_arg(key):
    """An argparse type reading its text as a number, as a config would
    hold it, and checking it by `numerics.RULES[key]`; text that is no
    number is rejected as it is."""
    def parse(text):
        value = text
        for number in (int, float):
            with contextlib.suppress(ValueError):
                value = number(text)
                break
        try:
            return checked(key, value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _cmd_run(args) -> int:
    path = args.config or args.config_flag
    if not path:
        print("run: a config path is required (positional or --config)", file=sys.stderr)
        return 2
    config = load_config(path)
    out_dir = args.out or config.out_dir or "runs"
    result = run_grid(config, jobs=args.jobs, out_dir=out_dir, thin=args.thin)
    for row in result.rows:
        print(
            f"{row.algorithm} {row.problem} T={row.T} seeds={row.n_seeds} "
            f"avg_grad_norm={row.avg_grad_norm:.6g} "
            f"final_quarter={row.final_quarter_grad_norm:.6g}"
        )
    for fit in result.slopes:
        print(
            f"slope {fit['algorithm']} {fit['problem']} {fit['metric']}: "
            f"{fit['slope']:.4f} (r^2={fit['r_squared']:.4f})"
        )
    for failure in result.failures:
        print(f"FAILED cell {failure['cell']}: {failure['error']}", file=sys.stderr)
    print(f"wrote outputs to {out_dir}")
    return 0 if result.ok else 1


def _cmd_check(_args) -> int:
    results = run_property_checks()
    all_ok = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        all_ok = all_ok and res.passed
        print(f"{status} {res.name}: {res.detail}")
    return 0 if all_ok else 1


def _cmd_slopes(args) -> int:
    try:
        _, slopes, _ = load_summary(args.summary)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"slopes: could not read '{args.summary}': {exc}", file=sys.stderr)
        return 2
    if not slopes:
        print("no slope fits available (need >= 3 horizons per algorithm)")
        return 0
    for fit in slopes:
        print(
            f"{fit['algorithm']} {fit['problem']} {fit['metric']}: "
            f"slope={fit['slope']:.4f} intercept={fit['intercept']:.4f} "
            f"r^2={fit['r_squared']:.4f} points={len(fit['points'])}"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stormlab",
        description="Benchmark harness for recursive-momentum optimizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every grid cell of a JSON config")
    p_run.add_argument("config", nargs="?", help="path to the JSON config")
    p_run.add_argument("--config", dest="config_flag", help="alternative to the positional path")
    p_run.add_argument("--out", help="output directory (overrides the config)")
    p_run.add_argument("--jobs", type=_checked_arg("jobs"), default=1,
                       help="parallel worker processes")
    p_run.add_argument("--thin", type=_checked_arg("thin"), default=None,
                       help="keep every k-th trace row")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="run the built-in property checks")
    p_check.set_defaults(func=_cmd_check)

    p_slopes = sub.add_parser("slopes", help="print rate fits from a summary.json")
    p_slopes.add_argument("summary", help="path to a summary.json")
    p_slopes.set_defaults(func=_cmd_slopes)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
