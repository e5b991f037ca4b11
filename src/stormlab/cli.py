"""Command-line front end: `run` a config grid, `check` invariants, or
print fitted `slopes` from a summary file. Exit code 0 means every cell
and every enabled check succeeded, 1 that one failed, and 2 a usage error:
bad arguments, a config that cannot be loaded, or a grid that `run_grid`
cannot set up (a bad `--jobs`, a problem that cannot be built, an output
directory that cannot be made), each reported before any cell runs.
`run` only reads its arguments and maps errors to exit codes; every check
and set-up step of a grid is `run_grid`'s."""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .harness import (  # noqa: F401 - bench/tracer.py wraps write_outputs here
    load_config,
    load_summary,
    run_grid,
    run_property_checks,
    write_outputs,
)


def _cmd_run(args) -> int:
    try:
        config = load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"run: could not load '{args.config}': {exc}", file=sys.stderr)
        return 2
    jobs = args.jobs  # read as a config's numbers are; text that is no JSON goes on as it is
    with contextlib.suppress(ValueError):
        jobs = json.loads(args.jobs)
    try:
        result = run_grid(config, jobs=jobs, out_dir=args.out)
    except OSError as exc:
        print(f"run: could not write to '{args.out}': {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
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
    print(f"wrote outputs to {args.out}")
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
    """Print the slope fits of a summary.json read by `load_summary`."""
    try:
        _, slopes, _ = load_summary(args.summary)
    except (OSError, ValueError) as exc:
        print(f"slopes: could not read '{args.summary}': {exc}", file=sys.stderr)
        return 2
    lines = [
        f"{fit['algorithm']} {fit['problem']} {fit['metric']}: "
        f"slope={fit['slope']:.4f} intercept={fit['intercept']:.4f} "
        f"r^2={fit['r_squared']:.4f} points={len(fit['points'])}"
        for fit in slopes
    ]
    print("\n".join(lines) or "no slope fits available (need >= 3 horizons per algorithm)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stormlab",
        description="Benchmark harness for recursive-momentum optimizers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every grid cell of a JSON config")
    p_run.add_argument("config", metavar="CONFIG", help="path to the JSON config")
    p_run.add_argument("--out", metavar="DIR", default="runs",
                       help="output directory (default: runs)")
    p_run.add_argument("--jobs", metavar="N", default="1",
                       help="parallel worker processes")
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
