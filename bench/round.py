"""One round of one workload, in a fresh process.

Usage: round.py WORKLOAD SEED OUT_DIR MODE

MODE is `run` (untraced), `trace` (spans on every layer) or `setup` (stop
at the first grid: time set-up only). The process start is stamped by the
parent; this process stamps the first grid entry and the end of its last
output on the same system-wide monotonic clock, then checks the outputs
and writes OUT_DIR/result.json.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import checks
import workloads
from tracer import DRAWS, INITS, ORACLES, RATES, UPDATES, CellLog, SetupDone, Tracer, install_tracer


def _measure_bytes(spec):
    """Bytes of problem data one exact-gradient measurement reads (computed)."""
    dim = spec["dim"]
    rows = {"finite_sum": spec.get("n"), "noisy_quadratic": dim,
            "compositional": spec.get("inner_dim"), "nonconvex_smooth": 1}[spec["name"]]
    return rows * dim * 8


def layer_metrics(stats, counters, cells, steps, jobs):
    """Per-layer figures of one traced round; a layer the workload never
    calls reads 0."""
    calls, incl, self_, nested = range(4)

    def total(names, i):
        return sum(stats.get(name, (0, 0.0, 0.0, 0))[i] for name in names)

    def per(num, den):
        return num / den if den else 0.0

    def per_call(name):
        return per(total([name], incl), total([name], calls))

    draws = [f"problems.{m}" for m in DRAWS]
    oracles = [f"problems.{m}" for m in ORACLES]
    updates = [f"estimators.{m}" for m in UPDATES]
    inits = [f"estimators.{m}" for m in INITS] + ["estimators.GradientTable.from_full_pass"]
    rates = [f"schedules.{m}" for m in RATES]
    runners = [name for name in stats if name.startswith("optimizers.")]
    # an oracle called inside another (finite-sum grad_at -> component_grad) is one call
    oracle_calls = total(oracles, calls) - total(oracles, nested)
    return {
        "problems.draw_us": 1e6 * per(total(draws, self_), total(draws, calls)),
        "problems.draws_per_step": per(total(draws, calls), steps),
        "problems.oracle_us": 1e6 * per(total(oracles, self_), oracle_calls),
        "problems.oracle_calls_per_step": per(oracle_calls, steps),
        "problems.measure_us_per_step": 1e6 * per(total(["problems.value_and_grad"], incl), steps),
        "problems.full_passes": total(["problems.full_grad"], calls),
        "problems.measure_bytes_per_step": per(
            sum(c["T"] * _measure_bytes(c["problem"]) for c in cells), steps),
        "estimators.update_us": 1e6 * per(total(updates, self_), total(updates, calls)),
        "estimators.table_update_us": 1e6 * per_call("estimators.GradientTable.updated"),
        "estimators.table_bytes_copied_per_step": per(counters.get("table_bytes", 0), steps),
        "estimators.init_ms": 1e3 * per(total(inits, incl), len(cells)),
        "schedules.lr_us": 1e6 * per(total(rates, self_), total(rates, calls)),
        "optimizers.self_us_per_step": 1e6 * per(total(runners, self_), steps),
        "analysis.summarize_ms": 1e3 * per_call("analysis.summarize"),
        "analysis.slope_fit_ms": 1e3 * per_call("analysis.fit_loglog_slope"),
        "harness.parse_config_ms": 1e3 * per_call("harness.parse_config"),
        # with a pool, cell time is shared among the workers
        "harness.grid_overhead_ms": 1e3 * (total(["harness.run_grid"], incl)
                                           - sum(c["s"] for c in cells) / jobs),
        "harness.write_trace_us_per_row": 1e6 * per(total(["harness.write_trace_csv"], incl),
                                                    counters.get("trace_rows", 0)),
        "harness.trace_rows_written": counters.get("trace_rows", 0),
    }


def by_algorithm(cells):
    """Traced per-step split for each algorithm: cell, measurement, table copy."""
    out = {}
    for c in cells:
        acc = out.setdefault(c["algorithm"], {"steps": 0, "cell_s": 0.0, "measure_s": 0.0,
                                              "table_s": 0.0})
        spans = c.get("spans", {})
        acc["steps"] += c["T"]
        acc["cell_s"] += c["s"]
        acc["measure_s"] += spans.get("problems.value_and_grad", (0, 0.0))[1]
        acc["table_s"] += spans.get("estimators.GradientTable.updated", (0, 0.0))[1]
    return {name: {"cell_us_per_step": 1e6 * a["cell_s"] / a["steps"],
                   "measure_us_per_step": 1e6 * a["measure_s"] / a["steps"],
                   "table_us_per_step": 1e6 * a["table_s"] / a["steps"]}
            for name, a in out.items()}


def _merge(stats, counters, worker_cells):
    stats = {name: list(s) for name, s in stats.items()}
    counters = dict(counters)
    for c in worker_cells:
        for name, s in c.get("spans", {}).items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
            stats[name] = [a + b for a, b in zip(acc, s)]
        for key, v in c.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + v
    return stats, counters


def _dir_bytes(path):
    if not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def main(argv):
    workload, seed, out_dir, mode = argv[1], int(argv[2]), argv[3], argv[4]
    inputs = workloads.make_inputs(workload, seed, out_dir)

    import stormlab  # noqa: F401  (set-up includes the package import)
    from stormlab import cli, estimators, harness, optimizers, problems

    lib = {"problems": problems, "estimators": estimators, "optimizers": optimizers,
           "harness": harness, "cli": cli}
    tracer = Tracer() if mode == "trace" else None
    log = CellLog(out_dir, tracer, stop_at_first_grid=mode == "setup")
    if workload == "fs-large-n":
        log.count_oracles(problems)
    if tracer is not None:
        install_tracer(tracer, lib)
    harness.run_algorithm = log.wrap_cell(harness.run_algorithm)
    harness.run_grid = log.wrap_grid(harness.run_grid)
    cli.run_grid = log.wrap_grid(cli.run_grid)

    result_path = os.path.join(out_dir, "result.json")
    try:
        outputs = workloads.run(workload, inputs, lib)
    except SetupDone:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"t_setup": log.first_grid}, fh)
        return 0
    t_end = time.monotonic()
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    traced = tracer.snapshot() if tracer is not None else None

    worker_cells = log.worker_cells()
    cells = log.cells + worker_cells
    tally = checks.Tally()
    workloads.check(workload, inputs, outputs, lib, cells, tally)
    artifacts = inputs.get("artifacts")
    result = {
        "t_setup": log.first_grid,
        "t_end": t_end,
        "steps": workloads.steps(inputs),
        "rss_kb": rss_kb,
        "cells": [{k: c[k] for k in ("algorithm", "T", "seed", "s")} for c in cells],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
    }
    if traced is not None:
        stats, counters = _merge(*traced, worker_cells)
        layers = layer_metrics(stats, counters, cells, result["steps"], inputs["jobs"])
        layers["harness.artifact_bytes"] = _dir_bytes(artifacts) if artifacts else 0
        result["layers"] = layers
        result["by_algorithm"] = by_algorithm(cells)
        result["spans"] = stats
        result["counters"] = counters
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
