"""The three workloads: inputs made from the workload seed, the stormlab
calls that are timed, and the checks on what they return.

stormlab sees only the configs made here. The workload seed picks every
grid seed, and the problem seed of fs-large-n and cli-artifacts; the
shapes, horizons and algorithms are fixed, so every seed runs the same
number of cells and checks.
"""

from __future__ import annotations

import contextlib
import json
import os
import random

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_TEMPLATE = os.path.join(HERE, "cli_artifacts.json")

GRID_SEEDS = 10

# rate-grid: the four problem instances of the rate-exponent acceptance
# criteria. On a grid this short the fitted slope is a property of the
# instance: ten different grid-seed sets move it by about 0.01 (0.03 for
# the compositional family), while other finite-sum instances read slopes
# from -0.37 to -0.70. So the instances stay those of the criteria and the
# workload seed picks the grid seeds. The compositional and finite-sum rates
# show only once T is well past the warm-up and n = 100, so those families
# run on longer horizons.
RATE_FAMILIES = (
    ({"name": "noisy_quadratic", "dim": 20, "L": 10.0, "mu": 1.0, "sigma": 1.0, "seed": 11},
     [{"name": "ada_storm", "alpha": 0.3}, {"name": "ada_storm_doubling", "alpha": 0.3}],
     [100, 300, 1000]),
    ({"name": "nonconvex_smooth", "dim": 20, "sigma": 1.0, "seed": 12},
     [{"name": "ada_storm", "alpha": 0.3}], [100, 300, 1000]),
    ({"name": "compositional", "dim": 10, "inner_dim": 10, "sigma": 1.0, "seed": 14},
     [{"name": "comp_storm", "alpha": 0.3}], [300, 1000, 3000]),
    ({"name": "finite_sum", "n": 100, "dim": 20, "seed": 13},
     [{"name": "fs_storm", "label": "table", "alpha": 0.3},
      {"name": "fs_storm_svrg", "label": "anchored", "alpha": 0.3}], [200, 600, 2000]),
)

# fs-large-n: the O(n*dim) per-step costs dominate. The anchored period is
# shorter than every T, so snapshot full passes happen inside each run.
LARGE_N = {"name": "finite_sum", "n": 20_000, "dim": 20}
LARGE_N_ALGORITHMS = [{"name": "fs_storm", "label": "table", "alpha": 0.3},
                      {"name": "fs_storm_svrg", "label": "anchored", "alpha": 0.3,
                       "period": 50}]
LARGE_N_T = [300, 400, 500]
LARGE_N_SEEDS = 3

CLI_JOBS = 2
CLI_SAMPLES = 3  # trace files compared bit for bit with a fresh serial run

WORKLOADS = ("rate-grid", "fs-large-n", "cli-artifacts")


def _draw_seeds(rng, k):
    return sorted(rng.sample(range(1, 2**31), k))


def make_inputs(workload, seed, out_dir):
    """Configs for one round; the cli-artifacts config is written to out_dir."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "rate-grid":
        docs = [{"problem": dict(problem),
                 "algorithms": algorithms,
                 "grid": {"T": T, "seeds": _draw_seeds(rng, GRID_SEEDS)}}
                for problem, algorithms, T in RATE_FAMILIES]
        return {"docs": docs, "jobs": 1}
    if workload == "fs-large-n":
        doc = {"problem": dict(LARGE_N, seed=rng.randrange(1, 2**31)),
               "algorithms": LARGE_N_ALGORITHMS,
               "grid": {"T": LARGE_N_T, "seeds": _draw_seeds(rng, LARGE_N_SEEDS)}}
        return {"docs": [doc], "jobs": 1}
    if workload == "cli-artifacts":
        with open(CLI_TEMPLATE, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["problem"]["seed"] = rng.randrange(1, 2**31)
        doc["grid"]["seeds"] = _draw_seeds(rng, len(doc["grid"]["seeds"]))
        path = os.path.join(out_dir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        return {"docs": [doc], "jobs": CLI_JOBS, "config_path": path,
                "artifacts": os.path.join(out_dir, "artifacts"),
                "samples": random.Random(f"{workload}/{seed}/samples")}
    raise ValueError(f"unknown workload '{workload}', expected one of {WORKLOADS}")


def steps(inputs):
    """Optimizer steps over all cells of one round."""
    return sum(sum(doc["grid"]["T"]) * len(doc["grid"]["seeds"]) * len(doc["algorithms"])
               for doc in inputs["docs"])


def run(workload, inputs, lib):
    """The timed part: what a user of stormlab would run."""
    if workload == "cli-artifacts":
        argv = ["run", inputs["config_path"], "--out", inputs["artifacts"],
                "--jobs", str(inputs["jobs"])]
        log = os.path.join(os.path.dirname(inputs["config_path"]), "cli-stdout.txt")
        with open(log, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            return lib["cli"].main(argv)
    harness = lib["harness"]
    configs = [harness.parse_config(doc) for doc in inputs["docs"]]
    return [(config, harness.run_grid(config)) for config in configs]


# --- checks ------------------------------------------------------------------


def _params(algo):
    return {k: v for k, v in algo.items() if k not in ("name", "label")}


def _cell_key(name, T, seed, params):
    return name, int(T), int(seed), json.dumps(params, sort_keys=True)


def _check_records(config, result, lib, tally, per_cell=None):
    """Cell, trace, exact-gradient and schedule checks on in-memory records."""
    problem = lib["problems"].from_spec(config.problem)
    n = getattr(problem, "n", None)
    algos = {a["label"]: a for a in config.algorithms}
    failed = {f["cell"] for f in result.failures}
    means = {}
    for (label, T, seed), record in zip(result.cells, result.records):
        name = f"{label}__{config.problem['name']}__T{T}__seed{seed}"
        tally.record(f"cell {name}", [f"cell failed: {name}"] if record is None or name in failed else [])
        if record is None:
            continue
        cols = record.columns()
        tally.check(f"trace {name}", checks.check_trace, cols, T)
        tally.check(f"gradient {name}", checks.check_gradient, problem, record.grad_norm,
                    record.tau, record.x_tau)
        tally.check(f"schedule {name}", checks.check_schedule, algos[label], cols, n)
        if per_cell is not None:
            per_cell(problem, algos[label], T, seed, record)
        means.setdefault((label, T), []).append(float(record.grad_norm.mean()))
    return checks.grid_points(means)


def _check_slopes(config, result, points, tally, limits):
    reported = {s["algorithm"]: s for s in result.slopes}
    fits = {}
    for algo in config.algorithms:
        label = algo["label"]
        try:
            fits[label] = checks.loglog_fit(points[label])
        except (KeyError, ValueError, ZeroDivisionError) as exc:
            tally.record(f"slope {label}", [f"no fit: {exc}"])
            continue
        slope, _, r2 = fits[label]
        errors = checks.check_reported_slope(reported.get(label), slope)
        if limits:
            table = [fits[a["label"]][0] for a in config.algorithms
                     if a["name"] == "fs_storm" and a["label"] in fits]
            errors += checks.check_slope_limit(label, algo["name"], slope, r2,
                                               table[0] if table else None)
        tally.record(f"slope {label} {config.problem['name']}", errors)


def check(workload, inputs, outputs, lib, cells, tally):
    """Check a round's outputs; each check is one operation in `tally`."""
    if workload == "cli-artifacts":
        _check_cli(inputs, outputs, lib, tally)
    elif workload == "fs-large-n":
        check_grids(outputs, lib, tally, _large_n_checks(cells, tally))
    else:
        check_grids(outputs, lib, tally, limits=True)


def check_grids(outputs, lib, tally, per_cell=None, limits=False):
    """Checks on in-memory grid results; `limits` adds the rate-slope limits."""
    for config, result in outputs:
        points = _check_records(config, result, lib, tally, per_cell)
        _check_slopes(config, result, points, tally, limits)


def _large_n_checks(cells, tally):
    """Per-cell oracle-cost and descent checks, with counts from the cell log."""
    counted = {_cell_key(c["algorithm"], c["T"], c["seed"], c["params"]): c.get("oracle")
               for c in cells}

    def per_cell(problem, algo, T, seed, record):
        name = f"{algo['label']} T={T} seed={seed}"
        key = _cell_key(algo["name"], T, seed, _params(algo))
        tally.check(f"oracle calls {name}", checks.check_oracle_calls, algo, problem.n, T,
                    counted.get(key))
        tally.check(f"descent {name}", checks.check_descent, problem, record.x_final)

    return per_cell


def _check_cli(inputs, exit_code, lib, tally):
    doc = inputs["docs"][0]
    out = inputs["artifacts"]
    problem_name = doc["problem"]["name"]
    algos = doc["algorithms"]
    labels = [a.get("label", a["name"]) for a in algos]
    Ts, seeds = doc["grid"]["T"], doc["grid"]["seeds"]
    n_cells = len(algos) * len(Ts) * len(seeds)

    tally.record("exit code", [] if exit_code == 0 else [f"stormlab run exited {exit_code}"])
    files = sorted(os.listdir(out)) if os.path.isdir(out) else []
    want = n_cells + 2 + len(algos)
    tally.record("file count", [] if len(files) == want else [f"{len(files)} files, want {want}"])

    summary = None
    try:
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = checks.parse_strict_json(fh.read())
        tally.record("summary.json", [])
    except (OSError, ValueError) as exc:
        tally.record("summary.json", [f"not strict JSON: {exc}"])
    failed = {f["cell"] for f in summary["failures"]} if summary else set()

    grad_norms, traces = {}, {}
    for algo, label in zip(algos, labels):
        for T in Ts:
            for seed in seeds:
                name = f"{label}__{problem_name}__T{T}__seed{seed}"
                tally.record(f"cell {name}", [f"cell failed: {name}"] if name in failed else [])
                try:
                    with open(os.path.join(out, f"trace__{name}.csv"), encoding="utf-8") as fh:
                        cols = checks.read_trace_csv(fh.read())
                except (OSError, ValueError) as exc:
                    tally.record(f"csv {name}", [str(exc)])
                    continue
                tally.check(f"csv {name}", checks.check_trace, cols, T)
                tally.check(f"schedule {name}", checks.check_schedule, algo, cols)
                traces[(label, T, seed)] = cols
                grad_norms.setdefault((label, T), []).append(cols["grad_norm"])

    rows = {(r["algorithm"], r["T"]): r for r in summary["rows"]} if summary else {}
    for label in labels:
        for T in Ts:
            tally.check(f"summary row {label} T={T}", checks.check_summary_row,
                        rows.get((label, T)), grad_norms.get((label, T), []))
    means = {k: [sum(g) / len(g) for g in v] for k, v in grad_norms.items()}
    points = checks.grid_points(means)
    reported = {s["algorithm"]: s for s in summary["slopes"]} if summary else {}
    for label in labels:
        tally.check(f"summary slope {label}",
                    lambda lb=label: checks.check_reported_slope(
                        reported.get(lb), checks.loglog_fit(points[lb])[0]))

    rng = inputs["samples"]
    by_label = dict(zip(labels, algos))
    problem = lib["problems"].from_spec(doc["problem"])
    for label, T, seed in rng.sample(sorted(traces), min(CLI_SAMPLES, len(traces))):
        algo = by_label[label]
        fresh = lib["optimizers"].run_algorithm(algo["name"], problem, T, seed, **_params(algo))
        tally.check(f"serial rerun {label} T={T} seed={seed}", checks.check_same_trace,
                    traces[(label, T, seed)], fresh)
