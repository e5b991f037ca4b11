"""Experiment harness: JSON configs in, deterministic CSV/JSON artifacts out.

A config names one problem, a list of algorithms, and a grid of horizons
and seeds. Every (algorithm, T, seed) cell is an independent pure function
of the config, so cells may run in parallel and reruns are byte-identical.
`run_grid(config, out_dir=...)` writes each finished cell's trace while the
rest of the grid runs, then the summary and plot files after the last
cell; `write_outputs` writes the same files from an in-memory result.
Floats in the CSV outputs are written with 17 significant digits, which
round-trips float64 losslessly.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import problems
from .analysis import fit_loglog_slope, prefix_power_sum_bounds, summarize
from .numerics import REQUIRED, RngStream, checked, checked_fields
from .optimizers import RunRecord, check_run, run_algorithm


def _write_csv(path, columns: dict, thin: int = 1):
    """Write equal-length columns (name -> values) as CSV, keeping every
    `thin`-th row: floats with 17 significant digits, everything else bare.

    The body is one `%` over a repeated row template; `'%.17g' % x` and
    `'{:.17g}'.format(x)` are the same C routine, and `'%s' % x` is `str(x)`.
    """
    values = [np.asarray(v)[::thin] for v in columns.values()]
    row = ",".join("%.17g" if v.dtype.kind == "f" else "%s" for v in values) + "\n"
    cells = itertools.chain.from_iterable(zip(*(v.tolist() for v in values)))
    body = (row * len(values[0])) % tuple(cells) if values else ""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n" + body)


@dataclass
class ExperimentConfig:
    problem: dict
    algorithms: list
    T_grid: list
    seeds: list
    thin: int = 1

    def to_json(self) -> str:
        doc = {
            "problem": self.problem,
            "algorithms": self.algorithms,
            "grid": {"T": self.T_grid, "seeds": self.seeds},
            "output": {"thin": self.thin},
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def _parse_algorithm(entry, spec) -> dict:
    """A config's algorithm entry on the problem of spec `spec`: its name,
    its label and its tunables as `check_run` returns them. The label is a
    bare summary.csv cell and names files (within the usual 255-byte name
    limit), so it is 1 to 100 UTF-8 bytes of printable characters."""
    if not isinstance(entry, dict):
        raise ValueError(f"algorithm must be a JSON object, got {entry!r}")
    name = entry.get("name")
    params = check_run(name, spec, {k: v for k, v in entry.items() if k not in ("name", "label")})
    label = entry.get("label", name)
    if (not isinstance(label, str) or not label or not label.isprintable()
            or any(c in label for c in '/\\,"') or len(label.encode()) > 100):
        raise ValueError("algorithm label must be 1 to 100 bytes of printable characters "
                         f"other than '/', '\\', ',' and '\"', got {label!r}")
    return {"name": name, "label": label, **dict(sorted(params.items()))}


def _grid_values(grid, field, key) -> list:
    """grid[field], a value or a list of them, as a nonempty list of
    distinct values each checked by `numerics.RULES[key]`."""
    values = grid[field] if isinstance(grid[field], list) else [grid[field]]
    values = [checked(key, value, "grid ") for value in values]
    if not values or len(set(values)) != len(values):
        raise ValueError(f"grid {field} must be nonempty and distinct, got {values}")
    return values


def parse_config(doc) -> ExperimentConfig:
    """Validate a config given as JSON text or an already-parsed mapping.

    The config holds 'problem', 'algorithms' (a nonempty list), 'grid'
    ('T' and 'seeds') and optionally 'output' ('thin', the trace row
    stride); where the files go is the caller's to say. The config and
    every object in it must be a JSON object without unknown or missing
    keys (`numerics.checked_fields`), T values and seeds must be distinct,
    and every named value is checked by its `numerics.RULES` rule here
    rather than deep in a grid cell: a whole number is never a bool, 10.0
    is 10 and 10.5 is an error. The problem is checked, not built.
    """
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    doc = checked_fields(doc, {"problem": REQUIRED, "algorithms": REQUIRED,
                               "grid": REQUIRED, "output": {}}, "config")
    problem_spec = problems.check_spec(doc["problem"])

    if not isinstance(doc["algorithms"], list) or not doc["algorithms"]:
        raise ValueError("'algorithms' must be a nonempty list")
    algos = [_parse_algorithm(a, problem_spec) for a in doc["algorithms"]]
    labels = [a["label"] for a in algos]
    if len(set(labels)) != len(labels):
        raise ValueError(f"algorithm labels must be unique, got {labels}")

    grid = checked_fields(doc["grid"], {"T": REQUIRED, "seeds": REQUIRED}, "grid")
    output = checked_fields(doc["output"], {"thin": 1}, "output", "output ")

    return ExperimentConfig(
        problem=problem_spec,
        algorithms=algos,
        T_grid=_grid_values(grid, "T", "T"),
        seeds=_grid_values(grid, "seeds", "seed"),
        thin=output["thin"],
    )


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


@dataclass(frozen=True)
class SummaryRow:
    """Cross-seed statistics for one (algorithm, problem, T) grid cell group."""

    algorithm: str
    problem: str
    T: int
    n_seeds: int
    avg_grad_norm: float
    avg_grad_norm_stderr: float
    tau_grad_norm: float
    tau_grad_norm_stderr: float
    final_quarter_grad_norm: float
    final_quarter_grad_norm_stderr: float


@dataclass
class GridResult:
    cells: list  # [(label, T, seed), ...] in config order
    records: list  # RunRecord or None per cell
    rows: list = field(default_factory=list)  # SummaryRow
    slopes: list = field(default_factory=list)  # dicts
    failures: list = field(default_factory=list)  # {"cell": ..., "error": ...}

    @property
    def ok(self) -> bool:
        return not self.failures


def _run_cell(payload):
    problem, algo, T, seed = payload
    params = {
        k: v for k, v in algo.items() if k not in ("name", "label")
    }
    return run_algorithm(algo["name"], problem, T, seed, **params)


def _run_cell_safe(payload):
    try:
        return True, _run_cell(payload)
    except Exception as exc:  # grid keeps going; the failure is reported
        return False, f"{type(exc).__name__}: {exc}"


# The grid's problem inside a pool worker, handed over by run_grid.
_worker_problem = None


def _start_worker(problem):
    global _worker_problem
    _worker_problem = problem


def _run_worker_cell(cell):
    return _run_cell_safe((_worker_problem, *cell))


def _pool_outcomes(problem, grid, jobs):
    """`_run_cell_safe` outcomes of the grid's cells, in grid order, from
    `jobs` worker processes, or one per cell when the grid has fewer cells.
    When a worker dies, every cell not yet received runs alone in a fresh
    one-worker pool, so a cell whose own worker dies fails alone."""
    from concurrent.futures import ProcessPoolExecutor  # only jobs > 1 pays the import
    from concurrent.futures.process import BrokenProcessPool

    def pool(workers):
        return ProcessPoolExecutor(
            max_workers=workers, initializer=_start_worker, initargs=(problem,))

    received = 0
    try:
        with pool(min(jobs, len(grid))) as executor:
            for outcome in executor.map(_run_worker_cell, grid):
                yield outcome
                received += 1
    except BrokenProcessPool:
        pass
    for cell in grid[received:]:
        try:
            with pool(1) as executor:
                outcome = executor.submit(_run_worker_cell, cell).result()
        except BrokenProcessPool as exc:
            outcome = False, f"{type(exc).__name__}: {exc}"
        yield outcome


def run_grid(config: ExperimentConfig, jobs: int = 1, out_dir=None) -> GridResult:
    """Run every (algorithm, T, seed) cell and aggregate summaries.

    Cells are independent; jobs > 1 fans them out to worker processes and
    the merged result is identical to a serial run. A failing cell is
    reported in `failures` without stopping the rest of the grid, and so is
    a cell whose worker process dies.

    Set-up comes first, in this order, before any cell runs or any file is
    written: `jobs` and `config.thin` are checked by their `numerics.RULES`
    rules; the problem is built, once per grid (no run changes what it
    computes) for every cell and worker, and a spec that checks but cannot
    be built (say, a dim too large to allocate) raises ValueError naming
    the problem; then `out_dir` is made. A bad value therefore leaves no
    directory behind.

    With `out_dir`, the files `write_outputs(result, config, out_dir)`
    would write are written here instead: each finished cell's trace,
    thinned by `config.thin`, as soon as it and every cell before it in
    grid order are done, while the pool runs the rest, and the summary and
    plot files after the last cell.
    """
    jobs = checked("jobs", jobs)
    thin = checked("thin", config.thin)
    name = config.problem["name"]
    try:
        problem = problems.from_spec(config.problem)
    except Exception as exc:  # a spec that checks can still fail to build
        raise ValueError(f"problem '{name}' could not be built: {exc}") from exc
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    grid = list(itertools.product(config.algorithms, config.T_grid, config.seeds))
    cells = [(algo["label"], T, seed) for algo, T, seed in grid]

    result = GridResult(cells=cells, records=[])
    by_group = {}
    if jobs == 1:
        outcomes = (_run_cell_safe((problem, *cell)) for cell in grid)
    else:
        outcomes = _pool_outcomes(problem, grid, jobs)
    with contextlib.closing(outcomes):  # shuts the pool down on any exit
        for cell, (ok, value) in zip(cells, outcomes):
            if ok:
                result.records.append(value)
                by_group.setdefault((cell[0], cell[1]), []).append(value)
                if out_dir is not None:
                    write_trace_csv(value, _trace_path(out_dir, cell, config), thin=thin)
            else:
                result.records.append(None)
                result.failures.append({"cell": _cell_name(cell, config), "error": value})

    # Groups appear in grid order; one without a finished cell never appears.
    for (label, T), group in by_group.items():
        stats = summarize(group)
        result.rows.append(
            SummaryRow(algorithm=label, problem=config.problem["name"], T=T, **stats)
        )
    result.slopes = fit_slopes(result.rows)
    if out_dir is not None:
        _write_summaries(result, config, out_dir)
    return result


def fit_slopes(rows) -> list:
    """Log-log fit of avg_grad_norm against T for each (algorithm, problem)
    in `rows`, in first-seen order; groups with fewer than three horizons
    or a nonpositive value are left out."""
    groups = {}
    for row in rows:
        groups.setdefault((row.algorithm, row.problem), []).append((row.T, row.avg_grad_norm))
    slopes = []
    for (algorithm, problem), points in groups.items():
        points.sort()
        if len(points) >= 3 and all(y > 0 for _, y in points):
            fit = fit_loglog_slope(points)
            slopes.append(
                {
                    "algorithm": algorithm,
                    "problem": problem,
                    "metric": "avg_grad_norm",
                    "slope": fit.slope,
                    "intercept": fit.intercept,
                    "r_squared": fit.r_squared,
                    "points": [list(p) for p in fit.points],
                }
            )
    return slopes


def _cell_name(cell, config) -> str:
    label, T, seed = cell
    return f"{label}__{config.problem['name']}__T{T}__seed{seed}"


def _trace_path(out_dir, cell, config):
    return os.path.join(out_dir, f"trace__{_cell_name(cell, config)}.csv")


def write_trace_csv(record: RunRecord, path, thin: int = 1):
    """One CSV per run; rows with (t - 1) % thin == 0 are retained."""
    _write_csv(path, record.columns(), checked("thin", thin))


def write_outputs(result: GridResult, config: ExperimentConfig, out_dir):
    """Write per-run traces, summary.csv, summary.json, and plot CSVs.

    Returns the list of written paths. Traces keep every `config.thin`-th
    row, the thin that summary.json echoes; summary statistics always come
    from the full in-memory traces. `run_grid(config, out_dir=...)` writes
    the same files as the grid runs.
    """
    thin = checked("thin", config.thin)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for cell, record in zip(result.cells, result.records):
        if record is not None:
            paths.append(_trace_path(out_dir, cell, config))
            write_trace_csv(record, paths[-1], thin=thin)
    return paths + _write_summaries(result, config, out_dir)


def _write_summaries(result: GridResult, config: ExperimentConfig, out_dir) -> list:
    """Write summary.csv, summary.json and the plot CSVs; returns their paths."""
    paths = []
    names = [f.name for f in fields(SummaryRow)]
    summary_csv = os.path.join(out_dir, "summary.csv")
    _write_csv(summary_csv, {name: [getattr(r, name) for r in result.rows] for name in names})
    paths.append(summary_csv)

    doc = {
        "config": json.loads(config.to_json()),
        "rows": [asdict(r) for r in result.rows],
        "slopes": result.slopes,
        "failures": result.failures,
    }
    summary_json = os.path.join(out_dir, "summary.json")
    with open(summary_json, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(summary_json)

    plot_names = [name for name in names if name not in ("algorithm", "problem", "n_seeds")]
    for algo in config.algorithms:
        label = algo["label"]
        rows = sorted(
            (r for r in result.rows if r.algorithm == label), key=lambda r: r.T
        )
        if not rows:
            continue
        path = os.path.join(out_dir, f"plot__{label}__{config.problem['name']}.csv")
        _write_csv(path, {name: [getattr(r, name) for r in rows] for name in plot_names})
        paths.append(path)
    return paths


def load_summary(path):
    """Reparse summary.json into (rows, slopes, failures)."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    rows = [SummaryRow(**r) for r in doc.get("rows", [])]
    return rows, doc.get("slopes", []), doc.get("failures", [])


# ---------------------------------------------------------------------------
# Built-in property checks (the `check` CLI verb).

CHECK_PROBLEMS = (
    {"name": "noisy_quadratic", "dim": 20, "L": 10.0, "mu": 1.0, "sigma": 1.0, "seed": 11},
    {"name": "nonconvex_smooth", "dim": 20, "sigma": 1.0, "seed": 12},
    {"name": "finite_sum", "n": 100, "dim": 20, "seed": 13},
    {"name": "compositional", "dim": 10, "inner_dim": 10, "sigma": 1.0, "seed": 14},
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_sandwich() -> CheckResult:
    # prefix_power_sum_bounds raises AssertionError on any violation.
    try:
        lower, middle, upper = prefix_power_sum_bounds([1.0, 1.0, 1.0, 1.0], 0.5)
        hand = 1.0 + 2.0**-0.5 + 3.0**-0.5 + 0.5
        if abs(middle - hand) > 1e-12 or abs(lower - 2.0) > 1e-12 or abs(upper - 4.0) > 1e-12:
            return CheckResult("sandwich-bounds", False, "hand-computed case mismatch")
        gen = RngStream(2024).child("sandwich-sweep").generator
        for _ in range(1000):
            length = int(gen.integers(1, 101))
            prefix_power_sum_bounds(gen.uniform(1e-6, 10.0, length), float(gen.uniform(0.01, 0.99)))
    except AssertionError as exc:
        return CheckResult("sandwich-bounds", False, str(exc))
    return CheckResult("sandwich-bounds", True, "hand case and 1000 random sequences hold")


def _check_gradients() -> CheckResult:
    worst_overall = 0.0
    for spec in CHECK_PROBLEMS:
        problem = problems.from_spec(spec)
        gen = RngStream(spec["seed"]).child("grad-check-points").generator
        for _ in range(100):
            x = gen.standard_normal(problem.dim)
            worst_overall = max(worst_overall, problems.grad_check(problem, x))
    passed = worst_overall < 1e-6
    return CheckResult(
        "gradient-oracles", passed, f"worst finite-difference error {worst_overall:.3g}"
    )


def _check_fixed_points() -> CheckResult:
    quad = problems.make_noisy_quadratic(dim=10, L=10.0, mu=1.0, sigma=0.0, seed=5)
    rec = run_algorithm("ada_storm", quad, 1000, seed=0, alpha=0.3)
    worst = float(rec.est_error.max())
    comp = problems.make_compositional(dim=8, inner_dim=6, sigma=0.0, seed=6)
    rec = run_algorithm("comp_storm", comp, 1000, seed=0, alpha=0.3)
    worst = max(worst, float(rec.est_error.max()))
    passed = worst <= 1e-12
    return CheckResult(
        "noiseless-fixed-points", passed, f"max estimator error {worst:.3g}"
    )


def run_property_checks() -> list:
    """The quick invariant suite behind the `check` CLI verb."""
    return [_check_sandwich(), _check_gradients(), _check_fixed_points()]
