"""Output checks made apart from stormlab's own code.

Every check returns a list of failure messages; an empty list is a pass.
`Tally` counts each check as one operation, and a check that raises counts
as failed too. Gradients are recomputed from each problem's public data,
schedules from the trace's own `v_norm_sq` column, and slopes with a
least-squares fit written here, so a check never compares stormlab with
itself.
"""

from __future__ import annotations

import json
import math

import numpy as np

TRACE_COLUMNS = ("t", "f", "grad_norm", "v_norm_sq", "eta", "beta", "est_error")

# Rounding allowance for quantities recomputed in another order.
GRAD_RTOL = 1e-9
LAW_RTOL = 1e-12
STAT_RTOL = 1e-12
SLOPE_ATOL = 1e-9

# label or algorithm -> (largest slope allowed, smallest r^2 or None)
RATE_LIMITS = {
    "ada_storm": (-0.25, 0.9),
    "ada_storm_doubling": (-0.25, 0.9),
    "comp_storm": (-0.25, None),
    "table": (-0.4, None),
}
ANCHORED_GAP = 0.1  # |anchored slope - table slope|


class Tally:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, what, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {'; '.join(errors)[:300]}")

    def check(self, what, fn, *args):
        try:
            errors = fn(*args)
        except Exception as exc:  # a checker that cannot run is a failed check
            errors = [f"{type(exc).__name__}: {exc}"]
        self.record(what, errors)


def _close(got, want, rtol, atol=0.0):
    return abs(got - want) <= atol + rtol * abs(want)


# --- exact gradients -----------------------------------------------------


def exact_gradient(problem, x):
    """The objective's gradient at x, from the problem's public data."""
    name = problem.spec["name"]
    x = np.asarray(x, dtype=np.float64)
    if name == "noisy_quadratic":
        return problem.A @ x + problem.b
    if name == "nonconvex_smooth":
        return 2.0 * problem.coeffs * x / (1.0 + x * x) + problem.epsilon * x
    if name == "finite_sum":
        r = problem.features @ x - problem.targets
        q = 1.0 + r * r
        return problem.features.T @ (2.0 * r / (q * q)) / problem.features.shape[0]
    if name == "compositional":
        return problem.matrix.T @ (problem.matrix @ x + problem.offset)
    raise ValueError(f"no exact gradient for problem family '{name}'")


def finite_sum_objective(problem, x):
    r = problem.features @ np.asarray(x, dtype=np.float64) - problem.targets
    return float(np.mean(r * r / (1.0 + r * r)))


def check_gradient(problem, grad_norm, tau, x_tau):
    """grad_norm[tau-1] is the norm of the exact gradient at x_tau."""
    if not 1 <= tau <= len(grad_norm):
        return [f"tau {tau} outside 1..{len(grad_norm)}"]
    want = float(np.linalg.norm(exact_gradient(problem, x_tau)))
    got = float(grad_norm[tau - 1])
    if not _close(got, want, GRAD_RTOL):
        return [f"grad_norm[{tau - 1}]={got!r}, exact {want!r}"]
    return []


def check_trace(cols, T):
    """Every column has T finite rows and t runs 1..T."""
    errors = []
    for name in TRACE_COLUMNS:
        col = np.asarray(cols.get(name, ()), dtype=np.float64)
        if col.shape != (T,):
            errors.append(f"column {name} has shape {col.shape}, want ({T},)")
        elif not np.all(np.isfinite(col)):
            errors.append(f"column {name} has {int(np.sum(~np.isfinite(col)))} non-finite rows")
    if not errors and not np.array_equal(np.asarray(cols["t"]), np.arange(1, T + 1)):
        errors.append("t is not 1..T")
    return errors


# --- schedules -----------------------------------------------------------


def _ada_eta(horizon, alpha, sum_sq):
    horizon = np.asarray(horizon, dtype=np.float64)
    flat = horizon ** (-1.0 / 3.0)
    with np.errstate(divide="ignore"):
        adaptive = 1.0 / (horizon ** ((1.0 - alpha) / 3.0) * sum_sq**alpha)
    return np.where(sum_sq == 0.0, flat, np.minimum(flat, adaptive))


def schedule_law(algo, T, v_norm_sq, n=None):
    """(eta, beta) per step as the paper's laws give them for this trace.

    Ada-STORM and its compositional variant: eta = min(T^-1/3,
    1/(T^((1-a)/3) S^a)) with S the running sum of |v|^2, beta = T^-2/3.
    The doubling variant runs the same laws per dyadic stage [2^k, 2^(k+1))
    with the stage length as horizon and S restarted. The finite-sum
    methods: eta = 1/(n^((1-a)/2) S^a), beta = 1/n.
    """
    name = algo["name"]
    v = np.asarray(v_norm_sq, dtype=np.float64)
    t = np.arange(1, T + 1)
    if name in ("ada_storm", "comp_storm"):
        eta = _ada_eta(np.full(T, T), algo["alpha"], np.cumsum(v))
        return eta, np.full(T, min(1.0, float(T) ** (-2.0 / 3.0)))
    if name == "ada_storm_doubling":
        stage = np.array([1 << (k.bit_length() - 1) for k in range(1, T + 1)])
        sums = np.empty(T)
        for start in np.unique(stage):
            lo, hi = start - 1, min(2 * start - 1, T)
            sums[lo:hi] = np.cumsum(v[lo:hi])
        beta = np.minimum(1.0, stage.astype(np.float64) ** (-2.0 / 3.0))
        return _ada_eta(stage, algo["alpha"], sums), beta
    if name in ("fs_storm", "fs_storm_svrg"):
        beta = np.full(T, 1.0 / n)
        if algo.get("eta_const") is not None:
            return np.full(T, float(algo["eta_const"])), beta
        sums = np.maximum(np.cumsum(v), 1e-30)
        return 1.0 / (float(n) ** ((1.0 - algo["alpha"]) / 2.0) * sums ** algo["alpha"]), beta
    if name == "sgd":
        eta = algo["eta0"] / np.sqrt(1.0 + algo["decay"] * t)
        return eta, np.zeros(T)
    raise ValueError(f"no schedule law for '{name}'")


def check_schedule(algo, cols, n=None):
    T = len(cols["eta"])
    eta, beta = schedule_law(algo, T, cols["v_norm_sq"], n)
    errors = []
    for name, want in (("eta", eta), ("beta", beta)):
        got = np.asarray(cols[name], dtype=np.float64)
        bad = ~(np.abs(got - want) <= LAW_RTOL * np.abs(want))
        if np.any(bad):
            i = int(np.argmax(bad))
            errors.append(f"{name}[{i}]={got[i]!r}, law gives {want[i]!r} ({int(bad.sum())} rows off)")
    return errors


# --- rate slopes ---------------------------------------------------------


def loglog_fit(points):
    """Least-squares line through (log T, log y): (slope, intercept, r^2)."""
    x = np.log(np.array([p[0] for p in points], dtype=np.float64))
    y = np.log(np.array([p[1] for p in points], dtype=np.float64))
    xc, yc = x - x.mean(), y - y.mean()
    slope = float(xc @ yc / (xc @ xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    ss_tot = float(yc @ yc)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return slope, intercept, r2


def grid_points(grad_norm_by_cell):
    """{(label, T): [mean grad_norm per seed]} -> {label: [(T, seed mean)]}."""
    points = {}
    for (label, T), per_seed in grad_norm_by_cell.items():
        points.setdefault(label, []).append((T, float(np.mean(per_seed))))
    return {label: sorted(p) for label, p in points.items()}


def check_slope_limit(label, algorithm, slope, r2, anchor_slope=None):
    """The paper's rate on this grid; `anchor_slope` is the table slope."""
    if algorithm == "fs_storm_svrg":
        if anchor_slope is None:
            return ["anchored slope without a table slope to compare"]
        if abs(slope - anchor_slope) > ANCHORED_GAP:
            return [f"anchored slope {slope:.3f} is {abs(slope - anchor_slope):.3f} "
                    f"from table slope {anchor_slope:.3f}"]
        return []
    key = "table" if algorithm == "fs_storm" else algorithm
    if key not in RATE_LIMITS:
        return []
    limit, min_r2 = RATE_LIMITS[key]
    errors = []
    if not slope <= limit:
        errors.append(f"{label} slope {slope:.3f} above {limit}")
    if min_r2 is not None and not r2 >= min_r2:
        errors.append(f"{label} r^2 {r2:.3f} below {min_r2}")
    return errors


def check_reported_slope(reported, slope):
    """The slope stormlab reports agrees with the fit made here."""
    if reported is None:
        return ["no slope reported"]
    if not _close(float(reported["slope"]), slope, 0.0, SLOPE_ATOL):
        return [f"reported slope {reported['slope']!r}, refit {slope!r}"]
    return []


# --- finite-sum costs ----------------------------------------------------


def expected_oracle_calls(algo, n, T):
    """Component gradients and full passes each finite-sum method must make.

    The table variant fills its table with n component gradients, then makes
    2 per later step. The anchored variant makes 3 per later step, plus a
    full pass at the start and at every step t with t % period == 0.
    """
    if algo["name"] == "fs_storm":
        return {"component_grad": n + 2 * (T - 1), "full_grad": 0}
    if algo["name"] == "fs_storm_svrg":
        period = int(algo.get("period", n))
        refreshes = sum(1 for t in range(2, T + 1) if t % period == 0)
        return {"component_grad": 3 * (T - 1), "full_grad": 1 + refreshes}
    raise ValueError(f"no oracle cost for '{algo['name']}'")


def check_oracle_calls(algo, n, T, counted):
    want = expected_oracle_calls(algo, n, T)
    if counted != want:
        return [f"counted {counted}, method costs {want}"]
    return []


def check_descent(problem, x_final):
    f0 = finite_sum_objective(problem, problem.x0)
    fT = finite_sum_objective(problem, x_final)
    if not fT < f0:
        return [f"f(x_T)={fT!r} not below f(x0)={f0!r}"]
    return []


# --- CLI artifacts -------------------------------------------------------


def read_trace_csv(text):
    """Parse a trace CSV with Python's float(), which round-trips %.17g."""
    lines = text.split("\n")
    if lines[0] != ",".join(TRACE_COLUMNS):
        raise ValueError(f"bad header {lines[0]!r}")
    if lines[-1] != "":
        raise ValueError("file does not end with a newline")
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(r) != len(TRACE_COLUMNS) for r in rows):
        raise ValueError("row with the wrong number of fields")
    cols = {name: [float(r[j]) for r in rows] for j, name in enumerate(TRACE_COLUMNS)}
    cols["t"] = [int(r[0]) for r in rows]
    return cols


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def parse_strict_json(text):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def summary_stats(per_seed_grad_norms, T):
    """(avg_grad_norm, final_quarter_grad_norm) over seeds, recomputed."""
    q = math.ceil(T / 4)
    avg = np.mean([np.mean(g) for g in per_seed_grad_norms])
    quarter = np.mean([np.mean(np.asarray(g)[-q:]) for g in per_seed_grad_norms])
    return float(avg), float(quarter)


def check_summary_row(row, per_seed_grad_norms):
    avg, quarter = summary_stats(per_seed_grad_norms, int(row["T"]))
    errors = []
    for key, want in (("avg_grad_norm", avg), ("final_quarter_grad_norm", quarter)):
        if not _close(float(row[key]), want, STAT_RTOL):
            errors.append(f"{row['algorithm']} T={row['T']} {key}={row[key]!r}, recomputed {want!r}")
    if int(row["n_seeds"]) != len(per_seed_grad_norms):
        errors.append(f"n_seeds={row['n_seeds']}, found {len(per_seed_grad_norms)} traces")
    return errors


def check_same_trace(cols, record):
    """A parsed trace equals a fresh run's columns bit for bit."""
    errors = []
    fresh = record.columns()
    for name in TRACE_COLUMNS:
        got = np.asarray(cols[name], dtype=np.float64)
        want = np.asarray(fresh[name], dtype=np.float64)
        if got.shape != want.shape:
            errors.append(f"{name}: {got.shape[0]} rows, fresh run has {want.shape[0]}")
        elif not np.array_equal(got.view(np.int64), want.view(np.int64)):
            errors.append(f"{name}: differs from a fresh serial run")
    return errors
