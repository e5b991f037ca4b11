"""Post-run analysis: inequality checks, rate fits, and cross-seed summaries.

The sandwich bound here is the workhorse behind the adaptive step sizes:
for positive increments c_i and 0 < alpha < 1,

    (sum c)^(1-alpha)  <=  sum_i c_i / (prefix_i)^alpha
                       <=  (sum c)^(1-alpha) / (1 - alpha)

with prefix_i the cumulative sum through i. Everything else is plain
descriptive statistics over RunRecord traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_SANDWICH_RTOL = 1e-9


def prefix_power_sum_bounds(c, alpha: float) -> tuple[float, float, float]:
    """Sandwich bounds for sum_i c_i / (sum_{j<=i} c_j)**alpha.

    Returns (lower, middle, upper) and verifies the ordering up to 1e-9
    relative slack before returning. Raises ValueError on nonpositive
    entries, an empty sequence, or alpha outside (0, 1).
    """
    c = np.asarray(c, dtype=np.float64)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("need a nonempty 1-D sequence of increments")
    if np.any(c <= 0) or not np.all(np.isfinite(c)):
        raise ValueError("increments must be positive and finite")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    prefix = np.cumsum(c)
    middle = float(np.sum(c / prefix**alpha))
    lower = float(prefix[-1] ** (1.0 - alpha))
    upper = lower / (1.0 - alpha)
    slack = _SANDWICH_RTOL * max(abs(lower), abs(middle), abs(upper))
    if not (lower <= middle + slack and middle <= upper + slack):
        raise AssertionError(
            f"sandwich violated: lower={lower!r} middle={middle!r} upper={upper!r}"
        )
    return lower, middle, upper


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log x, log y) points."""

    slope: float
    intercept: float
    r_squared: float
    points: tuple


def fit_loglog_slope(points) -> SlopeFit:
    """Fit log(y) = slope * log(x) + intercept.

    Needs points at two or more distinct x, with finite, strictly positive
    coordinates: a NaN or infinite one raises ValueError too. With two
    points the line interpolates and r_squared is reported as 1.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len({x for x, _ in pts}) < 2:
        raise ValueError(f"need at least 2 distinct x, got {pts}")
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    if not np.all(np.isfinite(xs) & np.isfinite(ys) & (xs > 0) & (ys > 0)):
        raise ValueError(f"log-log fit needs finite, strictly positive coordinates, got {pts}")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    residuals = ly - (slope * lx + intercept)
    ss_res = float(residuals @ residuals)
    centered = ly - ly.mean()
    ss_tot = float(centered @ centered)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(float(slope), float(intercept), float(r_squared), tuple(pts))


def _mean_stderr(values) -> tuple[float, float]:
    values = np.asarray(values, dtype=np.float64)
    mean = float(values.mean())
    if values.size < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(values.size))


# The per-run statistics that `summarize` averages over seeds, by the name
# of their mean; each mean's standard error is named <name>_stderr.
_RUN_STATS = {
    "avg_grad_norm": lambda r: r.grad_norm.mean(),
    "tau_grad_norm": lambda r: r.grad_norm[r.tau - 1],
    "final_quarter_grad_norm": lambda r: r.grad_norm[-math.ceil(r.T / 4):].mean(),
}


def summarize(records) -> dict:
    """Cross-seed statistics for runs sharing one (algorithm, problem, T).

    Per record: the run-average exact gradient norm, the gradient norm at
    the sampled reporting step tau, and the mean gradient norm over the
    final quarter of the run. Returns means with standard errors (0 for a
    single record) and the seed count.
    """
    records = list(records)
    if not records:
        raise ValueError("need at least one record")
    keys = [tuple(map(r.config.get, ("algorithm", "problem", "T"))) for r in records]
    for other in keys[1:]:
        if other != keys[0]:
            raise ValueError(f"mixed run configs: {keys[0]} vs {other}")
    # Sort by seed so aggregation never depends on execution order.
    records.sort(key=lambda r: r.config.get("seed", 0))
    stats = {}
    for name, stat in _RUN_STATS.items():
        stats[name], stats[f"{name}_stderr"] = _mean_stderr([float(stat(r)) for r in records])
    stats["n_seeds"] = len(records)
    return stats


def estimator_error_stats(record) -> dict:
    """Mean squared estimator error over the last half of one run.

    The ratio normalizes by sigma**2 * dim, the mean squared error of a
    single fresh sample on the additive-noise problems; it is NaN when the
    problem has no fixed noise level (e.g. component sampling) or sigma=0.
    """
    est = record.est_error
    last_half = est[record.T // 2:]
    mse = float(np.mean(last_half * last_half))
    prob = record.config.get("problem", {})
    sigma = prob.get("sigma")
    dim = prob.get("dim")
    if sigma and dim:
        ratio = mse / (float(sigma) ** 2 * int(dim))
    else:
        ratio = float("nan")
    return {"mse_last_half": mse, "ratio_to_sample_var": ratio}
