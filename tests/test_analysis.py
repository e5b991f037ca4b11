import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormlab.analysis import (
    estimator_error_stats,
    fit_loglog_slope,
    prefix_power_sum_bounds,
    summarize,
)
from stormlab.optimizers import run_ada_storm, run_sgd
from stormlab.problems import make_noisy_quadratic

# --- sandwich bounds -----------------------------------------------------------


def test_sandwich_hand_case():
    lower, middle, upper = prefix_power_sum_bounds([1.0, 1.0, 1.0, 1.0], 0.5)
    assert lower == pytest.approx(2.0, rel=1e-12)
    assert middle == pytest.approx(1.0 + 2**-0.5 + 3**-0.5 + 0.5, rel=1e-12)
    assert upper == pytest.approx(4.0, rel=1e-12)


def test_sandwich_single_element():
    lower, middle, upper = prefix_power_sum_bounds([5.0], 0.25)
    assert lower == pytest.approx(5.0**0.75, rel=1e-12)
    assert middle == pytest.approx(5.0**0.75, rel=1e-12)
    assert upper == pytest.approx(5.0**0.75 / 0.75, rel=1e-12)


def test_sandwich_randomized_sweep():
    gen = np.random.default_rng(101)
    for _ in range(1000):
        length = int(gen.integers(1, 120))
        c = gen.uniform(1e-6, 10.0, size=length)
        alpha = float(gen.uniform(0.01, 0.99))
        lower, middle, upper = prefix_power_sum_bounds(c, alpha)
        scale = max(lower, middle, upper)
        assert lower <= middle + 1e-9 * scale
        assert middle <= upper + 1e-9 * scale


def test_sandwich_rejects_bad_input():
    with pytest.raises(ValueError, match="positive"):
        prefix_power_sum_bounds([1.0, 0.0], 0.5)
    with pytest.raises(ValueError, match="positive"):
        prefix_power_sum_bounds([1.0, -2.0], 0.5)
    with pytest.raises(ValueError, match="alpha"):
        prefix_power_sum_bounds([1.0], 1.0)
    with pytest.raises(ValueError, match="alpha"):
        prefix_power_sum_bounds([1.0], 0.0)
    with pytest.raises(ValueError, match="nonempty"):
        prefix_power_sum_bounds([], 0.5)


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=50),
    st.floats(min_value=0.05, max_value=0.95),
)
@settings(max_examples=200)
def test_sandwich_property(c, alpha):
    lower, middle, upper = prefix_power_sum_bounds(c, alpha)
    scale = max(lower, middle, upper)
    assert lower <= middle + 1e-9 * scale <= upper + 2e-9 * scale


# --- log-log slope fits ----------------------------------------------------------


def test_slope_fit_recovers_exact_power_law():
    xs = [10.0, 100.0, 1000.0, 10000.0]
    fit = fit_loglog_slope([(x, 3.0 * x**-0.5) for x in xs])
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_slope_fit_two_points_interpolates():
    fit = fit_loglog_slope([(1.0, 1.0), (10.0, 0.1)])
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    assert fit.r_squared == 1.0


def test_slope_fit_scale_equivariance():
    pts = [(10.0, 5.0), (100.0, 2.0), (1000.0, 1.1)]
    base = fit_loglog_slope(pts)
    scaled = fit_loglog_slope([(x, 7.0 * y) for x, y in pts])
    assert scaled.slope == pytest.approx(base.slope, rel=1e-9)
    assert scaled.intercept == pytest.approx(base.intercept + math.log(7.0), rel=1e-9)


def test_slope_fit_noisy_power_law_r_squared():
    gen = np.random.default_rng(7)
    xs = np.logspace(1, 5, 12)
    ys = 2.0 * xs**-0.33 * np.exp(0.01 * gen.standard_normal(12))
    fit = fit_loglog_slope(list(zip(xs, ys)))
    assert fit.slope == pytest.approx(-0.33, abs=0.02)
    assert fit.r_squared > 0.99


def test_slope_fit_rejects_bad_points():
    with pytest.raises(ValueError, match="at least 2"):
        fit_loglog_slope([(10.0, 1.0)])
    # points at a single x fix no slope
    for points in ([(10, 1), (10, 2)], [(10, 1), (10, 2), (10.0, 3)]):
        with pytest.raises(ValueError, match="at least 2 distinct x"):
            fit_loglog_slope(points)
    with pytest.raises(ValueError, match="positive"):
        fit_loglog_slope([(10.0, 1.0), (100.0, -1.0)])
    with pytest.raises(ValueError, match="positive"):
        fit_loglog_slope([(0.0, 1.0), (100.0, 1.0)])
    # a NaN point fitted to SlopeFit(nan, nan, nan), and an infinite one warned
    for bad in (math.nan, math.inf):
        for points in ([(1, 1.0), (2, bad), (4, 0.5)], [(1, 1.0), (bad, 2.0), (4, 0.5)]):
            with pytest.raises(ValueError, match="finite, strictly positive"):
                fit_loglog_slope(points)


# --- summaries -------------------------------------------------------------------


@pytest.fixture(scope="module")
def quad_records():
    quad = make_noisy_quadratic(dim=5, L=5.0, mu=1.0, sigma=0.5, seed=41)
    return [run_ada_storm(quad, 80, seed=s) for s in (1, 2, 3, 4)]


def test_summarize_matches_direct_computation(quad_records):
    stats = summarize(quad_records)
    avg = [r.grad_norm.mean() for r in quad_records]
    assert stats["avg_grad_norm"] == pytest.approx(np.mean(avg), rel=1e-12)
    assert stats["avg_grad_norm_stderr"] == pytest.approx(
        np.std(avg, ddof=1) / 2.0, rel=1e-12
    )
    taus = [r.grad_norm[r.tau - 1] for r in quad_records]
    assert stats["tau_grad_norm"] == pytest.approx(np.mean(taus), rel=1e-12)
    quarter = [r.grad_norm[-20:].mean() for r in quad_records]  # ceil(80/4) = 20
    assert stats["final_quarter_grad_norm"] == pytest.approx(
        np.mean(quarter), rel=1e-12
    )
    assert stats["n_seeds"] == 4


def test_summarize_single_record_zero_stderr(quad_records):
    stats = summarize(quad_records[:1])
    assert stats["avg_grad_norm_stderr"] == 0.0
    assert stats["n_seeds"] == 1


def test_summarize_is_permutation_invariant(quad_records):
    a = summarize(quad_records)
    b = summarize(list(reversed(quad_records)))
    assert a == b


def test_summarize_rejects_mixed_and_empty(quad_records):
    with pytest.raises(ValueError, match="at least one"):
        summarize([])
    quad = make_noisy_quadratic(dim=5, L=5.0, mu=1.0, sigma=0.5, seed=41)
    other = run_ada_storm(quad, 81, seed=9)
    with pytest.raises(ValueError, match="mixed"):
        summarize([quad_records[0], other])


def test_estimator_error_stats_fields(quad_records):
    stats = estimator_error_stats(quad_records[0])
    rec = quad_records[0]
    manual = float(np.mean(rec.est_error[40:] ** 2))
    assert stats["mse_last_half"] == pytest.approx(manual, rel=1e-12)
    assert stats["ratio_to_sample_var"] == pytest.approx(
        manual / (0.5**2 * 5), rel=1e-12
    )


def test_estimator_error_stats_no_noise_level_is_nan():
    quad = make_noisy_quadratic(dim=4, L=2.0, mu=1.0, sigma=0.0, seed=42)
    rec = run_sgd(quad, 40, eta0=0.01, seed=1)
    stats = estimator_error_stats(rec)
    assert math.isnan(stats["ratio_to_sample_var"])
