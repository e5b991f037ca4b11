import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormlab.schedules import (
    SUM_SQ_FLOOR,
    ada_beta,
    ada_lr,
    finite_sum_beta,
    finite_sum_lr,
    stage_length,
    storm_original_params,
)

alphas = st.floats(min_value=0.01, max_value=0.33)
sums = st.floats(min_value=0.0, max_value=1e12)


# --- fixed-horizon adaptive law ---------------------------------------------


def test_ada_lr_flat_branch_hand_value():
    # second branch evaluates to ~1.231e-2, so the T**(-1/3) cap wins
    assert ada_lr(10**6, 0.3, 50.0) == pytest.approx(0.01, rel=1e-12)


def test_ada_lr_adaptive_branch_hand_value():
    # 1 / (10**1.4 * 10**1.2) = 10**-2.6
    assert ada_lr(10**6, 0.3, 1e4) == pytest.approx(10**-2.6, rel=1e-12)


def test_ada_lr_zero_sum_returns_cap():
    assert ada_lr(1000, 0.25, 0.0) == pytest.approx(1000 ** (-1 / 3), rel=1e-15)


def test_ada_lr_branch_boundary_at_cuberoot_of_horizon():
    T = 12_345
    boundary = T ** (1.0 / 3.0)
    cap = T ** (-1.0 / 3.0)
    assert ada_lr(T, 0.2, boundary * 0.999) == pytest.approx(cap, rel=1e-12)
    assert ada_lr(T, 0.2, boundary * 1.001) < cap


def test_ada_lr_rejects_bad_args():
    with pytest.raises(ValueError, match="alpha"):
        ada_lr(100, 0.5, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        ada_lr(100, 1.0 / 3.0, 1.0)
    with pytest.raises(ValueError, match="horizon"):
        ada_lr(0, 0.3, 1.0)
    with pytest.raises(ValueError, match="sum_sq"):
        ada_lr(100, 0.3, -1.0)


def test_set_up_laws_check_counts_by_their_rule():
    for call, key in ((lambda: ada_lr(2.5, 0.3, 1.0), "horizon"),
                      (lambda: ada_beta(True), "horizon"),
                      (lambda: finite_sum_lr(7.5, 0.3, 1.0), "n"),
                      (lambda: finite_sum_beta(False), "n")):
        with pytest.raises(ValueError, match=f"^{key} must be a whole number"):
            call()
    with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1/3\), got 0.5$"):
        finite_sum_lr(10, 0.5, 1.0)
    assert ada_beta(8.0) == ada_beta(8) == 0.25
    assert finite_sum_lr(10.0, 0.3, 2.0) == finite_sum_lr(10, 0.3, 2.0)


@given(alphas, sums, sums)
@settings(max_examples=200)
def test_ada_lr_nonincreasing_in_sum(alpha, s1, s2):
    if alpha >= 1.0 / 3.0:
        alpha = 0.33
    lo, hi = sorted((s1, s2))
    assert ada_lr(5000, alpha, hi) <= ada_lr(5000, alpha, lo) * (1 + 1e-12)


def test_ada_beta_hand_values():
    assert ada_beta(10**6) == pytest.approx(1e-4, rel=1e-12)
    assert ada_beta(8) == 0.25
    assert ada_beta(1) == 1.0


# --- doubling stages ---------------------------------------------------------


def test_stage_length_hand_values():
    assert stage_length(1) == (1, True)
    assert stage_length(2) == (2, True)
    assert stage_length(3) == (2, False)
    assert stage_length(7) == (4, False)
    assert stage_length(8) == (8, True)
    assert stage_length(3.0) == (2, False)  # a whole float reads as its int


@given(st.integers(min_value=1, max_value=10**9))
def test_stage_brackets_t(t):
    stage, reset = stage_length(t)
    assert stage <= t < 2 * stage
    assert reset == (t == stage)


def test_stage_laws_hand_value():
    # t = 8 opens a stage of length 8; with stage sum 2 both branches of the
    # step size evaluate to exactly 1/2: 8**(-1/3) and
    # 1 / (8**(0.7/3) * 2**0.3) = 2**(-0.7) * 2**(-0.3)
    stage, reset = stage_length(8)
    assert stage == 8
    assert reset is True
    assert ada_lr(stage, 0.3, 2.0) == pytest.approx(0.5, rel=1e-12)
    assert ada_beta(stage) == pytest.approx(0.25, rel=1e-12)


# --- finite-sum law ----------------------------------------------------------


def test_finite_sum_lr_hand_value():
    # 100**(-0.35) * (1e4)**(-0.3) = 10**(-1.9)
    assert finite_sum_lr(100, 0.3, 1e4) == pytest.approx(10**-1.9, rel=1e-12)


def test_finite_sum_lr_n1_hand_value():
    assert finite_sum_lr(1, 0.3, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert finite_sum_beta(1) == 1.0


def test_finite_sum_lr_floor():
    floored = finite_sum_lr(10, 0.3, 0.0)
    assert floored == finite_sum_lr(10, 0.3, SUM_SQ_FLOOR)
    assert math.isfinite(floored)
    # still nonincreasing once the sum exceeds the floor
    assert finite_sum_lr(10, 0.3, 1e-3) <= floored


@given(alphas, sums, sums)
@settings(max_examples=200)
def test_finite_sum_lr_nonincreasing(alpha, s1, s2):
    if alpha >= 1.0 / 3.0:
        alpha = 0.33
    lo, hi = sorted((s1, s2))
    assert finite_sum_lr(50, alpha, hi) <= finite_sum_lr(50, alpha, lo) * (1 + 1e-12)


def test_finite_sum_beta_hand_value():
    assert finite_sum_beta(100) == pytest.approx(0.01, rel=1e-15)


# --- baseline coupled schedule ----------------------------------------------


def test_storm_original_hand_value():
    eta, beta = storm_original_params(1.0, 1.0, 1.0, 7.0)
    assert eta == pytest.approx(0.5, rel=1e-12)
    assert beta == pytest.approx(0.25, rel=1e-12)


def test_storm_original_beta_clamped():
    eta, beta = storm_original_params(10.0, 1.0, 5.0, 0.0)
    assert beta == 1.0
    assert eta == pytest.approx(10.0, rel=1e-12)


def test_storm_original_rejects_c_zero():
    # numerics.RULES and run_storm_original reject c = 0 too
    with pytest.raises(ValueError, match=r"^c must be > 0, got 0\.0$"):
        storm_original_params(1.0, 1.0, 0.0, 3.0)


def test_storm_original_rejects_bad_args():
    with pytest.raises(ValueError):
        storm_original_params(0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        storm_original_params(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        storm_original_params(1.0, 1.0, -1.0, 1.0)


@given(st.floats(min_value=0.0, max_value=1e9), st.floats(min_value=0.0, max_value=1e9))
@settings(max_examples=100)
def test_storm_original_eta_nonincreasing(s1, s2):
    lo, hi = sorted((s1, s2))
    eta_lo, _ = storm_original_params(0.5, 2.0, 1.0, lo)
    eta_hi, _ = storm_original_params(0.5, 2.0, 1.0, hi)
    assert eta_hi <= eta_lo * (1 + 1e-12)
