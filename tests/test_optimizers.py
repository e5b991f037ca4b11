import dataclasses
import inspect
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormlab.estimators import GradientTable
from stormlab.harness import CHECK_PROBLEMS, parse_config, run_grid, write_trace_csv
from stormlab.optimizers import (
    ALGORITHMS,
    BLOCK,
    DivergenceError,
    run_ada_storm,
    run_ada_storm_doubling,
    run_algorithm,
    run_comp_storm,
    run_fs_storm,
    run_fs_storm_svrg,
    run_sgd,
    run_storm_original,
    tunables,
    warmup_batch_size,
)
from stormlab.problems import (
    CompositionalProblem,
    FiniteSumProblem,
    StochasticProblem,
    from_spec,
    make_compositional,
    make_finite_sum,
    make_noisy_quadratic,
    make_nonconvex_smooth,
)
from stormlab.schedules import ada_beta, ada_lr, finite_sum_lr, stage_length


@pytest.fixture(scope="module")
def quad():
    return make_noisy_quadratic(dim=6, L=8.0, mu=1.0, sigma=0.5, seed=31)


@pytest.fixture(scope="module")
def det_quad():
    return make_noisy_quadratic(dim=5, L=10.0, mu=1.0, sigma=0.0, seed=32)


@pytest.fixture(scope="module")
def comp():
    return make_compositional(dim=6, inner_dim=5, sigma=0.5, seed=33)


@pytest.fixture(scope="module")
def fsum():
    return make_finite_sum(n=8, dim=4, seed=34)


@pytest.fixture(scope="module")
def noncvx():
    return make_nonconvex_smooth(dim=6, sigma=0.5, seed=35)


FAMILY_FIXTURES = {
    "noisy_quadratic": "quad",
    "nonconvex_smooth": "noncvx",
    "finite_sum": "fsum",
    "compositional": "comp",
}


def _assert_records_equal(a, b, check_config=True):
    np.testing.assert_array_equal(a.t, b.t)
    for col in ("f", "grad_norm", "v_norm_sq", "eta", "beta", "est_error"):
        np.testing.assert_array_equal(getattr(a, col), getattr(b, col))
    assert a.tau == b.tau
    np.testing.assert_array_equal(a.x_tau, b.x_tau)
    np.testing.assert_array_equal(a.x_final, b.x_final)
    if check_config:
        assert a.config == b.config


ALL_RUNS = [
    ("ada_storm", "quad", {}),
    ("ada_storm_doubling", "quad", {}),
    ("comp_storm", "comp", {}),
    ("fs_storm", "fsum", {}),
    ("fs_storm_svrg", "fsum", {}),
    ("sgd", "quad", {"eta0": 0.05, "decay": 0.1}),
    ("storm_original", "quad", {"k": 0.1, "w": 1.0, "c": 10.0}),
]


@pytest.mark.parametrize("name,prob_fixture,params", ALL_RUNS)
def test_runs_are_bit_identical_on_repeat(name, prob_fixture, params, request):
    problem = request.getfixturevalue(prob_fixture)
    a = run_algorithm(name, problem, 200, seed=3, **params)
    b = run_algorithm(name, problem, 200, seed=3, **params)
    _assert_records_equal(a, b)


@pytest.mark.parametrize("name,prob_fixture,params", ALL_RUNS)
def test_different_seeds_differ(name, prob_fixture, params, request):
    problem = request.getfixturevalue(prob_fixture)
    a = run_algorithm(name, problem, 200, seed=3, **params)
    b = run_algorithm(name, problem, 200, seed=4, **params)
    assert not np.array_equal(a.x_final, b.x_final)


def _assert_rel(got, want, scale):
    """|got - want| <= 1e-12 * scale, row by row."""
    excess = np.abs(np.asarray(got) - want) - 1e-12 * np.asarray(scale)
    assert np.all(excess <= 0), f"rows {np.flatnonzero(excess > 0)} off by more than 1e-12"


@pytest.mark.parametrize("name,prob_fixture,params", ALL_RUNS)
def test_trace_shapes_and_step_reconstruction(name, prob_fixture, params, request):
    # every family the algorithm accepts, at horizons around the block size:
    # a one-row run, a padded block, exact blocks and a padded third block
    for family in sorted(ALGORITHMS[name][1]):
        problem = request.getfixturevalue(FAMILY_FIXTURES[family])
        for T in (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3):
            rec = run_algorithm(name, problem, T, seed=5, keep_iterates=True, **params)
            assert rec.t.shape == (T,)
            assert rec.t[0] == 1 and rec.t[-1] == T
            assert rec.iterates.shape == (T + 1, problem.dim)
            assert rec.v_history.shape == (T, problem.dim)
            # every recorded step satisfies x_{t+1} = x_t - eta_t v_t
            for t in range(T):
                expected = rec.iterates[t] - rec.eta[t] * rec.v_history[t]
                np.testing.assert_allclose(rec.iterates[t + 1], expected, atol=1e-12)
            # recorded scalar columns match the iterate/estimate history
            np.testing.assert_allclose(
                rec.v_norm_sq, np.sum(rec.v_history**2, axis=1), rtol=1e-12, atol=1e-12
            )
            # the block-measured columns match per-point measurement
            xs = rec.iterates[:-1]
            f = np.array([problem.objective(x) for x in xs])
            grads = np.array([problem.true_grad(x) for x in xs])
            g_norm = np.linalg.norm(grads, axis=1)
            _assert_rel(rec.f, f, np.abs(f))
            _assert_rel(rec.grad_norm, g_norm, g_norm)
            # relative to |v| + |g|: v can equal the exact gradient at t = 1
            _assert_rel(
                rec.est_error, np.linalg.norm(rec.v_history - grads, axis=1),
                np.sqrt(rec.v_norm_sq) + g_norm,
            )


@pytest.mark.parametrize("name,prob_fixture,params", ALL_RUNS)
def test_tau_is_recorded_iterate(name, prob_fixture, params, request):
    problem = request.getfixturevalue(prob_fixture)
    rec = run_algorithm(name, problem, 97, seed=11, keep_iterates=True, **params)
    assert 1 <= rec.tau <= 97
    np.testing.assert_array_equal(rec.x_tau, rec.iterates[rec.tau - 1])


def test_eta_nonincreasing_within_stages(quad, comp, fsum):
    recs = [
        run_ada_storm(quad, 300, seed=1),
        run_comp_storm(comp, 300, seed=1),
        run_fs_storm(fsum, 300, seed=1),
        run_fs_storm_svrg(fsum, 300, seed=1),
        run_sgd(quad, 300, eta0=0.05, decay=0.1, seed=1),
        run_storm_original(quad, 300, seed=1),
    ]
    for rec in recs:
        assert np.all(np.diff(rec.eta) <= 1e-15)
    dbl = run_ada_storm_doubling(quad, 300, seed=1)
    for t in range(2, 301):
        _, reset = stage_length(t)
        if not reset:
            assert dbl.eta[t - 1] <= dbl.eta[t - 2] * (1 + 1e-12)


# --- fixed-horizon adaptive run ----------------------------------------------


def test_ada_storm_noiseless_fixed_point(det_quad):
    rec = run_ada_storm(det_quad, 1000, seed=0)
    assert float(rec.est_error.max()) <= 1e-12


def test_ada_storm_stationary_start_stays_put():
    # T large enough that the capped step size contracts every mode (cap < 2/L),
    # so the tiny linear-solve residual in x_star cannot be amplified. The
    # problem is built here: a start set on a shared fixture would move the
    # runs of every later test that uses it.
    det_quad = make_noisy_quadratic(dim=5, L=10.0, mu=1.0, sigma=0.0, seed=32)
    det_quad.x0 = det_quad.x_star.copy()
    rec = run_ada_storm(det_quad, 1000, seed=0, keep_iterates=True)
    assert float(np.abs(rec.iterates - det_quad.x_star).max()) <= 1e-10
    assert float(rec.grad_norm.max()) <= 1e-10


def test_ada_storm_schedule_columns_follow_laws(quad):
    T = 257
    rec = run_ada_storm(quad, T, alpha=0.31, seed=2)
    assert np.all(rec.beta == ada_beta(T))
    running = np.cumsum(rec.v_norm_sq)
    expected = np.array([ada_lr(T, 0.31, s) for s in running])
    np.testing.assert_allclose(rec.eta, expected, rtol=1e-12)


def test_ada_storm_noiseless_matches_plain_gradient_descent(det_quad):
    T = 10_000
    rec = run_ada_storm(det_quad, T, seed=0, keep_iterates=True)
    assert rec.grad_norm[-1] < 1e-6
    # independent replay: plain descent with the recorded step sizes
    x = det_quad.x0.copy()
    for t in range(T):
        np.testing.assert_allclose(rec.iterates[t], x, atol=1e-12)
        x = x - rec.eta[t] * det_quad.true_grad(x)


def test_ada_storm_warmup_batch_size():
    assert warmup_batch_size(1) == 1
    assert warmup_batch_size(8) == 2
    assert warmup_batch_size(1000) == 10
    assert warmup_batch_size(1001) == 11
    assert warmup_batch_size(100_000) == 47


def test_ada_storm_tau_stream_is_isolated(quad):
    # SGD's and fs_storm's schedules ignore T, so a shared prefix proves
    # that drawing tau (which depends on T) never consumes iterate
    # randomness, and that a measured row's bits do not depend on T: the
    # short runs end in a padded block that the long runs fill
    big_n = make_finite_sum(n=1000, dim=5, seed=36)
    for run, problem, params in (
        (run_sgd, quad, {"eta0": 0.01, "decay": 0.0}),
        (run_fs_storm, big_n, {}),
    ):
        short = run(problem, BLOCK + 6, seed=9, **params)
        long = run(problem, 2 * BLOCK + 36, seed=9, **params)
        np.testing.assert_array_equal(short.f, long.f[: BLOCK + 6])
        np.testing.assert_array_equal(short.est_error, long.est_error[: BLOCK + 6])


def test_run_rejects_bad_T(quad):
    with pytest.raises(ValueError, match="T"):
        run_ada_storm(quad, 0, seed=1)


# --- doubling variant ----------------------------------------------------------


def test_doubling_stage_columns(quad):
    T = 300
    rec = run_ada_storm_doubling(quad, T, alpha=0.3, seed=7)
    for t in range(1, T + 1):
        stage, _ = stage_length(t)
        assert rec.beta[t - 1] == ada_beta(stage)
    # beta jumps exactly at powers of two
    jumps = np.nonzero(np.diff(rec.beta))[0] + 2  # t of the changed row
    assert list(jumps) == [2, 4, 8, 16, 32, 64, 128, 256]


def test_doubling_t1_matches_fixed_horizon(quad):
    a = run_ada_storm(quad, 1, seed=13)
    b = run_ada_storm_doubling(quad, 1, seed=13)
    _assert_records_equal(a, b, check_config=False)


def test_doubling_per_stage_sum_restarts(quad):
    T = 64
    rec = run_ada_storm_doubling(quad, T, alpha=0.3, seed=3)
    stage_sum = 0.0
    for t in range(1, T + 1):
        stage, reset = stage_length(t)
        if reset:
            stage_sum = 0.0
        stage_sum += rec.v_norm_sq[t - 1]
        assert rec.eta[t - 1] == pytest.approx(
            ada_lr(stage, 0.3, stage_sum), rel=1e-12
        )


def test_doubling_noiseless_fixed_point(det_quad):
    rec = run_ada_storm_doubling(det_quad, 512, seed=0)
    assert float(rec.est_error.max()) <= 1e-12


# --- compositional run ---------------------------------------------------------


def test_comp_storm_noiseless_fixed_point():
    comp0 = make_compositional(dim=6, inner_dim=4, sigma=0.0, seed=35)
    rec = run_comp_storm(comp0, 1000, seed=0)
    assert float(rec.est_error.max()) <= 1e-12


def test_comp_storm_converges_on_noiseless_problem():
    comp0 = make_compositional(dim=5, inner_dim=8, sigma=0.0, seed=36)
    rec = run_comp_storm(comp0, 20_000, seed=0)

    assert rec.grad_norm[-1] < 1e-3
    assert rec.grad_norm[-1] < rec.grad_norm[0] * 1e-2


def test_comp_storm_schedule_columns(comp):
    T = 200
    rec = run_comp_storm(comp, T, alpha=0.3, seed=4)
    assert np.all(rec.beta == ada_beta(T))
    running = np.cumsum(rec.v_norm_sq)
    expected = np.array([ada_lr(T, 0.3, s) for s in running])
    np.testing.assert_allclose(rec.eta, expected, rtol=1e-12)


# --- finite-sum runs -----------------------------------------------------------


def test_fs_storm_first_step_uses_exact_mean(fsum):
    rec = run_fs_storm(fsum, 5, seed=6)
    g1 = fsum.full_grad(fsum.x0)
    assert rec.est_error[0] <= 1e-14
    assert rec.v_norm_sq[0] == pytest.approx(float(g1 @ g1), rel=1e-12)


def test_fs_storm_beta_and_eta_follow_laws(fsum):
    T = 120
    rec = run_fs_storm(fsum, T, alpha=0.29, seed=6)
    assert np.all(rec.beta == 1.0 / fsum.n)
    running = np.cumsum(rec.v_norm_sq)
    expected = np.array([finite_sum_lr(fsum.n, 0.29, s) for s in running])
    np.testing.assert_allclose(rec.eta, expected, rtol=1e-12)


def test_fs_storm_n1_is_deterministic_descent():
    fs1 = make_finite_sum(n=1, dim=4, seed=37)
    rec = run_fs_storm(fs1, 400, seed=0, keep_iterates=True)
    assert float(rec.est_error.max()) <= 1e-12  # v_t is the full gradient
    x = fs1.x0.copy()
    for t in range(400):
        np.testing.assert_allclose(rec.iterates[t], x, atol=1e-12)
        x = x - rec.eta[t] * fs1.full_grad(x)


def test_fs_storm_svrg_period_one_always_anchored(fsum):
    rec = run_fs_storm_svrg(fsum, 60, seed=8, period=1, keep_iterates=True)
    # with per-step refresh the correction uses the current point: the
    # estimate equals (1-b)v + g_new - (1-b)g_old - b(g_new - full) exactly
    assert rec.est_error[0] <= 1e-14


def test_fs_storm_svrg_rejects_bad_params(fsum):
    with pytest.raises(ValueError, match="period"):
        run_fs_storm_svrg(fsum, 10, seed=0, period=0)


def test_fs_variants_converge(fsum):
    sag = run_fs_storm(fsum, 5000, seed=2)
    svrg = run_fs_storm_svrg(fsum, 5000, seed=2)
    assert sag.grad_norm[-1] < 1e-4
    assert svrg.grad_norm[-1] < 1e-4


def test_horizon_free_finite_sum_runs_share_measured_blocks(monkeypatch):
    # n = 2000 keeps measured blocks, so the longer runs on one problem reuse
    # the blocks of the shorter ones; every record must equal a lone run's.
    spec = {"name": "finite_sum", "n": 2000, "dim": 5, "seed": 5}
    runs = [(name, T) for name in ("fs_storm", "fs_storm_svrg") for T in (64, 130, 300)]
    alone = [run_algorithm(name, from_spec(spec), T, 1) for name, T in runs]
    measured = []
    measure = FiniteSumProblem._measure
    monkeypatch.setattr(FiniteSumProblem, "_measure",
                        lambda self, X: measured.append(X.tobytes()) or measure(self, X))
    shared = from_spec(spec)
    for (name, T), want in zip(runs, alone):
        got = run_algorithm(name, shared, T, 1)
        _assert_records_equal(got, want)
        for col, values in got.columns().items():
            assert values.tobytes() == want.columns()[col].tobytes(), (name, T, col)
    # 18 blocks in all; each algorithm's runs hold 6 distinct ones (the
    # partial last block of a run carries rows of the block before it).
    assert len(measured) == len(set(measured)) == 12


# --- baselines ------------------------------------------------------------------


def test_sgd_est_error_is_sample_noise(quad):
    rec = run_sgd(quad, 400, eta0=0.01, decay=0.0, seed=5)
    # additive noise: est_error is the norm of the drawn noise vector,
    # whose mean square is sigma^2 * dim
    mse = float(np.mean(rec.est_error**2))
    expected = quad.sigma**2 * quad.dim
    assert 0.5 * expected <= mse <= 1.5 * expected


def test_sgd_eta_follows_decay_law(quad):
    rec = run_sgd(quad, 50, eta0=0.2, decay=0.3, seed=5)
    expected = 0.2 / np.sqrt(1.0 + 0.3 * np.arange(1, 51))
    np.testing.assert_allclose(rec.eta, expected, rtol=1e-12)
    assert np.all(rec.beta == 0.0)


def test_sgd_rejects_bad_params(quad):
    with pytest.raises(ValueError, match="eta0"):
        run_sgd(quad, 10, eta0=0.0, seed=1)
    with pytest.raises(ValueError, match="decay"):
        run_sgd(quad, 10, eta0=0.1, decay=-1.0, seed=1)


def test_storm_original_schedule_columns(quad):
    T = 300
    rec = run_storm_original(quad, T, k=0.2, w=2.0, c=5.0, seed=6)
    # eta recomputed from the recorded columns is impossible (the sampled
    # gradient sum is internal), but the coupled law beta = c * eta^2 is not
    np.testing.assert_allclose(rec.beta, np.minimum(1.0, 5.0 * rec.eta**2), rtol=1e-12)
    assert np.all(np.diff(rec.eta) <= 1e-15)


def test_storm_original_noiseless_tracks_gradient(det_quad):
    rec = run_storm_original(det_quad, 2000, k=0.5, w=1.0, c=10.0, seed=0)
    # deterministic oracle: beta mixes two exact evaluations, error stays 0
    assert float(rec.est_error.max()) <= 1e-10


def test_run_algorithm_dispatch_and_validation(quad, comp):
    rec = run_algorithm("ada_storm", quad, 20, seed=1, alpha=0.25)
    assert rec.config["algorithm"]["name"] == "ada_storm"
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_algorithm("fancy", quad, 10, seed=1)
    with pytest.raises(ValueError, match="does not accept"):
        run_algorithm("ada_storm", comp, 10, seed=1)
    with pytest.raises(ValueError, match="does not accept"):
        run_algorithm("comp_storm", quad, 10, seed=1)


# --- registry: one check for configs and direct runs ---------------------------

REGISTRY_PROBLEMS = {
    "noisy_quadratic": {"name": "noisy_quadratic", "dim": 4, "L": 5.0, "mu": 1.0,
                        "sigma": 0.5, "seed": 3},
    "compositional": {"name": "compositional", "dim": 4, "inner_dim": 3, "sigma": 0.5,
                      "seed": 4},
    "finite_sum": {"name": "finite_sum", "n": 6, "dim": 3, "seed": 5},
}

_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_nonpositive = st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf])

# (in range, out of range) for every tunable, stated apart from the library
VALUES = {
    "alpha": (
        st.floats(min_value=0.0, max_value=1.0 / 3.0, exclude_min=True, exclude_max=True),
        st.floats(max_value=0.0) | st.floats(min_value=1.0 / 3.0) | st.just(math.nan),
    ),
    "eta0": (_positive, _nonpositive),
    "decay": (
        st.floats(min_value=0.0, allow_infinity=False),
        st.floats(max_value=0.0, exclude_max=True) | st.sampled_from([math.nan, math.inf]),
    ),
    "k": (_positive, _nonpositive),
    "w": (_positive, _nonpositive),
    "c": (_positive, _nonpositive),
    "period": (
        st.integers(min_value=1, max_value=10**6),
        st.integers(max_value=0) | st.sampled_from([1.5, 2.5, math.nan]),
    ),
}

REGISTRY_PAIRS = [(name, key) for name in sorted(ALGORITHMS) for key in tunables(name)]

# (in range, out of range) for a run's T and seed and a grid's thin and
# jobs, stated apart from the library. jobs stays at most 2, so that no case
# starts more than two worker processes.
_not_whole = st.sampled_from([True, False, 2.7, -0.5, "3", math.nan, math.inf])
RUN_VALUES = {
    "T": (st.integers(1, 40) | st.sampled_from([1.0, 30.0]),
          st.integers(max_value=0) | _not_whole),
    "seed": (st.integers(0, 2**64 - 1) | st.sampled_from([0.0, 2.0]),
             st.integers(max_value=-1) | st.integers(min_value=2**64)
             | st.sampled_from([-3.0, 2.0**64]) | _not_whole),
    "thin": (st.integers(1, 40) | st.sampled_from([1.0, 3.0]),
             st.integers(max_value=0) | _not_whole),
    "jobs": (st.sampled_from([1, 2, 1.0, 2.0]), st.integers(max_value=0) | _not_whole),
}
RUN_PAIRS = [(name, key) for name in sorted(ALGORITHMS) for key in ("T", "seed")]
RUN_PAIRS += [("sgd", "thin"), ("sgd", "jobs")]
# Where a config holds a run-level value, and the prefix of its messages there.
CONFIG_PLACES = {"T": ("grid", "T", "grid "), "seed": ("grid", "seeds", "grid "),
                 "thin": ("output", "thin", "output ")}


def _outcome(fn):
    """("ok", result) when fn passes entry checks, ("rejected", message) if not."""
    try:
        return "ok", fn()
    except DivergenceError as exc:  # accepted, then the iterates blew up
        return "ok", str(exc)
    except ValueError as exc:
        return "rejected", str(exc)


def test_registry_covers_every_tunable():
    assert {key for _, key in REGISTRY_PAIRS} == set(VALUES)
    assert tunables("fs_storm_svrg") == {"alpha": 0.3, "period": None}
    sampled = {"noisy_quadratic", "nonconvex_smooth", "finite_sum"}
    assert {name: set(families) for name, (_, families) in ALGORITHMS.items()} == {
        "ada_storm": sampled,
        "ada_storm_doubling": sampled,
        "comp_storm": {"compositional"},
        "fs_storm": {"finite_sum"},
        "fs_storm_svrg": {"finite_sum"},
        "sgd": sampled,
        "storm_original": sampled,
    }


def test_signatures_are_read_once_at_import(monkeypatch, fsum):
    def unread(*args, **kwargs):
        raise AssertionError("a signature was read after import")

    monkeypatch.setattr(inspect, "signature", unread)
    doc = {"problem": dict(fsum.spec), "grid": {"T": 30, "seeds": 1},
           "algorithms": [{"name": "fs_storm_svrg"}, {"name": "sgd", "eta0": 0.05}]}
    assert parse_config(doc).algorithms[0] == {
        "name": "fs_storm_svrg", "label": "fs_storm_svrg", "alpha": 0.3, "period": 8}
    assert run_fs_storm_svrg(fsum, 30, seed=1).config["algorithm"]["period"] == 8
    assert tunables("sgd") == {"eta0": 0.1, "decay": 0.0}
    tunables("sgd")["eta0"] = 1.0  # a copy: the registry keeps its defaults
    assert tunables("sgd") == {"eta0": 0.1, "decay": 0.0}


@pytest.mark.parametrize("runner", [run_fs_storm, run_fs_storm_svrg])
def test_finite_sum_rules_draw_through_the_problem(runner, fsum, monkeypatch):
    blocks, evaluated = [], []
    draws, component_grad = FiniteSumProblem.draws, FiniteSumProblem.component_grad

    def counted(self, rng, rows):
        blocks.append(draws(self, rng, rows))
        return blocks[-1]

    def recorded(self, i, x):
        evaluated.append(i)
        return component_grad(self, i, x)

    monkeypatch.setattr(FiniteSumProblem, "draws", counted)
    monkeypatch.setattr(FiniteSumProblem, "component_grad", recorded)
    runner(fsum, 41, seed=5)
    # one block serves the 40 steps after the first, one index per step, each
    # evaluated 2 (table) or 3 (anchored) times
    per_step = 2 if runner is run_fs_storm else 3
    assert len(blocks) == 1 and len(blocks[0]) == BLOCK
    assert evaluated[-40 * per_step:] == [i for i in blocks[0][:40] for _ in range(per_step)]
    assert all(0 <= i < fsum.n for i in blocks[0])


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_each_stream_draws_one_block_per_block_of_steps(name, monkeypatch):
    # The samples of BLOCK steps come from one block draw, one generator
    # call; a rule that read one sample per call would make T - 1 of them.
    T = 2 * BLOCK + 3
    calls = []
    for cls, meth in ((StochasticProblem, "draws"), (FiniteSumProblem, "draws"),
                      (CompositionalProblem, "inner_draws"), (CompositionalProblem, "outer_draws")):
        def counted(self, rng, rows, _draws=getattr(cls, meth)):
            calls.append((rng.path, rows))
            return _draws(self, rng, rows)

        monkeypatch.setattr(cls, meth, counted)
    # a stage opening draws its warm-up batch as one block of another size
    openings = T.bit_length() if name == "ada_storm_doubling" else 1
    for spec in CHECK_PROBLEMS:
        if spec["name"] not in ALGORITHMS[name][1]:
            continue
        calls.clear()
        run_algorithm(name, from_spec(spec), T, seed=1)
        paths = {path for path, _ in calls}
        for path in paths:
            rows = [r for p, r in calls if p == path]
            assert rows.count(BLOCK) <= math.ceil(T / BLOCK), (spec["name"], path, rows)
            assert len(rows) - rows.count(BLOCK) <= openings, (spec["name"], path, rows)
        assert any(r == BLOCK for _, r in calls), spec["name"]


def _entry_points(name, key, value, scratch):
    """Every public entry point that takes `key`, each as a call passing
    `value`: parse_config with `value` in its config place, then the runs."""
    spec = REGISTRY_PROBLEMS[min(ALGORITHMS[name][1])]
    problem = from_spec(spec)
    doc = {"problem": spec, "algorithms": [{"name": name}], "grid": {"T": 30, "seeds": 1}}
    calls = {}
    if key in ("thin", "jobs"):
        grid = parse_config(doc)
        record = run_algorithm(name, problem, 30, 1)
        if key == "thin":  # a grid's thin is its config's
            calls["run_grid"] = lambda: run_grid(dataclasses.replace(grid, thin=value),
                                                 out_dir=scratch)
        else:
            calls["run_grid"] = lambda: run_grid(grid, jobs=value, out_dir=scratch)
        if key == "thin":
            path = os.path.join(scratch, "trace.csv")
            calls["write_trace_csv"] = lambda: write_trace_csv(record, path, thin=value)
    elif key in CONFIG_PLACES:
        cell = {"T": 30, "seed": 1, key: value}
        calls["run_algorithm"] = lambda: run_algorithm(name, problem, cell["T"], cell["seed"])
    else:
        doc["algorithms"][0][key] = value
        calls["run_algorithm"] = lambda: run_algorithm(name, problem, 30, 1, **{key: value})
    if key in CONFIG_PLACES:
        section, field, _ = CONFIG_PLACES[key]
        doc.setdefault(section, {})[field] = value
    if key != "jobs":  # the one value a config does not hold
        calls = {"parse_config": lambda: parse_config(doc), **calls}
    return calls


@pytest.mark.parametrize("name,key", REGISTRY_PAIRS + RUN_PAIRS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_parse_config_accepts_exactly_what_the_runner_accepts(name, key, data):
    in_range = data.draw(st.booleans(), label="in_range")
    value = data.draw({**VALUES, **RUN_VALUES}[key][0 if in_range else 1], label=key)
    with tempfile.TemporaryDirectory() as scratch:
        calls = _entry_points(name, key, value, scratch)
        outcomes = {entry: _outcome(call) for entry, call in calls.items()}
        if "run_algorithm" in calls:
            # a whole float runs as its integer
            again = int(value) if key in ("T", "seed") and in_range else value
            calls = _entry_points(name, key, again, scratch)
            rerun = _outcome(calls["run_algorithm"])[1]
    expected = "ok" if in_range else "rejected"
    assert {entry: status for entry, (status, _) in outcomes.items()} == dict.fromkeys(
        outcomes, expected), outcomes
    details = {entry: detail for entry, (_, detail) in outcomes.items()}
    if expected == "rejected":
        prefix = CONFIG_PLACES[key][2] if key in CONFIG_PLACES else ""
        parsed = details.pop("parse_config", None)
        (message,) = set(details.values())
        assert parsed in (None, prefix + message), (parsed, message)
        assert re.search(rf"\b{key}\b", message)
        return
    if "run_algorithm" in details:
        if isinstance(details["run_algorithm"], str):
            assert rerun == details["run_algorithm"]
        else:
            _assert_records_equal(details["run_algorithm"], rerun)


class _SpecOnly:
    """A problem's spec, x0 and dim; reading anything else fails the test."""

    def __init__(self, problem):
        self.spec, self.x0, self.dim = problem.spec, problem.x0, problem.dim

    def __getattr__(self, name):
        raise AssertionError(f"read problem.{name} before checking the family")


REJECTED_PAIRS = [
    (name, family)
    for name, (_, families) in sorted(ALGORITHMS.items())
    for family in sorted(FAMILY_FIXTURES)
    if family not in families
]


@pytest.mark.parametrize("name,family", REJECTED_PAIRS)
def test_direct_runner_rejects_family_before_any_draw(name, family, request):
    problem = request.getfixturevalue(FAMILY_FIXTURES[family])
    runner, _ = ALGORITHMS[name]
    message = f"algorithm '{name}' does not accept problem family '{family}'"
    for target in (problem, _SpecOnly(problem)):
        with pytest.raises(ValueError, match=re.escape(message)):
            runner(target, 10)


def test_fs_storm_svrg_echoes_default_period_n(fsum):
    assert run_fs_storm_svrg(fsum, 5).config["algorithm"]["period"] == fsum.n


# A non-default value of every algorithm's tunables, so the echo must carry them.
NON_DEFAULT = {
    "ada_storm": {"alpha": 0.25},
    "ada_storm_doubling": {"alpha": 0.2},
    "comp_storm": {"alpha": 0.25},
    "fs_storm": {"alpha": 0.2},
    "fs_storm_svrg": {"alpha": 0.25, "period": 7},
    "sgd": {"eta0": 0.05, "decay": 0.1},
    "storm_original": {"k": 0.2, "w": 2.0, "c": 5.0},
}


@pytest.mark.parametrize("T", [1, BLOCK + 1])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_a_run_regenerates_from_its_config_echo(name, T):
    runner, families = ALGORITHMS[name]
    for spec in CHECK_PROBLEMS:
        if spec["name"] not in families:
            continue
        rec = runner(from_spec(spec), T, seed=6, **NON_DEFAULT[name])
        algorithm = dict(rec.config["algorithm"])
        again = run_algorithm(algorithm.pop("name"), from_spec(rec.config["problem"]),
                              rec.config["T"], rec.config["seed"], **algorithm)
        _assert_records_equal(rec, again)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_runners_take_no_start_of_their_own(name, request):
    runner, families = ALGORITHMS[name]
    problem = request.getfixturevalue(FAMILY_FIXTURES[min(families)])
    assert set(inspect.signature(runner).parameters) == {
        "problem", "T", *tunables(name), "seed", "keep_iterates"}
    for call in (lambda: runner(problem, 10, x0=problem.x0),
                 lambda: run_algorithm(name, problem, 10, 1, x0=problem.x0)):
        with pytest.raises(TypeError, match="x0"):
            call()


@pytest.mark.parametrize("name,key,value", [
    ("sgd", "eta0", True), ("sgd", "decay", False), ("fs_storm_svrg", "period", True),
    ("storm_original", "w", True),
])
def test_bool_tunables_are_rejected_naming_the_key(name, key, value):
    spec = REGISTRY_PROBLEMS[min(ALGORITHMS[name][1])]
    problem = from_spec(spec)
    runner, _ = ALGORITHMS[name]
    message = f"{name}: {key} must be a "
    for call in (
        lambda: parse_config({"problem": spec, "algorithms": [{"name": name, key: value}],
                              "grid": {"T": 10, "seeds": 1}}),
        lambda: runner(problem, 10, **{key: value}),
        lambda: run_algorithm(name, problem, 10, 1, **{key: value}),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


def test_storm_original_rejects_c_zero_before_any_draw(quad):
    class NoDraws:
        spec, x0, dim = quad.spec, quad.x0, quad.dim

        def draws(self, *args):
            raise AssertionError("drew a sample before rejecting c")

        draw = draws

    for call in (
        lambda: run_storm_original(NoDraws(), 10, c=0),
        lambda: run_algorithm("storm_original", NoDraws(), 10, 1, c=0.0),
    ):
        with pytest.raises(ValueError, match=r"\bc must be > 0"):
            call()


def test_diverging_run_stops_with_divergence_error():
    # The first failure, f before v_norm_sq before eta at one step, even
    # though f is measured a block at a time.
    quad6 = make_noisy_quadratic(dim=20, L=10.0, mu=1.0, sigma=1.0, seed=11)
    # spectrum below 1: |v|^2 overflows one step after f does (t = 163)
    flat = make_noisy_quadratic(dim=20, L=0.1, mu=0.05, sigma=1.0, seed=11)
    # |x|^2 = inf makes f infinite while v stays finite for the whole run
    noncvx = make_nonconvex_smooth(dim=6, sigma=0.5, seed=3)
    noncvx.x0 = np.full(6, 5e154)
    cases = [((quad6, T), {"eta0": 5.0}, 93) for T in (500, 1000, 2000)] + [
        ((flat, 300), {"eta0": 100.0}, 162),
        ((noncvx, 100), {"eta0": 0.1}, 1),
    ]
    for args, params, t in cases:
        with pytest.raises(DivergenceError) as info:
            run_sgd(*args, seed=1, **params)
        err = info.value
        assert (err.t, err.quantity) == (t, "f")
        assert err.value == math.inf
        assert f"t={err.t}" in str(err) and err.quantity in str(err)


def test_fs_storm_writes_its_table_in_place(monkeypatch):
    def copy_made(*args):
        raise AssertionError("GradientTable.updated copied the table")

    problem = make_finite_sum(n=1000, dim=5, seed=37)
    monkeypatch.setattr(GradientTable, "updated", copy_made)
    rec = run_fs_storm(problem, 300, seed=2)
    assert np.all(np.isfinite(rec.f))


# The checked public forms the step rules must not call per step.
CHECKED_ONCE = ("storm_update", "comp_grad_update", "finite_sum_update", "svrg_update",
                "ada_lr", "finite_sum_lr", "storm_original_params")


def _every_pair(request):
    """(name, problem) for every algorithm and each family it accepts."""
    return [(name, request.getfixturevalue(FAMILY_FIXTURES[family]))
            for name, (_, families) in sorted(ALGORITHMS.items()) for family in sorted(families)]


def test_step_rules_call_only_the_unchecked_cores(monkeypatch, request):
    runs = _every_pair(request)
    assert len(runs) == 15
    before = [run_algorithm(name, problem, BLOCK + 5, seed=6) for name, problem in runs]

    def checked_call(*args, **kwargs):
        raise AssertionError("a step rule called a checked public update or law")

    import stormlab.optimizers as optimizers

    for attr in CHECKED_ONCE:
        monkeypatch.setattr(optimizers, attr, checked_call)
    for (name, problem), want in zip(runs, before):
        _assert_records_equal(run_algorithm(name, problem, BLOCK + 5, seed=6), want)


# Every problem family, small, for the registry property below.
PROPERTY_PROBLEMS = {**REGISTRY_PROBLEMS,
                     "nonconvex_smooth": {"name": "nonconvex_smooth", "dim": 3, "sigma": 0.5,
                                          "seed": 6}}


def _run_or_divergence(name, problem, T, seed, params):
    try:
        return run_algorithm(name, problem, T, seed, **params)
    except DivergenceError as exc:
        return exc


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_registry_property_valid_tunables_run_and_rerun(name, data):
    # Tunables drawn inside their RULES ranges pass check_run; the run then
    # ends or diverges, never raises anything else, keeps eta nonincreasing
    # within each stage and reruns bit for bit.
    family = data.draw(st.sampled_from(sorted(ALGORITHMS[name][1])), label="family")
    params = {key: data.draw(VALUES[key][0], label=key) for key in tunables(name)}
    T = data.draw(st.integers(1, 2 * BLOCK + 3), label="T")
    seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
    problem = from_spec(PROPERTY_PROBLEMS[family])
    first = _run_or_divergence(name, problem, T, seed, params)
    again = _run_or_divergence(name, problem, T, seed, params)
    if isinstance(first, DivergenceError):
        assert isinstance(again, DivergenceError)
        assert str(again) == str(first)
        return
    _assert_records_equal(again, first)
    for t in range(2, T + 1):
        if name != "ada_storm_doubling" or not stage_length(t)[1]:
            assert first.eta[t - 1] <= first.eta[t - 2] * (1 + 1e-12), t
