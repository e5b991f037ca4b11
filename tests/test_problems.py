import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormlab.numerics import BLOCK, RngStream
from stormlab.problems import (
    FAMILIES,
    CompositionalProblem,
    FiniteSumProblem,
    NoisyQuadratic,
    NonconvexSmooth,
    from_spec,
    grad_check,
    make_compositional,
    make_finite_sum,
    make_noisy_quadratic,
    make_nonconvex_smooth,
)


@pytest.fixture(scope="module")
def quad():
    return make_noisy_quadratic(dim=8, L=10.0, mu=1.0, sigma=1.0, seed=21)


@pytest.fixture(scope="module")
def noncvx():
    return make_nonconvex_smooth(dim=8, sigma=1.0, seed=22)


@pytest.fixture(scope="module")
def fsum():
    return make_finite_sum(n=12, dim=6, seed=23)


@pytest.fixture(scope="module")
def comp():
    return make_compositional(dim=6, inner_dim=5, sigma=1.0, seed=24)


# --- construction ------------------------------------------------------------


def test_quadratic_spectrum_inside_bounds(quad):
    eigs = np.linalg.eigvalsh(quad.A)
    assert eigs.min() >= 1.0 - 1e-9
    assert eigs.max() <= 10.0 + 1e-9


def test_quadratic_is_deterministic_per_seed():
    a = make_noisy_quadratic(dim=5, L=4.0, mu=0.5, sigma=0.3, seed=9)
    b = make_noisy_quadratic(dim=5, L=4.0, mu=0.5, sigma=0.3, seed=9)
    np.testing.assert_array_equal(a.A, b.A)
    np.testing.assert_array_equal(a.b, b.b)
    np.testing.assert_array_equal(a.x0, b.x0)
    c = make_noisy_quadratic(dim=5, L=4.0, mu=0.5, sigma=0.3, seed=10)
    assert not np.array_equal(a.A, c.A)


def test_quadratic_rejects_bad_spectrum():
    with pytest.raises(ValueError, match="mu"):
        make_noisy_quadratic(dim=3, L=1.0, mu=2.0, sigma=0.0, seed=0)


def test_quadratic_delta_f_is_gap_to_minimum(quad):
    # the gap must dominate the value at any other probe point
    assert quad.delta_f >= 0
    probe = quad.objective(quad.x_star + 0.1)
    assert quad.objective(quad.x_star) <= probe


def test_nonconvex_hand_gradient():
    prob = make_nonconvex_smooth(dim=1, sigma=0.0, seed=0, coeffs=[1.0], epsilon=0.0)
    np.testing.assert_allclose(prob.true_grad(np.array([1.0])), [1.0], rtol=1e-15)


def test_nonconvex_smoothness_constant(noncvx):
    assert noncvx.L == pytest.approx(2.0 * noncvx.coeffs.max() + noncvx.epsilon)
    # empirical check: gradient differences never exceed L * |x - y|
    gen = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        x = gen.standard_normal(noncvx.dim)
        y = x + 1e-3 * gen.standard_normal(noncvx.dim)
        num = np.linalg.norm(noncvx.true_grad(x) - noncvx.true_grad(y))
        worst = max(worst, num / np.linalg.norm(x - y))
    assert worst <= noncvx.L * (1 + 1e-6)


def test_nonconvex_origin_is_global_minimum(noncvx):
    zero = np.zeros(noncvx.dim)
    assert noncvx.objective(zero) == 0.0
    gen = np.random.default_rng(1)
    for _ in range(50):
        assert noncvx.objective(gen.standard_normal(noncvx.dim)) > 0.0


# --- oracle purity and unbiasedness -----------------------------------------


def test_token_reuse_is_pure(quad):
    token = quad.draw(RngStream(3).child("tok"))
    x = np.linspace(-1, 1, quad.dim)
    first = quad.grad_at(token, x)
    second = quad.grad_at(token, x)
    np.testing.assert_array_equal(first, second)


def test_same_token_difference_has_no_noise(quad):
    # additive noise cancels exactly in two-point differences
    token = quad.draw(RngStream(4).child("tok"))
    x = np.ones(quad.dim)
    y = 2.0 * np.ones(quad.dim)
    diff = quad.grad_at(token, x) - quad.grad_at(token, y)
    np.testing.assert_allclose(diff, quad.true_grad(x) - quad.true_grad(y), atol=1e-12)


def _mc_mean_check(sample_fn, true_vec, n_samples, sigma):
    samples = np.stack([sample_fn() for _ in range(n_samples)])
    mean = samples.mean(axis=0)
    band = 3.0 * sigma / np.sqrt(n_samples)
    assert np.all(np.abs(mean - true_vec) <= band + 1e-12)


def test_quadratic_oracle_unbiased(quad):
    x = np.linspace(-1, 1, quad.dim)
    rng = RngStream(5).child("mc")
    _mc_mean_check(
        lambda: quad.grad_at(quad.draw(rng), x), quad.true_grad(x), 10_000, quad.sigma
    )


def test_nonconvex_oracle_unbiased(noncvx):
    x = np.linspace(-2, 2, noncvx.dim)
    rng = RngStream(6).child("mc")
    _mc_mean_check(
        lambda: noncvx.grad_at(noncvx.draw(rng), x),
        noncvx.true_grad(x),
        10_000,
        noncvx.sigma,
    )


def test_finite_sum_component_sampling_unbiased(fsum):
    # component sampling: MC mean converges to the exact full gradient
    x = np.linspace(-1, 1, fsum.dim)
    rng = RngStream(7).child("mc")
    grads = np.stack(
        [fsum.grad_at(fsum.draw(rng), x) for _ in range(20_000)]
    )
    mean = grads.mean(axis=0)
    spread = np.stack([fsum.component_grad(i, x) for i in range(fsum.n)]).std(axis=0)
    band = 3.0 * spread / np.sqrt(20_000)
    assert np.all(np.abs(mean - fsum.full_grad(x)) <= band + 1e-12)


def test_compositional_sample_grad_unbiased(comp):
    x = np.linspace(-1, 1, comp.dim)
    rng_in = RngStream(8).child("mc-inner")
    rng_out = RngStream(8).child("mc-outer")
    samples = np.stack(
        [
            comp.sample_grad(comp.draw_inner(rng_in), comp.draw_outer(rng_out), x)
            for _ in range(10_000)
        ]
    )
    mean = samples.mean(axis=0)
    spread = samples.std(axis=0)
    band = 4.0 * spread / np.sqrt(10_000)
    assert np.all(np.abs(mean - comp.true_grad(x)) <= band)


def test_compositional_inner_shared_token_is_exact(comp):
    token = comp.draw_inner(RngStream(9).child("tok"))
    x = np.ones(comp.dim)
    y = -np.ones(comp.dim)
    diff = comp.inner_value(token, x) - comp.inner_value(token, y)
    np.testing.assert_allclose(diff, comp.matrix @ (x - y), atol=1e-12)
    np.testing.assert_array_equal(comp.inner_jac(token, x), comp.inner_jac(token, y))


def test_compositional_jacobian_orientation(comp):
    token = comp.draw_inner(RngStream(10).child("tok"))
    assert comp.inner_jac(token, comp.x0).shape == (comp.inner_dim, comp.dim)


def test_compositional_hand_gradient():
    prob = make_compositional(
        dim=1, inner_dim=1, sigma=0.0, seed=0, matrix=[[2.0]], offset=[0.0]
    )
    np.testing.assert_allclose(prob.true_grad(np.array([1.0])), [4.0], rtol=1e-15)


# --- finite-sum exactness ----------------------------------------------------


def test_full_grad_is_exact_mean_of_components(fsum):
    gen = np.random.default_rng(17)
    for _ in range(10):
        x = gen.standard_normal(fsum.dim)
        mean = sum(fsum.component_grad(i, x) for i in range(fsum.n)) / fsum.n
        np.testing.assert_allclose(fsum.full_grad(x), mean, atol=1e-14)


def test_component_index_out_of_range(fsum):
    with pytest.raises(IndexError):
        fsum.component_grad(fsum.n, fsum.x0)
    with pytest.raises(IndexError):
        fsum.component_grad(-1, fsum.x0)


# --- gradient checking -------------------------------------------------------


def test_grad_check_affine_is_exact():
    # an affine objective: central differences are exact up to rounding
    prob = make_noisy_quadratic(dim=4, L=1e-12, mu=1e-12, sigma=0.0, seed=2)
    err = grad_check(prob, np.array([1.0, -2.0, 0.5, 3.0]), h=1e-4)
    assert err <= 1e-9  # gradient is b + 1e-12*x, denominators are O(1)


def test_grad_check_quadratic_tight(quad):
    assert grad_check(quad, quad.x0, h=1e-4) <= 1e-9


def test_grad_check_all_problems(quad, noncvx, fsum, comp):
    for prob in (quad, noncvx, fsum, comp):
        gen = np.random.default_rng(33)
        for _ in range(10):
            x = gen.standard_normal(prob.dim)
            assert grad_check(prob, x, h=1e-5) < 1e-6


def test_grad_check_zero_gradient_point():
    # symmetric objective at the origin: exact gradient is 0, central
    # differences cancel by symmetry, absolute comparison applies
    prob = make_nonconvex_smooth(dim=3, sigma=0.0, seed=1)
    err = grad_check(prob, np.zeros(3), h=1e-5)
    assert err <= 1e-12


def test_grad_check_flags_wrong_gradient(quad):
    class Wrong:
        dim = quad.dim

        def objective(self, x):
            return quad.objective(x)

        def true_grad(self, x):
            return quad.true_grad(x) * 1.01

    assert grad_check(Wrong(), quad.x0, h=1e-5) > 1e-3


# --- spec construction -------------------------------------------------------


def test_from_spec_round_trip(quad):
    rebuilt = from_spec(quad.spec)
    np.testing.assert_array_equal(rebuilt.A, quad.A)
    np.testing.assert_array_equal(rebuilt.x0, quad.x0)


def test_from_spec_rejects_unknown_name_and_fields(noncvx, fsum, comp):
    with pytest.raises(ValueError, match="unknown problem"):
        from_spec({"name": "mystery", "dim": 2})
    with pytest.raises(ValueError, match="unknown fields"):
        from_spec(
            {"name": "noisy_quadratic", "dim": 2, "L": 1.0, "mu": 0.5, "sigma": 0.0,
             "seed": 1, "extra": True}
        )
    with pytest.raises(ValueError, match="missing fields"):
        from_spec({"name": "noisy_quadratic", "dim": 2})
    # Each family's fields are its class's required constructor arguments.
    expected = {
        "noisy_quadratic": ["L", "dim", "mu", "seed", "sigma"],
        "nonconvex_smooth": ["dim", "seed", "sigma"],
        "finite_sum": ["dim", "n", "seed"],
        "compositional": ["dim", "inner_dim", "seed", "sigma"],
    }
    for name, fields in expected.items():
        message = f"missing fields for problem '{name}': {fields}"
        with pytest.raises(ValueError, match=re.escape(message)):
            from_spec({"name": name})
    # Optional constructor arguments and the fixed outlier share stay out of configs.
    for problem, extra in ((noncvx, "epsilon"), (comp, "offset"), (fsum, "outlier_frac")):
        name = problem.spec["name"]
        message = f"unknown fields for problem '{name}': ['{extra}']"
        with pytest.raises(ValueError, match=re.escape(message)):
            from_spec(dict(problem.spec, **{extra: 0.1}))


def test_make_names_are_the_family_classes():
    assert make_noisy_quadratic is NoisyQuadratic
    assert make_nonconvex_smooth is NonconvexSmooth
    assert make_finite_sum is FiniteSumProblem
    assert make_compositional is CompositionalProblem
    assert FAMILIES == {"noisy_quadratic": NoisyQuadratic, "nonconvex_smooth": NonconvexSmooth,
                        "finite_sum": FiniteSumProblem, "compositional": CompositionalProblem}


# --- buffered oracle draws ------------------------------------------------------


def _same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=25, deadline=None)
@given(
    dim=st.integers(1, 12),
    inner_dim=st.integers(1, 10),
    sigma=st.sampled_from([0.0, 0.3, 1.0]),
    n=st.integers(1, 20_000),
    draws=st.integers(1, 3 * BLOCK),
    seed=st.integers(0, 2**31),
)
def test_oracle_draws_equal_per_step_generator_draws(dim, inner_dim, sigma, n, draws, seed):
    # each draw as the oracles made it one generator call at a time
    comp = CompositionalProblem(dim, inner_dim, sigma, seed=1)
    quad = NoisyQuadratic(dim, 2.0, 1.0, sigma, seed=1)
    fsum = FiniteSumProblem(n, 2, seed=1)
    streams = {key: RngStream(seed).child(key) for key in ("inner", "outer", "quad", "index")}
    fresh = {key: RngStream(seed).child(key).generator for key in streams}
    for _ in range(draws):
        token = comp.draw_inner(streams["inner"])
        gen = fresh["inner"]
        value = sigma * gen.standard_normal(inner_dim) if sigma else np.zeros(inner_dim)
        jac = sigma * gen.standard_normal((inner_dim, dim)) if sigma else np.zeros((inner_dim, dim))
        assert _same_bits(token.value_noise, value) and _same_bits(token.jac_noise, jac)
        assert token.jac_noise.shape == (inner_dim, dim)
        want = sigma * fresh["outer"].standard_normal(inner_dim) if sigma else np.zeros(inner_dim)
        assert _same_bits(comp.draw_outer(streams["outer"]).noise, want)
        want = sigma * fresh["quad"].standard_normal(dim) if sigma else np.zeros(dim)
        assert _same_bits(quad.draw(streams["quad"]).noise, want)
        assert fsum.draw(streams["index"]).index == int(fresh["index"].integers(n))
    for key, stream in streams.items():
        assert stream.generator.bit_generator.state == fresh[key].bit_generator.state
