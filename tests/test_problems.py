import inspect
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormlab.harness import CHECK_PROBLEMS
from stormlab.numerics import BLOCK, RngStream
from stormlab.problems import (
    EPSILON,
    FAMILIES,
    CompositionalProblem,
    FiniteSumProblem,
    NoisyQuadratic,
    NonconvexSmooth,
    Problem,
    check_spec,
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
    # x_star is the minimum: its value is at most that of a nearby probe
    probe = quad.objective(quad.x_star + 0.1)
    assert quad.objective(quad.x_star) <= probe


def test_nonconvex_hand_gradient():
    # f(x) = c log(1 + x^2) + eps x^2 / 2, so f'(x) = 2 c x / (1 + x^2) + eps x
    prob = make_nonconvex_smooth(dim=1, sigma=0.0, seed=0)
    assert prob.coeffs.shape == (1,) and 0.5 <= prob.coeffs[0] <= 1.5
    assert prob.epsilon == EPSILON
    c, eps = float(prob.coeffs[0]), prob.epsilon
    for x in (1.0, -3.0, 0.25):
        want = 2.0 * c * x / (1.0 + x * x) + eps * x
        np.testing.assert_allclose(prob.true_grad(np.array([x])), [want], rtol=1e-15)
        want_f = c * np.log1p(x * x) + 0.5 * eps * x * x
        assert prob.objective(np.array([x])) == pytest.approx(want_f, rel=1e-15)
    # at x = 1 the first term is exactly c
    np.testing.assert_allclose(prob.true_grad(np.array([1.0])), [c + eps], rtol=1e-15)


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
    # F(x) = (m x + c)^2 / 2, so F'(x) = m (m x + c)
    prob = make_compositional(dim=1, inner_dim=1, sigma=0.0, seed=0)
    assert prob.matrix.shape == (1, 1) and prob.offset.shape == (1,)
    m, c = float(prob.matrix[0, 0]), float(prob.offset[0])
    for x in (1.0, -2.0, 0.5):
        u = m * x + c
        np.testing.assert_allclose(prob.true_grad(np.array([x])), [m * u], rtol=1e-15)
        assert prob.objective(np.array([x])) == pytest.approx(0.5 * u * u, rel=1e-15)
    assert prob.L == pytest.approx(m * m, rel=1e-15)


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


# --- finite-sum block measurement reuse --------------------------------------

# Large enough to keep measured blocks: 80 000 B of features hold 14 blocks of
# 64 x 5 rows, each 5 632 B with its key and results.
KEEPS_BLOCKS = {"name": "finite_sum", "n": 2000, "dim": 5, "seed": 5}


def _count_measures(monkeypatch):
    """Make `FiniteSumProblem._measure` append each block's bytes to the
    returned list."""
    measured = []
    measure = FiniteSumProblem._measure

    def counted(self, X):
        measured.append(X.tobytes())
        return measure(self, X)

    monkeypatch.setattr(FiniteSumProblem, "_measure", counted)
    return measured


def test_finite_sum_measures_each_distinct_block_once(monkeypatch):
    gen = np.random.default_rng(3)
    blocks = [gen.standard_normal((BLOCK, 5)) for _ in range(3)]
    fresh = [from_spec(KEEPS_BLOCKS)._measure(X) for X in blocks]
    measured = _count_measures(monkeypatch)
    problem = from_spec(KEEPS_BLOCKS)
    for X, want in zip(blocks * 3, fresh * 3):
        f, g = problem.value_and_grad(X.copy())
        assert _same_bits(f, want[0]) and _same_bits(g, want[1])
    assert measured == [X.tobytes() for X in blocks]


def test_finite_sum_measurements_are_read_only():
    problem = from_spec(KEEPS_BLOCKS)
    X = np.ones((BLOCK, 5))
    for f, g in (problem.value_and_grad(X), problem.value_and_grad(X)):  # a miss, a hit
        assert not f.flags.writeable and not g.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            g[0, 0] = 0.0
    assert len(problem._measured) == 1


def test_finite_sum_keeps_blocks_within_its_features_bytes(monkeypatch):
    problem = from_spec(KEEPS_BLOCKS)
    gen = np.random.default_rng(4)
    blocks = [gen.standard_normal((BLOCK, 5)) for _ in range(20)]
    for X in blocks:
        problem.value_and_grad(X)
        kept = sum(len(key[2]) + f.nbytes + g.nbytes
                   for key, (f, g) in problem._measured.items())
        assert kept == problem._measured_bytes <= problem.features.nbytes
    assert len(problem._measured) == 14
    measured = _count_measures(monkeypatch)
    for X in blocks:
        problem.value_and_grad(X)
    assert measured == [X.tobytes() for X in blocks[14:]]  # what was not kept
    # At n = 100 (the rate-grid finite sum) no block fits, so none is kept.
    small = from_spec({"name": "finite_sum", "n": 100, "dim": 20, "seed": 13})
    X = gen.standard_normal((BLOCK, 20))
    small.value_and_grad(X)
    small.value_and_grad(X)
    assert len(measured) == 6 + 2 and small._measured == {} and small._measured_bytes == 0


def test_finite_sum_same_bytes_with_another_dtype_miss(monkeypatch):
    measured = _count_measures(monkeypatch)
    problem = from_spec(KEEPS_BLOCKS)
    X = np.random.default_rng(5).standard_normal((BLOCK, 5))
    problem.value_and_grad(X)
    problem.value_and_grad(X.view(np.int64))
    assert len(measured) == 2 and measured[0] == measured[1]


# --- one-point forms read the block form ---------------------------------------


@pytest.mark.parametrize("spec", CHECK_PROBLEMS, ids=lambda spec: spec["name"])
def test_one_point_forms_read_the_block_form(spec):
    # Only the one-point gradients a step calls have a body of their own.
    kept = (NoisyQuadratic, NonconvexSmooth)
    for cls in (Problem, *FAMILIES.values()):
        assert ("objective" in vars(cls)) == (cls is Problem), cls
        assert ("true_grad" in vars(cls)) == (cls is Problem or cls in kept), cls
    problem = from_spec(spec)
    gen = np.random.default_rng(8)
    for x in (problem.x0, np.zeros(problem.dim), *gen.standard_normal((5, problem.dim))):
        f, g = problem.value_and_grad(x[None])
        assert _same_bits(problem.objective(x), f[0])
        if type(problem) in kept:
            np.testing.assert_allclose(problem.true_grad(x), g[0], rtol=1e-12)
        else:
            assert _same_bits(problem.true_grad(x), g[0])
    # a one-point read is no block a run measures, so a finite sum keeps none
    assert getattr(problem, "_measured", {}) == {}


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


@pytest.mark.parametrize("fixture", ["quad", "noncvx", "fsum", "comp"])
def test_from_spec_round_trip(fixture, request):
    problem = request.getfixturevalue(fixture)
    # the constructor takes exactly the spec's fields
    fields = set(problem.spec) - {"name"}
    assert fields == set(inspect.signature(type(problem)).parameters)
    rebuilt = from_spec(problem.spec)
    assert type(rebuilt) is type(problem) and rebuilt.spec == problem.spec
    assert vars(rebuilt).keys() == vars(problem).keys()
    arrays = [k for k, v in vars(problem).items() if isinstance(v, np.ndarray)]
    assert "x0" in arrays and len(arrays) >= 2  # x0 and the family's data
    for key, value in vars(problem).items():
        if key in arrays:
            assert _same_bits(getattr(rebuilt, key), value), key
        else:
            assert getattr(rebuilt, key) == value, key


def test_from_spec_rejects_unknown_name_and_fields(noncvx, fsum, comp):
    with pytest.raises(ValueError, match="unknown problem"):
        from_spec({"name": "mystery", "dim": 2})
    with pytest.raises(ValueError, match=r"unknown keys in problem 'noisy_quadratic': \['extra'\]"):
        from_spec(
            {"name": "noisy_quadratic", "dim": 2, "L": 1.0, "mu": 0.5, "sigma": 0.0,
             "seed": 1, "extra": True}
        )
    with pytest.raises(ValueError, match=r"missing keys in problem 'noisy_quadratic': \['L', 'mu'"):
        from_spec({"name": "noisy_quadratic", "dim": 2})
    # Each family's fields are its class's required constructor arguments.
    expected = {
        "noisy_quadratic": ["L", "dim", "mu", "seed", "sigma"],
        "nonconvex_smooth": ["dim", "seed", "sigma"],
        "finite_sum": ["dim", "n", "seed"],
        "compositional": ["dim", "inner_dim", "seed", "sigma"],
    }
    for name, fields in expected.items():
        message = f"missing keys in problem '{name}': {fields}"
        with pytest.raises(ValueError, match=re.escape(message)):
            from_spec({"name": name})
    # Derived data and fixed constants are not config fields.
    for problem, extra in ((noncvx, "epsilon"), (comp, "offset"), (fsum, "outlier_frac")):
        name = problem.spec["name"]
        message = f"unknown keys in problem '{name}': ['{extra}']"
        with pytest.raises(ValueError, match=re.escape(message)):
            from_spec(dict(problem.spec, **{extra: 0.1}))


def test_checked_spec_is_the_problem_spec():
    fields = {"dim": 3.0, "L": 4, "mu": 1, "sigma": 0, "seed": 2}
    spec = check_spec({"name": "noisy_quadratic", **fields})
    assert spec == NoisyQuadratic(**fields).spec
    assert [type(spec[k]) for k in fields] == [int, float, float, float, int]
    for key, bad, message in (("L", 10**400, f"L must be a finite real number, got {10**400}"),
                              ("seed", 2**64, f"seed must lie in [0, 2**64), got {2**64}"),
                              ("seed", -1, "seed must lie in [0, 2**64), got -1")):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            NoisyQuadratic(**dict(fields, **{key: bad}))


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
        value_noise, jac_noise = comp.draw_inner(streams["inner"])
        gen = fresh["inner"]
        value = sigma * gen.standard_normal(inner_dim) if sigma else np.zeros(inner_dim)
        jac = sigma * gen.standard_normal((inner_dim, dim)) if sigma else np.zeros((inner_dim, dim))
        assert _same_bits(value_noise, value) and _same_bits(jac_noise, jac)
        assert jac_noise.shape == (inner_dim, dim)
        want = sigma * fresh["outer"].standard_normal(inner_dim) if sigma else np.zeros(inner_dim)
        assert _same_bits(comp.draw_outer(streams["outer"]), want)
        want = sigma * fresh["quad"].standard_normal(dim) if sigma else np.zeros(dim)
        assert _same_bits(quad.draw(streams["quad"]), want)
        assert fsum.draw(streams["index"]) == int(fresh["index"].integers(n))
    for key, stream in streams.items():
        assert stream.generator.bit_generator.state == fresh[key].bit_generator.state
