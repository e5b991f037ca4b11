import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormlab import numerics
from stormlab.estimators import storm_init, storm_update
from stormlab.numerics import BLOCK, MAX_BUFFERED, RngStream, as_vector, norm_sq, samples
from stormlab.optimizers import warmup_batch_size
from stormlab.problems import (
    CompositionalProblem,
    FiniteSumProblem,
    NonconvexSmooth,
    grad_check,
    make_noisy_quadratic,
)
from stormlab.schedules import ada_lr, finite_sum_lr, stage_length, storm_original_params

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_norm_sq_hand_value():
    assert norm_sq([3.0, 4.0]) == 25.0


def test_norm_sq_zero_vector():
    assert norm_sq(np.zeros(7)) == 0.0


def test_norm_sq_matches_naive_accumulation():
    gen = np.random.default_rng(42)
    for _ in range(20):
        v = gen.standard_normal(int(gen.integers(1, 50)))
        naive = sum(float(c) * float(c) for c in v)
        assert norm_sq(v) == pytest.approx(naive, rel=1e-12)


@given(st.lists(finite_floats, min_size=1, max_size=30))
def test_norm_sq_is_self_dot(values):
    v = np.array(values)
    assert norm_sq(v) == pytest.approx(float(np.dot(v, v)), rel=1e-12, abs=1e-12)


def test_as_vector_rejects_matrices_and_nonfinite():
    with pytest.raises(ValueError, match="1-D"):
        as_vector(np.ones((2, 2)))
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([1.0, float("nan")])


def _gaussian(stream, k, sigma, rows=1):
    """`rows` samples of k noises, read from a stochastic family's block draw."""
    return NonconvexSmooth(k, sigma, seed=0).draws(stream, rows)


def test_gaussian_is_deterministic_per_stream():
    a = _gaussian(RngStream(7).child("noise"), 16, 2.0)
    b = _gaussian(RngStream(7).child("noise"), 16, 2.0)
    np.testing.assert_array_equal(a, b)


def test_gaussian_sigma_zero_is_exact_zero():
    v = _gaussian(RngStream(7).child("noise"), 8, 0.0)[0]
    np.testing.assert_array_equal(v, np.zeros(8))


def test_gaussian_sample_variance():
    # 1e5 draws: sample variance of unit-sigma coordinates within [0.97, 1.03]
    draws = _gaussian(RngStream(123).child("variance-check"), 1, 1.0, rows=100_000)
    var = float(np.var(draws))
    assert 0.97 <= var <= 1.03


def test_distinct_purpose_labels_give_independent_streams():
    root = RngStream(99)
    a = root.child("alpha").generator.standard_normal(64)
    b = root.child("bravo").generator.standard_normal(64)
    assert abs(float(np.corrcoef(a, b)[0, 1])) < 0.5
    assert not np.allclose(a, b)


def test_child_derivation_is_order_independent():
    root = RngStream(5)
    first = root.child("x").generator.standard_normal(8)
    # Deriving unrelated children must not perturb an existing stream.
    fresh_root = RngStream(5)
    fresh_root.child("a")
    fresh_root.child("b")
    second = fresh_root.child("x").generator.standard_normal(8)
    np.testing.assert_array_equal(first, second)


def test_root_seed_is_checked_once_by_its_rule(monkeypatch):
    for bad in (2.7, True, "3"):
        with pytest.raises(ValueError, match=r"^seed must be a whole number"):
            RngStream(bad)
    # -1 and 2**64 used to be read modulo 2**64, as the streams of 2**64 - 1 and 0
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=rf"^seed must lie in \[0, 2\*\*64\), got {bad}$"):
            RngStream(bad)
    for seed in (0, 2**64 - 1):
        want = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 7])))
        np.testing.assert_array_equal(RngStream(seed).child(7).generator.standard_normal(4),
                                      want.standard_normal(4))
    draws = RngStream(np.int64(3)).child("x").generator.standard_normal(4)
    np.testing.assert_array_equal(draws, RngStream(3).child("x").generator.standard_normal(4))
    calls = []
    check = numerics.checked
    monkeypatch.setattr(numerics, "checked", lambda *args: calls.append(args) or check(*args))
    RngStream(5).child("a").child("b")
    assert calls == [("seed", 5)]


def test_nested_paths_replay_bit_identically():
    draws1 = RngStream(11).child("run").child(3).generator.standard_normal(32)
    draws2 = RngStream(11).child("run").child(3).generator.standard_normal(32)
    np.testing.assert_array_equal(draws1, draws2)
    # a different leaf under the same parent differs
    other = RngStream(11).child("run").child(4).generator.standard_normal(32)
    assert not np.array_equal(draws1, other)


def test_mixed_operation_sequence_replays():
    def sequence(stream):
        gen = stream.generator
        return (
            gen.standard_normal(5).tolist(),
            int(gen.integers(0, 1000)),
            gen.standard_normal(3).tolist(),
        )

    assert sequence(RngStream(2).child("mix")) == sequence(RngStream(2).child("mix"))


def test_child_labels_that_would_name_another_stream_are_refused():
    # Each pair gave identical draws when an int label was read modulo 2**64
    # and a bool as an int: True and 1, -1 and 2**64 - 1, 2**64 and 0.
    root = RngStream(4)
    for bad in (True, False, np.True_, -1, 2**64, np.int64(-1)):
        with pytest.raises(ValueError, match=rf"^stream label must .* got {re.escape(repr(bad))}$"):
            root.child(bad)
        with pytest.raises(ValueError):
            root.child("run").child(bad)
    # in-range ints, numpy ints and strings keep their streams
    for label in (0, 1, 2**64 - 1, np.int64(3), np.uint64(2**64 - 1)):
        want = np.random.Generator(np.random.PCG64(np.random.SeedSequence([4, int(label)])))
        np.testing.assert_array_equal(root.child(label).generator.standard_normal(4),
                                      want.standard_normal(4))
    labels = (0, 1, 2**64 - 1, "0", "1", "True", "run")
    draws = {root.child(label).generator.standard_normal(4).tobytes() for label in labels}
    assert len(draws) == len(labels)


def _parts(sample):
    """A sample's arrays: an inner sample is a (values, Jacobian) pair."""
    return sample if isinstance(sample, tuple) else (sample,)


def _reader_case(kind, dim, inner_dim, sigma, n):
    """A family's block draw, the size of its sample, and one sample as one
    generator call per step makes it (sigma = 0 draws nothing)."""

    def noise(gen, shape):
        return sigma * gen.standard_normal(shape) if sigma else np.zeros(shape)

    if kind == "noise":
        return NonconvexSmooth(dim, sigma, seed=1).draws, dim, lambda gen: noise(gen, dim)
    if kind == "index":
        return FiniteSumProblem(n, 2, seed=1).draws, 1, lambda gen: int(gen.integers(n))
    comp = CompositionalProblem(dim, inner_dim, sigma, seed=1)
    if kind == "outer":
        return comp.outer_draws, inner_dim, lambda gen: noise(gen, inner_dim)
    return (comp.inner_draws, inner_dim * (1 + dim),
            lambda gen: (noise(gen, inner_dim), noise(gen, (inner_dim, dim))))


# Reads of up to 2.5 blocks cross block edges; noise samples of up to 300
# values and inner samples of up to 12 * 13 values go above MAX_BUFFERED.
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), kind=st.sampled_from(["noise", "index", "inner", "outer"]),
       dim=st.integers(1, 300), inner_dim=st.integers(1, 12),
       sigma=st.sampled_from([1.0, 0.5, 2.5, 0.0]), n=st.integers(1, 20_000),
       count=st.integers(1, BLOCK * 5 // 2))
def test_buffered_reads_equal_per_step_draws(seed, kind, dim, inner_dim, sigma, n, count):
    if kind in ("inner", "outer"):
        dim = 1 + dim % 12
    draws, size, per_step = _reader_case(kind, dim, inner_dim, sigma, n)
    stream = RngStream(seed).child("read")
    fresh = RngStream(seed).child("read").generator  # one call per step
    reader = samples(draws, stream, size)
    for _ in range(count):
        got, want = next(reader), per_step(fresh)
        assert type(got) is type(want)
        for got_part, want_part in zip(_parts(got), _parts(want)):
            assert np.shape(got_part) == np.shape(want_part)
            assert np.asarray(got_part).tobytes() == np.asarray(want_part).tobytes()
    # the reader drew whole blocks of BLOCK samples, or one sample per call
    # above MAX_BUFFERED, and left the generator where those per-step calls do
    for _ in range(-count % BLOCK if size <= MAX_BUFFERED else 0):
        per_step(fresh)
    assert stream.generator.bit_generator.state == fresh.bit_generator.state


def test_buffers_stay_small_and_zero_sigma_draws_nothing():
    # a block holds BLOCK samples of up to MAX_BUFFERED values, or one larger one
    for size, rows in ((MAX_BUFFERED, BLOCK), (MAX_BUFFERED + 1, 1)):
        reader = samples(NonconvexSmooth(size, 1.0, seed=0).draws, RngStream(3).child("s"), size)
        for _ in range(BLOCK + 1):
            assert next(reader).base.shape == (rows, size)
    # sigma = 0: every family's samples are zeros, and nothing is drawn
    comp = CompositionalProblem(3, 2, 0.0, seed=0)
    for draws, size in ((NonconvexSmooth(7, 0.0, seed=0).draws, 7), (comp.outer_draws, 2),
                        (comp.inner_draws, 8)):
        stream = RngStream(3).child("s")
        state = stream.generator.bit_generator.state
        reader = samples(draws, stream, size)
        for _ in range(BLOCK + 1):
            assert not any(np.any(part) for part in _parts(next(reader)))
        assert stream.generator.bit_generator.state == state


def test_public_forms_refuse_bad_values_in_the_rules_wording():
    quad = make_noisy_quadratic(dim=2, L=2.0, mu=1.0, sigma=1.0, seed=1)
    zeros, nan = np.zeros(2), float("nan")
    refusals = [
        (lambda: ada_lr(10, 0.3, nan), "sum_sq must be a finite real number, got nan"),
        (lambda: finite_sum_lr(10, 0.3, nan), "sum_sq must be a finite real number, got nan"),
        (lambda: storm_original_params(1, 1, 1, nan),
         "grad_sum_sq must be a finite real number, got nan"),
        (lambda: storm_original_params(True, 1, 1, 0), "k must be a finite real number, got True"),
        (lambda: storm_original_params(nan, 1, 1, 0), "k must be a finite real number, got nan"),
        (lambda: storm_update(zeros, True, zeros, zeros),
         "beta must be a finite real number, got True"),
        (lambda: storm_init(quad, zeros, 2.5, RngStream(0)),
         "batch_size must be a whole number, got 2.5"),
        (lambda: grad_check(quad, zeros, h=nan), "h must be a finite real number, got nan"),
        (lambda: grad_check(quad, zeros, h=math.inf), "h must be a finite real number, got inf"),
        (lambda: grad_check(quad, zeros, h=True), "h must be a finite real number, got True"),
        (lambda: grad_check(quad, zeros, h=0.0), "h must be > 0, got 0.0"),
        (lambda: stage_length(0), "t must be >= 1, got 0"),
        (lambda: stage_length(2.5), "t must be a whole number, got 2.5"),
        (lambda: stage_length(True), "t must be a whole number, got True"),
        (lambda: warmup_batch_size(0), "horizon must be >= 1, got 0"),
        (lambda: warmup_batch_size(2.5), "horizon must be a whole number, got 2.5"),
        (lambda: warmup_batch_size(True), "horizon must be a whole number, got True"),
        (lambda: warmup_batch_size(-8), "horizon must be >= 1, got -8"),
    ]
    for call, message in refusals:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
        assert message.split(" must ")[0] in numerics.RULES
