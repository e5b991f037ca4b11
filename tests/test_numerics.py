import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormlab import numerics
from stormlab.estimators import storm_init, storm_update
from stormlab.numerics import BLOCK, MAX_BUFFERED, RngStream, as_vector, norm_sq
from stormlab.optimizers import warmup_batch_size
from stormlab.problems import grad_check, make_noisy_quadratic
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


def test_gaussian_is_deterministic_per_stream():
    a = RngStream(7).child("noise").normals(16, 2.0)
    b = RngStream(7).child("noise").normals(16, 2.0)
    np.testing.assert_array_equal(a, b)


def test_gaussian_sigma_zero_is_exact_zero():
    v = RngStream(7).child("noise").normals(8, 0.0)
    np.testing.assert_array_equal(v, np.zeros(8))


def test_gaussian_sample_variance():
    # 1e5 draws: sample variance of unit-sigma coordinates within [0.97, 1.03]
    draws = RngStream(123).child("variance-check").normals(100_000, 1.0)
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


# A run of `count` reads of one kind from a stream. Counts up to 2.5 blocks
# make runs cross refills; sizes up to 300 cover unbuffered reads too.
READS = st.one_of(
    st.tuples(st.just("normals"), st.integers(1, 300), st.sampled_from([1.0, 0.5, 2.5, 0.0]),
              st.integers(1, BLOCK * 5 // 2)),
    st.tuples(st.just("index"), st.integers(1, 20_000), st.none(), st.integers(1, BLOCK * 5 // 2)),
    st.tuples(st.just("generator"), st.integers(1, 5), st.none(), st.integers(1, 3)),
)


def _per_step(gen, kind, k, param):
    """What one read returns without a buffer, straight from the generator;
    a scale of 0 draws nothing."""
    if kind == "normals":
        return np.zeros(k) if param == 0.0 else param * gen.standard_normal(k)
    if kind == "index":
        return int(gen.integers(k))
    return gen.standard_normal(k)


def _buffered(stream, kind, k, param):
    if kind == "normals":
        return stream.normals(k, param)
    if kind == "index":
        return stream.index(k)
    return stream.generator.standard_normal(k)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), runs=st.lists(READS, min_size=1, max_size=5))
def test_buffered_reads_equal_per_step_draws(seed, runs):
    stream = RngStream(seed).child("buffered")
    fresh = RngStream(seed).child("buffered").generator  # never buffered
    for kind, k, param, count in runs:
        for _ in range(count):
            got = _buffered(stream, kind, k, param)
            want = _per_step(fresh, kind, k, param)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # the generator is left where per-step draws leave it
    assert stream.generator.bit_generator.state == fresh.bit_generator.state


def test_buffers_stay_small_and_zero_sigma_draws_nothing():
    stream = RngStream(3).child("s")
    state = stream.generator.bit_generator.state
    stream.normals(7, 0.0)
    assert stream.generator.bit_generator.state == state
    stream.normals(MAX_BUFFERED + 1)  # read straight from the generator
    assert stream._buf is None
    stream.normals(MAX_BUFFERED)
    assert stream._buf.size == BLOCK * MAX_BUFFERED


# Index bounds `RngStream.index` refuses, with the end of each refusal's wording.
INDEX_REFUSALS = [(2.5, "be a whole number, got 2.5"), (True, "be a whole number, got True"),
                  (np.True_, "be a whole number, got np.True_"), (0, "be >= 1, got 0")]


@pytest.mark.parametrize("reads_before", [0, 1, BLOCK])
def test_a_failed_read_leaves_the_stream_where_it_was(reads_before):
    stream, fresh = RngStream(8).child("s"), RngStream(8).child("s")
    for _ in range(reads_before):
        np.testing.assert_array_equal(stream.normals(2), fresh.normals(2))
    # a negative count is no buffered read that moves the stream back
    with pytest.raises(ValueError):
        stream.normals(-1)
    with pytest.raises(TypeError):
        stream.normals(2.5)
    with pytest.raises(TypeError):
        stream.normals(MAX_BUFFERED + 0.5)
    for k in (2, 3, MAX_BUFFERED + 1):
        np.testing.assert_array_equal(stream.normals(k), fresh.normals(k))
    assert stream.index(9) == fresh.index(9)
    for bad, _ in INDEX_REFUSALS:
        with pytest.raises(ValueError):
            stream.index(bad)
    assert [stream.index(9) for _ in range(BLOCK)] == [fresh.index(9) for _ in range(BLOCK)]
    for bad, _ in INDEX_REFUSALS:
        with pytest.raises(ValueError):
            stream.index(bad)
    # a buffer filled for n = 1 serves no bool, though True == 1
    assert stream.index(1) == fresh.index(1) == 0
    for bad, _ in INDEX_REFUSALS:
        with pytest.raises(ValueError):
            stream.index(bad)
    # an equal n of another object goes through the check and reads the same values
    assert [stream.index(9), stream.index(np.int64(9)), stream.index(9)] == [
        fresh.index(9) for _ in range(3)]
    assert stream.generator.bit_generator.state == fresh.generator.bit_generator.state


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
    # a stream's index bound, on a fresh stream and after index(9) or index(1)
    # reads, whose buffer True == 1 must not be served from
    for n_before, reads_before in ((9, 0), (9, 1), (9, BLOCK), (1, 1), (1, BLOCK)):
        for bad, wording in INDEX_REFUSALS:
            stream = RngStream(0).child("s")
            for _ in range(reads_before):
                stream.index(n_before)
            refusals.append((lambda s=stream, n=bad: s.index(n), f"n must {wording}"))
    for call, message in refusals:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
        assert message.split(" must ")[0] in numerics.RULES
