import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stormlab.numerics import BLOCK, MAX_BUFFERED, RngStream, as_vector, gaussian, norm_sq

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
    a = gaussian(RngStream(7).child("noise"), 16, 2.0)
    b = gaussian(RngStream(7).child("noise"), 16, 2.0)
    np.testing.assert_array_equal(a, b)


def test_gaussian_sigma_zero_is_exact_zero():
    v = gaussian(RngStream(7).child("noise"), 8, 0.0)
    np.testing.assert_array_equal(v, np.zeros(8))


def test_gaussian_rejects_bad_args():
    rng = RngStream(0)
    with pytest.raises(ValueError, match="sigma"):
        gaussian(rng, 4, -1.0)
    with pytest.raises(ValueError, match="dim"):
        gaussian(rng, 0, 1.0)


def test_gaussian_sample_variance():
    # 1e5 draws: sample variance of unit-sigma coordinates within [0.97, 1.03]
    rng = RngStream(123).child("variance-check")
    draws = gaussian(rng, 100_000, 1.0)
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
    st.tuples(st.just("normals"), st.integers(1, 300), st.sampled_from([1.0, 0.5, 2.5]),
              st.integers(1, BLOCK * 5 // 2)),
    st.tuples(st.just("index"), st.integers(1, 20_000), st.none(), st.integers(1, BLOCK * 5 // 2)),
    st.tuples(st.just("gaussian"), st.integers(1, 300), st.sampled_from([0.0, 1.5]),
              st.integers(1, 5)),
    st.tuples(st.just("generator"), st.integers(1, 5), st.none(), st.integers(1, 3)),
)


def _per_step(gen, kind, k, param):
    """What one read returns without a buffer, straight from the generator."""
    if kind == "normals":
        return param * gen.standard_normal(k)
    if kind == "index":
        return int(gen.integers(k))
    if kind == "gaussian":
        return np.zeros(k) if param == 0.0 else param * gen.standard_normal(k)
    return gen.standard_normal(k)


def _buffered(stream, kind, k, param):
    if kind == "normals":
        return stream.normals(k, param)
    if kind == "index":
        return stream.index(k)
    if kind == "gaussian":
        return gaussian(stream, k, param)
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
    gaussian(stream, 7, 0.0)
    assert stream.generator.bit_generator.state == state
    stream.normals(MAX_BUFFERED + 1)  # read straight from the generator
    assert stream._buf is None
    stream.normals(MAX_BUFFERED)
    assert stream._buf.size == BLOCK * MAX_BUFFERED
