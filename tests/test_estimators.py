import dataclasses
import itertools

import numpy as np
import pytest

from stormlab.estimators import (
    GradientTable,
    Snapshot,
    StaleSnapshotError,
    comp_grad_update,
    comp_inner_update,
    finite_sum_update,
    storm_init,
    storm_update,
    svrg_update,
    take_snapshot,
)
from stormlab.numerics import RngStream
from stormlab.problems import make_finite_sum, make_noisy_quadratic

# --- core recursion ----------------------------------------------------------


def test_storm_update_hand_value():
    out = storm_update([1.0, 0.0], 0.5, [0.0, 1.0], [0.5, 0.5])
    np.testing.assert_allclose(out, [0.25, 0.75], rtol=1e-15)


def test_storm_update_two_forms_agree():
    gen = np.random.default_rng(1)
    for _ in range(50):
        v, gn, go = gen.standard_normal((3, 6))
        beta = float(gen.uniform(0.01, 1.0))
        expanded = (1 - beta) * v + beta * gn + (1 - beta) * (gn - go)
        np.testing.assert_allclose(
            storm_update(v, beta, gn, go), expanded, rtol=1e-12, atol=1e-12
        )


def test_storm_update_beta_one_is_reset():
    v = np.array([5.0, -3.0])
    gn = np.array([1.0, 2.0])
    np.testing.assert_array_equal(storm_update(v, 1.0, gn, np.array([9.0, 9.0])), gn)


def test_storm_update_rejects_bad_beta_and_shapes():
    v = np.zeros(3)
    with pytest.raises(ValueError, match="beta"):
        storm_update(v, 0.0, v, v)
    with pytest.raises(ValueError, match="beta"):
        storm_update(v, 1.5, v, v)
    with pytest.raises(ValueError, match="shape"):
        storm_update(v, 0.5, np.zeros(4), v)


def test_storm_update_does_not_mutate_inputs():
    v = np.ones(4)
    gn = np.full(4, 2.0)
    go = np.full(4, 3.0)
    storm_update(v, 0.25, gn, go)
    np.testing.assert_array_equal(v, np.ones(4))
    np.testing.assert_array_equal(gn, np.full(4, 2.0))
    np.testing.assert_array_equal(go, np.full(4, 3.0))


def test_storm_update_fixed_point_under_exact_gradients():
    quad = make_noisy_quadratic(dim=6, L=5.0, mu=1.0, sigma=0.0, seed=8)
    x = quad.x0.copy()
    v = quad.true_grad(x)
    for _ in range(100):
        x_new = x - 0.05 * v
        v = storm_update(v, 0.1, quad.true_grad(x_new), quad.true_grad(x))
        x = x_new
        assert np.linalg.norm(v - quad.true_grad(x)) <= 1e-12


def test_storm_init_is_batch_mean():
    quad = make_noisy_quadratic(dim=5, L=2.0, mu=1.0, sigma=1.0, seed=3)
    x = quad.x0
    v = storm_init(quad, x, 64, RngStream(7).child("init"))
    # replay the identical stream to rebuild the mean independently
    rng = RngStream(7).child("init")
    manual = np.mean(
        [quad.grad_at(quad.draw(rng), x) for _ in range(64)], axis=0
    )
    np.testing.assert_allclose(v, manual, rtol=1e-12, atol=1e-12)


def test_storm_init_variance_scales_inversely_with_batch():
    quad = make_noisy_quadratic(dim=8, L=2.0, mu=1.0, sigma=1.0, seed=4)
    x = quad.x0
    g = quad.true_grad(x)
    expected = quad.sigma**2 * quad.dim / 10_000
    errs = []
    root = RngStream(55).child("batches")
    for rep in range(50):
        v = storm_init(quad, x, 10_000, root.child(rep))
        errs.append(float(np.sum((v - g) ** 2)))
    measured = float(np.mean(errs))
    assert expected / 3 <= measured <= expected * 3


def test_storm_variance_reduction_at_frozen_point():
    # two-point evaluation at identical points: the correction vanishes and
    # the estimate becomes a slow average, far below single-sample noise
    quad = make_noisy_quadratic(dim=20, L=10.0, mu=1.0, sigma=1.0, seed=5)
    x = quad.x0
    g = quad.true_grad(x)
    beta = 10_000 ** (-2.0 / 3.0)
    rng = RngStream(77).child("frozen")
    v = storm_init(quad, x, 22, rng)
    sq_errs = np.empty(10_000)
    for t in range(10_000):
        token = quad.draw(rng)
        v = storm_update(v, beta, quad.grad_at(token, x), quad.grad_at(token, x))
        sq_errs[t] = float(np.sum((v - g) ** 2))
    mse = float(sq_errs[5_000:].mean())
    single_sample = quad.sigma**2 * quad.dim
    assert mse < 0.5 * single_sample


# --- compositional updates ---------------------------------------------------


def test_comp_inner_update_hand_value():
    out = comp_inner_update([1.0, 1.0], 0.5, [2.0, 0.0], [1.5, 0.5])
    np.testing.assert_allclose(out, [1.75, 0.25], rtol=1e-15)


def test_comp_inner_update_beta_one_resets():
    out = comp_inner_update([9.0], 1.0, [2.0], [7.0])
    np.testing.assert_array_equal(out, [2.0])


def test_comp_grad_update_hand_value():
    out = comp_grad_update([1.0], 0.5, [3.0], [[2.0]], [1.0], [[1.0]])
    np.testing.assert_allclose(out, [6.0], rtol=1e-15)


def test_comp_grad_update_shape_validation():
    with pytest.raises(ValueError, match="Jacobian"):
        comp_grad_update(np.zeros(2), 0.5, np.zeros(3), np.zeros((2, 2)),
                         np.zeros(3), np.zeros((2, 2)))


def test_every_update_checks_beta_and_its_own_shapes():
    v, g, jac = np.zeros(2), np.ones(2), np.eye(2)
    table = GradientTable(np.zeros((3, 2)), np.zeros(2))
    snapshot = Snapshot(np.zeros(2), np.zeros(2), 0, 5)
    updates = [
        lambda beta: comp_inner_update(v, beta, g, g),
        lambda beta: comp_grad_update(v, beta, g, jac, g, jac),
        lambda beta: finite_sum_update(v, table, beta, 0, g, g),
        lambda beta: svrg_update(v, snapshot, beta, g, g, g),
    ]
    for update in updates:
        update(0.5)
        for beta in (0.0, 1.5):
            with pytest.raises(ValueError, match="beta"):
                update(beta)
    with pytest.raises(ValueError, match="shape"):
        comp_inner_update(v, 0.5, np.ones(3), g)
    with pytest.raises(ValueError, match="shape"):
        finite_sum_update(v, GradientTable(np.zeros((3, 3)), np.zeros(3)), 0.5, 0, g, g)
    with pytest.raises(ValueError, match="shape"):
        svrg_update(v, snapshot, 0.5, g, g, np.ones(3))
    with pytest.raises(ValueError, match="shape"):
        svrg_update(v, Snapshot(np.zeros(3), np.zeros(3), 0, 5), 0.5, g, g, g)


def test_comp_grad_update_matches_direct_formula():
    gen = np.random.default_rng(2)
    for _ in range(30):
        v = gen.standard_normal(4)
        jn, jo = gen.standard_normal((2, 3, 4))
        on, oo = gen.standard_normal((2, 3))
        beta = float(gen.uniform(0.05, 1.0))
        direct = (1 - beta) * v + jn.T @ on - (1 - beta) * (jo.T @ oo)
        np.testing.assert_allclose(
            comp_grad_update(v, beta, on, jn, oo, jo), direct, rtol=1e-12, atol=1e-12
        )


# --- gradient table ----------------------------------------------------------


def test_table_full_pass_mean_is_exact():
    fs = make_finite_sum(n=9, dim=4, seed=6)
    table = GradientTable.from_full_pass(fs, fs.x0)
    np.testing.assert_allclose(table.mean, fs.full_grad(fs.x0), atol=1e-14)


def test_table_update_is_pure_and_consistent():
    fs = make_finite_sum(n=7, dim=3, seed=7)
    table = GradientTable.from_full_pass(fs, fs.x0)
    before, mean_before = table.entries.copy(), table.mean.copy()
    new = table.updated(2, np.ones(3))
    np.testing.assert_array_equal(table.entries, before)  # original untouched
    np.testing.assert_array_equal(table.mean, mean_before)
    assert (table.updates_since_sync, new.updates_since_sync) == (0, 1)
    np.testing.assert_array_equal(new.entries[2], np.ones(3))
    np.testing.assert_allclose(new.mean, new.entries.mean(axis=0), atol=1e-14)


def test_table_mean_drift_bounded_over_long_update_sequence():
    gen = np.random.default_rng(11)
    entries = gen.standard_normal((13, 5))
    table = GradientTable(entries=entries, mean=entries.mean(axis=0))
    in_place = GradientTable(entries.copy(), entries.mean(axis=0))
    for _ in range(10_000):
        i = int(gen.integers(13))
        grad = gen.standard_normal(5)
        table = table.updated(i, grad)
        in_place.write(i, grad)
    direct = table.entries.mean(axis=0)
    assert float(np.abs(table.mean - direct).max()) <= 1e-10
    # the in-place rule reaches the same bits, resyncs included
    np.testing.assert_array_equal(in_place.entries, table.entries)
    np.testing.assert_array_equal(in_place.mean, table.mean)
    assert in_place.updates_since_sync == table.updates_since_sync


def test_table_rejects_bad_index_and_shape():
    entries = np.zeros((4, 2))
    table = GradientTable(entries=entries, mean=entries.mean(axis=0))
    with pytest.raises(IndexError):
        table.updated(4, np.zeros(2))
    with pytest.raises(ValueError, match="shape"):
        table.updated(0, np.zeros(3))


# --- finite-sum recursion ----------------------------------------------------


def test_finite_sum_update_hand_value():
    # n=2, component 0 sampled: grad_new=2, grad_old=1, table=(0.5, 1.5)
    table = GradientTable(
        entries=np.array([[0.5], [1.5]]), mean=np.array([1.0])
    )
    v, new_table = finite_sum_update(
        np.array([1.0]), table, 0.5, 0, np.array([2.0]), np.array([1.0])
    )
    np.testing.assert_allclose(v, [2.25], rtol=1e-15)
    np.testing.assert_array_equal(new_table.entries, [[2.0], [1.5]])
    np.testing.assert_allclose(new_table.mean, [1.75], rtol=1e-15)


def test_finite_sum_one_step_conditional_mean():
    # averaging the update over the uniform component choice must equal the
    # recursion driven by exact mean gradients, for any table content
    fs = make_finite_sum(n=5, dim=3, seed=12)
    gen = np.random.default_rng(3)
    x_new, x_old = gen.standard_normal((2, 3))
    v = gen.standard_normal(3)
    entries = np.stack([fs.component_grad(i, x_old) for i in range(fs.n)])
    table = GradientTable(entries=entries, mean=entries.mean(axis=0))
    beta = 1.0 / fs.n
    avg = np.zeros(3)
    for i in range(fs.n):
        out, _ = finite_sum_update(
            v, table, beta, i, fs.component_grad(i, x_new), fs.component_grad(i, x_old)
        )
        avg += out
    avg /= fs.n
    expected = (
        (1 - beta) * v
        + fs.full_grad(x_new)
        - (1 - beta) * fs.full_grad(x_old)
    )
    np.testing.assert_allclose(avg, expected, atol=1e-10)


def test_finite_sum_multi_step_enumeration_unbiased():
    # enumerate every sampling path of length 3 after the full-pass init:
    # the path-averaged estimate equals the exact gradient at each iterate
    fs = make_finite_sum(n=3, dim=2, seed=13)
    gen = np.random.default_rng(4)
    xs = [fs.x0] + [fs.x0 + 0.1 * gen.standard_normal(2) for _ in range(3)]
    beta = 1.0 / fs.n
    init_table = GradientTable.from_full_pass(fs, xs[0])
    v0 = init_table.mean.copy()
    sums = [np.zeros(2) for _ in range(3)]
    paths = list(itertools.product(range(fs.n), repeat=3))
    for path in paths:
        v, table = v0, init_table
        for step, i in enumerate(path):
            x_new, x_old = xs[step + 1], xs[step]
            v, table = finite_sum_update(
                v, table, beta, i,
                fs.component_grad(i, x_new), fs.component_grad(i, x_old),
            )
            sums[step] += v
    for step, total in enumerate(sums):
        mean_v = total / len(paths)
        np.testing.assert_allclose(mean_v, fs.full_grad(xs[step + 1]), atol=1e-10)


def test_finite_sum_n1_reduces_to_full_gradient():
    fs = make_finite_sum(n=1, dim=3, seed=14)
    gen = np.random.default_rng(5)
    x_old = fs.x0
    table = GradientTable.from_full_pass(fs, x_old)
    v = table.mean.copy()
    for _ in range(20):
        x_new = x_old + 0.1 * gen.standard_normal(3)
        v, table = finite_sum_update(
            v, table, 1.0, 0, fs.component_grad(0, x_new), fs.component_grad(0, x_old)
        )
        np.testing.assert_allclose(v, fs.full_grad(x_new), atol=1e-12)
        x_old = x_new


# --- anchored (snapshot) recursion -------------------------------------------


def test_svrg_one_step_conditional_mean():
    fs = make_finite_sum(n=5, dim=3, seed=15)
    gen = np.random.default_rng(6)
    x_anchor = fs.x0
    x_old = x_anchor + 0.05 * gen.standard_normal(3)
    x_new = x_old + 0.05 * gen.standard_normal(3)
    snap = take_snapshot(fs, x_anchor, period=10)
    v = gen.standard_normal(3)
    beta = 1.0 / fs.n
    avg = np.zeros(3)
    for i in range(fs.n):
        avg += svrg_update(
            v, snap, beta,
            fs.component_grad(i, x_new),
            fs.component_grad(i, x_old),
            fs.component_grad(i, x_anchor),
        )
    avg /= fs.n
    expected = (1 - beta) * v + fs.full_grad(x_new) - (1 - beta) * fs.full_grad(x_old)
    np.testing.assert_allclose(avg, expected, atol=1e-10)


def test_svrg_multi_step_enumeration_unbiased():
    fs = make_finite_sum(n=3, dim=2, seed=16)
    gen = np.random.default_rng(7)
    xs = [fs.x0] + [fs.x0 + 0.1 * gen.standard_normal(2) for _ in range(3)]
    beta = 1.0 / fs.n
    snap = take_snapshot(fs, xs[0], period=100)
    v0 = snap.full_grad.copy()
    sums = [np.zeros(2) for _ in range(3)]
    paths = list(itertools.product(range(fs.n), repeat=3))
    for path in paths:
        v = v0
        for step, i in enumerate(path):
            x_new, x_old = xs[step + 1], xs[step]
            v = svrg_update(
                v, snap, beta,
                fs.component_grad(i, x_new),
                fs.component_grad(i, x_old),
                fs.component_grad(i, snap.x),
            )
            sums[step] += v
    for step, total in enumerate(sums):
        np.testing.assert_allclose(
            total / len(paths), fs.full_grad(xs[step + 1]), atol=1e-10
        )


def test_snapshot_staleness_raises():
    fs = make_finite_sum(n=4, dim=2, seed=17)
    snap = take_snapshot(fs, fs.x0, period=2)
    g = fs.component_grad(0, fs.x0)
    v = snap.full_grad
    svrg_update(v, snap, 0.25, g, g, g)  # age 0: fine
    svrg_update(v, dataclasses.replace(snap, age=1), 0.25, g, g, g)  # age 1: fine
    with pytest.raises(StaleSnapshotError):  # age 2 = period: missed refresh
        svrg_update(v, dataclasses.replace(snap, age=2), 0.25, g, g, g)


def test_snapshot_period_is_checked_by_its_rule():
    fs = make_finite_sum(n=4, dim=2, seed=17)
    for bad in (2.5, True, "2"):
        with pytest.raises(ValueError, match="^period must be a whole number"):
            take_snapshot(fs, fs.x0, period=bad)
    with pytest.raises(ValueError, match="^period must be >= 1, got 0$"):
        take_snapshot(fs, fs.x0, period=0)
    assert take_snapshot(fs, fs.x0, period=3.0).period == 3


def test_snapshot_full_grad_is_exact():
    fs = make_finite_sum(n=6, dim=3, seed=18)
    snap = take_snapshot(fs, fs.x0, period=6)
    np.testing.assert_allclose(snap.full_grad, fs.full_grad(fs.x0), atol=1e-14)
