"""Synthetic stochastic problems with exact gradients and replayable oracles.

An oracle's draw returns the sample itself: a noise array, a component
index, or a pair of noise arrays. Evaluating one drawn sample at two
different points is therefore deterministic, which is what the
recursive-momentum estimators need: the two-point gradient difference
under a shared sample has no fresh noise in it. The draws read
`RngStream.normals` and `RngStream.index` directly: a problem's sizes and
sigma were checked when it was built.

Four families are provided:

* noisy quadratic      - strongly convex, additive gradient noise
* nonconvex smooth     - separable log-barrier-like landscape, additive noise
* finite sum           - robust regression, sampling picks a component index
* compositional        - linear inner map under a quadratic outer map, with
                         noise on inner values, inner Jacobians, and outer
                         gradients

Each family's constructor takes exactly its spec fields and draws its data
from the stream `RngStream(seed).child(<family>).child("data")`. Everything
else one `_own_spec` call sets: the checked `spec`, `dim`, `sigma` and the
start `x0`, drawn from the family's `child("x0")` stream. Every run starts
at its problem's `x0`, so a run's spec, T, seed and tunables fix its trace.

Each family writes its exact math once, as the block form
`value_and_grad(X)` that a run's measured columns come from. The one-point
`objective(x)` and `true_grad(x)` of the base class `Problem` read row 0 of
`value_and_grad(x[None])`. Only the one-point forms a step calls have a
body of their own, because a (1, dim) block per step would cost the step
more and change its bits: `true_grad` of the quadratic and nonconvex
families (their oracle `grad_at`), the finite sum's `component_grad` and
its `full_grad`, the anchored variant's counted full pass. The finite sum
remembers only measured blocks of BLOCK rows, the one shape a run
measures, so one-point reads never fill that memory.

All gradients are exact (no autodiff); `grad_check` verifies them against
central finite differences.
"""

from __future__ import annotations

import inspect

import numpy as np

from .numerics import BLOCK, REQUIRED, RngStream, Vector, as_vector, checked, checked_fields

_REL_ERR_FLOOR = 1e-12  # below this, grad_check falls back to absolute error
OUTLIER_FRAC = 0.1  # share of finite-sum targets that are grossly corrupted
EPSILON = 1e-2  # weight of the nonconvex family's quadratic term
# The finite-sum measurement walks its components in chunks of this many
# doubles per (block rows x chunk) temporary, so a block of iterates never
# needs a (rows, n) array.
MEASURE_CHUNK_DOUBLES = 16_384


class Problem:
    """A smooth objective whose exact math is written once, as the block form.

    Each family defines `value_and_grad(X)`: f (B,) and the exact gradients
    (B, dim) at the rows of X (B, dim), where each row's result depends only
    on that row, its position in X and the shape of X, never on the other
    rows. The one-point `objective` and `true_grad` read row 0 of the block
    `x[None]`; a family overrides `true_grad` only where a step calls it.
    """

    dim: int
    sigma: float | None  # None for the finite sum, which samples components
    L: float
    x0: Vector
    spec: dict

    def objective(self, x) -> float:
        return float(self.value_and_grad(x[None])[0][0])

    def true_grad(self, x) -> Vector:
        return self.value_and_grad(x[None])[1][0]


class StochasticProblem(Problem):
    """Smooth objective with an unbiased sampled-gradient oracle.

    The shared oracle adds the drawn noise on top of the exact gradient, so
    one draw evaluated at two points differs only through the exact
    gradients.
    """

    def draw(self, rng: RngStream) -> Vector:
        return rng.normals(self.dim, self.sigma)

    def grad_at(self, noise, x) -> Vector:
        return self.true_grad(x) + noise


class NoisyQuadratic(StochasticProblem):
    """f(x) = x'Ax/2 + b'x with A symmetric, spectrum inside [mu, L].

    The sampled gradient is Ax + b plus i.i.d. per-coordinate noise of
    standard deviation sigma, so the mean squared vector error of one
    sample is sigma**2 * dim.
    """

    def __init__(self, dim, L, mu, sigma, seed):
        dim, L, mu, _, _, gen = _own_spec(self, locals())
        # Rotate an evenly spaced spectrum by a seeded orthogonal matrix.
        lam = np.linspace(mu, L, dim)
        q, r = np.linalg.qr(gen.standard_normal((dim, dim)))
        q = q * np.sign(np.diag(r))  # fix QR sign ambiguity for replay
        self.A = (q * lam) @ q.T
        self.A = 0.5 * (self.A + self.A.T)  # symmetrize against rounding
        self.b = gen.standard_normal(dim)
        self.L = L
        self.x_star = np.linalg.solve(self.A, -self.b)

    def true_grad(self, x) -> Vector:
        # The per-step oracle's one-point form: one GEMV, no (1, dim) block.
        return self.A.dot(x) + self.b

    def value_and_grad(self, X):
        ax = X @ self.A  # A is exactly symmetric
        return 0.5 * np.einsum("ij,ij->i", X, ax) + X @ self.b, ax + self.b


class NonconvexSmooth(StochasticProblem):
    """f(x) = sum_j c_j*log(1 + x_j^2) + (epsilon/2)*||x||^2 with c_j > 0.

    The c_j are drawn uniformly from [0.5, 1.5] and epsilon is EPSILON.
    Bounded below by 0 (attained at the origin, the unique stationary
    point), smooth with constant max_j(2 c_j) + epsilon, and nonconvex in
    every coordinate away from zero.
    """

    def __init__(self, dim, sigma, seed):
        dim, _, _, gen = _own_spec(self, locals())
        self.coeffs = gen.uniform(0.5, 1.5, dim)
        self.epsilon = EPSILON
        self.L = float(2.0 * self.coeffs.max() + self.epsilon)

    def true_grad(self, x) -> Vector:
        # The per-step oracle's one-point form: 2 c x / (1 + x^2) + epsilon x,
        # evaluated in place in that order.
        x = np.asarray(x, dtype=np.float64)
        q = x * x
        q += 1.0
        g = 2.0 * self.coeffs
        g *= x
        g /= q
        g += self.epsilon * x
        return g

    def value_and_grad(self, X):
        sq = X * X
        f = np.log1p(sq) @ self.coeffs + 0.5 * self.epsilon * np.add.reduce(sq, axis=1)
        return f, 2.0 * self.coeffs * X / (1.0 + sq) + self.epsilon * X


class FiniteSumProblem(StochasticProblem):
    """Average of n robust-regression losses F(x) = mean_i l(a_i'x - b_i).

    l(r) = r^2 / (1 + r^2) saturates on outliers, so the landscape is
    nonconvex. Sampling draws a uniform component index, which the oracle
    evaluates, and `full_grad` is the exact arithmetic mean of the
    component gradients.
    """

    def __init__(self, n, dim, seed):
        n, dim, _, gen = _own_spec(self, locals())
        self.features = gen.standard_normal((n, dim)) / np.sqrt(dim)
        x_true = gen.standard_normal(dim)
        targets = self.features @ x_true + 0.1 * gen.standard_normal(n)
        # A slice of grossly corrupted targets keeps the landscape nonconvex.
        n_out = int(round(OUTLIER_FRAC * n))
        if n_out:
            idx = gen.choice(n, size=n_out, replace=False)
            targets[idx] += 10.0 * gen.standard_normal(n_out)
        self.targets = targets
        self.n = n
        row_sq = np.sum(self.features * self.features, axis=1)
        self.L = float(2.0 * row_sq.max())  # |l''| <= 2
        self._measured = {}  # (shape, dtype, bytes) of a block -> its (f, G)
        self._measured_bytes = 0

    @staticmethod
    def _dloss(r):
        q = 1.0 + r * r
        return 2.0 * r / (q * q)

    def full_grad(self, x) -> Vector:
        """Exact mean of all component gradients: the anchored variant's
        counted full pass, whose bits feed its iterates."""
        r = self.features @ x - self.targets
        return self.features.T @ self._dloss(r) / self.n

    def value_and_grad(self, X):
        """f (B,) and the exact gradients (B, dim) at the rows of X, both
        read-only, remembered by X's shape, dtype and exact bytes.

        A horizon-free run is a bit-exact prefix of a longer one, so a
        horizon grid measures the same blocks again. Only blocks of BLOCK
        rows, the one shape a run measures, are kept, so one-point reads
        (`objective`, `true_grad`) never fill the memory. A result is kept
        only while the kept keys and results together fit in `features.nbytes`:
        at n = 20 000, dim 20 that is about 150 blocks of 64 rows, and at
        n = 100 no block fits. Only this measurement is remembered; the
        oracles and `full_grad` compute on every call, so what a run counts
        as its oracle cost never changes.
        """
        key = (X.shape, X.dtype, X.tobytes())
        known = self._measured.get(key)
        if known is not None:
            return known
        f, G = self._measure(X)
        f.flags.writeable = G.flags.writeable = False
        size = len(key[2]) + f.nbytes + G.nbytes
        if len(X) == BLOCK and self._measured_bytes + size <= self.features.nbytes:
            self._measured[key] = f, G
            self._measured_bytes += size
        return f, G

    def _measure(self, X):
        """Block measurement as two GEMMs per chunk of components.

        With q = 1 + r^2 and w = 1/q, the loss is r^2 w and its derivative
        2 r w^2; the 2 is applied once at the end, which is exact.
        """
        rows = X.shape[0]
        chunk = max(1, MEASURE_CHUNK_DOUBLES // rows)
        f = np.zeros(rows)
        G = np.zeros((rows, self.dim))
        for lo in range(0, self.n, chunk):
            a = self.features[lo:lo + chunk]
            r = X @ a.T
            r -= self.targets[lo:lo + chunk]
            sq = r * r
            w = sq + 1.0
            np.divide(1.0, w, out=w)
            sq *= w
            f += np.add.reduce(sq, axis=1)
            r *= w
            r *= w
            G += r @ a
        return f / self.n, 2.0 * G / self.n

    def component_grad(self, i, x) -> Vector:
        """Gradient of the i-th component loss (0-based index)."""
        if not 0 <= i < self.n:
            raise IndexError(f"component index {i} outside [0, {self.n})")
        a = self.features[i]
        # Python-float scalars: the same IEEE operations as numpy scalars, faster.
        return self._dloss(float(a.dot(x)) - float(self.targets[i])) * a

    def draw(self, rng: RngStream) -> int:
        return rng.index(self.n)

    def grad_at(self, i, x) -> Vector:
        return self.component_grad(i, x)


class CompositionalProblem(Problem):
    """F(x) = f(g(x)) with g(x) = Mx + c and f(u) = ||u||^2 / 2.

    M and c are drawn from the seed. Inner samples carry additive noise on
    both the map values and the Jacobian entries (independent of each other
    within a sample); outer samples carry additive gradient noise. All noises are per-entry
    N(0, sigma^2). The exact gradient is M'(Mx + c).
    """

    def __init__(self, dim, inner_dim, sigma, seed):
        dim, inner_dim, _, _, gen = _own_spec(self, locals())
        self.matrix = gen.standard_normal((inner_dim, dim)) / np.sqrt(dim)
        self.offset = gen.standard_normal(inner_dim)
        self.inner_dim = inner_dim
        top_sv = float(np.linalg.norm(self.matrix, 2))
        self.L = top_sv * top_sv  # smoothness of the exact composition

    def value_and_grad(self, X):
        """f (B,) and the exact gradients (B, dim) at the rows of X (B, dim)."""
        u = X @ self.matrix.T + self.offset
        return 0.5 * np.einsum("ij,ij->i", u, u), u @ self.matrix

    def draw_inner(self, rng: RngStream) -> tuple[Vector, np.ndarray]:
        """One inner sample: (value noise (inner_dim,), Jacobian noise
        (inner_dim, dim)), independent halves read in that order as one draw
        of inner_dim * (1 + dim) values."""
        m = self.inner_dim
        noise = rng.normals(m * (1 + self.dim), self.sigma)
        return noise[:m], noise[m:].reshape(m, self.dim)

    def draw_outer(self, rng: RngStream) -> Vector:
        return rng.normals(self.inner_dim, self.sigma)

    def inner_value(self, inner, x) -> Vector:
        return self.matrix.dot(x) + self.offset + inner[0]

    def inner_jac(self, inner, x) -> np.ndarray:
        """Sampled Jacobian, shaped (inner_dim, dim); x-independent here."""
        return self.matrix + inner[1]

    def outer_grad(self, noise, u) -> Vector:
        return np.asarray(u, dtype=np.float64) + noise

    def sample_grad(self, inner, outer, x) -> Vector:
        """One-sample composite gradient estimate at x."""
        u = self.inner_value(inner, x)
        return self.inner_jac(inner, x).T @ self.outer_grad(outer, u)


# Problem family name -> class; a config's fields are the class's
# constructor arguments.
FAMILIES = {
    "noisy_quadratic": NoisyQuadratic,
    "nonconvex_smooth": NonconvexSmooth,
    "finite_sum": FiniteSumProblem,
    "compositional": CompositionalProblem,
}

# name -> its fields, each REQUIRED, read once from the constructor signatures.
_FIELDS = {
    name: dict.fromkeys(inspect.signature(cls).parameters, REQUIRED)
    for name, cls in FAMILIES.items()
}

# The factory names are the classes themselves.
make_noisy_quadratic = NoisyQuadratic
make_nonconvex_smooth = NonconvexSmooth
make_finite_sum = FiniteSumProblem
make_compositional = CompositionalProblem


def _family_fields(spec, prefix=None) -> tuple:
    """(name, fields) of a spec: its name must be a registered family (a
    spec that is no dict, or any other name, raises ValueError) and its
    other keys that family's fields, by `checked_fields` with `prefix`."""
    if not isinstance(spec, dict):
        raise ValueError(f"problem must be a JSON object, got {spec!r}")
    name = spec.get("name")
    if not isinstance(name, str) or name not in FAMILIES:
        raise ValueError(f"unknown problem {name!r}, expected one of {sorted(FAMILIES)}")
    given = {k: v for k, v in spec.items() if k != "name"}
    return name, checked_fields(given, _FIELDS[name], f"problem '{name}'", prefix)


def check_spec(spec: dict) -> dict:
    """The spec checked as building its problem checks it, without building
    it: its name, unknown and missing fields, each value by its
    `numerics.RULES` rule (whole-number fields as ints and real ones as
    floats) and the one rule across fields, mu <= L. A failure raises
    ValueError, so config typos fail loudly instead of picking defaults."""
    name, fields = _family_fields(spec, prefix="")
    if "mu" in fields and fields["mu"] > fields["L"]:
        raise ValueError(f"need mu <= L, got mu={fields['mu']!r}, L={fields['L']!r}")
    return {"name": name, **fields}


def _own_spec(problem, args) -> list:
    """The one set-up of every family: check the constructor's arguments (its
    `locals()` on entry) by `check_spec`, set `problem.spec`, `dim`, `sigma`
    (None for the finite sum, which samples components instead) and the
    start `x0` from the family's `child("x0")` stream, and return the checked
    values in the constructor's order, then its `child("data")` generator."""
    fields = {key: value for key, value in args.items() if key != "self"}
    name = next(name for name, cls in FAMILIES.items() if isinstance(problem, cls))
    spec = problem.spec = check_spec({"name": name, **fields})
    problem.dim, problem.sigma = spec["dim"], spec.get("sigma")
    root = RngStream(spec["seed"]).child(name)
    problem.x0 = root.child("x0").generator.standard_normal(problem.dim)
    return [spec[key] for key in fields] + [root.child("data").generator]


def from_spec(spec: dict):
    """Build a problem from a config mapping with a `name` key. The spec's
    name and keys are resolved here; its values are checked once, by the
    family's constructor (`check_spec`)."""
    name, fields = _family_fields(spec)
    return FAMILIES[name](**fields)


def grad_check(problem, x, h=1e-5) -> float:
    """Worst per-coordinate error of true_grad against central differences.

    Coordinates where the exact gradient is below 1e-12 in magnitude are
    compared absolutely instead of relatively, so exact zeros do not
    produce spurious blowups. The step h is checked by its `numerics.RULES`
    rule, a finite real > 0.
    """
    h = checked("h", h)
    x = as_vector(x)
    g = problem.true_grad(x)
    worst = 0.0
    for j in range(x.shape[0]):
        step = np.zeros_like(x)
        step[j] = h
        fd = (problem.objective(x + step) - problem.objective(x - step)) / (2.0 * h)
        err = abs(fd - g[j])
        if abs(g[j]) >= _REL_ERR_FLOOR:
            err /= abs(g[j])
        worst = max(worst, err)
    return worst
