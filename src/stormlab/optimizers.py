"""Optimizer runs producing fully deterministic trace records.

Every algorithm runs through one loop (`_run`), from the problem's start
`problem.x0`, so a run is fixed by its problem, T, seed and tunables, which
its config echo names. An algorithm supplies only its set-up and its
per-step rule, which returns the gradient estimate v, its squared norm, the
step size eta and the momentum weight beta. The loop derives labeled random
streams from the seed, records the trace row AT the current iterate, then
moves to x - eta * v. Recorded columns:

    t, f, grad_norm, v_norm_sq, eta, beta, est_error

where grad_norm and est_error are measured against the problem's exact
gradient. Those three measured columns are filled per block of BLOCK
steps: the loop buffers x_t and v_t and measures the whole block with one
call to `problem.value_and_grad`, always at the full block shape, so row
t's bits depend only on t and x_t, not on T. A uniformly random reporting
index tau is drawn from its own stream so that it never perturbs the
iterate randomness.

A horizon-free finite-sum run repeats a shorter run's blocks bit for bit,
so `FiniteSumProblem.value_and_grad` returns a block it has measured before
from memory, keyed on the block's exact bytes and bounded by the bytes of
the problem's features. Nothing else is reused: every oracle call, full
pass and table fill computes, so a run's oracle cost in a grid is its cost
alone.

The random streams are read per block too: every oracle draw and component
index, each taken through the problem's draw methods, comes from its
stream's BLOCK-draw buffer (`RngStream.normals` and `RngStream.index`),
whose values are exactly those of one generator call per step.

Step rules check beta, the shapes and the fixed step-size arguments once
at set-up (`check_recursion`, `ada_lr_law`, `finite_sum_lr_law`,
`storm_original_law`) and then call the unchecked estimator cores and the
built laws; the public `storm_update`, `svrg_update`, `ada_lr`,
`storm_original_params` and the rest keep their checks for every other
caller. The finite-sum rules still call `problem.component_grad` exactly 2
(table) or 3 (anchored) times per step: those calls are the oracle cost the
method is analysed in, and a batched evaluation would change both the
counted cost and the gradients' bits.

`ALGORITHMS` is the one registry of algorithms. A runner's signature holds
the algorithm's tunables and their defaults, and `numerics.RULES` holds each
tunable's range; configs and direct calls are both checked by `check_run`,
and a run's T and seed by the same table.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from . import problems
from .estimators import (  # noqa: F401 - bench/tracer.py wraps the checked updates here
    GradientTable,
    _comp_grad,
    _corrected,
    _storm,
    check_recursion,
    comp_grad_update,
    comp_inner_update,
    finite_sum_update,
    storm_init,
    storm_update,
    svrg_update,
    take_snapshot,
)
from .numerics import BLOCK, RngStream, checked, checked_fields, norm_sq
# bench/tracer.py wraps ada_lr, finite_sum_lr and storm_original_params here,
# though no step rule calls them.
from .schedules import (  # noqa: F401
    ada_beta,
    ada_lr,
    ada_lr_law,
    finite_sum_beta,
    finite_sum_lr,
    finite_sum_lr_law,
    stage_length,
    storm_original_law,
    storm_original_params,
)


@dataclass
class RunRecord:
    """Trace of one optimization run plus the sampled reporting iterate."""

    t: np.ndarray
    f: np.ndarray
    grad_norm: np.ndarray
    v_norm_sq: np.ndarray
    eta: np.ndarray
    beta: np.ndarray
    est_error: np.ndarray
    tau: int
    x_tau: np.ndarray
    x_final: np.ndarray
    config: dict = field(default_factory=dict)
    iterates: np.ndarray | None = None  # (T+1, dim) when retained
    v_history: np.ndarray | None = None  # (T, dim) when retained

    @property
    def T(self) -> int:
        return int(self.t.shape[0])

    def columns(self) -> dict:
        """Trace columns keyed by their serialized names."""
        return {
            "t": self.t,
            "f": self.f,
            "grad_norm": self.grad_norm,
            "v_norm_sq": self.v_norm_sq,
            "eta": self.eta,
            "beta": self.beta,
            "est_error": self.est_error,
        }


class DivergenceError(ArithmeticError):
    """A run reached a non-finite f, v_norm_sq or eta at step t."""

    def __init__(self, t, quantity, value):
        super().__init__(t, quantity, value)
        self.t, self.quantity, self.value = t, quantity, value

    def __str__(self):
        return f"{self.quantity} is not finite ({self.value}) at step t={self.t}"


def warmup_batch_size(horizon: int) -> int:
    """ceil(horizon**(1/3)); the tiny slack absorbs cube roots of perfect
    cubes landing one ulp above the integer."""
    return int(math.ceil(horizon ** (1.0 / 3.0) - 1e-12))


# Runner arguments that are not tunables of the algorithm.
_RUN_ARGS = {"problem", "T", "seed", "keep_iterates"}

def _registered(name: str):
    """ALGORITHMS[name]; an unknown name, or one that is no string, raises
    ValueError."""
    if not isinstance(name, str) or name not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {name!r}, expected one of {sorted(ALGORITHMS)}")
    return ALGORITHMS[name]


def tunables(name: str) -> dict:
    """Tunables of a registered algorithm and their defaults, in the order
    of its runner's signature (a copy). The one default of None, the
    anchored method's `period`, stands for the problem's n, which
    `check_run` fills in."""
    _registered(name)
    return dict(_TUNABLES[name])


def check_run(name: str, spec: dict, params: dict) -> dict:
    """Check one run of algorithm `name` on the problem of spec `spec`.

    The problem's family comes first: an unknown algorithm, or a family the
    algorithm does not accept, raises ValueError. Then `params` comes back
    with each missing tunable's default filled in, in the runner's signature
    order, and a `period` that is missing or None set to the spec's n, one
    refresh per pass. Each value is checked by its `numerics.RULES` rule and
    comes back as the rule's kind returns it; an unknown key or a value
    outside its range raises ValueError.
    """
    family = spec.get("name")
    if family not in _registered(name)[1]:
        raise ValueError(f"algorithm '{name}' does not accept problem family '{family}'")
    fields = _TUNABLES[name]
    if "period" in fields and params.get("period") is None:
        params = {**params, "period": spec["n"]}
    return checked_fields(params, fields, f"algorithm '{name}'", prefix=f"{name}: ")


def _run(name, problem, T, seed, keep_iterates, steps, **params) -> RunRecord:
    """The one run loop behind every runner.

    Every run starts at `problem.x0`. `steps(problem, T, x, root, **params)`
    sets the algorithm up at that start x and returns its rule
    `step(t, x, x_prev) -> (v, |v|^2, eta, beta)`. The loop owns the rest:
    the entry checks, the tau draw, the trace row at x, the block
    measurement, the move, the stop on a non-finite value and the config
    echo.

    A non-finite f is found when its block is measured. When step t fails
    first, the block's pending rows up to t are measured before the failure
    is raised, so the run stops with the same DivergenceError (first t;
    f before v_norm_sq before eta) as a loop measuring every step.
    """
    params = check_run(name, problem.spec, params)
    T, seed = checked("T", T), checked("seed", seed)
    x = problem.x0.copy()
    root = RngStream(seed)
    tau = int(root.child("tau").generator.integers(1, T + 1))
    step = steps(problem, T, x, root, **params)

    f, grad_norm, v_norm_sq, etas, betas, est_error = (np.empty(T) for _ in range(6))
    iterates = np.empty((T + 1, problem.dim)) if keep_iterates else None
    v_history = np.empty((T, problem.dim)) if keep_iterates else None
    xs = np.zeros((BLOCK, problem.dim))
    vs = np.zeros((BLOCK, problem.dim))

    def measure(t):
        """Fill the measured columns of t's block up to row t; stop at the
        first non-finite f."""
        lo = (t - 1) // BLOCK * BLOCK
        rows = t - lo
        f_block, g_block = problem.value_and_grad(xs)
        bad = ~np.isfinite(f_block[:rows])
        if bad.any():
            first = int(bad.argmax())
            raise DivergenceError(lo + first + 1, "f", float(f_block[first]))
        g = g_block[:rows]
        diff = vs[:rows] - g
        f[lo:t] = f_block[:rows]
        grad_norm[lo:t] = np.sqrt(np.einsum("ij,ij->i", g, g))
        est_error[lo:t] = np.sqrt(np.einsum("ij,ij->i", diff, diff))

    x_tau = None
    x_prev = x
    isfinite = math.isfinite
    # A floating-point error shows up as a non-finite value below, which
    # stops the run; numpy's warnings would only repeat it.
    with np.errstate(all="ignore"):
        for t in range(1, T + 1):
            i = t - 1
            row = i % BLOCK
            xs[row] = x
            try:
                v, v_sq, eta, beta = step(t, x, x_prev)
                if not isfinite(v_sq):
                    raise DivergenceError(t, "v_norm_sq", v_sq)
                if not isfinite(eta):
                    raise DivergenceError(t, "eta", eta)
            except Exception:
                # f at this step or an earlier one of its block, not yet
                # measured, may have failed first; that failure is the one
                # to report.
                measure(t)
                raise
            vs[row] = v
            v_norm_sq[i] = v_sq
            etas[i] = eta
            betas[i] = beta
            if t == tau:
                x_tau = x.copy()
            if keep_iterates:
                iterates[i] = x
                v_history[i] = v
            if row == BLOCK - 1 or t == T:
                measure(t)
            x_prev = x
            x = x - eta * v
    if keep_iterates:
        iterates[T] = x

    algorithm = {"name": name, **params}
    config = {"algorithm": algorithm, "problem": dict(problem.spec), "T": T, "seed": seed}
    return RunRecord(
        np.arange(1, T + 1, dtype=np.int64), f, grad_norm, v_norm_sq, etas, betas, est_error,
        tau, x_tau, x.copy(), config, iterates, v_history,
    )


def _ada_storm_steps(problem, T, x, root, alpha, doubling=False):
    step_rng = root.child("step")
    init_rng = root.child("init")
    draw, grad_at = problem.draw, problem.grad_at
    v = beta = lr = None
    sum_sq = 0.0

    def step(t, x, x_prev):
        nonlocal v, beta, lr, sum_sq
        horizon, reset = stage_length(t) if doubling else (T, t == 1)
        if reset:
            sum_sq = 0.0
            beta = ada_beta(horizon)
            lr = ada_lr_law(horizon, alpha)
            v = storm_init(problem, x, warmup_batch_size(horizon), init_rng)
            check_recursion(beta, v, x)
        else:
            sample = draw(step_rng)
            v = _storm(v, beta, grad_at(sample, x), grad_at(sample, x_prev))
        v_sq = norm_sq(v)
        sum_sq += v_sq
        return v, v_sq, lr(sum_sq), beta

    return step


def run_ada_storm(problem, T, alpha=0.3, seed=0, keep_iterates=False) -> RunRecord:
    """Recursive-momentum run with the horizon-aware adaptive step size.

    The estimate starts from a warm-up batch of ceil(T**(1/3)) samples;
    afterwards each step reuses one sample at the current and previous
    iterate. beta is fixed at T**(-2/3) and eta follows ada_lr on the
    running sum of squared estimate norms (current step included). This is
    the doubling variant with a single stage of length T.
    """
    return _run("ada_storm", problem, T, seed, keep_iterates, _ada_storm_steps, alpha=alpha)


def run_ada_storm_doubling(problem, T, alpha=0.3, seed=0, keep_iterates=False) -> RunRecord:
    """Horizon-free variant: restart the schedule on dyadic stages.

    Steps are grouped into stages [2^k, 2^(k+1)); each stage runs the
    fixed-horizon laws with the stage length in place of T, with its own
    squared-norm sum. At every stage opening the estimate is refreshed from
    a warm-up batch of ceil(stage**(1/3)) fresh samples.
    """
    steps = functools.partial(_ada_storm_steps, doubling=True)
    return _run("ada_storm_doubling", problem, T, seed, keep_iterates, steps, alpha=alpha)


def _comp_storm_steps(problem, T, x, root, alpha):
    inner_rng = root.child("inner")
    outer_rng = root.child("outer")
    init_inner = root.child("init_inner")
    init_outer = root.child("init_outer")
    beta = ada_beta(T)
    lr = ada_lr_law(T, alpha)
    batch = warmup_batch_size(T)
    inner_samples = [problem.draw_inner(init_inner) for _ in range(batch)]
    outer_samples = [problem.draw_outer(init_outer) for _ in range(batch)]
    u = np.mean([problem.inner_value(zeta, x) for zeta in inner_samples], axis=0)
    v = np.mean(
        [problem.inner_jac(zeta, x).T @ problem.outer_grad(xi, u)
         for zeta, xi in zip(inner_samples, outer_samples)],
        axis=0,
    )
    check_recursion(beta, v, x)
    draw_inner, draw_outer = problem.draw_inner, problem.draw_outer
    inner_value, inner_jac, outer_grad = problem.inner_value, problem.inner_jac, problem.outer_grad
    sum_sq = 0.0

    def step(t, x, x_prev):
        nonlocal u, v, sum_sq
        if t > 1:
            zeta = draw_inner(inner_rng)
            xi = draw_outer(outer_rng)
            u_new = _storm(u, beta, inner_value(zeta, x), inner_value(zeta, x_prev))
            v = _comp_grad(
                v, beta, outer_grad(xi, u_new), inner_jac(zeta, x),
                outer_grad(xi, u), inner_jac(zeta, x_prev),
            )
            u = u_new
        v_sq = norm_sq(v)
        sum_sq += v_sq
        return v, v_sq, lr(sum_sq), beta

    return step


def run_comp_storm(problem, T, alpha=0.3, seed=0, keep_iterates=False) -> RunRecord:
    """Two-level composition run tracking inner values and the gradient.

    Per step one inner sample serves both map evaluations and both
    Jacobians, and one outer sample serves both outer gradients (new at the
    updated inner estimate, old at the previous one). Warm-up averages
    ceil(T**(1/3)) paired samples: the inner estimate over all inner values
    first, then the gradient over the per-sample Jacobian/outer products.
    """
    return _run("comp_storm", problem, T, seed, keep_iterates, _comp_storm_steps, alpha=alpha)


def _fs_storm_steps(problem, T, x, root, alpha):
    index_rng = root.child("component")
    n = problem.n
    beta = finite_sum_beta(n)
    lr = finite_sum_lr_law(n, alpha)
    table = GradientTable.from_full_pass(problem, x)
    v = table.mean.copy()
    check_recursion(beta, v, x)
    draw, component_grad, entries = problem.draw, problem.component_grad, table.entries
    sum_sq = 0.0

    def step(t, x, x_prev):
        nonlocal v, sum_sq
        if t > 1:
            i = draw(index_rng)
            g_new = component_grad(i, x)
            v = _corrected(v, beta, g_new, component_grad(i, x_prev), entries[i], table.mean)
            table._write(i, g_new)  # the run owns its table: no O(n dim) copy
        v_sq = norm_sq(v)
        sum_sq += v_sq
        return v, v_sq, lr(sum_sq), beta

    return step


def run_fs_storm(problem, T, alpha=0.3, seed=0, keep_iterates=False) -> RunRecord:
    """Finite-sum run with a component-gradient memory table.

    The first step is a full pass: it fills the table and sets the estimate
    to the exact mean gradient. Afterwards each step samples one component
    uniformly, applies the two-point recursion with the table correction,
    and overwrites that component's entry. beta = 1/n throughout.
    """
    return _run("fs_storm", problem, T, seed, keep_iterates, _fs_storm_steps, alpha=alpha)


def _fs_storm_svrg_steps(problem, T, x, root, alpha, period):
    index_rng = root.child("component")
    n = problem.n
    beta = finite_sum_beta(n)
    lr = finite_sum_lr_law(n, alpha)
    snapshot = take_snapshot(problem, x, period)
    v = snapshot.full_grad.copy()
    check_recursion(beta, v, x)
    draw, component_grad = problem.draw, problem.component_grad
    sum_sq = 0.0

    def step(t, x, x_prev):
        nonlocal v, snapshot, sum_sq
        if t > 1:
            if t % period == 0:
                snapshot = take_snapshot(problem, x, period)
            i = draw(index_rng)
            v = _corrected(
                v, beta, component_grad(i, x), component_grad(i, x_prev),
                component_grad(i, snapshot.x), snapshot.full_grad,
            )
        v_sq = norm_sq(v)
        sum_sq += v_sq
        return v, v_sq, lr(sum_sq), beta

    return step


def run_fs_storm_svrg(problem, T, alpha=0.3, seed=0, period=None, keep_iterates=False) -> RunRecord:
    """Finite-sum run anchored to a periodically refreshed full gradient.

    Instead of a per-component table, the correction compares the sampled
    component's gradient at a snapshot point against the snapshot's full
    gradient; the snapshot is refreshed every `period` steps (default n).
    eta follows the adaptive finite-sum law.
    """
    return _run("fs_storm_svrg", problem, T, seed, keep_iterates, _fs_storm_svrg_steps,
                alpha=alpha, period=period)


def _sgd_steps(problem, T, x, root, eta0, decay):
    step_rng = root.child("step")

    def step(t, x, x_prev):
        g = problem.grad_at(problem.draw(step_rng), x)
        return g, norm_sq(g), eta0 / math.sqrt(1.0 + decay * t), 0.0

    return step


def run_sgd(problem, T, eta0=0.1, decay=0.0, seed=0, keep_iterates=False) -> RunRecord:
    """Plain stochastic gradient baseline with eta_t = eta0 / sqrt(1 + decay*t).

    The trace's v columns describe the raw sampled gradient, so est_error
    measures single-sample noise. The beta column is 0: no momentum.
    """
    return _run("sgd", problem, T, seed, keep_iterates, _sgd_steps, eta0=eta0, decay=decay)


def _storm_original_steps(problem, T, x, root, k, w, c):
    step_rng = root.child("step")
    law = storm_original_law(k, w, c)
    v = None
    grad_sum = 0.0

    def step(t, x, x_prev):
        nonlocal v, grad_sum
        sample = problem.draw(step_rng)
        g_new = problem.grad_at(sample, x)
        grad_sum += norm_sq(g_new)
        eta, beta = law(grad_sum)
        # beta = c * eta**2 may underflow to 0, which steps as the smallest
        # positive beta does: 1 - beta is 1 for both.
        v = g_new if t == 1 else _storm(v, beta, g_new, problem.grad_at(sample, x_prev))
        return v, norm_sq(v), eta, beta

    return step


def run_storm_original(problem, T, k=0.1, w=1.0, c=10.0, seed=0, keep_iterates=False) -> RunRecord:
    """Baseline recursive-momentum run with the coupled eta/beta schedule.

    eta_t = k / (w + sum of squared SAMPLED gradient norms)**(1/3) and
    beta_t = c * eta_t**2, so the momentum weight follows the step size
    instead of the horizon. The first step uses the raw sample.
    """
    return _run("storm_original", problem, T, seed, keep_iterates, _storm_original_steps,
                k=k, w=w, c=c)


# Families served by a sampled-gradient oracle (`draw`/`grad_at`).
SAMPLED_FAMILIES = frozenset(
    name for name, cls in problems.FAMILIES.items() if issubclass(cls, problems.StochasticProblem)
)

# name -> (runner, problem families it accepts)
ALGORITHMS = {
    "ada_storm": (run_ada_storm, SAMPLED_FAMILIES),
    "ada_storm_doubling": (run_ada_storm_doubling, SAMPLED_FAMILIES),
    "comp_storm": (run_comp_storm, {"compositional"}),
    "fs_storm": (run_fs_storm, {"finite_sum"}),
    "fs_storm_svrg": (run_fs_storm_svrg, {"finite_sum"}),
    "sgd": (run_sgd, SAMPLED_FAMILIES),
    "storm_original": (run_storm_original, SAMPLED_FAMILIES),
}

# name -> tunables and their defaults, read once from the runner signatures.
_TUNABLES = {
    name: {p.name: p.default for p in inspect.signature(runner).parameters.values()
           if p.name not in _RUN_ARGS}
    for name, (runner, _) in ALGORITHMS.items()
}


def run_algorithm(name: str, problem, T: int, seed: int, **params) -> RunRecord:
    """Dispatch one run by algorithm name; params go to the run function,
    whose run loop checks them as `check_run` checks a config."""
    runner, _ = _registered(name)
    return runner(problem, T, seed=seed, **params)
