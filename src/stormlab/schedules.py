"""Step-size and momentum laws for the recursive-momentum optimizers.

All functions here are pure: the caller owns the running sums and passes
them in. Each law keeps the step size nonincreasing while its sum grows,
which is what the trace invariants check.

Each law with a running sum is written once, as `ada_lr_law`,
`finite_sum_lr_law` and `storm_original_law`: each checks its fixed
arguments and computes its constant factors once, then returns its value
as a function of the running sum. A run loop builds the law once per
stage; `ada_lr`, `finite_sum_lr` and `storm_original_params` are the
one-call forms, which check the sum too. Every check is a `numerics.RULES`
rule.
"""

from __future__ import annotations

from .numerics import checked

# Guard for the finite-sum law only: a vanishing gradient-norm sum would
# otherwise divide by zero on problems that start at a stationary point.
SUM_SQ_FLOOR = 1e-30


def ada_lr_law(horizon: int, alpha: float):
    """Adaptive step size for a run of known length, as a function of sum_sq.

    The function returns min(horizon**(-1/3), 1 / (horizon**((1-alpha)/3) *
    sum_sq**alpha)) where sum_sq accumulates the squared estimator norms
    through the current step. The first branch wins exactly when sum_sq <=
    horizon**(1/3); it is also the value returned when sum_sq is zero. The
    function does not check sum_sq.
    """
    horizon, alpha = checked("horizon", horizon), checked("alpha", alpha)
    flat = float(horizon) ** (-1.0 / 3.0)
    scale = float(horizon) ** ((1.0 - alpha) / 3.0)

    def lr(sum_sq: float) -> float:
        if sum_sq == 0.0:
            return flat
        return min(flat, 1.0 / (scale * sum_sq**alpha))

    return lr


def ada_lr(horizon: int, alpha: float, sum_sq: float) -> float:
    """`ada_lr_law(horizon, alpha)` at sum_sq, a finite real >= 0."""
    return ada_lr_law(horizon, alpha)(checked("sum_sq", sum_sq))


def ada_beta(horizon: int) -> float:
    """Momentum weight horizon**(-2/3), capped at 1."""
    horizon = checked("horizon", horizon)
    return min(1.0, float(horizon) ** (-2.0 / 3.0))


def stage_length(t: int) -> tuple[int, bool]:
    """Doubling-trick stage for step t (1-based), a whole number >= 1.

    Returns (I, reset) where I = 2**floor(log2(t)) is the current stage
    length and reset is True exactly when t opens a new stage, i.e. t is a
    power of two. I <= t < 2 * I always holds.
    """
    t = checked("t", t)
    i = 1 << (t.bit_length() - 1)
    return i, i == t


def finite_sum_lr_law(n: int, alpha: float):
    """Adaptive step size for finite sums of n components, as a function of
    sum_sq.

    The function returns 1 / (n**((1-alpha)/2) * sum_sq**alpha). sum_sq
    below SUM_SQ_FLOOR is floored there, so the value stays finite and the
    sequence stays nonincreasing as the sum grows. The function does not
    check sum_sq.
    """
    n, alpha = checked("n", n), checked("alpha", alpha)
    scale = float(n) ** ((1.0 - alpha) / 2.0)

    def lr(sum_sq: float) -> float:
        return 1.0 / (scale * max(sum_sq, SUM_SQ_FLOOR) ** alpha)

    return lr


def finite_sum_lr(n: int, alpha: float, sum_sq: float) -> float:
    """`finite_sum_lr_law(n, alpha)` at sum_sq, a finite real >= 0."""
    return finite_sum_lr_law(n, alpha)(checked("sum_sq", sum_sq))


def finite_sum_beta(n: int) -> float:
    """Momentum weight 1/n for finite sums."""
    n = checked("n", n)
    return 1.0 / float(n)


def storm_original_law(k: float, w: float, c: float):
    """The baseline's coupled schedule (eta, beta) as a function of
    grad_sum_sq, the running sum of squared sampled gradient norms.

    eta = k / (w + grad_sum_sq)**(1/3) and beta = c * eta**2 clamped to 1.
    c -> 0 recovers a pure recursive gradient difference; large c forgets
    history quickly. The function does not check grad_sum_sq.
    """
    k, w, c = checked("k", k), checked("w", w), checked("c", c)

    def params(grad_sum_sq: float) -> tuple[float, float]:
        eta = k / (w + grad_sum_sq) ** (1.0 / 3.0)
        return eta, min(1.0, c * eta * eta)

    return params


def storm_original_params(k: float, w: float, c: float, grad_sum_sq: float) -> tuple[float, float]:
    """`storm_original_law(k, w, c)` at grad_sum_sq, a finite real >= 0."""
    return storm_original_law(k, w, c)(checked("grad_sum_sq", grad_sum_sq))
