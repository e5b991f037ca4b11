"""Step-size and momentum laws for the recursive-momentum optimizers.

All functions here are pure: the caller owns the running sums and passes
them in. Each law keeps the step size nonincreasing while its sum grows,
which is what the trace invariants check.

The two adaptive step-size laws are written once, as `ada_lr_law` and
`finite_sum_lr_law`: each checks its fixed arguments and computes its
horizon factors once, then returns the step size as a function of the
running sum. A run loop builds the law once per stage; `ada_lr` and
`finite_sum_lr` are the one-call forms.
"""

from __future__ import annotations

from .numerics import checked

# Guard for the finite-sum law only: a vanishing gradient-norm sum would
# otherwise divide by zero on problems that start at a stationary point.
SUM_SQ_FLOOR = 1e-30


def _check_sum_sq(sum_sq):
    if sum_sq < 0:
        raise ValueError(f"sum_sq must be nonnegative, got {sum_sq}")


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
    """`ada_lr_law(horizon, alpha)` at sum_sq, which must be nonnegative."""
    lr = ada_lr_law(horizon, alpha)
    _check_sum_sq(sum_sq)
    return lr(sum_sq)


def ada_beta(horizon: int) -> float:
    """Momentum weight horizon**(-2/3), capped at 1."""
    horizon = checked("horizon", horizon)
    return min(1.0, float(horizon) ** (-2.0 / 3.0))


def stage_length(t: int) -> tuple[int, bool]:
    """Doubling-trick stage for step t (1-based).

    Returns (I, reset) where I = 2**floor(log2(t)) is the current stage
    length and reset is True exactly when t opens a new stage, i.e. t is a
    power of two. I <= t < 2 * I always holds.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    i = 1 << (int(t).bit_length() - 1)
    return i, (t & (t - 1)) == 0


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
    """`finite_sum_lr_law(n, alpha)` at sum_sq, which must be nonnegative."""
    lr = finite_sum_lr_law(n, alpha)
    _check_sum_sq(sum_sq)
    return lr(sum_sq)


def finite_sum_beta(n: int) -> float:
    """Momentum weight 1/n for finite sums."""
    n = checked("n", n)
    return 1.0 / float(n)


def storm_original_params(k: float, w: float, c: float, grad_sum_sq: float) -> tuple[float, float]:
    """Non-adaptive-exponent baseline schedule.

    eta = k / (w + grad_sum_sq)**(1/3) driven by the sampled gradient norms,
    and beta = c * eta**2 clamped to 1. c -> 0 recovers a pure recursive
    gradient difference; large c forgets history quickly.
    """
    # The rules of `numerics.RULES`, inline: `checked` would cost more than the law.
    if k <= 0 or w <= 0 or c <= 0:
        raise ValueError(f"need k > 0, w > 0, c > 0, got k={k}, w={w}, c={c}")
    if grad_sum_sq < 0:
        raise ValueError(f"grad_sum_sq must be nonnegative, got {grad_sum_sq}")
    eta = k / (w + grad_sum_sq) ** (1.0 / 3.0)
    beta = min(1.0, c * eta * eta)
    return eta, beta
