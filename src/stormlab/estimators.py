"""Recursive-momentum gradient estimators as pure state transitions.

Every update takes the previous state plus freshly evaluated gradients and
returns a new state. Nothing here mutates its inputs except
`GradientTable.write`, the in-place table step a run loop uses, and only
`storm_init` draws samples, through the problem's oracle. That keeps the
transitions enumerable (exact conditional expectations can be computed by
brute force over the sampling choices) and replayable.

`storm_update` is the one recursion every variant runs:

    v_new = (1 - beta) * v_prev + beta * grad_new
            + (1 - beta) * (grad_new - grad_old)

where grad_new and grad_old come from the SAME sample (one value returned
by the problem's `draw`) evaluated at the new and previous iterate. beta = 1
drops all history and returns grad_new. The compositional updates run it on
inner values and on Jacobian/outer-gradient products; the finite-sum
updates subtract beta times a zero-mean control variate from it.

Each public update is its input checks followed by a private unchecked
core (`_storm`, `_comp_grad`, `_corrected`), and the cores hold the only
copy of each formula. The optimizers' step rules check beta and the shapes
once at set-up (`check_recursion`) and call the cores on every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Vector, checked, whole

# The incremental table mean drifts by rounding; re-average this often.
TABLE_RESYNC_EVERY = 1000


def _check_same_shape(*arrays):
    shapes = {a.shape for a in arrays}
    if len(shapes) > 1:
        raise ValueError(f"incompatible shapes: {sorted(shapes)}")


def check_recursion(beta: float, *arrays) -> list:
    """The checks every update makes: beta by its `numerics.RULES` rule, in
    (0, 1], and one shape for all arrays. Returns the arrays as float64."""
    checked("beta", beta)
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    _check_same_shape(*arrays)
    return arrays


def _storm(v_prev, beta, grad_new, grad_old):
    # Algebraically (1-b)v + b*g_new + (1-b)(g_new - g_old).
    return grad_new + (1.0 - beta) * (v_prev - grad_old)


def _comp_grad(v_prev, beta, outer_new, jac_new, outer_old, jac_old):
    return _storm(v_prev, beta, jac_new.T.dot(outer_new), jac_old.T.dot(outer_old))


def _corrected(v_prev, beta, grad_new, grad_old, sample, mean):
    # The finite-sum recursions: the correction sample - mean has zero mean.
    return _storm(v_prev, beta, grad_new, grad_old) - beta * (sample - mean)


def storm_init(problem, x, batch_size: int, rng) -> Vector:
    """Average of batch_size oracle gradients at x.

    Mean squared error against the exact gradient scales like 1/batch_size,
    so a modest warm-up batch pins down the first estimate.
    """
    batch_size = checked("batch_size", batch_size)
    x = np.asarray(x, dtype=np.float64)
    total = np.zeros_like(x)
    for _ in range(batch_size):
        total += problem.grad_at(problem.draw(rng), x)
    return total / batch_size


def storm_update(v_prev, beta: float, grad_new, grad_old) -> Vector:
    """One recursive-momentum step; see the module docstring for the form."""
    v_prev, grad_new, grad_old = check_recursion(beta, v_prev, grad_new, grad_old)
    return _storm(v_prev, beta, grad_new, grad_old)


def comp_inner_update(u_prev, beta: float, value_new, value_old) -> Vector:
    """Track the inner map's value through the same two-point recursion.

    u_new = storm_update(u_prev, beta, value_new, value_old), with both
    values drawn under one shared inner sample.
    """
    return storm_update(u_prev, beta, value_new, value_old)


def comp_grad_update(v_prev, beta: float, outer_new, jac_new, outer_old, jac_old) -> Vector:
    """Composite-gradient recursion from paired Jacobian/outer-grad samples.

    v_new = storm_update(v_prev, beta, jac_new' outer_new,
                         jac_old' outer_old)

    The two outer gradients share one outer sample and the two Jacobians
    share one inner sample; only the evaluation points differ.
    """
    jac_new = np.asarray(jac_new, dtype=np.float64)
    jac_old = np.asarray(jac_old, dtype=np.float64)
    outer_new = np.asarray(outer_new, dtype=np.float64)
    outer_old = np.asarray(outer_old, dtype=np.float64)
    if jac_new.shape != jac_old.shape:
        raise ValueError(f"Jacobian shapes differ: {jac_new.shape} vs {jac_old.shape}")
    if jac_new.ndim != 2 or jac_new.shape[0] != outer_new.shape[0]:
        raise ValueError(
            f"Jacobian shape {jac_new.shape} does not match outer gradient "
            f"length {outer_new.shape[0]}"
        )
    _check_same_shape(outer_new, outer_old)
    (v_prev,) = check_recursion(beta, v_prev)
    if v_prev.shape != jac_new.shape[1:]:
        raise ValueError(f"estimate shape {v_prev.shape} does not match Jacobian {jac_new.shape}")
    return _comp_grad(v_prev, beta, outer_new, jac_new, outer_old, jac_old)


@dataclass
class GradientTable:
    """Per-component gradient memory with an incrementally maintained mean.

    `write` replaces one entry in place, which costs O(dim); `updated` is
    the pure form and copies the whole (n, dim) table first, which costs
    O(n dim) (3.2 MB at n = 20 000, dim = 20). The running mean is refreshed
    from the entries every TABLE_RESYNC_EVERY updates to stop rounding
    drift.
    """

    entries: np.ndarray  # (n, dim)
    mean: np.ndarray  # (dim,)
    updates_since_sync: int = 0

    @classmethod
    def from_full_pass(cls, problem, x) -> "GradientTable":
        """Fill the table with every component gradient at x.

        Rows are written into one preallocated array: stacking a list of n
        row arrays would hold every row twice, once as a small array of its own.
        """
        entries = np.empty((problem.n, len(x)))
        for i in range(problem.n):
            entries[i] = problem.component_grad(i, x)
        return cls(entries=entries, mean=entries.mean(axis=0), updates_since_sync=0)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def write(self, i: int, grad) -> None:
        """Replace entry i in place and move the mean by (new - old) / n.

        i is read by `numerics.whole` first, so a bool or a fractional index
        raises ValueError, and one outside [0, n) IndexError, before the
        table is touched.
        """
        i = whole(i, "component index")
        if not 0 <= i < self.n:
            raise IndexError(f"component index {i} outside [0, {self.n})")
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.mean.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match table {self.mean.shape}"
            )
        self._write(i, grad)

    def _write(self, i: int, grad) -> None:
        """`write` without its checks, for a caller that made them once."""
        old = self.entries[i].copy()
        self.entries[i] = grad
        self.updates_since_sync += 1
        if self.updates_since_sync >= TABLE_RESYNC_EVERY:
            self.mean = self.entries.mean(axis=0)
            self.updates_since_sync = 0
        else:
            self.mean += (grad - old) / self.n

    def updated(self, i: int, grad) -> "GradientTable":
        """A copy of the table with entry i written; this table is unchanged."""
        table = GradientTable(self.entries.copy(), self.mean.copy(), self.updates_since_sync)
        table.write(i, grad)
        return table


def finite_sum_update(
    v_prev, table: GradientTable, beta: float, i: int, grad_new, grad_old
) -> tuple[Vector, GradientTable]:
    """Finite-sum recursion with a component-gradient memory correction.

    v_new = storm_update(v_prev, beta, grad_new, grad_old)
            - beta * (table[i] - mean(table))

    evaluated with the table as it stood BEFORE this step; the returned
    table has entry i overwritten by grad_new. The correction has zero mean
    under a uniform component choice, so conditional unbiasedness of the
    recursion is preserved. A caller that owns its table gets the same
    state by computing v_new and then calling `table.write(i, grad_new)`.
    """
    v_prev, grad_new, grad_old, mean = check_recursion(
        beta, v_prev, grad_new, grad_old, table.mean
    )
    v_new = _corrected(v_prev, beta, grad_new, grad_old, table.entries[i], mean)
    return v_new, table.updated(i, grad_new)


@dataclass(frozen=True)
class Snapshot:
    """Full-gradient anchor for the periodic-refresh estimator variant."""

    x: np.ndarray
    full_grad: np.ndarray
    period: int


def take_snapshot(problem, x, period: int) -> Snapshot:
    """Anchor at x with the exact full gradient, to be refreshed every
    `period` steps."""
    period = checked("period", period)
    x = np.array(x, dtype=np.float64)
    return Snapshot(x=x, full_grad=problem.full_grad(x), period=period)


def svrg_update(
    v_prev, snapshot: Snapshot, beta: float, grad_new, grad_old, grad_anchor
) -> Vector:
    """Anchored variant of the finite-sum recursion.

    v_new = storm_update(v_prev, beta, grad_new, grad_old)
            - beta * (grad_anchor - full_grad(anchor))

    where grad_anchor is the sampled component's gradient at the snapshot
    point.
    """
    v_prev, grad_new, grad_old = check_recursion(beta, v_prev, grad_new, grad_old)
    grad_anchor = np.asarray(grad_anchor, dtype=np.float64)
    _check_same_shape(v_prev, grad_anchor, snapshot.full_grad)
    return _corrected(v_prev, beta, grad_new, grad_old, grad_anchor, snapshot.full_grad)
