"""Recursive-momentum gradient estimators as pure state transitions.

Every update takes the previous state plus freshly evaluated gradients and
returns a new state; nothing here draws randomness or mutates its inputs.
That keeps the transitions enumerable (exact conditional expectations can
be computed by brute force over the sampling choices) and replayable.

`storm_update` is the one recursion every variant runs:

    v_new = (1 - beta) * v_prev + beta * grad_new
            + (1 - beta) * (grad_new - grad_old)

where grad_new and grad_old come from the SAME sample evaluated at the new
and previous iterate. beta = 1 drops all history and returns grad_new. The
compositional updates run it on inner values and on Jacobian/outer-gradient
products; the finite-sum updates subtract beta times a zero-mean control
variate from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Vector

# The incremental table mean drifts by rounding; re-average this often.
TABLE_RESYNC_EVERY = 1000


def _check_beta(beta):
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")


def _check_same_shape(*arrays):
    shapes = {a.shape for a in arrays}
    if len(shapes) > 1:
        raise ValueError(f"incompatible shapes: {sorted(shapes)}")


def storm_init(problem, x, batch_size: int, rng) -> Vector:
    """Average of batch_size oracle gradients at x.

    Mean squared error against the exact gradient scales like 1/batch_size,
    so a modest warm-up batch pins down the first estimate.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    x = np.asarray(x, dtype=np.float64)
    total = np.zeros_like(x)
    for _ in range(batch_size):
        token = problem.draw(rng)
        total += problem.grad_at(token, x)
    return total / batch_size


def storm_update(v_prev, beta: float, grad_new, grad_old) -> Vector:
    """One recursive-momentum step; see the module docstring for the form."""
    _check_beta(beta)
    v_prev = np.asarray(v_prev, dtype=np.float64)
    grad_new = np.asarray(grad_new, dtype=np.float64)
    grad_old = np.asarray(grad_old, dtype=np.float64)
    _check_same_shape(v_prev, grad_new, grad_old)
    # Algebraically (1-b)v + b*g_new + (1-b)(g_new - g_old).
    return grad_new + (1.0 - beta) * (v_prev - grad_old)


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
    return storm_update(v_prev, beta, jac_new.T @ outer_new, jac_old.T @ outer_old)


@dataclass(frozen=True)
class GradientTable:
    """Per-component gradient memory with an incrementally maintained mean.

    Updates return a new table (entries are copied; 16 KB-scale copies are
    cheap next to the oracle calls). The running mean is refreshed from the
    entries every TABLE_RESYNC_EVERY updates to stop rounding drift.
    """

    entries: np.ndarray  # (n, dim)
    mean: np.ndarray  # (dim,)
    updates_since_sync: int = 0

    @classmethod
    def from_full_pass(cls, problem, x) -> "GradientTable":
        """Fill the table with every component gradient at x."""
        entries = np.stack(
            [problem.component_grad(i, x) for i in range(problem.n)]
        )
        return cls(entries=entries, mean=entries.mean(axis=0), updates_since_sync=0)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def updated(self, i: int, grad) -> "GradientTable":
        """Replace entry i and adjust the mean by (new - old) / n."""
        if not 0 <= i < self.n:
            raise IndexError(f"component index {i} outside [0, {self.n})")
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.mean.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match table {self.mean.shape}"
            )
        entries = self.entries.copy()
        old = entries[i].copy()
        entries[i] = grad
        count = self.updates_since_sync + 1
        if count >= TABLE_RESYNC_EVERY:
            return GradientTable(entries, entries.mean(axis=0), 0)
        return GradientTable(entries, self.mean + (grad - old) / self.n, count)


def finite_sum_update(
    v_prev, table: GradientTable, beta: float, i: int, grad_new, grad_old
) -> tuple[Vector, GradientTable]:
    """Finite-sum recursion with a component-gradient memory correction.

    v_new = storm_update(v_prev, beta, grad_new, grad_old)
            - beta * (table[i] - mean(table))

    evaluated with the table as it stood BEFORE this step; the returned
    table has entry i overwritten by grad_new. The correction has zero mean
    under a uniform component choice, so conditional unbiasedness of the
    recursion is preserved.
    """
    v_new = storm_update(v_prev, beta, grad_new, grad_old)
    _check_same_shape(v_new, table.mean)
    return v_new - beta * (table.entries[i] - table.mean), table.updated(i, grad_new)


class StaleSnapshotError(RuntimeError):
    """An anchor outlived its refresh period; the caller missed a refresh."""


@dataclass(frozen=True)
class Snapshot:
    """Full-gradient anchor for the periodic-refresh estimator variant."""

    x: np.ndarray
    full_grad: np.ndarray
    age: int
    period: int

    def aged(self) -> "Snapshot":
        return Snapshot(self.x, self.full_grad, self.age + 1, self.period)


def take_snapshot(problem, x, period: int) -> Snapshot:
    """Anchor at x with the exact full gradient; age starts at zero."""
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    x = np.array(x, dtype=np.float64)
    return Snapshot(x=x, full_grad=problem.full_grad(x), age=0, period=period)


def svrg_update(
    v_prev, snapshot: Snapshot, beta: float, grad_new, grad_old, grad_anchor
) -> Vector:
    """Anchored variant of the finite-sum recursion.

    v_new = storm_update(v_prev, beta, grad_new, grad_old)
            - beta * (grad_anchor - full_grad(anchor))

    where grad_anchor is the sampled component's gradient at the snapshot
    point. Raises StaleSnapshotError when the snapshot has been used for a
    full period without a refresh.
    """
    v_new = storm_update(v_prev, beta, grad_new, grad_old)
    if snapshot.age >= snapshot.period:
        raise StaleSnapshotError(
            f"snapshot age {snapshot.age} reached its period {snapshot.period}"
        )
    grad_anchor = np.asarray(grad_anchor, dtype=np.float64)
    _check_same_shape(v_new, grad_anchor, snapshot.full_grad)
    return v_new - beta * (grad_anchor - snapshot.full_grad)
