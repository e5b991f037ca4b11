"""Dense vector helpers and deterministic, splittable random streams.

Vectors are plain 1-D float64 numpy arrays throughout the library. The
helpers here are thin, but they pin down the conventions everything else
relies on: explicit dimension checks, no silent NaN/Inf propagation, and
random streams that are addressed by labels instead of draw order.

An `RngStream` is a pure address, (seed, label path) -> generator; it holds
no buffer. Per-step samples come from `samples`, a reader over one family's
block draw (`problems.StochasticProblem.draws` and the rest): one generator
call fills the samples of BLOCK steps, and PCG64 fills a (BLOCK, k) block
with exactly the values (and leaves exactly the state) of BLOCK calls of
size k, so a block read equals one call per step bit for bit. The run loop
measures its trace per block of BLOCK steps for the same reason: one numpy
call per block instead of one per step.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import numbers

import numpy as np

# A vector is a 1-D float64 ndarray; the alias is documentation, not a wrapper.
Vector = np.ndarray

_UINT64_MASK = 0xFFFF_FFFF_FFFF_FFFF

# Samples per block draw of `samples`. A sample of more than MAX_BUFFERED
# values is drawn one per generator call, so a block never holds more than
# BLOCK * MAX_BUFFERED doubles. 110 values is the inner draw of the 10 x 10
# compositional problem, inner_dim * (1 + dim), the largest per-step draw of
# the shipped instances.
BLOCK = 64
MAX_BUFFERED = 110


def as_vector(values) -> Vector:
    """Coerce to a finite 1-D float64 array, copying the input."""
    v = np.array(values, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite components")
    return v


def norm_sq(v) -> float:
    """Squared Euclidean norm of v."""
    v = np.asarray(v, dtype=np.float64)
    return float(v.dot(v))


def whole(value, what) -> int:
    """value as an int; a bool, a string or a number with a fraction raises
    ValueError naming `what` instead of being truncated."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be a whole number, got {value!r}")


def real(value, what) -> float:
    """value as a float, once it is known to be a finite real number; a bool,
    a string, a non-finite value or one too large for a float raises
    ValueError naming `what`."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            number = float(value)
            if math.isfinite(number):
                return number
    raise ValueError(f"{what} must be a finite real number, got {value!r}")


# Every named value's rule, (kind, test, wording), keyed by name: problem
# fields, algorithm tunables, a run's T and seed, a grid's thin and jobs, the
# arguments of the step-size laws (their running sums included), a doubling
# stage's step t, the estimators' beta, a warm-up batch size and
# `grad_check`'s step h.
# `checked` applies them.
_ONE_OR_MORE = (whole, lambda v: v >= 1, "be >= 1")
_POSITIVE = (real, lambda v: v > 0, "be > 0")
_NONNEGATIVE = (real, lambda v: v >= 0, "be >= 0")
RULES = {
    **dict.fromkeys(("T", "dim", "n", "inner_dim", "horizon", "period", "thin", "jobs",
                     "batch_size", "t"), _ONE_OR_MORE),
    **dict.fromkeys(("L", "mu", "eta0", "k", "w", "c", "h"), _POSITIVE),
    **dict.fromkeys(("sigma", "decay", "sum_sq", "grad_sum_sq"), _NONNEGATIVE),
    # The seeds whose streams differ: PCG64 reads a seed as 64 bits.
    "seed": (whole, lambda v: 0 <= v <= _UINT64_MASK, "lie in [0, 2**64)"),
    "alpha": (real, lambda a: 0.0 < a < 1.0 / 3.0, "lie in (0, 1/3)"),
    "beta": (real, lambda b: 0.0 < b <= 1.0, "lie in (0, 1]"),
}


def checked(key, value, where=""):
    """value as its `RULES[key]` kind (`whole` or `real`) returns it, once it
    passes the rule's test; a failure raises ValueError("<where><key> must
    <wording>, got <value!r>")."""
    kind, test, wording = RULES[key]
    name = where + key
    value = kind(value, name)
    if not test(value):
        raise ValueError(f"{name} must {wording}, got {value!r}")
    return value


REQUIRED = object()  # the default of a field that must be given


def checked_fields(given, fields, where, prefix=None) -> dict:
    """`given`'s value or else the default of each field in `fields` (name ->
    default or REQUIRED), in that order. A `given` that is no dict, an
    unknown name or a missing required one raises ValueError naming `where`.
    With a `prefix`, each value is checked by `checked(name, value, prefix)`."""
    if not isinstance(given, dict):
        raise ValueError(f"{where} must be a JSON object, got {given!r}")
    unknown = given.keys() - fields.keys()
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = [key for key, default in fields.items() if default is REQUIRED and key not in given]
    if missing:
        raise ValueError(f"missing keys in {where}: {sorted(missing)}")
    out = {key: given.get(key, default) for key, default in fields.items()}
    if prefix is None:
        return out
    return {key: checked(key, value, prefix) for key, value in out.items()}


def _label_entropy(label) -> int:
    # Stable across platforms and sessions; never use the builtin hash() here.
    if isinstance(label, (int, np.integer)):
        return int(label)
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStream:
    """Deterministic random stream addressed by (seed, label path).

    The root, `RngStream(seed)`, has the empty path. Its seed is checked by
    its `numerics.RULES` rule, a whole number in [0, 2**64): 2.7, True and
    "3" raise ValueError instead of being cast to a whole number, and -1 and
    2**64 instead of being read modulo 2**64 as the streams of 2**64 - 1
    and 0.

    A child stream is derived with `child(label)` and depends only on the
    seed and the labels, never on how many siblings were derived before it,
    so adding a new consumer leaves every existing stream untouched. Two
    streams with the same seed and path produce identical draw sequences;
    distinct paths give statistically independent sequences. An integer
    label is read as its value and any other label by a hash of its str. A
    bool label, or an integer one outside [0, 2**64), raises ValueError:
    it would name another label's stream (True that of 1, -1 that of
    2**64 - 1, 2**64 that of 0).

    Derivation is a pure function, and `generator` is the stream's only
    state: it is made on first use, and only draws from it advance it.
    """

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int):
        self.seed, self.path, self._gen = checked("seed", seed), (), None

    def child(self, label) -> "RngStream":
        if isinstance(label, (bool, np.bool_)) or (
                isinstance(label, (int, np.integer)) and not 0 <= label <= _UINT64_MASK):
            raise ValueError(
                f"stream label must be a string or a whole number in [0, 2**64), got {label!r}")
        # The seed was checked at the root; a child takes it as it is.
        stream = RngStream.__new__(RngStream)
        stream.seed, stream.path, stream._gen = self.seed, self.path + (label,), None
        return stream

    @property
    def generator(self) -> np.random.Generator:
        """The stream's generator, positioned just after the last value drawn."""
        if self._gen is None:
            entropy = [self.seed, *map(_label_entropy, self.path)]
            self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
        return self._gen

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path!r})"


def samples(draws, rng: RngStream, size: int):
    """The samples of the block draw `draws(rng, rows)`, one per `next()`.

    Each block draw fills the samples of BLOCK steps with one generator call,
    exactly the values of one call per step. A sample of more than
    MAX_BUFFERED values (`size`) is drawn one per call instead, so no block
    holds more than BLOCK * MAX_BUFFERED doubles. A sample may be a view into
    its block, which nothing writes to.
    """
    rows = BLOCK if size <= MAX_BUFFERED else 1
    while True:
        yield from draws(rng, rows)
