"""Dense vector helpers and deterministic, splittable random streams.

Vectors are plain 1-D float64 numpy arrays throughout the library. The
helpers here are thin, but they pin down the conventions everything else
relies on: explicit dimension checks, no silent NaN/Inf propagation, and
random streams that are addressed by labels instead of draw order.

Per-step draws are read from a block buffer. A stream read k values at a
time draws BLOCK * k of them with one generator call and hands them out in
order; PCG64 gives exactly the values (and leaves exactly the state) that
BLOCK separate calls would, so a buffered read equals the unbuffered one
bit for bit. The run loop measures its trace per block of BLOCK steps for
the same reason: one numpy call per block instead of one per step.
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

# Draws per buffer refill. A single draw of more than MAX_BUFFERED values
# bypasses the buffer, so a buffer never holds more than BLOCK * MAX_BUFFERED
# doubles. 110 values is the inner draw of the 10 x 10 compositional problem,
# inner_dim * (1 + dim), the largest per-step draw of the shipped instances.
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
        return int(label) & _UINT64_MASK
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
    distinct paths give statistically independent sequences.

    Draws advance only the stream's own generator; derivation itself is a
    pure function. `normals` and `index` read from a block buffer and return
    exactly what `generator.standard_normal` and `generator.integers` would
    have returned, call for call. A stream may mix them with each other and
    with direct `generator` use: the buffer is dropped and the generator
    rewound to just after the last value read whenever the kind of draw
    changes or `generator` is fetched.
    """

    __slots__ = ("seed", "path", "_gen", "_buf", "_pos", "_size", "_kind", "_param", "_state")

    def __init__(self, seed: int):
        self._start(checked("seed", seed), ())

    def _start(self, seed, path):
        self.seed = seed
        self.path = path
        self._gen = None
        self._buf = None
        self._pos = self._size = 0
        self._kind = self._param = self._state = None

    def child(self, label) -> "RngStream":
        # The seed was checked at the root; a child takes it as it is.
        stream = RngStream.__new__(RngStream)
        stream._start(self.seed, self.path + (label,))
        return stream

    @property
    def generator(self) -> np.random.Generator:
        """The stream's generator, positioned just after the last value read."""
        self._sync()
        return self._generator()

    def normals(self, k: int, scale: float = 1.0) -> np.ndarray:
        """`scale * generator.standard_normal(k)`, read from the buffer.

        scale = 0 returns k zeros without drawing, so a noiseless run does
        not depend on the stream's position. The result may be a view into
        the buffer block; the stream never writes to a block it has handed
        out. A read that fails, such as one of 2.5 or -1 values, leaves the
        stream's position where it was: the buffer serves only counts >= 1,
        so a count <= 0 goes to the refill, whose draw refuses a negative
        one before anything moves.
        """
        if scale == 0.0:
            return np.zeros(k)
        pos = self._pos
        end = pos + k
        if not pos < end <= self._size or self._kind != "normal" or self._param != scale:
            if k > MAX_BUFFERED:
                return scale * self.generator.standard_normal(k)
            self._refill("normal", scale, k)
            pos, end = 0, k
        out = self._buf[pos:end]
        self._pos = end
        return out

    def index(self, n: int) -> int:
        """`int(generator.integers(n))`, read from the buffer.

        n is checked by its `RULES` rule, a whole number >= 1, before a
        refill, so a refused n leaves the stream where it was and a read
        from the filled buffer pays nothing for the check. The buffer serves
        only the very n object it was filled for: an equal n of another
        object, such as True after index(1), goes through the check (and an
        accepted one through a refill, which reads the same values).
        """
        pos = self._pos
        if pos >= self._size or self._kind != "index" or self._param is not n:
            self._refill("index", checked("n", n), 1)
            pos = 0
        self._pos = pos + 1
        return self._buf[pos]

    def _generator(self) -> np.random.Generator:
        if self._gen is None:
            entropy = [self.seed]
            entropy.extend(_label_entropy(part) for part in self.path)
            self._gen = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy))
            )
        return self._gen

    def _refill(self, kind, param, k):
        self._sync()
        gen = self._generator()
        self._state = gen.bit_generator.state
        if kind == "normal":
            self._buf = param * gen.standard_normal(BLOCK * k)
        else:
            self._buf = gen.integers(param, size=BLOCK).tolist()
        self._pos, self._size, self._kind, self._param = 0, len(self._buf), kind, param

    def _sync(self):
        """Drop the buffer, leaving the generator where unbuffered draws
        would have: rewind to the block's start and redraw what was read."""
        if self._pos < self._size:
            gen = self._gen
            gen.bit_generator.state = self._state
            if self._kind == "normal":
                gen.standard_normal(self._pos)
            else:
                gen.integers(self._param, size=self._pos)
        self._buf = self._kind = self._param = self._state = None
        self._pos = self._size = 0

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path!r})"
