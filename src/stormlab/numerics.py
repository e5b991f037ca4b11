"""Dense vector helpers and deterministic, splittable random streams.

Vectors are plain 1-D float64 numpy arrays throughout the library. The
helpers here are thin, but they pin down the conventions everything else
relies on: explicit dimension checks, no silent NaN/Inf propagation, and
random streams that are addressed by labels instead of draw order.
"""

from __future__ import annotations

import hashlib

import numpy as np

# A vector is a 1-D float64 ndarray; the alias is documentation, not a wrapper.
Vector = np.ndarray

_UINT64_MASK = 0xFFFF_FFFF_FFFF_FFFF


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
    return float(np.dot(v, v))


def gaussian(rng: "RngStream", dim: int, sigma: float) -> Vector:
    """Draw an i.i.d. N(0, sigma^2) vector of length dim.

    sigma = 0 returns the zero vector without consuming any draws, so
    noiseless runs do not depend on stream position.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if sigma < 0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if sigma == 0.0:
        return np.zeros(dim)
    return sigma * rng.generator.standard_normal(dim)


def _label_entropy(label) -> int:
    # Stable across platforms and sessions; never use the builtin hash() here.
    if isinstance(label, (int, np.integer)):
        return int(label) & _UINT64_MASK
    digest = hashlib.sha256(str(label).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStream:
    """Deterministic random stream addressed by (seed, label path).

    A child stream is derived with `child(label)` and depends only on the
    seed and the labels, never on how many siblings were derived before it,
    so adding a new consumer leaves every existing stream untouched. Two
    streams with the same seed and path produce identical draw sequences;
    distinct paths give statistically independent sequences.

    Draws advance only the stream's own generator; derivation itself is a
    pure function.
    """

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple = ()):
        self.seed = int(seed)
        self.path = tuple(path)
        self._gen = None

    def child(self, label) -> "RngStream":
        return RngStream(self.seed, self.path + (label,))

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            entropy = [self.seed & _UINT64_MASK]
            entropy.extend(_label_entropy(part) for part in self.path)
            self._gen = np.random.Generator(
                np.random.PCG64(np.random.SeedSequence(entropy))
            )
        return self._gen

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path!r})"
