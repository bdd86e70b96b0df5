"""Seeded generators for reflector products and symmetric orthogonal matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import HouseholderProduct, materialize

DISTRIBUTIONS = (
    "gaussian",
    "sparse",
    "correlated",
    "bernoulli",
    "exponential",
    "symmetric",
)


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one synthetic instance.

    distribution picks how reflector directions are drawn; m is the number of
    factors (for "symmetric": the number of -1 eigenvalues). sparse_fraction
    only applies to "sparse" and is the fraction of nonzero entries per
    direction.
    """

    distribution: str
    n: int
    m: int
    seed: int
    sparse_fraction: float = 0.02

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {self.distribution!r}; expected one of {DISTRIBUTIONS}"
            )
        if self.n < 1:
            raise ValueError("n must be positive")
        if not 1 <= self.m <= self.n:
            raise ValueError(f"m must be in [1, n], got m={self.m}, n={self.n}")
        if not 0.0 < self.sparse_fraction <= 1.0:
            raise ValueError("sparse fraction must be in (0, 1]")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")


def haar_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    """Orthogonal matrix drawn from the Haar distribution (QR with sign fix)."""
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _normalized(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def reflector_directions(spec: GeneratorSpec) -> np.ndarray:
    """The m unit directions of an instance, one per row, deterministic per seed.

    For "symmetric" the directions are mutually orthonormal, so their
    reflections commute and multiply to a symmetric orthogonal matrix with
    exactly m eigenvalues equal to -1.
    """
    rng = np.random.default_rng(spec.seed)
    n, m = spec.n, spec.m
    if spec.distribution == "gaussian":
        return np.array([_normalized(rng.standard_normal(n)) for _ in range(m)])
    if spec.distribution == "sparse":
        nonzeros = math.ceil(spec.sparse_fraction * n)
        directions = np.zeros((m, n))
        for i in range(m):
            support = rng.choice(n, size=nonzeros, replace=False)
            directions[i, support] = rng.standard_normal(nonzeros)
            directions[i] = _normalized(directions[i])
        return directions
    if spec.distribution == "correlated":
        directions = np.empty((m, n))
        directions[0] = _normalized(rng.standard_normal(n))
        for i in range(1, m):
            kept = rng.choice(n, size=n // 2, replace=False)
            fresh = rng.standard_normal(n)
            fresh[kept] = directions[i - 1, kept]  # carry half of the previous direction
            directions[i] = _normalized(fresh)
        return directions
    if spec.distribution == "bernoulli":
        signs = rng.integers(0, 2, size=(m, n)) * 2.0 - 1.0
        return signs / math.sqrt(n)
    if spec.distribution == "exponential":
        return np.array([_normalized(rng.exponential(1.0, size=n)) for _ in range(m)])
    # symmetric: orthonormal directions from a Haar orthogonal basis
    return haar_orthogonal(rng, n)[:, :m].T.copy()


def synthesize(spec: GeneratorSpec) -> tuple[np.ndarray, HouseholderProduct]:
    """Dense instance matrix together with its generating reflector product."""
    # one row at a time: a row-wise norm (axis=1) rounds differently
    directions = [d / np.linalg.norm(d) for d in reflector_directions(spec)]
    product = HouseholderProduct(spec.n, directions)
    return materialize(product), product
