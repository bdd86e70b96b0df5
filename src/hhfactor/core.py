"""Reflectors, reflector products, and the symmetric eigendecomposition layer.

A reflection is stored as its unit direction u and never materialized unless
asked for; the represented matrix is I - 2*u*u^T. Products keep an ordered
tuple of directions and act on vectors in O(m*n).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy, ddot

SIGN_EPS = 1e-12        # entries at or below this do not anchor the canonical sign
UNIT_NORM_RTOL = 1e-12  # per-sqrt(n) slack on ||u|| = 1
ORTHO_RTOL = 1e-8       # per-n slack on ||V^T V - I||_F
SYM_RTOL = 1e-10        # per-n slack on ||A - A^T||_F
RANK_TOL_RTOL = 1e-6    # per-sqrt(n) threshold on singular values of V - I


def _canonical_sign(u: np.ndarray) -> np.ndarray:
    """Flip u so that its first entry with magnitude above SIGN_EPS is positive."""
    nonzero = np.flatnonzero(np.abs(u) > SIGN_EPS)
    if nonzero.size and u[nonzero[0]] < 0.0:
        return -u
    return u


@dataclass(frozen=True)
class Reflector:
    """Unit direction u of the reflection I - 2*u*u^T, stored with canonical sign.

    u and -u describe the same reflection; canonicalizing the sign makes
    reflectors comparable.
    """

    u: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if u.ndim != 1:
            raise ValueError("reflector direction must be a vector")
        # written so that a NaN norm fails the test too
        if not abs(np.linalg.norm(u) - 1.0) <= UNIT_NORM_RTOL * np.sqrt(u.shape[0]):
            raise ValueError("reflector direction must be finite with unit norm")
        u = _canonical_sign(u.copy())
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    @property
    def n(self) -> int:
        return self.u.shape[0]


def make_reflector(direction) -> Reflector:
    """Normalize a nonzero direction into a canonical unit Reflector."""
    v = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("degenerate reflector: zero direction")
    return Reflector(v / norm)


def same_reflector(a: Reflector, b: Reflector, tol: float = 1e-8) -> bool:
    """Whether two reflectors describe the same reflection (u and -u identified)."""
    return min(np.linalg.norm(a.u - b.u), np.linalg.norm(a.u + b.u)) <= tol


@dataclass(frozen=True)
class HouseholderProduct:
    """Ordered reflection factors representing factors[0] @ factors[1] @ ...

    An empty factor tuple represents the identity.
    """

    n: int
    factors: tuple[Reflector, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for f in self.factors:
            if f.n != self.n:
                raise ValueError(
                    f"factor dimension {f.n} does not match product dimension {self.n}"
                )

    @property
    def m(self) -> int:
        return len(self.factors)


def apply(product: HouseholderProduct, x) -> np.ndarray:
    """Apply the product to a vector with m sequential rank-1 updates, O(m*n).

    The rightmost factor acts first. BLAS level-1 kernels keep the per-factor
    cost at two vector passes.
    """
    y = np.array(x, dtype=float)
    if y.shape != (product.n,):
        raise ValueError(
            f"dimension mismatch: vector has shape {y.shape}, product expects ({product.n},)"
        )
    for f in reversed(product.factors):
        u = f.u
        daxpy(u, y, a=-2.0 * ddot(u, y))
    return y


def materialize(product: HouseholderProduct) -> np.ndarray:
    """Dense n-by-n matrix of the product (identity for an empty product).

    The result is orthogonal up to roundoff; a single factor gives exactly
    I - 2*u*u^T.
    """
    M = np.eye(product.n)
    for f in product.factors:
        M -= 2.0 * np.outer(M @ f.u, f.u)  # M <- M (I - 2 u u^T)
    return M


def check_orthogonal(V, tol: float | None = None) -> np.ndarray:
    """Return V as a square ndarray, raising if it is not orthogonal within tol."""
    M = np.asarray(V, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    if tol is None:
        tol = ORTHO_RTOL * n
    with np.errstate(invalid="ignore", over="ignore"):
        defect = np.linalg.norm(M.T @ M - np.eye(n), "fro")
    if not defect <= tol:  # a non-finite entry makes defect NaN or inf
        raise ValueError(
            f"matrix is not orthogonal: ||V^T V - I||_F = {defect:.3e} exceeds {tol:.3e}"
        )
    return M


def symmetric_part(V) -> np.ndarray:
    """Elementwise (V + V^T)/2."""
    M = np.asarray(V, dtype=float)
    return (M + M.T) / 2.0


@dataclass(frozen=True)
class SymmetricSpectrum:
    """Eigenvalues in ascending order with matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def symmetric_eigendecomposition(A) -> SymmetricSpectrum:
    """Full eigendecomposition of a symmetric matrix, eigenvalues ascending.

    Backed by LAPACK via numpy.linalg.eigh, which is deterministic for a fixed
    input; within a degenerate eigenspace the returned basis is whatever the
    solver produces.
    """
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    if np.linalg.norm(M - M.T, "fro") > SYM_RTOL * n:
        raise ValueError("input is not symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh(M)
    return SymmetricSpectrum(eigenvalues, eigenvectors)


def _fixed_subspace_dim(M: np.ndarray, tol: float | None = None) -> int:
    singular_values = np.linalg.svd(M - np.eye(M.shape[0]), compute_uv=False)
    if tol is None:
        tol = RANK_TOL_RTOL * np.sqrt(M.shape[0])
    return int(M.shape[0] - np.count_nonzero(singular_values > tol))


def eigenspace_one_dimension(V, tol: float | None = None) -> int:
    """Dimension of the fixed subspace {x : Vx = x} of an orthogonal matrix.

    Computed as n minus the rank of V - I, where singular values at or below
    tol (default 1e-6 * sqrt(n)) count as zero.
    """
    return _fixed_subspace_dim(check_orthogonal(V), tol)
