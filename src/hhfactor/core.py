"""Reflectors, reflector products, and the symmetric eigendecomposition layer.

A reflection is stored as its unit direction u and never materialized unless
asked for; the represented matrix is I - 2*u*u^T. A product of m reflections
is one read-only (m, n) array of directions, validated once, and acts on a
vector in O(m*n) and on an n-by-k block in O(m*n*k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.blas import daxpy, ddot, dgemv, dger

SIGN_EPS = 1e-12        # entries at or below this do not anchor the canonical sign
UNIT_NORM_RTOL = 1e-12  # per-sqrt(n) slack on ||u|| = 1
ORTHO_RTOL = 1e-8       # per-n slack on ||V^T V - I||_F
SYM_RTOL = 1e-10        # per-n slack on ||A - A^T||_F
RANK_TOL_RTOL = 1e-6    # per-sqrt(n) threshold on singular values of V - I


def _canonical_rows(U: np.ndarray) -> np.ndarray:
    """Flip each row of U so that its first entry above SIGN_EPS in magnitude is positive.

    u and -u describe the same reflection; canonicalizing the sign makes
    directions comparable. A row without such an entry is kept as is.
    """
    lead = U[:, :1].flatten()  # a copy of column 0; empty when U has no rows
    anchored = np.abs(lead) > SIGN_EPS
    if not anchored.all():  # column 0 anchors almost every row; search only the rest
        rest = np.flatnonzero(~anchored)
        beyond = np.abs(U[rest]) > SIGN_EPS
        lead[rest] = np.where(beyond.any(axis=1), U[rest, beyond.argmax(axis=1)], 0.0)
    # every lead is now an anchor, of magnitude above SIGN_EPS, or +0.0
    return np.multiply(U, np.copysign(1.0, lead)[:, None], order="C")


def _unit_rows(U: np.ndarray) -> np.ndarray:
    """Canonical read-only copy of the rows of U, each a finite unit direction."""
    deviation = np.abs(np.sqrt(np.einsum("ij,ij->i", U, U)) - 1.0)
    if not deviation.max(initial=0.0) <= UNIT_NORM_RTOL * math.sqrt(U.shape[1]):  # NaN too
        raise ValueError(f"reflector direction {deviation.argmax()} must be finite with unit norm")
    U = _canonical_rows(U)
    U.setflags(write=False)
    return U


@dataclass(frozen=True, eq=False)
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
        object.__setattr__(self, "u", _unit_rows(u[None])[0])


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


@dataclass(frozen=True, eq=False)
class HouseholderProduct:
    """The product H_1 @ H_2 @ ... @ H_m of reflections H_i = I - 2 u_i u_i^T.

    directions is the read-only (m, n) array whose row i is u_i, each row a
    finite unit vector with canonical sign; no rows represent the identity.
    factors holds the same rows as Reflector, built on first access.
    """

    n: int
    directions: np.ndarray = ()

    def __post_init__(self):
        U = np.asarray(self.directions, dtype=float)
        if U.ndim == 1 and U.size == 0:
            U = U.reshape(0, max(self.n, 0))
        if self.n < 0 or U.ndim != 2 or U.shape[1] != self.n:
            raise ValueError(
                f"directions of shape {U.shape} do not match product dimension {self.n}"
            )
        object.__setattr__(self, "directions", _unit_rows(U))

    @property
    def m(self) -> int:
        return self.directions.shape[0]

    @cached_property
    def factors(self) -> tuple[Reflector, ...]:
        return tuple(Reflector(u) for u in self.directions)


def apply(product: HouseholderProduct, x) -> np.ndarray:
    """Apply the product to a vector, or to each column of an n-by-k block, O(m*n*k).

    The last direction acts first. A vector takes two BLAS level-1 passes per
    factor (ddot, daxpy); a block takes one dgemv and one in-place rank-1
    dger per factor on a Fortran-ordered copy.
    """
    y = np.array(x, dtype=float, order="F")
    if y.ndim not in (1, 2) or y.shape[0] != product.n:
        raise ValueError(
            f"dimension mismatch: input of shape {y.shape}, product of dimension {product.n}"
        )
    if y.ndim == 1:
        for u in product.directions[::-1]:
            daxpy(u, y, a=-2.0 * ddot(u, y))
    elif y.size:  # dger rejects a block without columns
        for u in product.directions[::-1]:
            y = dger(-2.0, u, dgemv(1.0, y, u, trans=1), a=y, overwrite_a=True)
    return y


def materialize(product: HouseholderProduct) -> np.ndarray:
    """Dense n-by-n matrix of the product (identity for an empty product).

    The result is orthogonal up to roundoff; a single factor gives exactly
    I - 2*u*u^T.
    """
    M = np.eye(product.n)
    for u in product.directions:
        M -= 2.0 * np.outer(M @ u, u)  # M <- M (I - 2 u u^T)
    return M


def check_orthogonal(V) -> np.ndarray:
    """Return V as a square ndarray, raising unless ||V^T V - I||_F <= ORTHO_RTOL * n."""
    M = np.asarray(V, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
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


@dataclass(frozen=True, eq=False)
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


def _fixed_subspace_dim(M: np.ndarray) -> int:
    """dim {x : Mx = x}: n minus the rank of M - I at tolerance RANK_TOL_RTOL * sqrt(n)."""
    n = M.shape[0]
    singular_values = np.linalg.svd(M - np.eye(n), compute_uv=False)
    return int(n - np.count_nonzero(singular_values > RANK_TOL_RTOL * np.sqrt(n)))
