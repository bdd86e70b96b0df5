"""Reflectors, reflector products, and the symmetric eigendecomposition layer.

A reflection is stored as its unit direction u and never materialized unless
asked for; the represented matrix is I - 2*u*u^T. A product of m reflections
is one read-only (m, n) array of directions, validated once, and acts on a
vector in O(m*n) and on an n-by-k block in O(m*n*k). A block, and the dense
matrix, take BLOCK directions at a time through one UT transform: level-3
BLAS instead of one rank-1 update per factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SIGN_EPS = 1e-12        # entries at or below this do not anchor the canonical sign
UNIT_NORM_RTOL = 1e-12  # per-sqrt(n) slack on ||u|| = 1
ORTHO_RTOL = 1e-8       # per-n slack on ||V^T V - I||_F
SYM_RTOL = 1e-10        # per-n slack on ||A - A^T||_F
BLOCK = 64              # directions per UT transform; 32 and 64 run alike, 16 is slower

# scipy.linalg.blas kernels, bound by _load_blas on first use: importing
# scipy.linalg takes about 0.3 s and 27 MB, which recover and bound never need
daxpy = ddot = dgemm = dtrsm = None


def _load_blas() -> None:
    global daxpy, ddot, dgemm, dtrsm
    from scipy.linalg.blas import daxpy, ddot, dgemm, dtrsm


def _real_array(x, what: str) -> np.ndarray:
    """x as a float ndarray; complex x raises ValueError instead of losing its imaginary part."""
    x = np.asarray(x)
    if x.dtype.kind == "c":
        raise ValueError(f"{what} must be real, got complex entries")
    return np.asarray(x, dtype=float)


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
        u = _real_array(self.u, "reflector direction")
        if u.ndim != 1:
            raise ValueError("reflector direction must be a vector")
        object.__setattr__(self, "u", _unit_rows(u[None])[0])


def make_reflector(direction) -> Reflector:
    """Normalize a nonzero direction into a canonical unit Reflector."""
    v = _real_array(direction, "reflector direction")
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
        U = _real_array(self.directions, "reflector directions")
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


def _apply_block(U: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Overwrite the Fortran-ordered n-by-k block y with H_1 ... H_m y, H_i = I - 2 u_i u_i^T.

    u_i is row i of U. The directions go in blocks of BLOCK rows, the last
    block first. A block B of b rows multiplies out to I - B^T T B, with T
    upper triangular and T^-1 = I/2 + striu(B B^T): the UT transform of
    Schreiber & Van Loan (1989), revisited by Joffrain et al. (2006). So each
    block costs one dgemm for W = B y, one dtrsm for W <- T W, and one dgemm
    that subtracts B^T W from y in place. Returns y.
    """
    if dgemm is None:
        _load_blas()
    for stop in range(U.shape[0], 0, -BLOCK):
        Bt = U[max(stop - BLOCK, 0):stop].T  # n-by-b, Fortran-ordered for a C-ordered U
        T_inv = np.triu(Bt.T @ Bt, 1)
        np.fill_diagonal(T_inv, 0.5)
        W = dtrsm(1.0, T_inv, dgemm(1.0, Bt, y, trans_a=1), overwrite_b=1)
        y = dgemm(-1.0, Bt, W, beta=1.0, c=y, overwrite_c=1)
    return y


def apply(product: HouseholderProduct, x) -> np.ndarray:
    """Apply the product to a vector, or to each column of an n-by-k block, O(m*n*k).

    The last direction acts first. A vector takes two BLAS level-1 passes per
    factor (ddot, daxpy); a block goes through _apply_block's UT transforms on
    a Fortran-ordered copy. x is never modified. Complex or non-finite input
    raises ValueError before any work.
    """
    y = np.array(_real_array(x, "apply input"), order="F")
    if y.ndim not in (1, 2) or y.shape[0] != product.n:
        raise ValueError(
            f"dimension mismatch: input of shape {y.shape}, product of dimension {product.n}"
        )
    if ddot is None:
        _load_blas()
    flat = y.ravel(order="A")  # a view: y is contiguous
    # one pass: the sum of squares is finite when every entry is, unless it overflows
    if flat.size and not (math.isfinite(ddot(flat, flat)) or np.isfinite(flat).all()):
        raise ValueError("apply input must be finite, got NaN or infinite entries")
    if y.ndim == 1:
        for u in product.directions[::-1]:
            daxpy(u, y, a=-2.0 * ddot(u, y))
    elif y.size:  # dgemm rejects a block without columns
        y = _apply_block(product.directions, y)
    return y


def materialize(product: HouseholderProduct) -> np.ndarray:
    """Dense, C-ordered n-by-n matrix of the product (identity for an empty product).

    Built as the transpose of H_m ... H_1 applied to the identity by
    _apply_block, so it agrees with one rank-1 update per factor within
    roundoff, not bit for bit. The result is orthogonal up to roundoff; a
    single factor gives exactly I - 2*u*u^T.
    """
    reversed_rows = np.ascontiguousarray(product.directions[::-1])
    return _apply_block(reversed_rows, np.eye(product.n, order="F")).T


def check_orthogonal(V) -> np.ndarray:
    """Return V as a real square ndarray, raising unless ||V^T V - I||_F <= ORTHO_RTOL * n."""
    M = _real_array(V, "matrix")
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
    M = _real_array(V, "matrix")
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
    M = _real_array(A, "matrix")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    n = M.shape[0]
    if np.linalg.norm(M - M.T, "fro") > SYM_RTOL * n:
        raise ValueError("input is not symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh(M)
    return SymmetricSpectrum(eigenvalues, eigenvectors)
