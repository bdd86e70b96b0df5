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
LEAF = 16               # diagonal blocks of T^-1 that np.linalg.inv inverts; 32 is slower
PANEL = 128             # block columns per update pass of _apply_block; 32 and 64 run 2-5% slower

# scipy.linalg.blas level-1 kernels of the vector apply, bound by _load_blas on
# first use: numpy has no in-place axpy, and importing scipy.linalg takes about
# 0.2 s and 28 MB, which every other command can skip
daxpy = ddot = None


def _load_blas() -> None:
    global daxpy, ddot
    from scipy.linalg.blas import daxpy, ddot


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


def _t_factors(U: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Blocks of at most BLOCK rows of U, last block first, each with the T of its UT transform.

    A block B multiplies out to I - B^T T B, with T upper triangular and
    T^-1 = I/2 + striu(B B^T). The T^-1 of all blocks are stacked, a short
    last block padded with I/2, and inverted together: np.linalg.inv on the
    diagonal blocks of LEAF rows, then [[A, C], [0, D]]^-1 = [[A^-1,
    -A^-1 C D^-1], [0, D^-1]] on blocks of twice the size. That is the
    blocked triangular inverse of LAPACK's trtri, paid once per call.
    numpy has no triangular solve, and np.linalg.solve with each T^-1 also
    runs an LU and a unit-lower solve: block apply took 1.3 to 1.5 times as
    long as with scipy's dtrsm. T rounds differently from that solve, in
    trailing digits.
    """
    blocks = [U[max(stop - BLOCK, 0):stop] for stop in range(U.shape[0], 0, -BLOCK)]
    T_inv = np.zeros((len(blocks), BLOCK, BLOCK))
    for t, B in zip(T_inv, blocks):
        t[:len(B), :len(B)] = B @ B.T
    T_inv = np.triu(T_inv, 1)
    T_inv.reshape(len(blocks), BLOCK * BLOCK)[:, :: BLOCK + 1] = 0.5
    T = np.zeros_like(T_inv)
    # [:, i, :, i] of a stack reshaped to tiled is its i-th diagonal block of LEAF rows
    leaves = np.arange(BLOCK // LEAF)
    tiled = (len(blocks), BLOCK // LEAF, LEAF, BLOCK // LEAF, LEAF)
    diagonal = np.linalg.inv(T_inv.reshape(tiled)[:, leaves, :, leaves])
    T.reshape(tiled)[:, leaves, :, leaves] = diagonal
    size = LEAF
    while size < BLOCK:
        for start in range(0, BLOCK, 2 * size):
            a, d = slice(start, start + size), slice(start + size, start + 2 * size)
            T[:, a, d] = -(T[:, a, a] @ T_inv[:, a, d]) @ T[:, d, d]
        size *= 2
    return [(B, t[:len(B), :len(B)]) for B, t in zip(blocks, T)]


def _apply_block(U: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Overwrite the Fortran-ordered n-by-k block y with H_1 ... H_m y, H_i = I - 2 u_i u_i^T.

    u_i is row i of U. The directions go in blocks of BLOCK rows, the last
    block first, through the UT transform of Schreiber & Van Loan (1989),
    revisited by Joffrain et al. (2006): a block B acts as I - B^T T B, with
    T from _t_factors. The work runs on Z = y^T, a C-ordered k-by-n view.
    Each block takes the matmuls W^T = (Z B^T) T^T and Z -= W^T B, the
    latter PANEL rows of Z at a time through one scratch panel, so no
    second k-by-n array is made. Returns y.
    """
    Z = y.T
    k, n = Z.shape
    panel = np.empty((min(PANEL, k), n))
    for B, T in _t_factors(U):
        Wt = (Z @ B.T) @ T.T
        for start in range(0, k, PANEL):
            rows = slice(start, start + PANEL)
            Z[rows] -= np.matmul(Wt[rows], B, out=panel[:min(PANEL, k - start)])
    return y


def _check_finite(flat: np.ndarray, dot) -> None:
    """Raise ValueError unless every entry of flat is finite, in one pass of dot.

    The sum of squares is finite when every entry is, unless it overflows.
    """
    if flat.size and not (math.isfinite(dot(flat, flat)) or np.isfinite(flat).all()):
        raise ValueError("apply input must be finite, got NaN or infinite entries")


def apply(product: HouseholderProduct, x) -> np.ndarray:
    """Apply the product to a vector, or to each column of an n-by-k block, O(m*n*k).

    The last direction acts first. A vector takes two BLAS level-1 passes per
    factor (scipy's ddot and daxpy); a block goes through _apply_block's UT
    transforms on a Fortran-ordered copy, on numpy alone. x is never
    modified. Complex or non-finite input raises ValueError before any work.
    """
    y = np.array(_real_array(x, "apply input"), order="F")
    if y.ndim not in (1, 2) or y.shape[0] != product.n:
        raise ValueError(
            f"dimension mismatch: input of shape {y.shape}, product of dimension {product.n}"
        )
    flat = y.ravel(order="A")  # a view: y is contiguous
    if y.ndim == 2:
        with np.errstate(over="ignore", invalid="ignore"):  # numpy's dot warns on overflow
            _check_finite(flat, np.dot)
        return _apply_block(product.directions, y)
    if ddot is None:
        _load_blas()
    _check_finite(flat, ddot)  # a third of np.dot's fixed cost, and it never warns
    for u in product.directions[::-1]:
        daxpy(u, y, a=-2.0 * ddot(u, y))
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
        gram = M.T @ M
        gram.flat[:: n + 1] -= 1.0  # V^T V - I in the one n-by-n array
        defect = np.linalg.norm(gram, "fro")
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
