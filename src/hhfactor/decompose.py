"""Greedy factorization of orthogonal matrices into few reflections.

The driver repeatedly peels off the single reflection closest to the working
matrix: the minimizer of ||V - (I - 2uu^T)||_F over unit u is the bottom
eigenvector of the symmetric part (V + V^T)/2. Peeling stops once the
product matches the input, and the number of factors used is provably the
smallest possible for exact members.

Only the moving subspace, the orthogonal complement of ker(V - I), ever
changes: it is invariant under V and under every greedy step. One n-by-n
eigensolve at entry finds it and gives the p-by-p compression C = Q^T V Q,
p = n - dim ker(V - I). One real Schur factorization C = Z T Z^T follows.
An orthogonal matrix is normal, so T is block diagonal up to roundoff, with
1-by-1 blocks (+-1) and 2-by-2 rotation blocks (Golub & Van Loan, Matrix
Computations, 7.4). The symmetric part of T is then block diagonal too, and
every greedy step reduces to one block: its bottom eigenvector is the
reflector, and reflecting that block's rows of T keeps the block structure.
The greedy therefore keeps only the diagonal blocks, as 2-by-2 squares (a
1-by-1 block t padded to diag(t, 1)), and reads their bounds from one mask
of T's subdiagonal, which LAPACK leaves exactly zero where a block ends. A
reflection of a block's rows keeps the norm of their entries outside the
block, so the Frobenius norm of T off its diagonal blocks is a constant
part of the residual. For orthogonal W,
(W - I)^T (W - I) = 2(I - sym W), so the singular values of W - I are
sqrt(2(1 - mu)) over the eigenvalues mu of sym W: the blocks' eigenvalues
give the fixed-subspace dimension as well.

Blocks never interact, so a block's states after one, two, ... steps on it
do not depend on what happened to the other blocks. Two steps clear a
rotation block and one a -1 block, so three rounds hold every state: round
r takes the r-th step on every block at once, with one stacked eigensolve,
and appends to per-field arrays, indexed [round][block], each block's
bottom eigenpair and what it contributes to the residual, the trace and the
fixed-subspace dimension. One sort of those scalars fixes the step order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from .core import (
    HouseholderProduct,
    Reflector,
    SymmetricSpectrum,
    check_orthogonal,
    symmetric_eigendecomposition,
    symmetric_part,
)

SYM_INPUT_RTOL = 1e-8  # per-n symmetry slack accepted by symmetric_decompose
QR_SKIP_RTOL = 1e-12   # per-sqrt(n) slack for "column already reduced"
RADICAND_NOISE = 64.0  # times n*eps: radicands below this are numerical zero
RANK_TOL_RTOL = 1e-6   # per-sqrt(n) threshold on singular values of W - I in the trace


@dataclass(frozen=True)
class TraceRow:
    """Snapshot of one greedy iteration.

    trace and dim_e1 describe the working matrix the iteration started from;
    lambda_min is the minimized eigenvalue of its symmetric part; residual is
    the approximation error after appending the iteration's reflector.
    """

    iteration: int
    residual: float
    lambda_min: float
    trace: float
    dim_e1: int


@dataclass(frozen=True)
class DecompositionTrace:
    """Per-iteration records plus the final state of a greedy run.

    termination is "converged", or else "m_cap" (caller's factor budget under
    n) or "n_cap": the budget ran out, or every block was cleared with the
    residual still above eps. final_trace and final_dim_e1 describe the
    working matrix after the last iteration, so consecutive rows and the final
    state together cover every iteration's trace/eigenspace transition.
    """

    rows: tuple[TraceRow, ...]
    m: int
    final_residual: float
    final_trace: float
    final_dim_e1: int
    termination: str


def _peel(rows: np.ndarray, directions: np.ndarray) -> None:
    """Reflect a stack of row blocks in place: rows[i] <- (I - 2 a_i a_i^T) rows[i].

    rows is (k, b, p) and directions is (k, b), one unit a_i per entry. With
    rows[i] a whole working matrix and a_i the bottom eigenvector of its
    symmetric part, this is one greedy step, and ||I - rows[i]||_F afterwards
    is the distance between the old working matrix and the reflection. The
    greedy passes its (K, 2, 2) stack of Schur blocks, each with the bottom
    eigenvector of its own block's symmetric part.
    """
    rows -= 2.0 * directions[:, :, None] * (directions[:, None, :] @ rows)


def _moving_rank(eigenvalues: np.ndarray, n: int):
    """Rank of W - I for an orthogonal W, from the eigenvalues of sym(W).

    The singular values of W - I are sqrt(2(1 - mu)); those at or below the
    rank tolerance RANK_TOL_RTOL * sqrt(n) count as zero. The count runs along
    the last axis, so a (K, 2) stack gives one count per block.
    """
    singular_values = np.sqrt(2.0 * np.clip(1.0 - eigenvalues, 0.0, None))
    return np.count_nonzero(singular_values > RANK_TOL_RTOL * np.sqrt(n), axis=-1)


def _moving_subspace(M: np.ndarray, spectrum: SymmetricSpectrum, eps: float):
    """Compress M onto its moving subspace, when that drops less than eps/2.

    Q holds the eigenvectors of sym(M) whose 1 - mu lies above the roundoff
    floor. Returns (Q, C, rest) with C = Q^T M Q and
    rest = ||(M - I) - Q (C - I) Q^T||_F. Q is None, C is M and rest 0 when
    nothing is dropped or the dropped part is too large.
    """
    n = M.shape[0]
    floor = RADICAND_NOISE * n * np.finfo(float).eps
    p = int(np.count_nonzero(1.0 - spectrum.eigenvalues > floor))
    if p < n:
        Q = spectrum.eigenvectors[:, :p]
        C = Q.T @ M @ Q
        rest = float(np.linalg.norm((M - np.eye(n)) - Q @ (C - np.eye(p)) @ Q.T, "fro"))
        if rest <= eps / 2.0:
            return Q, C, rest
    return None, M, 0.0


def _diagonal_blocks(T: np.ndarray):
    """T's diagonal blocks as a (K, 2, 2) stack, and the norm of T outside them.

    LAPACK leaves T's subdiagonal exactly zero wherever a block ends, so a
    row starts a block unless the entry left of its diagonal is nonzero.
    A 1-by-1 block t is padded to diag(t, 1): the pad adds nothing to the
    block's residual or rank, eigh returns t and (+-1, 0) for it exactly
    when t <= 1, and a reflection along (+-1, 0) keeps it. columns[k] holds
    block k's column indices (the one column twice for a 1-by-1 block).
    Reflecting a block's rows of T moves their entries outside the block
    among themselves, so the Frobenius norm of those entries is fixed.
    """
    joined = np.append(False, np.diag(T, -1) != 0.0)[: T.shape[0]]  # row i is in row i-1's block
    first = np.flatnonzero(~joined)
    pairs = np.append(joined[1:], False)[first]
    columns = first[:, None] + np.outer(pairs, [0, 1])
    squares = T[columns[:, :, None], columns[:, None, :]]
    squares[~pairs, 0, 1] = 0.0
    squares[~pairs, 1] = [0.0, 1.0]
    outside = T.copy()
    outside[columns[:, :, None], columns[:, None, :]] = 0.0
    return squares, columns, pairs, float(np.linalg.norm(outside, "fro"))


def nearest_reflector(V) -> tuple[Reflector, float]:
    """Closest single reflection to an orthogonal matrix and its distance.

    The minimizer is H = I - 2uu^T with u a bottom eigenvector of the
    symmetric part. The distance is ||I - HV||_F, evaluated directly; it
    equals sqrt(2n - 2 tr(V) + 4 lambda_min((V + V^T)/2)), whose cancellation
    near zero it avoids.
    """
    M = check_orthogonal(V)
    working = M.copy()
    u = symmetric_eigendecomposition(symmetric_part(M)).eigenvectors[:, 0]
    _peel(working[None], u[None])
    return Reflector(u), float(np.linalg.norm(working - np.eye(M.shape[0]), "fro"))


def greedy_decompose(
    V,
    max_m: int | None = None,
    eps: float = 1e-6,
) -> tuple[HouseholderProduct, DecompositionTrace]:
    """Factor an orthogonal matrix into a short product of reflections.

    Args:
        V: orthogonal matrix (validated).
        max_m: factor budget; defaults to n. The effective cap is min(max_m, n).
        eps: stop once ||product - V||_F <= eps.

    Returns:
        The factors in application order (their product approximates V) and a
        DecompositionTrace with one row per completed iteration.

    When V is exactly a product of p <= max_m reflections and eps lies
    between the roundoff those factors leave and exact-recovery scale
    (1e-6), the run converges with exactly p factors, and p is minimal;
    min_factors provides the independent count.

    One n-by-n eigensolve of sym(V) yields the moving subspace Q and
    C = Q^T V Q, and one real Schur factorization C = Z T Z^T follows. The
    greedy runs on the diagonal blocks of T, bounded where T's subdiagonal
    is exactly zero: a (K, 2, 2) stack of squares with each 1-by-1 block t
    padded to diag(t, 1). A step on a block reflects its square by its
    bottom eigenvector a and lifts a to the n-dimensional factor
    (QZ)[:, block] a. A step touches only its block, so the steps are taken
    in three rounds: round r reflects every square for the r-th time, with
    one stacked eigensolve and one stacked reflection, and appends to one
    list per field, indexed [round][block], the bottom eigenvalue and
    eigenvector, the squared norm of I minus the square, its diagonal sum
    and its count of singular values of W - I above the rank tolerance. The
    plan, fixed at entry, holds two steps per rotation block and one per -1
    block in the order of always taking the block with the smallest bottom
    eigenvalue, ties going to the first block. A scalar loop walks it until
    the residual is within eps, the budget is spent or the plan ends, so a
    cleared block is never stepped, and builds each trace row from the
    recorded sums: the residual is sqrt(sum of square norms + rest^2),
    because the product is orthogonal and ||product - V||_F = ||I - W||_F.
    rest joins the part of V - I outside the compression with the norm of T
    off its diagonal blocks, which no reflection of a block's rows changes.
    trace = (tr V - tr T - the pads) + the diagonal sums, and dim_e1 = n -
    the counts. The factors are lifted with one product QZ A. When the
    dropped part exceeds eps/2, or nothing is dropped, Q = I.
    """
    M = check_orthogonal(V)
    n = M.shape[0]
    if max_m is None:
        max_m = n
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    if not eps > 0.0:  # NaN fails too
        raise ValueError("eps must be positive")

    basis, C, rest = _moving_subspace(M, symmetric_eigendecomposition(symmetric_part(M)), eps)
    T, Z = schur(C, output="real")
    lift = Z if basis is None else basis @ Z
    squares, columns, pairs, outside = _diagonal_blocks(T)
    rest = math.hypot(rest, outside)
    # indexed [round][block]: two steps clear a rotation block, one a -1 block
    lambda_min, directions, norms, diagonals, moving = [], [], [], [], []
    for _ in range(3):
        mu, vectors = np.linalg.eigh((squares + squares.transpose(0, 2, 1)) / 2.0)
        lambda_min.append(mu[:, 0].tolist())
        directions.append(vectors[:, :, 0])
        norms.append(np.sum((np.eye(2) - squares) ** 2, axis=(1, 2)).tolist())
        diagonals.append(np.trace(squares, axis1=1, axis2=2).tolist())
        moving.append(_moving_rank(mu, n).tolist())
        _peel(squares, directions[-1])
    first = lambda_min[0]
    counts = [2 if pair else int(lam < 0.0) for pair, lam in zip(pairs.tolist(), first)]
    # a block whose next lambda_min is lower stays the argmin, so the argmin
    # order sorts each step by the running max of its block's lambda_min
    steps = [(k, r) for k, count in enumerate(counts) for r in range(count)]
    plan = sorted((max(first[k], lambda_min[r][k]), k, r) for k, r in steps)[: min(max_m, n)]
    block_norms = list(norms[0])
    block_diagonals = list(diagonals[0])
    moved = sum(moving[0])
    dropped_trace = float(np.trace(M) - np.trace(T) - np.count_nonzero(~pairs))  # minus the pads
    rows: list[TraceRow] = []  # row j: the step plan[j]
    residual = math.hypot(math.sqrt(math.fsum(block_norms)), rest)
    while True:
        working_trace = dropped_trace + math.fsum(block_diagonals)
        dim_e1 = n - moved
        if residual <= eps or len(rows) == len(plan):
            break
        _, k, r = plan[len(rows)]
        block_norms[k] = norms[r + 1][k]
        block_diagonals[k] = diagonals[r + 1][k]
        moved += moving[r + 1][k] - moving[r][k]
        residual = math.hypot(math.sqrt(math.fsum(block_norms)), rest)
        rows.append(TraceRow(len(rows), residual, lambda_min[r][k], working_trace, dim_e1))

    # row j of embedded is factor j's direction in the coordinates of T
    taken = np.array([step[1:] for step in plan[: len(rows)]], dtype=int).reshape(-1, 2)
    block_of, round_of = taken.T
    taken_directions = np.stack(directions)[round_of, block_of]
    embedded = np.zeros((len(rows), T.shape[0]))
    np.add.at(embedded, (np.arange(len(rows))[:, None], columns[block_of]), taken_directions)

    if residual <= eps:
        termination = "converged"
    elif max_m < n:
        termination = "m_cap"
    else:
        termination = "n_cap"
    trace = DecompositionTrace(
        rows=tuple(rows),
        m=len(rows),
        final_residual=residual,
        final_trace=working_trace,
        final_dim_e1=dim_e1,
        termination=termination,
    )
    return HouseholderProduct(n, embedded @ lift.T), trace


def symmetric_decompose(V) -> HouseholderProduct:
    """Factor a symmetric orthogonal matrix into mutually orthogonal reflections.

    Such a matrix has eigenvalues +-1; the factors are its eigenvectors with
    eigenvalue -1, in ascending eigen-index order (they commute, so any fixed
    order works). The factor count is exactly that eigenvalue's multiplicity.
    """
    M = check_orthogonal(V)
    n = M.shape[0]
    if np.linalg.norm(M - M.T, "fro") > SYM_INPUT_RTOL * n:
        raise ValueError("input is not symmetric")
    spectrum = symmetric_eigendecomposition(symmetric_part(M))
    return HouseholderProduct(n, spectrum.eigenvectors[:, spectrum.eigenvalues < 0.0].T)


def qr_baseline(V) -> tuple[HouseholderProduct, np.ndarray]:
    """Column-wise Householder QR of an orthogonal matrix.

    Returns reflectors and the +-1 diagonal r with V = H_1 ... H_k diag(r).
    A column that is already in reduced form contributes no reflector, but no
    global factor minimization is attempted: generic inputs use one reflector
    per column even when far fewer would do.
    """
    M = check_orthogonal(V)
    n = M.shape[0]
    R = M.copy()
    directions = []
    for j in range(n):
        x = R[j:, j]
        e1 = np.zeros(n - j)
        e1[0] = 1.0
        if np.linalg.norm(x - e1) <= QR_SKIP_RTOL * np.sqrt(n):
            continue
        sign = 1.0 if x[0] >= 0.0 else -1.0
        v = x + sign * np.linalg.norm(x) * e1  # sign chosen to avoid cancellation
        v /= np.linalg.norm(v)
        R[j:, :] -= 2.0 * np.outer(v, v @ R[j:, :])
        directions.append(np.concatenate((np.zeros(j), v)))
    return HouseholderProduct(n, directions), np.diag(R).copy()


def residual_upper_bound(V, m: int) -> float:
    """A priori bound on the greedy residual after m factors.

    Evaluates sqrt(2*(n - tr(V) - 2*floor(m/2) + sum of the m smallest
    eigenvalues of (V + V^T)/2)). Radicands within numerical noise of zero are
    clamped to zero. The bound is not tight for odd m.
    """
    return _residual_bounds(check_orthogonal(V))(m)


def _residual_bounds(M: np.ndarray):
    """residual_upper_bound(M, .) as a function of m, for a validated M eigensolved once."""
    n = M.shape[0]
    eigenvalues = symmetric_eigendecomposition(symmetric_part(M)).eigenvalues

    def bound(m: int) -> float:
        if not 0 <= m <= n:
            raise ValueError(f"m must be in [0, {n}], got {m}")
        radicand = 2.0 * (n - np.trace(M) - 2 * (m // 2) + eigenvalues[:m].sum())
        if radicand <= RADICAND_NOISE * n * np.finfo(float).eps:
            return 0.0
        return float(np.sqrt(radicand))

    return bound


def _fixed_subspace_dim(M: np.ndarray) -> int:
    """dim {x : Mx = x}: n minus the number of singular values of M - I above roundoff.

    A singular value sigma = sqrt(2(1 - mu)) counts when 1 - mu lies above the
    floor RADICAND_NOISE * n * eps that _moving_subspace and _residual_bounds
    apply, so when sigma > sqrt(2 * RADICAND_NOISE * n * eps).
    """
    n = M.shape[0]
    singular_values = np.linalg.svd(M - np.eye(n), compute_uv=False)
    floor = math.sqrt(2.0 * RADICAND_NOISE * n * np.finfo(float).eps)
    return int(n - np.count_nonzero(singular_values > floor))


def min_factors(V) -> int:
    """Smallest number of reflection factors representing V exactly.

    Equals n minus the dimension of the fixed subspace of V; greedy_decompose
    at exact-recovery eps terminates with exactly this many factors.
    """
    M = check_orthogonal(V)
    return M.shape[0] - _fixed_subspace_dim(M)
