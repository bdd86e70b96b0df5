"""Greedy factorization of orthogonal matrices into few reflections.

The driver repeatedly peels off the single reflection closest to the working
matrix: the minimizer of ||V - (I - 2uu^T)||_F over unit u is the bottom
eigenvector of the symmetric part (V + V^T)/2. Peeling stops once the
product matches the input, and the number of factors used is provably the
smallest possible for exact members.

Only the moving subspace, the orthogonal complement of ker(V - I), ever
changes: it is invariant under V and under every greedy step. One eigensolve
at entry finds it and gives the p-by-p compression C = Q^T V Q,
p = n - dim ker(V - I), unless dropping ker(V - I) would cost more than
eps/2; then Q holds all n eigenvectors of sym(V). Since
||V - I||_F^2 = 2(n - tr V) and ||V - I||_2 <= 2, rank(V - I) is at least
(n - tr V)/2; when that is at most n/4, blocked Gram-Schmidt on V - I finds
a basis of its range in O(n^2 p), in one n-by-n working array with numpy's
QR of each block, and the eigensolve is of the r-by-r compression to it.
Past n/4 columns, or when that route would drop more than eps/2, the n-by-n
eigensolve of sym(V) runs instead. An orthogonal
matrix is normal, so each eigenspace of sym(V) is V-invariant (Golub &
Van Loan, Matrix Computations, 7.4), and C is block diagonal by eigenvalue
of sym(V). One rule reads the blocks of C and of its Schur form alike: row
i joins row i-1's block when the subdiagonal entry between them exceeds
the roundoff floor. A rotation by an angle of its own is a 2-by-2 block of
C with subdiagonal +-sin(angle), and each -1, where V is -I, a 1-by-1
block. The rule checks itself: a repeated angle, whose planes lie in an
arbitrary basis of one eigenspace, or close angles, whose eigenvectors
mix, leave norm between blocks, or a row in a chain of more than two that
no block covers, and so norm off the blocks above the floor. That norm, or
a 1-by-1 block at +1 (a fixed direction, which C keeps only when
compression was refused, in an arbitrary basis), sends all of C to one
real Schur factorization. Its form is block diagonal up to roundoff, with
1-by-1 (+-1) and 2-by-2 rotation blocks, and it separates planes by
|e^{ia} - e^{ib}|; a 2-by-2 block whose subdiagonal lies within the floor,
a roundoff pair at +1, reads as two 1-by-1 blocks that no step takes. The
symmetric part is block diagonal too, so every greedy step reduces to one
block: its bottom eigenvector is the reflector, and reflecting that
block's rows keeps the block structure. The greedy keeps only the blocks,
as 2-by-2 squares (a 1-by-1 block t padded to diag(t, 1)). A reflection of
a block's rows keeps the norm of their entries outside the block, so the
norm off the blocks is a constant part of the residual. For orthogonal W,
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

from .core import (
    HouseholderProduct,
    check_orthogonal,
    symmetric_eigendecomposition,
    symmetric_part,
)

QR_SKIP_RTOL = 1e-12   # per-sqrt(n) slack for "column already reduced"
RADICAND_NOISE = 64.0  # times n*eps: radicands below this are numerical zero
GS_BLOCK = 8           # columns per Gram-Schmidt pass: p <= 8 takes one pass of rank-8 updates
RANGE_SHARE = 4        # past n/4 columns the range basis costs about the n-by-n eigh it saves


# scipy.linalg (about 0.3 s and 27 MB to import) loads on the first call of
# this wrapper, so greedy loads it only on the Schur fallback, and recover and
# bound never do
def schur(*args, **kwargs):
    """scipy.linalg.schur, which only the Schur fallback of _spectral_blocks calls."""
    from scipy.linalg import schur

    return schur(*args, **kwargs)


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
    greedy passes its (K, 2, 2) stack of blocks, each with the bottom
    eigenvector of its own block's symmetric part.
    """
    rows -= 2.0 * directions[:, :, None] * (directions[:, None, :] @ rows)


def _moving_rank(eigenvalues: np.ndarray, n: int):
    """Rank of W - I for an orthogonal W, from the eigenvalues of sym(W).

    A singular value sqrt(2(1 - mu)) of W - I counts when 1 - mu exceeds the
    roundoff floor RADICAND_NOISE * n * eps, as in min_factors. The count runs
    along the last axis, so a (K, 2) stack gives one count per block.
    """
    return np.count_nonzero(1.0 - eigenvalues > RADICAND_NOISE * n * np.finfo(float).eps, axis=-1)


def _range_basis(M: np.ndarray):
    """(Q, C, dropped) for an orthonormal basis Q of range(M - I); None past n / RANGE_SHARE columns.

    C = Q^T M Q and dropped = ||M - I - Q (C - I) Q^T||_F. Blocked
    Gram-Schmidt on the residual R, which starts as M - I and is the route's
    one n-by-n array: each pass takes the GS_BLOCK residual columns of
    largest norm, in descending order, orthogonalizes them against Q a second
    time, keeps the leading run of the columns of their QR whose |r_jj| lies
    above roundoff, and deflates R, until a pass keeps none. r_11 is the
    largest residual column norm, so the passes stop where column-pivoted QR
    would. The run ends at the first column left at roundoff: that column's Q
    direction is noise, and a column kept after it would leave its part along
    the noise in R, for the next pass to add as a column beyond rank(M - I).
    Q <- qr(M Q - Q) then takes back what roundoff left outside span(Q).
    """
    n = M.shape[0]
    floor = RADICAND_NOISE * n * np.finfo(float).eps
    R, Q = M.copy(), np.empty((n, 0))
    R.flat[:: n + 1] -= 1.0
    while Q.shape[1] <= n / RANGE_SHARE:
        P = R[:, np.argsort(-np.einsum("ij,ij->j", R, R))[:GS_BLOCK]]
        P -= Q @ (Q.T @ P)
        Z, T = np.linalg.qr(P)
        Z = Z[:, : np.logical_and.accumulate(np.abs(np.diag(T)) > floor).sum()]
        if Z.shape[1] == 0:
            Q = np.linalg.qr(M @ Q - Q)[0]
            C = Q.T @ M @ Q
            np.matmul(Q @ (C - np.eye(Q.shape[1])), Q.T, out=R)  # in the residual's buffer
            R -= M
            R.flat[:: n + 1] += 1.0
            return Q, C, float(np.linalg.norm(R))
        Q = np.hstack((Q, Z))
        R -= Z @ (Z.T @ R)
    return None


def _greedy_blocks(M: np.ndarray, eps: float):
    """Greedy's blocks of M, from a basis of range(M - I) when its rank may be small.

    rank(M - I) >= (n - tr M)/2, so _range_basis runs only when that is at
    most n / RANGE_SHARE, and its r-by-r C feeds _spectral_blocks. When it
    gives up, or the compression drops more than eps/2, the n-by-n eigensolve
    of sym(M) runs, the one route that can keep all n directions.
    """
    n = M.shape[0]
    basis = _range_basis(M) if n - np.trace(M) <= 2.0 * n / RANGE_SHARE else None
    if basis is not None:
        Q, C, dropped = basis
        blocks = _spectral_blocks(C, n, eps, dropped)
        if blocks is not None:
            return (Q @ blocks[0],) + blocks[1:]
    return _spectral_blocks(M, n, eps)


def _spectral_blocks(M: np.ndarray, n: int, eps: float, dropped: float = 0.0):
    """Greedy's blocks of an r-by-r M, r <= n, read off its compression C or the Schur form of C.

    Q holds the eigenvectors of sym(M) whose 1 - mu lies above the roundoff
    floor of the input's order n, or, when that with dropped loses more than
    eps/2, all of them if r = n (else None). _cut_blocks reads the blocks of
    C = Q^T M Q. When the norm of C off its blocks exceeds the floor, or C
    has a 1-by-1 block at +1, which only a refused compression keeps (the
    fixed subspace, in an arbitrary basis), one real Schur factorization of
    all of C gives the blocks instead, read by the same rule.
    Returns (lift, squares, columns, pairs, rest): lift maps block
    coordinates to r dimensions; squares stacks the blocks, a 1-by-1 block t
    padded to diag(t, 1), which adds nothing to its residual or rank and
    which a reflection along (+-1, 0) keeps; columns[k] holds block k's
    column indices (one column twice for a 1-by-1 block); pairs flags the
    2-by-2 blocks; rest joins the dropped parts with the norm off the blocks.
    """
    r = M.shape[0]
    floor = RADICAND_NOISE * n * np.finfo(float).eps
    spectrum = symmetric_eigendecomposition(symmetric_part(M))
    p = int(_moving_rank(spectrum.eigenvalues, n))
    Q = spectrum.eigenvectors[:, :p]
    C = Q.T @ M @ Q
    rest = math.hypot(dropped, np.linalg.norm((M - np.eye(r)) - Q @ (C - np.eye(p)) @ Q.T, "fro")) if p < r else dropped
    if rest > eps / 2.0:
        if r < n:
            return None
        p, rest, Q = r, 0.0, spectrum.eigenvectors
        C = Q.T @ M @ Q
    squares, columns, pairs, outside = _cut_blocks(C, floor)
    if outside > floor or np.any(squares[~pairs, 0, 0] > 0.0):
        T, Z = schur(C, output="real")
        Q = Q @ Z
        squares, columns, pairs, outside = _cut_blocks(T, floor)
    squares[~pairs, 0, 1] = 0.0
    squares[~pairs, 1] = [0.0, 1.0]
    return Q, squares, columns, pairs, math.hypot(rest, outside)


def _cut_blocks(W: np.ndarray, floor: float):
    """(squares, columns, pairs, outside) of the diagonal blocks of W, which is left as it is.

    Row i joins row i-1's block when |W[i, i-1]| exceeds floor. A row that
    no block covers, after two joins in a row, keeps its whole norm in
    outside, the norm of W off the blocks, summed in row order whatever the
    layout of W.
    """
    joined = np.append(False, np.abs(np.diag(W, -1)) > floor)[: W.shape[0]]
    first = np.flatnonzero(~joined)
    pairs = np.append(joined[1:], False)[first]
    columns = first[:, None] + np.outer(pairs, [0, 1])
    squares = W[columns[:, :, None], columns[:, None, :]]
    off = np.array(W, order="C")
    off[columns[:, :, None], columns[:, None, :]] = 0.0
    return squares, columns, pairs, float(np.linalg.norm(off, "fro"))


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
    min_factors provides the independent count. Below that roundoff no step
    is taken for a block within the roundoff floor of +1: on 3,600 seeded
    exact products at eps down to 1e-16 every run took exactly p factors,
    though some end at the cap ("n_cap") with their residual at roundoff.

    One eigensolve, of the r-by-r compression to a Gram-Schmidt basis of
    range(V - I) or else of the n-by-n sym(V) (see _greedy_blocks), yields the
    moving subspace Q and the compression C = Q^T V Q, block diagonal by
    eigenvalue of sym(V). _spectral_blocks reads the blocks by one rule: a
    row joins the block of the row above when the subdiagonal entry between
    them exceeds the roundoff floor. When the norm of C off those blocks
    exceeds the floor (a repeated angle, or close angles whose planes mix),
    or C holds a 1-by-1 block at +1, which only a refused compression keeps,
    one Schur factorization of all of C, with Z its Schur vectors, gives the
    blocks instead, read by the same rule. The greedy runs on a (K, 2, 2)
    stack of squares with each 1-by-1 block t padded to diag(t, 1).
    A step on a block reflects its square by its bottom eigenvector a and
    lifts a to the n-dimensional factor (QZ)[:, block] a. A step touches only
    its block, so the steps are taken in three rounds: round r reflects every
    square for the r-th time, with one stacked eigensolve and one stacked
    reflection, and appends to one list per field, indexed [round][block], the
    bottom eigenvalue and eigenvector, the squared norm of I minus the square,
    its diagonal sum and its count of singular values of W - I above the rank
    floor. The plan, fixed at entry, holds two steps per rotation block and
    one per -1 block in the order of always taking the block with the smallest
    bottom eigenvalue, ties going to the first block. A scalar loop walks it
    until the residual is within eps, the budget is spent or the plan ends, so
    a cleared block is never stepped, and builds each trace row from the
    recorded sums: the residual is sqrt(sum of square norms + rest^2), because
    the product is orthogonal and ||product - V||_F = ||I - W||_F. rest joins
    the part of V - I outside the compression with the norm off the blocks,
    which no reflection of a block's rows changes. trace = tr V plus the
    change in the diagonal sums, and dim_e1 = n - the counts. The factors are
    lifted with one product QZ A. Within a rotation plane, or a repeated -1,
    any basis serves, so the factors depend on the blocks' basis; their count
    and residual curve do not.
    """
    M = check_orthogonal(V)
    n = M.shape[0]
    if max_m is None:
        max_m = n
    if max_m < 0:
        raise ValueError("max_m must be nonnegative")
    if not eps > 0.0:  # NaN fails too
        raise ValueError("eps must be positive")

    lift, squares, columns, pairs, rest = _greedy_blocks(M, eps)
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
    dropped_trace = float(np.trace(M)) - math.fsum(diagonals[0])
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
    embedded = np.zeros((len(rows), lift.shape[1]))
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
    floor RADICAND_NOISE * n * eps that _moving_rank and _residual_bounds
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
