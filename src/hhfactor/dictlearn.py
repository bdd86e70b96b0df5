"""Exact recovery of a single-reflection dictionary from binary-coded data.

Data columns follow y = (I - 2uu^T) x with x a 0/1 vector. Reflections
preserve norms, so ||y||^2 must equal the popcount of x; for a guessed x with
matching norm the direction is pinned down (up to sign) as (x - y)/||x - y||.
Every guess of a column's binomial slice may be valid, so one column alone
has exponentially many candidates; enumerate_candidates lists them and
refuses instances above a size cap. Recovery from two columns is polynomial
and never enumerates: both share u, so x_a - y_a = c (x_b - y_b) for one
scalar c. One pivot coordinate of y_b leaves at most four values of c; each
fixes the guess for y_a, or, for |c| near 1, leaves at most four guesses to
test: the two farthest from y_a, which decide at c = +-1 exactly, and the
best fit to c with its likeliest neighbour, which decide off +-1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Reflector, _canonical_rows, _real_array, make_reflector

NORM_MATCH_ATOL = 1e-6   # |popcount - ||y||^2| above this rules a guess out
SOLUTION_ATOL = 1e-9     # re-substitution residual allowed for a candidate
FIXED_ATOL = 1e-9        # ||x - y|| at or below this means the column is fixed
MATCH_ATOL = 1e-8        # +-equivalence threshold when matching candidates
DECODE_ATOL = 1e-6       # how far decoded codes may sit from {0, 1}
ENUMERATION_CAP = 24     # brute force is exponential; refuse larger instances
PIVOT_RTOL = 1e-5        # pivot filter per coordinate, looser than the exact tests

_CHUNK = 1 << 15         # supports solved per vectorized block


class RecoveryError(ValueError):
    """Base class for recovery failures that are data outcomes, not bugs."""


class AmbiguousRecoveryError(RecoveryError):
    """More than one reflection dictionary is consistent with the data."""


class NoCommonCandidateError(RecoveryError):
    """No single reflection with binary codes explains the data."""


class InstanceTooLargeError(RecoveryError):
    """Instance exceeds the brute-force enumeration cap."""


class _SubspaceMarker:
    """Sentinel: the guess equals the column, so any direction orthogonal to it works."""

    __slots__ = ()

    def __repr__(self):
        return "SUBSPACE_MARKER"


SUBSPACE_MARKER = _SubspaceMarker()


def solve_column(y, x) -> Reflector | _SubspaceMarker | None:
    """Solve (I - 2uu^T) x = y for a unit direction u.

    Returns the canonical Reflector when the unique-up-to-sign solution
    exists, SUBSPACE_MARKER when x equals y (the column is fixed and only
    constrains u to be orthogonal to it), and None when no unit-norm solution
    exists. Candidates are re-substituted before being accepted; complex
    entries, NaN or inf in either vector raise ValueError.
    """
    y = _real_array(y, "column")
    x = _real_array(x, "guess")
    if x.shape != y.shape:
        raise ValueError("dimension mismatch between column and guess")
    if not (np.isfinite(y).all() and np.isfinite(x).all()):
        raise ValueError("column or guess has non-finite entries")
    difference = x - y
    if np.linalg.norm(difference) <= FIXED_ATOL * max(1.0, np.linalg.norm(x)):
        return SUBSPACE_MARKER
    if abs(x @ x - y @ y) > NORM_MATCH_ATOL:
        return None  # reflections preserve norms
    reflector = make_reflector(difference)
    u = reflector.u
    if np.linalg.norm(x - 2.0 * (u @ x) * u - y) > SOLUTION_ATOL:
        return None
    return reflector


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Reflector candidates induced by one data column.

    directions holds the canonical unit direction of each candidate as a row
    and codes (np.int8, 0/1) the binary guess behind it; both are read-only
    with shape (k, n), rows in lexicographic order of the guess's support.
    candidates and guesses are the same rows as Reflector and int tuples,
    built on first access. note explains empty sets (zero column, norm not
    near an integer).
    """

    directions: np.ndarray
    codes: np.ndarray
    note: str = ""

    def __post_init__(self):
        self.directions.setflags(write=False)
        self.codes.setflags(write=False)

    def __len__(self) -> int:
        return self.directions.shape[0]

    @cached_property
    def candidates(self) -> tuple[Reflector, ...]:
        return tuple(Reflector(u) for u in self.directions)

    @cached_property
    def guesses(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.codes.tolist()))


def _solve_rows(X: np.ndarray, y: np.ndarray, ones: int):
    """solve_column on each row of X other than y itself: (solving rows, their directions)."""
    D = X - y
    distances = np.linalg.norm(D, axis=1)
    fixed = distances <= FIXED_ATOL * max(1.0, np.sqrt(float(ones)))
    usable = np.flatnonzero(~fixed)
    U = D[usable] / distances[usable, None]
    Xu = X[usable]
    coefficients = np.einsum("ij,ij->i", U, Xu)
    residuals = np.linalg.norm(Xu - 2.0 * coefficients[:, None] * U - y, axis=1)
    solved = residuals <= SOLUTION_ATOL
    return usable[solved], _canonical_rows(U[solved])


def enumerate_candidates(y) -> CandidateSet:
    """All reflector candidates for one column under binary codes.

    Only guesses whose popcount matches round(||y||^2) can solve the column,
    which prunes the 2^n guesses down to one binomial slice; supports are
    visited in lexicographic order and solved in vectorized blocks (the
    scalar reference path is solve_column). No two candidates describe the
    same reflection: H_u is an involution, so a guess solving y along u lies
    within SOLUTION_ATOL of H_u y, and two guesses whose directions agree up
    to sign within MATCH_ATOL lie within about
    4 * MATCH_ATOL * ||y|| + 2 * SOLUTION_ATOL of each other, far below the
    distance 1 between distinct binary vectors.
    """
    y = _real_array(y, "column")
    if not np.isfinite(y).all():
        raise ValueError("column has non-finite entries")
    n = y.shape[0]
    if n > ENUMERATION_CAP:
        raise InstanceTooLargeError(
            f"instance too large: n = {n} exceeds enumeration cap {ENUMERATION_CAP}"
        )
    no_rows = (np.empty((0, n)), np.empty((0, n), dtype=np.int8))
    norm_sq = float(y @ y)
    ones = int(round(norm_sq))
    if ones < 0 or ones > n or abs(norm_sq - ones) > NORM_MATCH_ATOL:
        return CandidateSet(*no_rows, note="column norm inconsistent with binary codes")
    if ones == 0:
        return CandidateSet(*no_rows, note="zero column")

    direction_blocks: list[np.ndarray] = []
    code_blocks: list[np.ndarray] = []
    supports = itertools.combinations(range(n), ones)
    while block := list(itertools.islice(supports, _CHUNK)):
        X = np.zeros((len(block), n))
        X[np.arange(len(block))[:, None], np.array(block, dtype=np.intp)] = 1.0
        solved, directions = _solve_rows(X, y, ones)
        direction_blocks.append(directions)
        code_blocks.append(X[solved].astype(np.int8))
    return CandidateSet(np.vstack(direction_blocks), np.vstack(code_blocks))


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Recovered reflection, binary codes, and reconstruction residual."""

    u: Reflector
    X: np.ndarray
    residual: float


def _is_binary(y: np.ndarray) -> bool:
    """Every entry within DECODE_ATOL of 0 or 1; true for an empty array."""
    rounded = np.rint(y)
    near = np.all(np.abs(y - rounded) <= DECODE_ATOL)
    return bool(near and np.all((rounded >= 0.0) & (rounded <= 1.0)))


def _match_mask(U: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per row u of U: does the decoded guess rint(H_u y) solve y along +-u.

    Any guess solving y along a direction within MATCH_ATOL of u lies within
    rounding distance of H_u y, so rint(H_u y) is the only guess to test.
    """
    norm_sq = float(y @ y)
    ones = round(norm_sq)
    guesses = np.rint(y - 2.0 * (U @ y)[:, None] * U)
    plausible = np.flatnonzero(
        ((guesses == 0.0) | (guesses == 1.0)).all(axis=1)
        & (guesses.sum(axis=1) == ones)
        & (0 < ones and abs(norm_sq - ones) <= NORM_MATCH_ATOL)
    )
    solved, directions = _solve_rows(guesses[plausible], y, ones)
    rows = plausible[solved]
    signs = np.sign(np.einsum("ij,ij->i", directions, U[rows]))[:, None]
    mask = np.zeros(U.shape[0], dtype=bool)
    mask[rows[np.linalg.norm(directions - signs * U[rows], axis=1) <= MATCH_ATOL]] = True
    return mask


def _slice_is_empty(y: np.ndarray) -> bool:
    """Whether enumerate_candidates(y) is empty, in O(n log n).

    Reflecting a guess x along x - y re-substitutes with residual exactly
    | ||y||^2 - ||x||^2 | / ||x - y||, smallest for the guess of the slice
    farthest from y, whose ones sit on the smallest entries of y. So that
    guess alone decides. y must not be binary: then no guess is fixed.
    """
    n = y.shape[0]
    norm_sq = float(y @ y)
    ones = round(norm_sq)
    if not 0 < ones <= n or abs(norm_sq - ones) > NORM_MATCH_ATOL:
        return True
    farthest = np.zeros((1, n))
    farthest[0, np.argsort(y, kind="stable")[:ones]] = 1.0
    return len(_solve_rows(farthest, y, ones)[0]) == 0


def _likeliest_neighbour(x: np.ndarray, y: np.ndarray, free: np.ndarray) -> np.ndarray:
    """The guess some m swaps from x on the free coordinates that column b is likeliest to match.

    If x is the true code of a model instance with c = +-1 + eta, a guess
    x + d also solves y, and the other column then matches it along a
    direction that misses by about
    |eta| ||w|| ||d - (d.w / ||w||^2) w|| / ||w + d||^2, w = x - y.
    That depends on d only through m and d.w, and for fixed m it is largest
    at an interior value of d.w, so the smallest miss lies on one of two
    swap paths: x's largest free ones for the smallest free zeros, or the
    smallest for the largest.
    """
    free = free[np.argsort(y[free], kind="stable")]
    ones, zeros = free[x[free] == 1.0], free[x[free] == 0.0]
    m = np.arange(1.0, min(len(ones), len(zeros)) + 1.0)
    if len(m) == 0:
        return x
    paths = [(ones[::-1][: len(m)], zeros[: len(m)]), (ones[: len(m)], zeros[::-1][: len(m)])]
    w = x - y
    norm_sq = float(w @ w)
    dots = np.array([np.cumsum(y[out] - y[into]) - m for out, into in paths])  # d.w
    misses = (2.0 * m - dots**2 / norm_sq) / (norm_sq + 2.0 * dots + 2.0 * m) ** 2
    path, swaps = np.unravel_index(np.argmin(misses), misses.shape)
    out, into = paths[path]
    neighbour = x.copy()
    neighbour[out[: swaps + 1]] = 0.0
    neighbour[into[: swaps + 1]] = 1.0
    return neighbour


def _pivot_matches(y_a: np.ndarray, y_b: np.ndarray, pivot: int) -> np.ndarray:
    """Distinct directions that solve y_a and match y_b, as rows; two or more mean ambiguity.

    A shared u gives x_a - y_a = c (x_b - y_b), and y_b[pivot] is not binary,
    so the four binary pairs (s, t) at the pivot give the values of c. For
    each, coordinate k admits every s for which some t gives
    |(s - y_a[k]) - c (t - y_b[k])| <= PIVOT_RTOL (1 + |c|). A coordinate
    admitting both bits (only for |c| near 1) is free; guesses set free ones
    up to the popcount round(||y_a||^2), and at most four of them are tried:

    - At c = +-1 exactly, x_b - y_b = +-(x - y_a) for every guess x, so b's
      direction always matches and both residuals, | ||y||^2 - popcount | /
      ||x - y_a|| (see _slice_is_empty), shrink as x moves away from y_a:
      the farthest guess (free ones on y_a's smallest entries) and the
      farthest but one decide.
    - At c = +-1 + eta, eta above roundoff, a wrong free bit misfits c by
      about |eta| and a true one not at all, so the best fit is the true
      code, and if another guess matches, the one _likeliest_neighbour
      picks does.

    Noisy data fit neither exactly; the tests compare the same four guesses
    with enumeration there. All go through one _solve_rows on y_a and one
    _match_mask on y_b, the tests enumeration applies, so every match
    reported is one enumeration finds too.
    """
    n = y_a.shape[0]
    ones = round(float(y_a @ y_a))
    binary = np.array([[0.0], [1.0]])
    offsets_a, offsets_b = binary - y_a, binary - y_b  # row s: s - y[k]
    guesses = {}
    for c in dict.fromkeys((offsets_a[:, pivot, None] / offsets_b[:, pivot]).ravel().tolist()):
        misfit = np.abs(offsets_a[:, None] - c * offsets_b[None]).min(axis=1)  # (s, k)
        admitted = misfit <= PIVOT_RTOL * (1.0 + abs(c))
        if not admitted.any(axis=0).all():
            continue
        free = np.flatnonzero(admitted.all(axis=0))
        base = (admitted[1] & ~admitted[0]).astype(float)  # fixed ones
        need = ones - int(base.sum())
        if not 0 <= need <= len(free):
            continue
        order = free[np.argsort(y_a[free], kind="stable")]
        farthest, fitting = base.copy(), base.copy()
        farthest[order[:need]] = 1.0
        fitting[free[np.lexsort((y_a[free], misfit[1, free] - misfit[0, free]))][:need]] = 1.0
        second = farthest.copy()
        if 0 < need < len(free):
            second[order[[need - 1, need]]] = (0.0, 1.0)
        for guess in (farthest, second, fitting, _likeliest_neighbour(fitting, y_a, free)):
            guesses[guess.tobytes()] = guess
    X = np.array(list(guesses.values())).reshape(-1, n)
    _, directions = _solve_rows(X, y_a, ones)
    return directions[_match_mask(directions, y_b)]  # one row per distinct guess


def recover(Y) -> RecoveryResult:
    """Recover the reflection dictionary and binary codes from Y = (I-2uu^T) X.

    Runs in polynomial time and never enumerates. Two informative columns a
    and b are chosen; a pivot coordinate of b gives at most four values of c
    in x_a - y_a = c (x_b - y_b), and for each at most four guesses for a
    decide (see _pivot_matches): a guess must solve a and decode b to a
    binary solution along the same direction (x = H y, H being an
    involution). Under the binary model exactly one direction passes, and
    that reflection then decodes every column of X directly.

    Degenerate columns carry no usable finite candidates and are skipped when
    picking the two columns: zero columns, columns that are themselves binary
    (the dictionary may fix them), and duplicates of the first column, which
    are still checked for candidates and decide only when no distinct column
    exists.

    Raises:
        ValueError: fewer than two data columns, or complex or non-finite entries.
        NoCommonCandidateError: no reflection is consistent with the chosen
            columns, or decoding does not yield binary codes.
        AmbiguousRecoveryError: several reflections remain (e.g. all columns
            identical) or too few informative columns exist to decide.
    """
    Y = _real_array(Y, "data")
    if Y.ndim != 2:
        raise ValueError("Y must be a matrix")
    p = Y.shape[1]
    if p < 2:
        raise ValueError("recovery needs at least two data columns")
    if not np.isfinite(Y).all():
        raise ValueError("data has non-finite entries")

    index_a = index_b = duplicate = None
    for j in range(p):
        column = Y[:, j]
        if _is_binary(column):
            continue  # zero, or possibly fixed by the dictionary: finite candidates mislead
        if index_a is not None and not np.all(np.abs(column - y_a) <= duplicate_atol):
            index_b = j
            break
        # a duplicate is still checked: a near-duplicate's norm may rule out all guesses
        if _slice_is_empty(column):
            raise NoCommonCandidateError(
                f"no common candidate: column {j} admits no reflection under binary codes"
            )
        if index_a is None:
            index_a, y_a = j, column
            duplicate_atol = 1e-12 + 1e-5 * np.abs(y_a)  # np.allclose's test
        elif duplicate is None:
            duplicate = j
    index_b = duplicate if index_b is None else index_b
    if index_b is None:
        raise AmbiguousRecoveryError(
            "ambiguous: fewer than two informative columns in the data"
        )

    y_b = Y[:, index_b]
    pivot = int(np.argmax(np.minimum(np.abs(y_b), np.abs(y_b - 1.0))))
    directions = _pivot_matches(y_a, y_b, pivot)
    if len(directions) == 0:
        raise NoCommonCandidateError(
            f"no common candidate between columns {index_a} and {index_b} "
            f"(pivot coordinate {pivot})"
        )
    if len(directions) > 1:
        raise AmbiguousRecoveryError(
            f"ambiguous: columns {index_a} and {index_b} share at least 2 candidates"
        )
    u = Reflector(directions[0])

    decoded = Y - 2.0 * np.outer(u.u, u.u @ Y)  # H is its own inverse
    if not _is_binary(decoded):
        raise NoCommonCandidateError(
            "codes decoded from the recovered reflection are not binary"
        )
    X = np.rint(decoded)
    residual = float(np.linalg.norm(X - 2.0 * np.outer(u.u, u.u @ X) - Y, "fro"))
    return RecoveryResult(u, X.astype(int), residual)


def non_uniqueness_example(p: int) -> tuple[Reflector, np.ndarray, Reflector, np.ndarray]:
    """Two distinct (reflection, codes) pairs producing identical data.

    With real-valued codes the factorization Y = HX is never unique: fix two
    different reflections and solve the per-column consistency equations,
    which here reduces to X1 = H1 H2 X2. Returns (u1, X1, u2, X2) with
    u1 != +-u2 and identical products to machine precision. The first column
    of X2 is (1, 0); later columns are distinct by construction, and a zero
    column in X2 would map to a zero column in X1.
    """
    if p < 1:
        raise ValueError("p must be positive")
    u1 = make_reflector(np.array([np.sqrt(1.0 / 3.0), np.sqrt(2.0 / 3.0)]))
    u2 = make_reflector(np.array([1.0, 1.0]))
    H1 = np.eye(2) - 2.0 * np.outer(u1.u, u1.u)
    H2 = np.eye(2) - 2.0 * np.outer(u2.u, u2.u)
    X2 = np.vstack([1.0 + np.arange(p), np.arange(p, dtype=float)])
    X1 = H1 @ (H2 @ X2)
    return u1, X1, u2, X2
