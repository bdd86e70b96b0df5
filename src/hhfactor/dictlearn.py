"""Exact recovery of a single-reflection dictionary from binary-coded data.

Data columns follow y = (I - 2uu^T) x with x a 0/1 vector. Reflections
preserve norms, so ||y||^2 must equal the popcount of x; for a guessed x with
matching norm the direction is pinned down (up to sign) as (x - y)/||x - y||.
Brute-force enumeration of one column's guesses gives a finite candidate set;
the second column decodes through each candidate to its single possible
guess, which picks u out of the set. The enumeration is exponential by design
and refuses instances above a size cap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Reflector, _canonical_rows, make_reflector

NORM_MATCH_ATOL = 1e-6   # |popcount - ||y||^2| above this rules a guess out
SOLUTION_ATOL = 1e-9     # re-substitution residual allowed for a candidate
FIXED_ATOL = 1e-9        # ||x - y|| at or below this means the column is fixed
MATCH_ATOL = 1e-8        # +-equivalence threshold when matching candidates
DECODE_ATOL = 1e-6       # how far decoded codes may sit from {0, 1}
ENUMERATION_CAP = 24     # brute force is exponential; refuse larger instances

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
    exists. Candidates are re-substituted before being accepted; NaN or inf
    in either vector raises ValueError.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
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


def _support_blocks(n: int, ones: int):
    supports = itertools.combinations(range(n), ones)
    while True:
        block = list(itertools.islice(supports, _CHUNK))
        if not block:
            return
        yield np.array(block, dtype=np.intp)


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


def enumerate_candidates(y, cap: int = ENUMERATION_CAP) -> CandidateSet:
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
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        raise ValueError("column has non-finite entries")
    n = y.shape[0]
    if n > cap:
        raise InstanceTooLargeError(
            f"instance too large: n = {n} exceeds enumeration cap {cap}"
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
    for supports in _support_blocks(n, ones):
        X = np.zeros((supports.shape[0], n))
        X[np.arange(supports.shape[0])[:, None], supports] = 1.0
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
    rounded = np.rint(y)
    if np.max(np.abs(y - rounded)) > DECODE_ATOL:
        return False
    return bool(rounded.min() >= 0.0 and rounded.max() <= 1.0)


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


def recover(Y, cap: int = ENUMERATION_CAP) -> RecoveryResult:
    """Recover the reflection dictionary and binary codes from Y = (I-2uu^T) X.

    Enumerates the candidate set of the first informative column and decodes
    the second one through each candidate (x = H y, H being an involution);
    under the binary model exactly one candidate decodes it to a binary
    solution, and that reflection then decodes every column of X directly.

    Degenerate columns carry no usable finite candidates and are skipped when
    picking the two columns: zero columns, columns that are themselves binary
    (the dictionary may fix them), and duplicates of the first column, which
    are still enumerated and decide only when no distinct column exists.

    Raises:
        ValueError: fewer than two data columns, or non-finite entries.
        InstanceTooLargeError: n exceeds the enumeration cap.
        NoCommonCandidateError: no reflection is consistent with the chosen
            columns, or decoding does not yield binary codes.
        AmbiguousRecoveryError: several reflections remain (e.g. all columns
            identical) or too few informative columns exist to decide.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2:
        raise ValueError("Y must be a matrix")
    n, p = Y.shape
    if p < 2:
        raise ValueError("recovery needs at least two data columns")
    if not np.isfinite(Y).all():
        raise ValueError("data has non-finite entries")
    if n > cap:
        raise InstanceTooLargeError(
            f"instance too large: n = {n} exceeds enumeration cap {cap}"
        )

    index_a = index_b = duplicate = None
    for j in range(p):
        column = Y[:, j]
        if np.linalg.norm(column) <= FIXED_ATOL:
            continue  # zero column: satisfied by every direction
        if _is_binary(column):
            continue  # possibly fixed by the dictionary; finite candidates mislead
        if index_a is not None and not np.allclose(column, Y[:, index_a], atol=1e-12):
            index_b = j
            break
        # a duplicate is still enumerated: a near-duplicate's norm may rule out all guesses
        candidate_set = enumerate_candidates(column, cap=cap)
        if len(candidate_set) == 0:
            raise NoCommonCandidateError(
                f"no common candidate: column {j} admits no reflection under binary codes"
            )
        if index_a is None:
            index_a, set_a = j, candidate_set
        elif duplicate is None:
            duplicate = j
    index_b = duplicate if index_b is None else index_b
    if index_b is None:
        raise AmbiguousRecoveryError(
            "ambiguous: fewer than two informative columns in the data"
        )

    matches = np.flatnonzero(_match_mask(set_a.directions, Y[:, index_b]))
    if len(matches) == 0:
        raise NoCommonCandidateError(
            f"no common candidate between columns {index_a} and {index_b}"
        )
    if len(matches) > 1:
        raise AmbiguousRecoveryError(
            f"ambiguous: columns {index_a} and {index_b} share {len(matches)} candidates"
        )
    u = Reflector(set_a.directions[matches[0]])

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
