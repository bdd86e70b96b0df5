import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hhfactor.dictlearn as dictlearn
from hhfactor import (
    AmbiguousRecoveryError,
    InstanceTooLargeError,
    NoCommonCandidateError,
    SUBSPACE_MARKER,
    RecoveryResult,
    Reflector,
    enumerate_candidates,
    make_reflector,
    non_uniqueness_example,
    recover,
    same_reflector,
    solve_column,
)
from hhfactor.dictlearn import DECODE_ATOL, FIXED_ATOL, MATCH_ATOL, _is_binary, _match_mask

U_TRUE = np.array([2 / 3, 1 / 3, 2 / 3])


def reflection(u):
    u = np.asarray(u, dtype=float)
    return np.eye(u.shape[0]) - 2.0 * np.outer(u, u)


@pytest.fixture
def worked_Y():
    """Columns of reflection(U_TRUE) times the binary codes (1,1,0) and (0,0,1)."""
    X = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return reflection(U_TRUE) @ X


def all_binary_vectors(n):
    for bits in itertools.product((0.0, 1.0), repeat=n):
        yield np.array(bits)


def unpruned_candidates(y):
    """Oracle: scan all 2^n guesses with no popcount pruning, dedupe by sign."""
    found = []
    for x in all_binary_vectors(len(y)):
        solved = solve_column(y, x)
        if isinstance(solved, Reflector):
            if not any(same_reflector(solved, c) for c in found):
                found.append(solved)
    return found


def random_instance(rng, n, p):
    """Ground-truth (u, X, Y) with distinct nonzero columns and no fixed columns."""
    while True:
        u = make_reflector(rng.standard_normal(n))
        H = reflection(u.u)
        X = rng.integers(0, 2, size=(n, p)).astype(float)
        columns = [tuple(X[:, j]) for j in range(p)]
        if len(set(columns)) != p:
            continue
        if any(not col.any() for col in X.T):
            continue
        if any(abs(u.u @ X[:, j]) < 1e-6 for j in range(p)):
            continue  # reflection would (nearly) fix the column
        return u, X, H @ X


# --------------------------------------------------------------- solve_column


def test_solve_column_worked_examples(worked_Y):
    first = solve_column(worked_Y[:, 0], np.array([1.0, 1.0, 0.0]))
    np.testing.assert_allclose(first.u, U_TRUE, atol=1e-12)
    second = solve_column(worked_Y[:, 1], np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(second.u, U_TRUE, atol=1e-12)


def test_solve_column_rejects_norm_mismatch(worked_Y):
    # popcount 3 cannot produce a column with squared norm 1
    assert solve_column(worked_Y[:, 1], np.ones(3)) is None


def test_solve_column_detects_fixed_column():
    x = np.array([1.0, 1.0, 0.0, 0.0])
    assert solve_column(x, x) is SUBSPACE_MARKER


def test_solve_column_shape_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        solve_column(np.ones(3), np.ones(4))


@pytest.mark.parametrize(
    "y, x",
    [
        ([np.inf, 0.0, 0.0], [1.0, 0.0, 0.0]),
        ([1.0, 0.0, 0.0], [np.inf, 0.0, 0.0]),
        ([np.nan, 0.0, 0.0], [1.0, 0.0, 0.0]),
    ],
)
def test_solve_column_rejects_non_finite(y, x):
    with pytest.raises(ValueError, match="non-finite entries"):
        solve_column(np.array(y), np.array(x))


def test_solve_column_solution_maps_guess_to_column():
    rng = np.random.default_rng(30)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        u, X, Y = random_instance(rng, n, 1)
        solved = solve_column(Y[:, 0], X[:, 0])
        assert isinstance(solved, Reflector)
        assert same_reflector(solved, u)


@settings(deadline=None, max_examples=60)
@given(st.integers(3, 12), st.integers(0, 2**32 - 1))
def test_solve_column_roundtrip_randomized(n, seed):
    rng = np.random.default_rng(seed)
    u = make_reflector(rng.standard_normal(n))
    x = rng.integers(0, 2, size=n).astype(float)
    y = reflection(u.u) @ x
    solved = solve_column(y, x)
    if solved is SUBSPACE_MARKER:
        assert abs(u.u @ x) < 1e-6  # only fixed columns produce the marker
    else:
        assert isinstance(solved, Reflector)
        np.testing.assert_allclose(reflection(solved.u) @ x, y, atol=1e-9)


# -------------------------------------------------------- enumerate_candidates


def test_enumerate_first_worked_column(worked_Y):
    candidate_set = enumerate_candidates(worked_Y[:, 0])
    assert len(candidate_set) == 3
    assert set(candidate_set.guesses) == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}
    expected = {
        (0, 1, 1): np.array([1.0, 2.0, 7.0]) / np.sqrt(54.0),
        (1, 0, 1): np.array([4.0, -1.0, 7.0]) / np.sqrt(66.0),
        (1, 1, 0): U_TRUE,
    }
    for guess, candidate in zip(candidate_set.guesses, candidate_set.candidates):
        np.testing.assert_allclose(candidate.u, expected[guess], atol=1e-12)


def test_enumerate_candidates_are_sound(worked_Y):
    for column in worked_Y.T:
        candidate_set = enumerate_candidates(column)
        for candidate, guess in zip(candidate_set.candidates, candidate_set.guesses):
            x = np.array(guess, dtype=float)
            assert np.linalg.norm(reflection(candidate.u) @ x - column) <= 1e-9


def test_enumerate_zero_column():
    candidate_set = enumerate_candidates(np.zeros(5))
    assert len(candidate_set) == 0
    assert candidate_set.note == "zero column"


def test_enumerate_norm_inconsistent_column():
    y = np.full(4, 0.61237243569579447)  # squared norm 1.5
    candidate_set = enumerate_candidates(y)
    assert len(candidate_set) == 0
    assert "inconsistent" in candidate_set.note


def test_enumerate_refuses_large_instances():
    with pytest.raises(InstanceTooLargeError, match="too large"):
        enumerate_candidates(np.zeros(25))


def test_pruned_enumeration_equals_unpruned_oracle():
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(3, 11))
        _, _, Y = random_instance(rng, n, 1)
        pruned = enumerate_candidates(Y[:, 0]).candidates
        oracle = unpruned_candidates(Y[:, 0])
        assert len(pruned) == len(oracle)
        for candidate in oracle:
            assert any(same_reflector(candidate, c) for c in pruned)


def test_enumeration_is_deterministic(worked_Y):
    first = enumerate_candidates(worked_Y[:, 0])
    second = enumerate_candidates(worked_Y[:, 0].copy())
    assert first.guesses == second.guesses
    for a, b in zip(first.candidates, second.candidates):
        np.testing.assert_array_equal(a.u, b.u)


# --------------------------------------------------------------------- recover


def test_recover_worked_example(worked_Y):
    result = recover(worked_Y)
    np.testing.assert_allclose(result.u.u, U_TRUE, atol=1e-12)
    np.testing.assert_array_equal(result.X, [[1, 0], [1, 0], [0, 1]])
    assert result.residual <= 1e-8 * np.sqrt(worked_Y.size)


def test_recover_roundtrip_seeded_instances():
    rng = np.random.default_rng(32)
    for _ in range(30):
        n = int(rng.integers(4, 13))
        p = int(rng.integers(2, 6))
        u, X, Y = random_instance(rng, n, p)
        result = recover(Y)
        assert same_reflector(result.u, u)
        np.testing.assert_array_equal(result.X, X.astype(int))


def test_recover_identical_columns_is_ambiguous():
    n = 6
    u = make_reflector(np.arange(1.0, n + 1.0))
    x = np.zeros(n)
    x[0] = 1.0
    Y = np.column_stack([reflection(u.u) @ x] * 2)
    with pytest.raises(AmbiguousRecoveryError, match="ambiguous"):
        recover(Y)


def test_recover_mismatched_columns_have_no_common_candidate():
    rng = np.random.default_rng(33)
    n = 8
    u_a, X_a, Y_a = random_instance(rng, n, 1)
    while True:
        u_b, X_b, Y_b = random_instance(rng, n, 1)
        if not same_reflector(u_a, u_b):
            break
    with pytest.raises(NoCommonCandidateError, match="no common candidate"):
        recover(np.column_stack([Y_a, Y_b]))


def test_recover_requires_two_columns():
    with pytest.raises(ValueError, match="two data columns"):
        recover(np.ones((4, 1)))


def test_recover_requires_a_matrix():
    with pytest.raises(ValueError, match="Y must be a matrix"):
        recover(np.ones(3))


def test_recover_without_rows_is_ambiguous():
    # empty columns are binary, so none is informative
    with pytest.raises(AmbiguousRecoveryError, match="fewer than two informative"):
        recover(np.empty((0, 3)))


def pivot_inconclusive_pair(rng, n, ones):
    """Two columns 1e-6 apart with equal norms: every coordinate admits both bits.

    The pivot's c is then about 1, so the whole binomial slice passes the
    pivot filter, while no guess solves both columns along one direction.
    """
    u = make_reflector(rng.standard_normal(n)).u
    x = np.zeros(n)
    x[:ones] = 1.0
    y = x - 2.0 * (u @ x) * u
    w = rng.standard_normal(n)
    w -= (w @ y) / (y @ y) * y
    return np.column_stack([y, y + 1e-6 * w / np.linalg.norm(w)])


def test_recover_decides_pivot_inconclusive_pairs_beyond_enumeration():
    # the pivot frees every coordinate, C(30, 6) guesses, and at most four
    # of them decide where enumeration refuses n = 30
    Y = pivot_inconclusive_pair(np.random.default_rng(39), 30, 6)
    with pytest.raises(NoCommonCandidateError, match="no common candidate"):
        recover(Y)
    # the same shape within the enumeration cap agrees with enumeration
    Y = pivot_inconclusive_pair(np.random.default_rng(39), 20, 6)
    with pytest.raises(NoCommonCandidateError, match="no common candidate"):
        recover(Y)
    with pytest.raises(NoCommonCandidateError, match="no common candidate"):
        enumeration_recover(Y)


def test_recover_skips_degenerate_columns():
    rng = np.random.default_rng(34)
    n = 7
    u, X, Y = random_instance(rng, n, 2)
    fixed = rng.standard_normal(n)
    fixed -= (u.u @ fixed) * u.u          # orthogonal to u, so H fixes it
    fixed = (np.abs(fixed) > 0.5).astype(float)
    data = np.column_stack([np.zeros(n), Y[:, 0], fixed, Y[:, 1]])
    # the zero column and the binary column carry no finite information
    result = recover(np.column_stack([np.zeros(n), Y]))
    assert same_reflector(result.u, u)
    assert np.array_equal(result.X[:, 1:], X.astype(int))


def test_recover_two_columns_share_exactly_one_candidate():
    rng = np.random.default_rng(35)
    for _ in range(25):
        n = int(rng.integers(4, 12))
        u, X, Y = random_instance(rng, n, 2)
        sets = [enumerate_candidates(Y[:, j]).candidates for j in range(2)]
        common = [
            a for a in sets[0] if any(same_reflector(a, b) for b in sets[1])
        ]
        assert len(common) == 1
        assert same_reflector(common[0], u)


@settings(deadline=None, max_examples=40)
@given(st.integers(4, 10), st.integers(0, 2**32 - 1))
def test_recover_roundtrip_randomized(n, seed):
    rng = np.random.default_rng(seed)
    u, X, Y = random_instance(rng, n, 2)
    result = recover(Y)
    assert same_reflector(result.u, u)
    np.testing.assert_array_equal(result.X, X.astype(int))


def test_recover_rejects_non_finite_data(worked_Y):
    for bad in (np.nan, np.inf):
        Y = worked_Y.copy()
        Y[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            recover(Y)


def test_enumerate_rejects_non_finite_column():
    with pytest.raises(ValueError, match="non-finite"):
        enumerate_candidates(np.array([0.5, np.nan, 0.5]))


# ------------------------------------------- recover against the two-set path


def two_set_recover(Y):
    """Oracle: enumerate both chosen columns and pair their candidate sets.

    Column selection skips zero, binary and duplicate columns, enumerating
    every column it looks at; the candidates common to both sets (paired with
    same_reflector) decide, and a dense reflection decodes X.
    """
    Y = np.asarray(Y, dtype=float)
    chosen, duplicates = [], []
    for j in range(Y.shape[1]):
        column = Y[:, j]
        if np.linalg.norm(column) <= FIXED_ATOL:
            continue
        rounded = np.rint(column)
        if np.max(np.abs(column - rounded)) <= DECODE_ATOL and set(rounded) <= {0.0, 1.0}:
            continue
        candidate_set = enumerate_candidates(column)
        if len(candidate_set) == 0:
            raise NoCommonCandidateError(f"column {j} admits no reflection")
        if any(np.allclose(column, Y[:, i], atol=1e-12) for i, _ in chosen):
            duplicates.append((j, candidate_set))
            continue
        chosen.append((j, candidate_set))
        if len(chosen) == 2:
            break
    if len(chosen) < 2:
        chosen.extend(duplicates)
    if len(chosen) < 2:
        raise AmbiguousRecoveryError("fewer than two informative columns")
    (_, set_a), (_, set_b) = chosen[:2]
    common = [
        a for a in set_a.candidates
        if any(same_reflector(a, b, MATCH_ATOL) for b in set_b.candidates)
    ]
    if not common:
        raise NoCommonCandidateError("no common candidate")
    if len(common) > 1:
        raise AmbiguousRecoveryError(f"{len(common)} common candidates")
    u = common[0]
    H = reflection(u.u)
    decoded = H @ Y
    X = np.rint(decoded)
    if np.max(np.abs(decoded - X)) > DECODE_ATOL or X.min() < 0.0 or X.max() > 1.0:
        raise NoCommonCandidateError("decoded codes are not binary")
    return RecoveryResult(u, X.astype(int), float(np.linalg.norm(H @ X - Y, "fro")))


def recovery_outcome(method, Y):
    """(verdict, u, X) with verdict the class name of the raised error or "unique"."""
    try:
        result = method(Y)
    except (AmbiguousRecoveryError, NoCommonCandidateError) as exc:
        return type(exc).__name__, None, None
    return "unique", result.u.u, result.X


def with_ratio(direction, w, X, c):
    """direction plus a multiple of w for which u.x_a = c u.x_b, x_a and x_b X's first columns."""
    x_a, x_b = X[:, 0], X[:, 1]
    return direction + (c * (direction @ x_b) - direction @ x_a) / (w @ x_a - c * (w @ x_b)) * w


def sweep_instance(rng, kind, n):
    """Data of one kind for the oracle sweep, built from a random u and binary X."""
    u = make_reflector(rng.standard_normal(n))
    if kind == "sparse-u":
        direction = np.zeros(n)
        direction[rng.choice(n, size=2, replace=False)] = rng.standard_normal(2)
        u = make_reflector(direction)
    H = reflection(u.u)
    X = rng.integers(0, 2, size=(n, int(rng.integers(2, 4)))).astype(float)
    Y = H @ X
    other = reflection(make_reflector(rng.standard_normal(n)).u)
    if kind == "identical":
        Y = np.column_stack([Y[:, 0]] * Y.shape[1])
    elif kind == "near-duplicate":
        scale = 10.0 ** rng.uniform(-14.0, -5.0)
        Y[:, 1] = Y[:, 0] + scale * rng.standard_normal(n)
    elif kind == "non-integer-norm":
        Y[:, int(rng.integers(0, 2))] *= 1.0 + rng.uniform(0.05, 0.4)
    elif kind == "two-reflectors":
        Y[:, 1] = other @ X[:, 1]
    elif kind == "third-reflector":
        Y = np.column_stack([Y, other @ rng.integers(0, 2, size=n)])
    elif kind == "zero-column":
        Y = np.insert(Y, int(rng.integers(0, Y.shape[1] + 1)), 0.0, axis=1)
    elif kind.startswith("noise"):
        Y = Y + float(kind.split()[1]) * rng.standard_normal(Y.shape)
    elif kind.startswith(("c=+1", "c=-1")):
        # u orthogonal to x_a - x_b (x_a + x_b) gives x_a - y_a = c (x_b - y_b),
        # c = +1 (-1); for "+eta" a component along it moves |c| off 1 by 1e-9..1e-5
        sign = 1.0 if kind.startswith("c=+1") else -1.0
        w = X[:, 0] - sign * X[:, 1]
        direction = rng.standard_normal(n)
        if w.any():
            direction -= (direction @ w) / (w @ w) * w
        if w.any() and kind.endswith("+eta"):
            c = sign * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -5.0))
            direction = with_ratio(direction, w, X, c)
        Y = reflection(make_reflector(direction).u) @ X
    elif kind.endswith("identical-at-boundary"):
        ones = int(X[:, 0].sum())
        factor = float(rng.choice([-1.0, 1.0]) * (1.0 + rng.uniform(-0.05, 0.05)))
        column = at_emptiness_boundary(Y[:, 0], ones, factor) if ones else Y[:, 0]
        Y = np.column_stack([column] * Y.shape[1])
        if kind == "near-identical-at-boundary":  # apart by roundoff, not exactly equal
            Y[:, 1] += 10.0 ** rng.uniform(-14.0, -10.0) * rng.standard_normal(n)
    return Y


SWEEP_KINDS = (
    "plain", "identical", "near-duplicate", "non-integer-norm", "two-reflectors",
    "third-reflector", "sparse-u", "zero-column",
    "noise 1e-10", "noise 3e-10", "noise 1e-9", "noise 3e-9", "noise 1e-7",
)
# shapes whose pivot frees coordinates, so that the pivot path picks guesses among them
PIVOT_KINDS = (
    "c=+1", "c=-1", "identical-at-boundary", "near-identical-at-boundary", "c=+1+eta", "c=-1+eta",
)


def test_recover_agrees_with_two_set_oracle():
    rng = np.random.default_rng(36)
    verdicts = {}
    for index in range(520):
        kind = SWEEP_KINDS[index % len(SWEEP_KINDS)]
        n = int(rng.integers(2, 11))
        Y = sweep_instance(rng, kind, n)
        verdict, u, X = recovery_outcome(recover, Y)
        expected_verdict, expected_u, expected_X = recovery_outcome(two_set_recover, Y)
        assert verdict == expected_verdict, (index, kind, n)
        if verdict == "unique":
            np.testing.assert_array_equal(u, expected_u)
            np.testing.assert_array_equal(X, expected_X)
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
    # every verdict class is exercised, so agreement is not vacuous
    assert set(verdicts) == {"unique", "AmbiguousRecoveryError", "NoCommonCandidateError"}
    assert min(verdicts.values()) >= 20, verdicts


def slice_solutions(y):
    """Guesses of the binomial slice that scalar solve_column solves, in support order."""
    n = y.shape[0]
    ones = int(round(float(y @ y)))
    if not 0 <= ones <= n:
        return []
    solved = []
    for support in itertools.combinations(range(n), ones):
        x = np.zeros(n)
        x[list(support)] = 1.0
        if isinstance(solve_column(y, x), Reflector):
            solved.append(tuple(int(b) for b in x))
    return solved


def test_enumeration_keeps_every_solved_guess_without_duplicates():
    rng = np.random.default_rng(38)
    for index in range(130):
        kind = SWEEP_KINDS[index % len(SWEEP_KINDS)]
        Y = sweep_instance(rng, kind, int(rng.integers(2, 11)))
        for y in Y.T:
            candidate_set = enumerate_candidates(y)
            assert candidate_set.guesses == tuple(slice_solutions(y)), (index, kind)
            # same_reflector(., ., MATCH_ATOL) for every pair at once
            U = candidate_set.directions
            apart = np.minimum(
                np.linalg.norm(U[:, None] - U[None], axis=2),
                np.linalg.norm(U[:, None] + U[None], axis=2),
            )
            np.testing.assert_array_equal(apart <= MATCH_ATOL, np.eye(len(U), dtype=bool))


@pytest.mark.parametrize(
    "y, note",
    [(np.zeros(5), "zero column"), (np.full(4, 0.61237243569579447), "inconsistent")],
)
def test_enumerate_empty_sets_keep_their_width(y, note):
    candidate_set = enumerate_candidates(y)
    assert note in candidate_set.note
    assert candidate_set.directions.shape == (0, y.shape[0])
    assert candidate_set.codes.shape == (0, y.shape[0])
    assert candidate_set.candidates == () and candidate_set.guesses == ()


def test_candidate_arrays_are_read_only_and_match_the_tuples(worked_Y):
    for y in (worked_Y[:, 0], np.zeros(3)):
        candidate_set = enumerate_candidates(y)
        assert candidate_set.codes.dtype == np.int8
        for array in (candidate_set.directions, candidate_set.codes):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0
    candidate_set = enumerate_candidates(worked_Y[:, 0])
    for i, (candidate, guess) in enumerate(
        zip(candidate_set.candidates, candidate_set.guesses)
    ):
        np.testing.assert_array_equal(candidate.u, candidate_set.directions[i])
        assert guess == tuple(candidate_set.codes[i])


def enumeration_recover(Y):
    """Oracle: recover by enumerating the first chosen column's binomial slice.

    Column selection as in recover, with every candidate column enumerated;
    the second column is decoded through each candidate of the first.
    """
    Y = np.asarray(Y, dtype=float)
    index_a = index_b = duplicate = None
    for j in range(Y.shape[1]):
        column = Y[:, j]
        if np.linalg.norm(column) <= FIXED_ATOL or _is_binary(column):
            continue
        if index_a is not None and not np.allclose(column, Y[:, index_a], atol=1e-12):
            index_b = j
            break
        candidate_set = enumerate_candidates(column)
        if len(candidate_set) == 0:
            raise NoCommonCandidateError(f"column {j} admits no reflection")
        if index_a is None:
            index_a, set_a = j, candidate_set
        elif duplicate is None:
            duplicate = j
    index_b = duplicate if index_b is None else index_b
    if index_b is None:
        raise AmbiguousRecoveryError("fewer than two informative columns")
    matches = np.flatnonzero(_match_mask(set_a.directions, Y[:, index_b]))
    if len(matches) == 0:
        raise NoCommonCandidateError("no common candidate")
    if len(matches) > 1:
        raise AmbiguousRecoveryError(f"{len(matches)} common candidates")
    u = Reflector(set_a.directions[matches[0]])
    decoded = Y - 2.0 * np.outer(u.u, u.u @ Y)
    if not _is_binary(decoded):
        raise NoCommonCandidateError("decoded codes are not binary")
    X = np.rint(decoded)
    return RecoveryResult(u, X.astype(int), float(np.linalg.norm(X - 2.0 * np.outer(u.u, u.u @ X) - Y, "fro")))


def assert_same_outcome(Y, label):
    """recover and the enumeration oracle agree bit for bit; returns (verdict, X)."""
    verdict, u, X = recovery_outcome(recover, Y)
    expected_verdict, expected_u, expected_X = recovery_outcome(enumeration_recover, Y)
    assert verdict == expected_verdict, label
    if verdict == "unique":
        np.testing.assert_array_equal(u, expected_u)
        np.testing.assert_array_equal(X, expected_X)
    return verdict, X


def farthest_distance(y, ones):
    """||x - y|| for the guess of the slice farthest from y: ones on its smallest entries."""
    x = np.zeros_like(y)
    x[np.argsort(y, kind="stable")[:ones]] = 1.0
    return float(np.linalg.norm(x - y))


def at_emptiness_boundary(y, ones, factor):
    """y rescaled so that its norm defect is factor times the emptiness boundary.

    The slice is empty unless some guess re-substitutes within SOLUTION_ATOL,
    that is unless | ||y||^2 - ones | <= SOLUTION_ATOL * (farthest distance).
    """
    defect = factor * dictlearn.SOLUTION_ATOL * farthest_distance(y, ones)
    return y * np.sqrt((ones + defect) / float(y @ y))


def test_recover_agrees_with_enumeration_oracle():
    rng = np.random.default_rng(40)
    verdicts = {}
    for index in range(2600):
        kind = SWEEP_KINDS[index % len(SWEEP_KINDS)]
        n = int(rng.integers(2, 13))
        verdict, _ = assert_same_outcome(sweep_instance(rng, kind, n), (index, kind, n))
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
    assert set(verdicts) == {"unique", "AmbiguousRecoveryError", "NoCommonCandidateError"}
    assert min(verdicts.values()) >= 300, verdicts
    pivot_verdicts = {}
    for index in range(1800):
        kind = PIVOT_KINDS[index % len(PIVOT_KINDS)]
        n = int(rng.integers(2, 15))
        verdict, _ = assert_same_outcome(sweep_instance(rng, kind, n), (index, kind, n))
        pivot_verdicts[kind, verdict] = pivot_verdicts.get((kind, verdict), 0) + 1
    expected = {(kind, "unique") for kind in PIVOT_KINDS}
    expected |= {(kind, "AmbiguousRecoveryError") for kind in PIVOT_KINDS}
    expected |= {(kind, "NoCommonCandidateError") for kind in PIVOT_KINDS if "at-boundary" in kind}
    assert set(pivot_verdicts) == expected, pivot_verdicts
    assert min(pivot_verdicts.values()) >= 50, pivot_verdicts


@pytest.mark.parametrize(
    "x_a, x_b, direction, eta, expected",
    [
        # coordinates 0, 3, 4 and 5 take one 1, which the true code puts on
        # 0, not on y_a's smallest entry; every guess solves y_a and only the
        # true code matches y_b
        ([1, 1, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0], [0.3, 0.5, 0.5, -0.2, 0.6, 0.1], 1e-6, "unique"),
        # guesses one swap from the true code match y_b as well
        (
            [1, 0, 0, 0, 0, 1, 0, 1, 0],
            [1, 0, 0, 0, 1, 0, 1, 1, 0],
            [0.79, 0.11, 0.25, 0.22, 0.08, -0.01, -0.09, -0.26, -0.42],
            3e-8,
            "AmbiguousRecoveryError",
        ),
    ],
)
def test_recover_agrees_with_enumeration_just_off_c_equal_one(x_a, x_b, direction, eta, expected):
    X = np.column_stack([x_a, x_b]).astype(float)
    w = X[:, 0] - X[:, 1]
    direction = np.array(direction) - (np.array(direction) @ w) / (w @ w) * w
    u = make_reflector(with_ratio(direction, w, X, 1.0 + eta))
    verdict, found_X = assert_same_outcome(reflection(u.u) @ X, eta)
    assert verdict == expected
    if verdict == "unique":
        np.testing.assert_array_equal(found_X, X.astype(int))


def test_recover_agrees_with_enumeration_at_the_emptiness_boundary():
    rng = np.random.default_rng(41)
    verdicts = {}
    emptiness = {True: 0, False: 0}
    for index in range(300):
        n = int(rng.integers(3, 13))
        u, X, Y = random_instance(rng, n, int(rng.integers(2, 4)))
        j = int(rng.integers(0, 2))
        ones = int(X[:, j].sum())
        # within 1% of the boundary on both sides, norm above and below ones
        factor = float(rng.choice([-1.0, 1.0]) * (1.0 + rng.uniform(-0.01, 0.01)))
        Y[:, j] = at_emptiness_boundary(Y[:, j], ones, factor)
        empty = dictlearn._slice_is_empty(Y[:, j])
        assert empty == (len(enumerate_candidates(Y[:, j])) == 0), (index, n, factor)
        emptiness[empty] += 1
        verdict, _ = assert_same_outcome(Y, (index, n, factor))
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
    assert min(emptiness.values()) >= 50, emptiness
    assert "unique" in verdicts and "NoCommonCandidateError" in verdicts, verdicts


def test_recover_on_benchmark_shaped_instances_never_enumerates(monkeypatch):
    """Planted n 12..16, four columns, popcount 2..6, as the recover-binary workload draws them."""
    enumerations, match_calls = [], []

    def counted_enumeration(y):
        enumerations.append(y)
        return enumerate_candidates(y)

    def counted_match(U, y):
        match_calls.append(U.shape[0])
        return _match_mask(U, y)

    monkeypatch.setattr(dictlearn, "enumerate_candidates", counted_enumeration)
    monkeypatch.setattr(dictlearn, "_match_mask", counted_match)
    rng = np.random.default_rng(42)
    cells = itertools.product(range(12, 17), range(2, 7), ("unique", "unique", "identical", "noninteger"))
    expected = {"unique": "unique", "identical": "AmbiguousRecoveryError", "noninteger": "NoCommonCandidateError"}
    verdicts = {}
    for index, (n, ones, kind) in enumerate(list(cells) * 3):
        u = make_reflector(rng.standard_normal(n)).u
        columns = 1 if kind == "identical" else 4
        supports = []
        while len(supports) < columns:
            support = sorted(rng.choice(n, size=ones, replace=False).tolist())
            if support not in supports:
                supports.append(support)
        X = np.zeros((n, 4), dtype=int)
        for j in range(4):
            X[supports[j % columns], j] = 1
        Y = X - 2.0 * np.outer(u, u @ X)
        if kind == "noninteger":
            Y[:, 0] *= np.sqrt((ones + 0.5) / ones)  # squared norm ones + 1/2
        verdict, found_X = assert_same_outcome(Y, (index, n, ones, kind))
        assert verdict == expected[kind], (index, n, ones, kind)
        if verdict == "unique":
            np.testing.assert_array_equal(found_X, X)
        verdicts[verdict] = verdicts.get(verdict, 0) + 1
    assert enumerations == []
    assert len(match_calls) >= 1
    assert min(verdicts.values()) >= 75, verdicts


@pytest.mark.parametrize("n", [1000, 4000])
def test_recover_planted_instances_far_beyond_enumeration(n):
    rng = np.random.default_rng(n)
    u = make_reflector(rng.standard_normal(n))
    X = (rng.random((n, 3)) < 0.3).astype(int)
    Y = X - 2.0 * np.outer(u.u, u.u @ X)
    result = recover(Y)
    assert same_reflector(result.u, u, 1e-12)
    np.testing.assert_array_equal(result.X, X)
    assert result.residual <= 1e-8 * np.sqrt(Y.size)


def test_recover_decides_identical_columns_from_two_guesses(monkeypatch):
    calls = []
    solve_rows = dictlearn._solve_rows

    def counted(X, y, ones):
        calls.append(X.shape[0])
        return solve_rows(X, y, ones)

    monkeypatch.setattr(dictlearn, "_solve_rows", counted)
    rng = np.random.default_rng(43)
    n = 40
    u = make_reflector(rng.standard_normal(n)).u
    x = np.zeros(n)
    x[:8] = 1.0  # C(40, 8) guesses all pass the pivot filter
    y = x - 2.0 * (u @ x) * u
    with pytest.raises(AmbiguousRecoveryError, match="share at least 2 candidates"):
        recover(np.column_stack([y, y]))
    # the farthest guess of each column, then the two farthest guesses of
    # c = 1 (the best fit to c and its likeliest neighbour are the same two
    # here): solved on the first column and, inside _match_mask, on the second
    assert calls == [1, 1, 2, 2]


@pytest.mark.parametrize("n", [30, 40, 60])
def test_recover_never_enumerates_past_the_enumeration_cap(monkeypatch, n):
    enumerations = []

    def counted_enumeration(y):
        enumerations.append(y)
        return enumerate_candidates(y)

    monkeypatch.setattr(dictlearn, "enumerate_candidates", counted_enumeration)
    rng = np.random.default_rng(n)
    with pytest.raises(NoCommonCandidateError, match="no common candidate"):
        recover(pivot_inconclusive_pair(rng, n, n // 4))
    u = make_reflector(rng.standard_normal(n)).u
    x = np.zeros(n)
    x[: n // 4] = 1.0
    y = x - 2.0 * (u @ x) * u
    with pytest.raises(AmbiguousRecoveryError, match="share at least 2 candidates"):
        recover(np.column_stack([y, y]))
    assert enumerations == []


# ------------------------------------------------------ non_uniqueness_example


@pytest.mark.parametrize("p", [1, 3])
def test_non_uniqueness_products_collide(p):
    u1, X1, u2, X2 = non_uniqueness_example(p)
    assert not same_reflector(u1, u2)
    diff = reflection(u1.u) @ X1 - reflection(u2.u) @ X2
    assert np.linalg.norm(diff, "fro") <= 1e-12


def test_non_uniqueness_cited_assignment():
    u1, X1, u2, X2 = non_uniqueness_example(1)
    np.testing.assert_array_equal(X2[:, 0], [1.0, 0.0])
    np.testing.assert_allclose(X1[:, 0], [2 * np.sqrt(2) / 3, 1 / 3], atol=1e-12)
    np.testing.assert_allclose(reflection(u2.u) @ X2[:, 0], [0.0, -1.0], atol=1e-12)


def test_non_uniqueness_is_not_a_signed_permutation():
    _, X1, _, X2 = non_uniqueness_example(3)
    transforms = []
    for permutation in (np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])):
        for signs in ([1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]):
            transforms.append(np.diag(signs) @ permutation)
    assert all(not np.allclose(X1, T @ X2, atol=1e-9) for T in transforms)


def test_non_uniqueness_zero_column_maps_to_zero():
    u1, _, u2, _ = non_uniqueness_example(1)
    # the per-column consistency map is X1 = H1 H2 X2, so zero stays zero
    zero = reflection(u1.u) @ (reflection(u2.u) @ np.zeros(2))
    np.testing.assert_array_equal(zero, np.zeros(2))
    assert np.linalg.norm(reflection(u1.u) @ zero - reflection(u2.u) @ np.zeros(2)) == 0.0


def test_non_uniqueness_rejects_nonpositive_p():
    with pytest.raises(ValueError, match="positive"):
        non_uniqueness_example(0)
