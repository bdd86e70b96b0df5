import numpy as np
import pytest
from scipy.linalg import schur

from hhfactor import (
    DISTRIBUTIONS,
    GeneratorSpec,
    HouseholderProduct,
    Reflector,
    apply,
    greedy_decompose,
    haar_orthogonal,
    make_reflector,
    materialize,
    min_factors,
    qr_baseline,
    residual_upper_bound,
    same_reflector,
    symmetric_eigendecomposition,
    symmetric_part,
    synthesize,
)
from hhfactor import decompose
from hhfactor.decompose import _moving_rank

U_3X3 = np.array([2 / 3, 1 / 3, 2 / 3])


def random_product(rng, n, m):
    return HouseholderProduct(
        n, [make_reflector(rng.standard_normal(n)).u for _ in range(m)]
    )


def truncated_residuals(V, trace):
    """Greedy residual after m = 0..n factors, read off one full trace."""
    n = V.shape[0]
    residuals = [float(np.linalg.norm(np.eye(n) - V, "fro"))]
    residuals.extend(row.residual for row in trace.rows)
    while len(residuals) < n + 1:
        residuals.append(trace.final_residual)  # run converged before m factors
    return residuals


# ---------------------------------------------------------- greedy_decompose


def test_greedy_identifies_single_reflection(reflection_3x3):
    product, trace = greedy_decompose(reflection_3x3, max_m=3, eps=1e-8)
    assert trace.m == 1
    assert trace.termination == "converged"
    np.testing.assert_allclose(product.factors[0].u, U_3X3, atol=1e-12)


def test_greedy_on_identity_returns_empty_product():
    product, trace = greedy_decompose(np.eye(7), eps=1e-8)
    assert trace.m == 0
    assert product.factors == ()
    assert trace.rows == ()
    assert trace.termination == "converged"


def test_greedy_recovers_synthesized_product():
    rng = np.random.default_rng(13)
    V = materialize(random_product(rng, 64, 25))
    product, trace = greedy_decompose(V, eps=1e-6)
    assert trace.m == 25
    assert trace.final_residual <= 1e-6
    assert min_factors(V) == 25  # independent minimality oracle
    np.testing.assert_allclose(materialize(product), V, atol=1e-8)


def test_greedy_needs_full_dimension_for_negated_identity():
    product, trace = greedy_decompose(-np.eye(8), eps=1e-6)
    assert trace.m == 8
    assert trace.final_residual <= 1e-6


def test_greedy_rejects_non_orthogonal_input():
    with pytest.raises(ValueError, match="not orthogonal"):
        greedy_decompose(np.diag([1.0, 2.0]))


def test_greedy_rejects_bad_parameters():
    for eps in (0.0, float("nan")):  # NaN fails every comparison
        with pytest.raises(ValueError, match="eps"):
            greedy_decompose(np.eye(3), eps=eps)
    with pytest.raises(ValueError, match="max_m"):
        greedy_decompose(np.eye(3), max_m=-1)


def test_greedy_reports_factor_cap():
    rng = np.random.default_rng(14)
    V = materialize(random_product(rng, 10, 6))
    product, trace = greedy_decompose(V, max_m=3, eps=1e-6)
    assert trace.m == 3
    assert trace.termination == "m_cap"
    assert trace.final_residual > 1e-6


def test_greedy_reports_dimension_cap():
    rng = np.random.default_rng(15)
    V = haar_orthogonal(rng, 6)
    _, trace = greedy_decompose(V, eps=1e-18)  # unreachable tolerance
    assert trace.m == 6
    assert trace.termination == "n_cap"


def test_greedy_with_zero_budget_returns_identity():
    product, trace = greedy_decompose(-np.eye(4), max_m=0, eps=1e-6)
    assert product.m == 0
    assert trace.termination == "m_cap"
    np.testing.assert_allclose(trace.final_residual, 4.0, atol=1e-12)


def test_greedy_factors_multiply_back_in_order():
    rng = np.random.default_rng(16)
    V = materialize(random_product(rng, 12, 5))
    product, trace = greedy_decompose(V, eps=1e-6)
    np.testing.assert_allclose(materialize(product), V, atol=1e-9)
    x = rng.standard_normal(12)
    np.testing.assert_allclose(apply(product, x), V @ x, atol=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_greedy_rejects_non_finite_input(bad):
    V = np.eye(3)
    V[0, 1] = bad
    with pytest.raises(ValueError, match="not orthogonal"):
        greedy_decompose(V)


# ------------------------------------------------- dense greedy as an oracle


def dense_greedy_reference(V, max_m, eps):
    """The greedy loop without moving-subspace compression, kept as an oracle.

    Every step runs a full n-by-n eigh, takes dim_e1 from an SVD of W - I
    against the rank floor sqrt(2 * RADICAND_NOISE * n * eps), and measures
    the residual against a dense accumulated product. Returns the
    rows as (residual, lambda_min, trace, dim_e1) tuples, the factor count,
    the final residual, trace and dim_e1, and the termination.
    """
    n = V.shape[0]
    tol = np.sqrt(2.0 * decompose.RADICAND_NOISE * n * np.finfo(float).eps)

    def fixed_dim(W):
        return n - int(np.count_nonzero(np.linalg.svd(W - np.eye(n), compute_uv=False) > tol))

    working = V.copy()
    accumulated = np.eye(n)
    rows = []
    residual = float(np.linalg.norm(accumulated - V, "fro"))
    while residual > eps and len(rows) < min(max_m, n):
        pre_trace, pre_dim = float(np.trace(working)), fixed_dim(working)
        eigenvalues, eigenvectors = np.linalg.eigh(symmetric_part(working))
        u = eigenvectors[:, 0]
        working -= 2.0 * np.outer(u, u @ working)
        accumulated -= 2.0 * np.outer(accumulated @ u, u)
        residual = float(np.linalg.norm(accumulated - V, "fro"))
        rows.append((residual, float(eigenvalues[0]), pre_trace, pre_dim))
    if residual <= eps:
        termination = "converged"
    elif max_m < n:
        termination = "m_cap"
    else:
        termination = "n_cap"
    final = (residual, float(np.trace(working)), fixed_dim(working))
    return rows, len(rows), final, termination


def oracle_instances():
    """Seeded (label, V, max_m) cases covering every path through the greedy."""
    cases = []
    for dist in DISTRIBUTIONS:
        for n, m in ((24, 3), (32, 12), (20, 20)):
            V, _ = synthesize(GeneratorSpec(dist, n=n, m=m, seed=7 * n + m))
            cases.append((f"{dist}-n{n}-m{m}", V, n))
    cases.append(("negated-identity", -np.eye(12), 12))
    cases.append(("identity", np.eye(9), 9))
    rng = np.random.default_rng(40)
    Q = haar_orthogonal(rng, 14)
    cases.append(("symmetric-4-of-14", (Q * np.repeat([-1.0, 1.0], [4, 10])) @ Q.T, 14))
    for det in (1.0, -1.0):
        V = haar_orthogonal(rng, 16)
        if np.linalg.det(V) * det < 0:
            V[:, 0] = -V[:, 0]
        cases.append((f"haar-det{det:+.0f}", V, 16))
    V, _ = synthesize(GeneratorSpec("gaussian", n=32, m=12, seed=41))
    cases.append(("budget-below-p", V, 5))
    # m = n exponential products whose two smallest singular values of V - I
    # lie under min_factors' 1e-6 * sqrt(n) threshold: seed 69 just under it
    # (9.4e-6), seed 95 under the compression's roundoff floor too (9.2e-7)
    for seed in (69, 95):
        V, _ = synthesize(GeneratorSpec("exponential", n=96, m=96, seed=seed))
        cases.append((f"borderline-exponential-seed{seed}", V, 96))
    return cases


ORACLE_INSTANCES = oracle_instances()


def assert_matches_dense_oracle(V, max_m, eps):
    """greedy_decompose agrees with dense_greedy_reference row by row.

    The one licensed difference: where the oracle's accumulated product stays
    above a tiny eps (n_cap), greedy may report "converged", but only when its
    product really lies within eps of V.
    """
    product, trace = greedy_decompose(V, max_m=max_m, eps=eps)
    rows, m, (final_residual, final_trace, final_dim), termination = (
        dense_greedy_reference(V, max_m, eps)
    )
    dense_residual = np.linalg.norm(materialize(product) - V, "fro")
    assert trace.m == m
    if (termination, trace.termination) == ("n_cap", "converged"):
        assert dense_residual <= eps
    else:
        assert trace.termination == termination
    assert [row.dim_e1 for row in trace.rows] == [row[3] for row in rows]
    assert trace.final_dim_e1 == final_dim
    got = [(row.residual, row.lambda_min, row.trace) for row in trace.rows]
    np.testing.assert_allclose(got, [row[:3] for row in rows], rtol=0, atol=1e-8)
    np.testing.assert_allclose(
        [trace.final_residual, trace.final_trace], [final_residual, final_trace], atol=1e-8
    )
    assert abs(trace.final_residual - dense_residual) <= 1e-9


@pytest.mark.parametrize("eps", [0.05, 1e-6, 1e-10])
@pytest.mark.parametrize("case", ORACLE_INSTANCES, ids=[c[0] for c in ORACLE_INSTANCES])
def test_greedy_matches_dense_oracle(case, eps):
    _, V, max_m = case
    assert_matches_dense_oracle(V, max_m, eps)


def rotations(rng, n, angles, negatives=0):
    """Haar-rotated block diagonal matrix: one plane per angle, then -1s, then 1s."""
    D = np.eye(n)
    for k, theta in enumerate(angles):
        c, s = np.cos(theta), np.sin(theta)
        D[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = [[c, -s], [s, c]]
    start = 2 * len(angles)
    D[start : start + negatives, start : start + negatives] *= -1.0
    Q = haar_orthogonal(rng, n)
    return Q @ D @ Q.T


RANK_FLOOR_24 = np.sqrt(2.0 * decompose.RADICAND_NOISE * 24 * np.finfo(float).eps)  # 8.2e-7 at n = 24


def clustered_instances():
    """Inputs whose rotation angles repeat or nearly repeat."""
    rng = np.random.default_rng(43)
    cases = [
        ("repeated-angles", rotations(rng, 24, [0.7, 0.7, 0.7, 1.3, 1.3, np.pi / 2], 2), 24),
        ("repeated-with-fixed-part", rotations(rng, 24, [2.1] * 5, 1), 24),
        ("angles-1e-9-apart", rotations(rng, 24, 0.5 + 1e-9 * np.arange(4), 3), 24),
        ("pairs-1e-9-apart", rotations(rng, 24, [0.4, 0.4 + 1e-9, 2.5, 2.5 + 1e-9, 3.1, 3.1 + 1e-9]), 24),
    ]
    for n, m, fraction in ((24, 24, 0.02), (32, 20, 0.1), (48, 48, 0.05), (64, 64, 0.02)):
        spec = GeneratorSpec("sparse", n=n, m=m, seed=100 + n, sparse_fraction=fraction)
        cases.append((f"sparse-n{n}-m{m}-f{fraction}", synthesize(spec)[0], n))
    # pairs of angles 1e-12 to 1e-5 apart: sym(V)'s eigenvectors mix their
    # planes, so the compression keeps norm off its blocks above the roundoff
    # floor, or chains rows that no block covers
    for gap in (1e-12, 1e-9, 1e-7, 1e-5):
        cases.append((f"pairs-{gap:g}-apart", rotations(rng, 24, [0.7, 0.7 + gap, 3.1, 3.1 + gap, 1.9], 1), 24))
    for negatives in (3, 6):
        cases.append((f"minus-one-times-{negatives}", rotations(rng, 24, [0.9, 1.7, 2.3], negatives), 24))
    cases.append(("repeated-next-to-close-pair", rotations(rng, 24, [1.1] * 3 + [1.5, 1.5 + 1e-7, 0.6]), 24))
    return cases


def tiny_angle_instances():
    """(label, V, planted factor count) with angles around the rank floor.

    Angles of 1e-7 and 1e-5 rotate by far less than eps = 1e-6 can see but far
    more than roundoff; 0.5 and 2 times the rank floor sit on either side
    of the fixed-subspace decision.
    """
    rng = np.random.default_rng(44)
    straddling = [0.3, 0.5 * RANK_FLOOR_24, 2.0 * RANK_FLOOR_24, 1e-7, 1e-5]
    repeated = [3.0 * RANK_FLOOR_24] * 3 + [0.2 * RANK_FLOOR_24] * 2
    return [
        ("tiny-angles-at-rank-tol", rotations(rng, 24, straddling, 1), 11),
        ("tiny-repeated-angles", rotations(rng, 24, repeated), 10),
    ]


CLUSTERED_INSTANCES = clustered_instances()
TINY_ANGLE_INSTANCES = tiny_angle_instances()


@pytest.mark.parametrize("eps", [1e-6, 1e-10])
@pytest.mark.parametrize("case", CLUSTERED_INSTANCES, ids=[c[0] for c in CLUSTERED_INSTANCES])
def test_greedy_matches_dense_oracle_on_clustered_angles(case, eps):
    # equal or nearly equal angles make the bottom eigenspace of sym(W) more
    # than two-dimensional; the blocks of the Schur form must still give the
    # same count, residual curve and rank decisions as the dense loop
    _, V, max_m = case
    assert_matches_dense_oracle(V, max_m, eps)


@pytest.mark.parametrize("case", TINY_ANGLE_INSTANCES, ids=[c[0] for c in TINY_ANGLE_INSTANCES])
def test_greedy_resolves_tiny_angles(case):
    # at eps = 1e-6 the run matches the dense loop. At eps = 1e-10 the dense
    # loop cannot find a plane turned by 1e-7: its 1 - cos is 5e-15, lost
    # among the fixed subspace's eigenvalues of sym(W). The Schur form
    # separates planes by |e^{i a} - e^{i b}| instead, so the greedy stops at
    # the planted count with a residual at roundoff. Its rows are the dense
    # loop's first rows, except for the last residual, where the dense loop's
    # misplaced plane leaves up to 1.5e-8
    _, V, planted = case
    assert_matches_dense_oracle(V, 24, 1e-6)
    product, trace = greedy_decompose(V, max_m=24, eps=1e-10)
    rows, m, _, _ = dense_greedy_reference(V, 24, 1e-10)
    assert trace.m == planted <= m
    assert trace.termination == "converged"
    assert np.linalg.norm(materialize(product) - V, "fro") <= 1e-10
    assert [row.dim_e1 for row in trace.rows] == [row[3] for row in rows[:planted]]
    got = [(row.residual, row.lambda_min, row.trace) for row in trace.rows]
    expected = [row[:3] for row in rows[:planted]]
    np.testing.assert_allclose(got[:-1], expected[:-1], rtol=0, atol=1e-8)
    np.testing.assert_allclose(got[-1][1:], expected[-1][1:], rtol=0, atol=1e-8)


# ------------------------------------- per-step block loop as an oracle


def schur_blocks(V, eps):
    """Blocks of one real Schur form of V's compression, kept as an oracle.

    The compression drops the eigenvectors of sym(V) whose 1 - mu lies within
    the roundoff floor, unless that drops more than eps/2. Returns (lift, T,
    rest, blocks): T = lift^T V lift, rest the norm of the dropped part, and
    blocks the slices where LAPACK left T's subdiagonal exactly zero.
    """
    n = V.shape[0]
    spectrum = symmetric_eigendecomposition(symmetric_part(V))
    p = int(np.count_nonzero(1.0 - spectrum.eigenvalues > decompose.RADICAND_NOISE * n * np.finfo(float).eps))
    basis, C, rest = None, V, 0.0
    if p < n:
        Q = spectrum.eigenvectors[:, :p]
        compressed = Q.T @ V @ Q
        dropped = float(np.linalg.norm((V - np.eye(n)) - Q @ (compressed - np.eye(p)) @ Q.T, "fro"))
        if dropped <= eps / 2.0:
            basis, C, rest = Q, compressed, dropped
    T, Z = schur(C, output="real")
    blocks, start = [], 0
    while start < T.shape[0]:
        stop = start + (2 if start + 1 < T.shape[0] and T[start + 1, start] != 0.0 else 1)
        blocks.append(slice(start, stop))
        start = stop
    return (Z if basis is None else basis @ Z), T, rest, blocks


def greedy_blocks(V, eps):
    """greedy_decompose's own blocks as (lift, T, rest, blocks), T block diagonal."""
    lift, squares, columns, pairs, rest = decompose._greedy_blocks(V, eps)
    T = np.zeros((lift.shape[1],) * 2)
    blocks = [slice(start, start + 1 + pair) for start, pair in zip(columns[:, 0], pairs)]
    for block, square in zip(blocks, squares):
        T[block, block] = square[: block.stop - block.start, : block.stop - block.start]
    return lift, T, rest, blocks


def sequential_block_reference(V, max_m, eps, blocks_of=schur_blocks):
    """The greedy on blocks one step at a time, kept as an oracle.

    blocks_of(V, eps) gives the blocks: by default one real Schur form of the
    whole compression, with a 2-by-2 block wherever LAPACK left the
    subdiagonal nonzero, independent of greedy_decompose's block rule. Every
    step takes the block by argmin over all blocks' eigenvalues, eigensolves
    that block alone, reflects its rows of T, refreshes its squared row norms
    and sums the residual over all rows. Returns the rows as (residual,
    lambda_min, trace, dim_e1) tuples, the product, the final residual,
    trace and dim_e1, and the termination.
    """
    n = V.shape[0]
    lift, T, rest, blocks = blocks_of(V, eps)
    identity = np.eye(T.shape[0])

    def block_spectrum(block):
        square = T[block, block]
        return np.linalg.eigh((square + square.T) / 2.0)

    spectra = [block_spectrum(block) for block in blocks]
    eigenvalues = np.empty(T.shape[0])
    owner = np.empty(T.shape[0], dtype=int)
    for k, block in enumerate(blocks):
        eigenvalues[block] = spectra[k][0]
        owner[block] = k
    row_norms = np.sum((identity - T) ** 2, axis=1)
    dropped_trace = float(np.trace(V) - np.trace(T))
    factors, rows = [], []
    residual = float(np.hypot(np.sqrt(row_norms.sum()), rest))
    while True:
        working_trace = dropped_trace + float(np.trace(T))
        dim_e1 = n - int(_moving_rank(eigenvalues, n))
        if residual <= eps or len(factors) >= min(max_m, n):
            break
        k = owner[np.argmin(eigenvalues)]
        block = blocks[k]
        lambda_min, a = float(spectra[k][0][0]), spectra[k][1][:, 0]
        T[block] -= 2.0 * np.outer(a, a @ T[block])
        factors.append(Reflector(lift[:, block] @ a))
        row_norms[block] = np.sum((identity[block] - T[block]) ** 2, axis=1)
        residual = float(np.hypot(np.sqrt(row_norms.sum()), rest))
        rows.append((residual, lambda_min, working_trace, dim_e1))
        spectra[k] = block_spectrum(block)
        eigenvalues[block] = spectra[k][0]
    if residual <= eps:
        termination = "converged"
    elif max_m < n:
        termination = "m_cap"
    else:
        termination = "n_cap"
    final = (residual, working_trace, dim_e1)
    return rows, HouseholderProduct(n, [f.u for f in factors]), final, termination


def assert_same_factors_up_to_commuting_order(got, expected, tol=1e-8):
    """The same reflections up to sign, reordered only where they commute.

    Each factor of got is matched to the first unmatched equal factor of
    expected. Two factors whose order differs must have orthogonal
    directions, so that swapping them leaves the product unchanged.
    """
    assert len(got) == len(expected)
    unmatched = list(range(len(expected)))
    position = []
    for f in got:
        j = next(j for j in unmatched if same_reflector(f, expected[j], tol))
        unmatched.remove(j)
        position.append(j)
    for i in range(len(got)):
        for k in range(i + 1, len(got)):
            if position[i] > position[k]:
                assert abs(got[i].u @ got[k].u) <= tol


def symmetric_orthogonal(rng, n, negatives):
    Q = haar_orthogonal(rng, n)
    return (Q * np.repeat([-1.0, 1.0], [negatives, n - negatives])) @ Q.T


def sequential_instances():
    """Seeded (label, V, budgets, eps values) for the block-loop oracle.

    The odd budgets under p stop halfway through clearing a rotation block;
    eps = 1e-14 on Haar inputs lies below roundoff, where the oracle steps a
    cleared block a third time and greedy stops.
    """
    loose = (0.05, 1e-6, 1e-10)
    cases = []
    for dist in DISTRIBUTIONS:
        for n, m in ((16, 16), (21, 21), (24, 7)):
            for seed in range(2):
                V, _ = synthesize(GeneratorSpec(dist, n=n, m=m, seed=500 + 10 * n + seed))
                cases.append((f"{dist}-n{n}-m{m}-s{seed}", V, (n, 3, m // 2 | 1), loose))
    cases.append(("negated-identity", -np.eye(11), (11, 5), loose))
    cases.append(("identity", np.eye(9), (9,), loose))
    rng = np.random.default_rng(45)
    for negatives in (3, 7):
        cases.append((f"symmetric-{negatives}-of-16", symmetric_orthogonal(rng, 16, negatives), (16, 1), loose))
    for label, V, max_m in CLUSTERED_INSTANCES:
        cases.append((label, V, (max_m, 5), loose))
    for label, V, planted in TINY_ANGLE_INSTANCES:
        cases.append((label, V, (24, planted - 2), loose))
    for n in (16, 32):
        for det in (1.0, -1.0):
            V = haar_orthogonal(rng, n)
            if np.linalg.det(V) * det < 0:
                V[:, 0] = -V[:, 0]
            cases.append((f"haar-n{n}-det{det:+.0f}", V, (n, 7), (1e-6, 1e-14)))
    return cases


SEQUENTIAL_INSTANCES = sequential_instances()


def assert_matches_sequential_oracle(V, budgets, eps_values, greedy=greedy_decompose):
    """greedy(V, max_m, eps) agrees with sequential_block_reference on every budget and eps."""
    scale = max(1.0, float(np.linalg.norm(np.eye(V.shape[0]) - V, "fro")))
    for max_m in budgets:
        for eps in eps_values:
            product, trace = greedy(V, max_m=max_m, eps=eps)
            rows, expected, (residual, working_trace, dim_e1), termination = (
                sequential_block_reference(V, max_m, eps)
            )
            if trace.m < expected.m:
                # below roundoff the oracle steps past a cleared block, away from V;
                # greedy ends on the oracle's state before that step
                assert rows[trace.m][0] > trace.final_residual
                residual, (_, _, working_trace, dim_e1) = rows[trace.m - 1][0], rows[trace.m]
                rows = rows[: trace.m]
                expected = HouseholderProduct(V.shape[0], expected.directions[: trace.m])
            assert (trace.m, trace.termination) == (expected.m, termination), (max_m, eps)
            assert [row.dim_e1 for row in trace.rows] == [row[3] for row in rows]
            assert trace.final_dim_e1 == dim_e1
            got = [(row.residual, row.lambda_min, row.trace) for row in trace.rows]
            np.testing.assert_allclose(got, [row[:3] for row in rows], rtol=0, atol=1e-8 * scale)
            np.testing.assert_allclose(
                [trace.final_residual, trace.final_trace], [residual, working_trace], rtol=0, atol=1e-8 * scale
            )
            if trace.termination != "m_cap":
                np.testing.assert_allclose(materialize(product), materialize(expected), rtol=0, atol=1e-9)
            # sym is cos(theta) I within a rotation block, and -I within a
            # repeated -1, so the reflections taken, and the product of a
            # budget that stops inside such a block, depend on the basis
            # there: they are compared with the same loop on greedy's blocks
            _, same_blocks, _, _ = sequential_block_reference(V, max_m, eps, greedy_blocks)
            assert same_blocks.m >= trace.m
            same_blocks = HouseholderProduct(V.shape[0], same_blocks.directions[: trace.m])
            np.testing.assert_allclose(materialize(product), materialize(same_blocks), rtol=0, atol=1e-9)
            assert_same_factors_up_to_commuting_order(product.factors, same_blocks.factors)


@pytest.mark.parametrize("case", SEQUENTIAL_INSTANCES, ids=[c[0] for c in SEQUENTIAL_INSTANCES])
def test_greedy_matches_sequential_block_oracle(case):
    _, V, budgets, eps_values = case
    assert_matches_sequential_oracle(V, budgets, eps_values)


def det_minus_one_haar_32():
    """Haar n = 32 with det -1: 15 rotation planes and one -1, p = 31 factors."""
    V = haar_orthogonal(np.random.default_rng(46), 32)
    if np.linalg.det(V) > 0:
        V[:, 0] = -V[:, 0]
    return V


def test_greedy_stops_when_its_plan_runs_out_below_roundoff(monkeypatch):
    # two steps clear a rotation block and one clears a -1 block, so the plan
    # has 31 steps and ends at a residual around 1e-14. At eps = 1e-14 the run
    # stops there instead of stepping a cleared block away from V, and the
    # rounds are those of eps = 1e-6
    eigh = np.linalg.eigh
    calls = []

    def counting(A, *args, **kwargs):
        calls.append(np.shape(A))
        return eigh(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    eigh_calls = {}
    for eps in (1e-6, 1e-14):
        calls.clear()
        _, trace = greedy_decompose(det_minus_one_haar_32(), eps=eps)
        eigh_calls[eps] = len(calls)
    assert eigh_calls[1e-6] == eigh_calls[1e-14] == 4  # the entry eigensolve and three rounds
    assert trace.m == 31 and trace.termination == "n_cap"
    assert 1e-14 < trace.final_residual <= 1e-13


def test_greedy_ends_at_min_factors_on_exact_products_below_roundoff():
    # README's 216 exact-product runs, at eps below the roundoff their factors
    # leave: a 2-by-2 block of the Schur form whose subdiagonal lies within
    # the roundoff floor is read as two 1-by-1 blocks at +1, which no step
    # takes, so no run ends above the minimal count
    for dist in DISTRIBUTIONS:
        for n in (16, 32, 48):
            for m in (n // 4, n // 2, n):
                for seed in (1500, 1501):
                    V, _ = synthesize(GeneratorSpec(dist, n=n, m=m, seed=seed))
                    p = min_factors(V)
                    for eps in (1e-14, 1e-16):
                        _, trace = greedy_decompose(V, eps=eps)
                        assert trace.m == p, (dist, n, m, seed, eps, trace.m, p)


def prefix_instances():
    """Inputs for the best-prefix sweep: Haar, every distribution, -I and I."""
    rng = np.random.default_rng(47)
    for n in (8, 16, 24, 32, 40, 48):
        for det in (1.0, -1.0):
            for _ in range(3):
                V = haar_orthogonal(rng, n)
                if np.linalg.det(V) * det < 0:
                    V[:, 0] = -V[:, 0]
                yield V
    for dist in DISTRIBUTIONS:
        for n in (8, 24, 48):
            for m in (n // 3, n):
                yield synthesize(GeneratorSpec(dist, n=n, m=m, seed=600 + n + m))[0]
    for n in (8, 48):
        yield -np.eye(n)
        yield np.eye(n)


def test_greedy_never_ends_above_its_best_prefix():
    # at eps down to below roundoff, no run gives back what an earlier
    # prefix of its own factors had reached
    for V in prefix_instances():
        n = V.shape[0]
        start = float(np.linalg.norm(V - np.eye(n), "fro"))
        for eps in (1e-6, 1e-12, 1e-14, 1e-16):
            _, trace = greedy_decompose(V, max_m=n, eps=eps)
            best = min([start] + [row.residual for row in trace.rows])
            assert trace.final_residual <= best + 1e-12, (n, eps, trace.m)


def test_greedy_borderline_rank_keeps_all_factors():
    # one plane turns by a few 1e-6 rad, above the roundoff floor: the product
    # needs all 96 reflections, and min_factors counts all 96
    V, _ = synthesize(GeneratorSpec("exponential", n=96, m=96, seed=69))
    assert min_factors(V) == 96
    _, trace = greedy_decompose(V, eps=1e-6)
    assert trace.m == 96
    assert trace.termination == "converged"


@pytest.mark.parametrize(
    "dist, n, seed, expected",
    [
        ("exponential", 96, 11582553306743618756, 96),
        ("exponential", 64, 7394952400341639618, 64),
        ("gaussian", 80, 201482392679466658, 80),
        # sigma(V - I) = 1.17e-6 twice: above eps/sqrt(2), so greedy keeps the
        # plane at eps 1e-6, but under the roundoff floor 1.35e-6 at n = 64
        ("exponential", 64, 6647808571131516706, 62),
    ],
)
def test_min_factors_counts_planes_above_the_roundoff_floor(dist, n, seed, expected):
    # n = m products whose smallest plane turns by 1e-6 to 1e-5 rad, so that
    # min_factors depends on where its singular-value threshold lies
    V, _ = synthesize(GeneratorSpec(dist, n=n, m=n, seed=seed))
    _, trace = greedy_decompose(V, eps=1e-6)
    assert trace.m == n
    assert trace.termination == "converged"
    assert min_factors(V) == expected


def recorder(monkeypatch, module, name):
    """Replace module.name by a wrapper that appends each call's first argument's shape."""
    shapes, original = [], getattr(module, name)

    def recording(A, *args, **kwargs):
        shapes.append(np.shape(A))
        return original(A, *args, **kwargs)

    monkeypatch.setattr(module, name, recording)
    return shapes


def test_greedy_eigensolves_once_and_takes_schur_only_on_repeated_angles(monkeypatch):
    # one eigensolve at entry: of the r-by-r compression to range(V - I) when
    # (n - tr V)/2 and r stay within n/4, else of the n-by-n sym(V); after that
    # eigh sees only stacks of blocks of at most 2-by-2, one stack per round,
    # so the number of calls does not grow with p. Distinct angles take no
    # Schur factorization, and an angle repeated k times one of all p columns
    # of the compression; no SVD is taken
    n = 64
    sizes = recorder(monkeypatch, decompose, "symmetric_eigendecomposition")
    schur_shapes = recorder(monkeypatch, decompose, "schur")
    eigh_shapes = recorder(monkeypatch, np.linalg, "eigh")

    def no_svd(*args, **kwargs):
        raise AssertionError("greedy_decompose must not take an SVD")

    monkeypatch.setattr(decompose, "_fixed_subspace_dim", no_svd)
    rng = np.random.default_rng(42)
    # (V, p, entry eigensolve order, schur shapes); p = 48 has (n - tr V)/2
    # above n/4, and five repeated angles make r = 17, past the n/4 columns
    products = [
        (materialize(random_product(np.random.default_rng(42 + p), n, p)), p, r, [])
        for p, r in ((6, 6), (48, n))
    ]
    for k, r in ((2, 11), (5, n)):
        p = 2 * k + 7
        products.append((rotations(rng, n, [0.8] * k + [0.3, 1.9, 2.6], 1), p, r, [(p, p)]))
    calls = []
    for V, p, r, schur_expected in products:
        sizes.clear(), schur_shapes.clear(), eigh_shapes.clear()
        _, trace = greedy_decompose(V, eps=1e-6)
        assert trace.m == p
        assert sizes == [(r, r)]
        assert schur_shapes == schur_expected
        assert eigh_shapes[0] == (r, r)
        assert all(max(shape[-2:]) <= 2 for shape in eigh_shapes[1:]), eigh_shapes
        calls.append(len(eigh_shapes))
    assert len(set(calls)) == 1


def test_range_basis_spans_the_moving_subspace():
    # r = rank(V - I) orthonormal columns, C = Q^T V Q, and dropped equal to
    # the norm of what the compression leaves of V - I, computed densely;
    # past n/4 columns the basis gives up
    n = 64
    rng = np.random.default_rng(49)
    for p in (1, 8, 16, 17):
        V = materialize(random_product(rng, n, p))
        basis = decompose._range_basis(V)
        if p > n // 4:
            assert basis is None
            continue
        Q, C, dropped = basis
        assert Q.shape == (n, p)
        np.testing.assert_allclose(Q.T @ Q, np.eye(p), rtol=0, atol=1e-14)
        np.testing.assert_allclose(C, Q.T @ V @ Q, rtol=0, atol=1e-14)
        kept = Q @ (C - np.eye(p)) @ Q.T
        assert abs(dropped - np.linalg.norm(V - np.eye(n) - kept)) <= 1e-15
        assert dropped <= 1e-13


def packed_reflections(rng, n, k):
    """Product of k reflections along disjoint supports of about 5 of the leading rows.

    Each direction has entries at scale 1 and one at a scale between 1e-1
    and 1e-3, so parallel columns of one reflection come before another
    reflection's columns in descending norm order.
    """
    supports = np.array_split(rng.permutation(min(n, 5 * k)), k)
    directions = np.zeros((k, n))
    for row, support in zip(directions, supports):
        scales = np.append(np.ones(support.size - 1), 10.0 ** -rng.uniform(1, 3))
        row[support] = rng.standard_normal(support.size) * scales
    return materialize(HouseholderProduct(n, directions / np.linalg.norm(directions, axis=1, keepdims=True)))


@pytest.mark.parametrize("n", [24, 64, 192])
def test_range_basis_keeps_the_leading_run_of_each_qr(n):
    # a pass's QR leaves a column parallel to a kept one at roundoff, and its
    # Q column there is noise on the leading rows, which other supports hold;
    # a column kept after it would carry that noise's direction into the
    # residual, and the next pass would add a column beyond rank(V - I)
    rng = np.random.default_rng(33)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        V = packed_reflections(rng, n, k)
        A = V - np.eye(n)
        Q, C, dropped = decompose._range_basis(V)
        assert Q.shape[1] == np.linalg.matrix_rank(A) == k
        assert np.linalg.norm(A - Q @ (Q.T @ A)) <= 1e-12
        kept = Q @ (C - np.eye(k)) @ Q.T
        assert abs(dropped - np.linalg.norm(A - kept)) <= 1e-15
        _, trace = greedy_decompose(V, eps=1e-10)
        assert (trace.termination, trace.m) == ("converged", k)


def disjoint_reflections(rng, n, k):
    """Product of k reflections along sparse directions with disjoint supports: -1 k times."""
    supports = np.array_split(rng.permutation(n)[: 4 * k], k)
    directions = np.zeros((k, n))
    for row, support in zip(directions, supports):
        row[support] = rng.standard_normal(support.size)
    return materialize(HouseholderProduct(n, directions / np.linalg.norm(directions, axis=1, keepdims=True)))


def lowrank_instances():
    """(label, V, eps values) at n = 192 and 256, and at small n, for every route of the router.

    The noisy product is 1e-9 from orthogonal, so it is checked only at eps
    above that: below it, the rank counts of its noise depend on the Schur
    basis, and the dense route disagrees with the oracle there as well.
    """
    rng = np.random.default_rng(48)
    loose = (0.05, 1e-6, 1e-10)
    cases = []
    for n in (12, 24, 192, 256):
        cases.append((f"identity-n{n}", np.eye(n), loose))
        cases.append((f"one-reflection-n{n}", materialize(random_product(rng, n, 1)), loose))
        for p in sorted({2, n // 16 + 2, n // 4}):
            cases.append((f"gaussian-n{n}-p{p}", materialize(random_product(rng, n, p)), loose))
        cases.append((f"tiny-planes-n{n}", rotations(rng, n, [0.9, 2.2, 1e-6, 3e-6, 1e-5]), loose))
        cases.append((f"repeated-angles-n{n}", rotations(rng, n, [0.7, 0.7, 0.7, 2.4, 2.4], 1), loose))
        cases.append((f"minus-one-times-3-n{n}", disjoint_reflections(rng, n, 3), loose))
        noisy = materialize(random_product(rng, n, 3))
        G = rng.standard_normal((n, n))
        cases.append((f"product-plus-noise-n{n}", noisy + 1e-9 * G / np.linalg.norm(G), (0.05, 1e-6)))
        # rank n/4 + 2 at (n - tr V)/2 around 0.01
        cases.append((f"many-small-planes-n{n}", rotations(rng, n, np.full(n // 8 + 1, 0.05)), loose))
    return cases


LOWRANK_INSTANCES = lowrank_instances()


def test_lowrank_router_matches_full_eigh_oracle_on_every_route(monkeypatch):
    # the router reads (n - tr V)/2, the range basis and rest, not n; every
    # route must agree with the sequential oracle on one real Schur form of the
    # full-eigh compression, and the sweep must reach all four routes
    sizes = recorder(monkeypatch, decompose, "symmetric_eigendecomposition")
    range_basis, bases = decompose._range_basis, []
    monkeypatch.setattr(decompose, "_range_basis", lambda M: bases.append(range_basis(M)) or bases[-1])
    routes = {}

    def routed(V, max_m, eps):
        sizes.clear(), bases.clear()
        result = greedy_decompose(V, max_m=max_m, eps=eps)
        if not bases:
            route = "trace-routed dense"
        elif bases[0] is None:
            route = "cap fallback"
        elif sizes[-1] == V.shape:
            route = "rest-guard fallback"
        else:
            route = "low-rank"
            assert sizes == [(bases[0][0].shape[1],) * 2] and sizes[0] < V.shape
        routes.setdefault(route, set()).add(label)
        return result

    for label, V, eps_values in LOWRANK_INSTANCES:
        assert_matches_sequential_oracle(V, (V.shape[0], 3), eps_values, greedy=routed)
    assert set(routes) == {"low-rank", "trace-routed dense", "cap fallback", "rest-guard fallback"}, routes
    assert {"gaussian-n256-p64", "minus-one-times-3-n192", "repeated-angles-n256"} <= routes["low-rank"]
    assert {"product-plus-noise-n256", "many-small-planes-n192"} <= routes["cap fallback"]
    assert "tiny-planes-n256" in routes["rest-guard fallback"]


def test_clustered_sweep_runs_every_block_route(monkeypatch):
    # distinct angles and repeated -1s take no Schur factorization; a
    # repeated angle, or a pair of close angles whose planes mix beyond the
    # roundoff floor, leaves norm off the blocks of the compression and sends
    # all of it to one, and greedy factors nothing smaller
    schur_shapes = recorder(monkeypatch, decompose, "schur")
    blocks_of = decompose._greedy_blocks
    widths = []

    def recording_blocks(*args):
        blocks = blocks_of(*args)
        widths.append(blocks[0].shape[1])
        return blocks

    monkeypatch.setattr(decompose, "_greedy_blocks", recording_blocks)
    routes = {}
    for label, V, max_m in CLUSTERED_INSTANCES:
        for eps in (1e-6, 1e-10):
            schur_shapes.clear(), widths.clear()
            greedy_decompose(V, max_m=max_m, eps=eps)
            assert schur_shapes in ([], [(widths[0], widths[0])]), (label, eps, schur_shapes)
            routes.setdefault("all of the compression" if schur_shapes else "none", []).append(label)
    assert set(routes) == {"none", "all of the compression"}, routes
    assert "minus-one-times-6" in routes["none"]
    assert {"repeated-angles", "pairs-1e-05-apart"} <= set(routes["all of the compression"])


def test_fixed_dimension_from_symmetric_spectrum_matches_svd():
    # for orthogonal W, the singular values of W - I are sqrt(2(1 - mu)) over
    # the eigenvalues mu of sym(W), and both rank counts apply the same floor
    checked = 0
    for dist in DISTRIBUTIONS:
        for n in (16, 48, 96):
            for m in (1, n // 3, n):
                for seed in range(3):
                    W, _ = synthesize(GeneratorSpec(dist, n=n, m=m, seed=1000 * n + 10 * m + seed))
                    mu = np.linalg.eigvalsh(symmetric_part(W))
                    assert _moving_rank(mu, n) == min_factors(W), (dist, n, m, seed)
                    checked += 1
    assert checked == len(DISTRIBUTIONS) * 27


# ------------------------------------------------------------ trace records


def test_trace_row_bookkeeping():
    rng = np.random.default_rng(17)
    n, m = 16, 6
    V = materialize(random_product(rng, n, m))
    _, trace = greedy_decompose(V, eps=1e-6)
    assert [row.iteration for row in trace.rows] == list(range(trace.m))
    assert trace.rows[0].dim_e1 == n - min_factors(V)
    assert trace.rows[0].trace == pytest.approx(np.trace(V))
    assert trace.rows[-1].residual == trace.final_residual
    assert trace.final_dim_e1 == n


def test_trace_residuals_match_prefixes_on_perturbed_inputs():
    # a 2e-8 perturbation leaves T about 1e-8 off its diagonal blocks, which
    # every residual must carry; ||P - V||_F is exact even for V not orthogonal
    n = 24
    for m in (6, 13, 24):
        for seed in range(3):
            V, _ = synthesize(GeneratorSpec("gaussian", n=n, m=m, seed=900 + seed))
            G = np.random.default_rng(seed).standard_normal((n, n))
            V = V + 2e-8 * G / np.linalg.norm(G)
            assert np.linalg.norm(V.T @ V - np.eye(n)) > 1e-8
            for eps in (1e-6, 1e-10):
                product, trace = greedy_decompose(V, eps=eps)
                for j, row in enumerate(trace.rows):
                    prefix = HouseholderProduct(n, product.directions[: j + 1])
                    exact = np.linalg.norm(materialize(prefix) - V, "fro")
                    assert abs(row.residual - exact) <= 1e-12, (m, seed, eps, j)


@pytest.mark.parametrize("case", TINY_ANGLE_INSTANCES, ids=[c[0] for c in TINY_ANGLE_INSTANCES])
def test_fixed_dimension_changes_by_exactly_one_per_step(case):
    # a plane turned by less than the rank floor counts as fixed, so its
    # first step lowers dim_e1 by one and its second raises it back. At
    # eps = 1e-6 such planes, under 1.2e-6 in residual, are not stepped
    _, V, _ = case
    for eps, expected in ((1e-6, {1}), (1e-10, {-1, 1})):
        _, trace = greedy_decompose(V, max_m=24, eps=eps)
        dims = [row.dim_e1 for row in trace.rows] + [trace.final_dim_e1]
        steps = np.diff(dims)
        assert set(steps.tolist()) == expected, dims


@pytest.mark.parametrize("n,m,seed", [(8, 3, 0), (16, 16, 1), (24, 10, 2)])
def test_trace_recursion_for_trace_and_eigenspace(n, m, seed):
    # tr(V_{k+1}) - tr(V_k) = -2 lambda_min((V_k)_sym), and the fixed subspace
    # grows by exactly one dimension per iteration
    rng = np.random.default_rng(seed)
    V = materialize(random_product(rng, n, m))
    _, trace = greedy_decompose(V, eps=1e-6)
    traces = [row.trace for row in trace.rows] + [trace.final_trace]
    dims = [row.dim_e1 for row in trace.rows] + [trace.final_dim_e1]
    for k, row in enumerate(trace.rows):
        assert abs(traces[k + 1] - traces[k] + 2.0 * row.lambda_min) <= 1e-8 * n
        assert dims[k + 1] == dims[k] + 1


def test_untouched_eigenvectors_are_preserved():
    # eigenvectors of the working matrix orthogonal to the chosen direction
    # stay eigenvectors after the update; checked on the fixed subspace
    rng = np.random.default_rng(18)
    n, m = 12, 4
    V = materialize(random_product(rng, n, m)).copy()
    for _ in range(m):
        spectrum = symmetric_eigendecomposition(symmetric_part(V))
        u = spectrum.eigenvectors[:, 0]
        fixed = spectrum.eigenvectors[:, np.abs(spectrum.eigenvalues - 1.0) <= 1e-9]
        V_next = V - 2.0 * np.outer(u, u @ V)
        for w in fixed.T:
            assert np.linalg.norm(V_next @ w - V @ w) <= 1e-8
        V = V_next


# --------------------------------------------------------------- qr_baseline


def test_qr_baseline_on_worked_example(reflection_3x3):
    product, diagonal = qr_baseline(reflection_3x3)
    assert product.m == 3
    np.testing.assert_allclose(diagonal, [-1.0, -1.0, 1.0], atol=1e-12)
    dense = [materialize(HouseholderProduct(3, [f.u])) for f in product.factors]
    np.testing.assert_allclose(
        dense[0],
        np.array([[-5, 20, 40], [20, 37, -16], [40, -16, 13]]) / 45.0,
        atol=1e-12,
    )
    np.testing.assert_allclose(
        dense[1], np.array([[5, 0, 0], [0, -3, 4], [0, 4, 3]]) / 5.0, atol=1e-12
    )
    np.testing.assert_allclose(dense[2], np.diag([1.0, 1.0, -1.0]), atol=1e-12)


def test_qr_baseline_identity_needs_no_reflectors():
    product, diagonal = qr_baseline(np.eye(6))
    assert product.m == 0
    np.testing.assert_array_equal(diagonal, np.ones(6))


def test_qr_baseline_reconstructs_random_orthogonal():
    rng = np.random.default_rng(22)
    n = 16
    V = haar_orthogonal(rng, n)
    product, diagonal = qr_baseline(V)
    assert product.m <= n
    np.testing.assert_allclose(np.abs(diagonal), np.ones(n), atol=1e-12)
    reconstruction = materialize(product) @ np.diag(diagonal)
    assert np.linalg.norm(reconstruction - V, "fro") <= 1e-8 * n


def test_qr_baseline_uses_more_factors_than_greedy(reflection_3x3):
    qr_product, _ = qr_baseline(reflection_3x3)
    greedy_product, _ = greedy_decompose(reflection_3x3, eps=1e-8)
    assert qr_product.m == 3
    assert greedy_product.m == 1


# ------------------------------------------------------ residual_upper_bound


def test_bound_is_zero_for_identity_at_zero_factors():
    assert residual_upper_bound(np.eye(6), 0) == 0.0


def test_bound_is_zero_for_exact_pair_at_two_factors():
    # directions with exactly representable entries keep the arithmetic exact
    n = 8
    e1 = np.zeros(n)
    e1[0] = 1.0
    half = np.zeros(n)
    half[:4] = 0.5
    V = materialize(
        HouseholderProduct(n, [make_reflector(e1).u, make_reflector(half).u])
    )
    assert residual_upper_bound(V, 2) == 0.0


def test_bound_is_loose_for_odd_factor_counts():
    # a single reflection is recovered exactly, yet the bound stays at sqrt(2)
    rng = np.random.default_rng(23)
    V = materialize(random_product(rng, 7, 1))
    np.testing.assert_allclose(residual_upper_bound(V, 1), np.sqrt(2.0), atol=1e-10)


def test_bound_matches_manual_formula():
    rng = np.random.default_rng(26)
    n = 10
    V = haar_orthogonal(rng, n)
    lam = np.linalg.eigvalsh(symmetric_part(V))
    for m in (0, 1, 4, 7, 10):
        expected = np.sqrt(
            max(2.0 * (n - np.trace(V) - 2 * (m // 2) + lam[:m].sum()), 0.0)
        )
        np.testing.assert_allclose(residual_upper_bound(V, m), expected, atol=1e-12)


def test_bound_is_tight_at_even_counts_for_positive_determinant():
    # complex eigenvalues pair up, so every two greedy steps retire one pair;
    # at even m the bound coincides with the measured residual
    for seed in (27, 28):
        rng = np.random.default_rng(seed)
        n = 12
        V = haar_orthogonal(rng, n)
        if np.linalg.det(V) < 0:
            V = V @ np.diag([-1.0] + [1.0] * (n - 1))  # flip into SO(n)
        _, trace = greedy_decompose(V, eps=1e-14)
        residuals = truncated_residuals(V, trace)
        for m in range(0, n + 1, 2):
            np.testing.assert_allclose(
                residuals[m], residual_upper_bound(V, m), atol=1e-8
            )


def test_bound_can_undershoot_the_greedy_at_odd_counts():
    # two factors with strongly overlapping directions: the bottom eigenvalue
    # pair of the symmetric part is -1 + 2k^2 > 0 for k^2 > 1/2, and the
    # stated bound at m=1 drops below the true single-reflection distance 2
    n = 6
    k = 0.8
    u1 = np.zeros(n)
    u1[0] = 1.0
    u2 = np.zeros(n)
    u2[0], u2[1] = k, np.sqrt(1.0 - k * k)
    V = materialize(HouseholderProduct(n, [make_reflector(u1).u, make_reflector(u2).u]))
    distance = greedy_decompose(V, max_m=1, eps=1e-6)[1].final_residual
    np.testing.assert_allclose(distance, 2.0, atol=1e-10)
    assert residual_upper_bound(V, 1) < distance - 0.1


def test_bound_rejects_out_of_range_m():
    with pytest.raises(ValueError, match="m must be"):
        residual_upper_bound(np.eye(4), 5)
    with pytest.raises(ValueError, match="m must be"):
        residual_upper_bound(np.eye(4), -1)


# ---------------------------------------------------------------- min_factors


def test_min_factors_examples():
    assert min_factors(np.eye(7)) == 0
    rng = np.random.default_rng(25)
    assert min_factors(materialize(random_product(rng, 7, 1))) == 1
    assert min_factors(-np.eye(8)) == 8


@pytest.mark.parametrize("n,m", [(8, 1), (8, 5), (16, 9), (24, 24)])
def test_min_factors_of_random_products(n, m):
    rng = np.random.default_rng(100 + n + m)
    assert min_factors(materialize(random_product(rng, n, m))) == m


@pytest.mark.parametrize("n", [8, 16, 32])
def test_greedy_terminates_at_the_minimal_count(n):
    rng = np.random.default_rng(300 + n)
    for m in (1, n // 2, n):
        V = materialize(random_product(rng, n, m))
        _, trace = greedy_decompose(V, eps=1e-6)
        assert trace.m == min_factors(V) == m
        assert trace.final_residual <= 1e-6
