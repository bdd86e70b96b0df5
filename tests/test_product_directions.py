"""Every producer's direction array against the per-factor Reflector path, and
block apply and materialize against one rank-1 update per factor.
Greedy's rows on a symmetric input against its -1 eigenspace.

Products used to be built one Reflector at a time; the arrays built in one
step must hold exactly the rows those Reflectors held, bit for bit. Products
used to act one rank-1 update at a time; the blocked UT transform that
replaced that loop must agree with it within roundoff, 1e-13 per factor.
"""

import numpy as np
import pytest

from hhfactor import (
    DISTRIBUTIONS,
    GeneratorSpec,
    HouseholderProduct,
    Reflector,
    apply,
    greedy_decompose,
    make_reflector,
    materialize,
    qr_baseline,
    symmetric_eigendecomposition,
    symmetric_part,
    synthesize,
)
from hhfactor import fileio
from hhfactor.generators import reflector_directions

SPECS = [
    GeneratorSpec(distribution, n=n, m=m, seed=seed)
    for distribution in DISTRIBUTIONS
    for n, m in ((9, 9), (24, 5))
    for seed in (0, 1)
]


def assert_rows_are_reflectors(directions, expected_rows):
    assert directions.shape == (len(expected_rows), directions.shape[1])
    for row, expected in zip(directions, expected_rows):
        np.testing.assert_array_equal(row, expected)


def per_factor_apply(directions, X):
    """H_1 ... H_m X as one rank-1 update per factor, the last direction first."""
    Y = np.array(X, dtype=float)
    for u in directions[::-1]:
        Y -= 2.0 * np.outer(u, u @ Y)
    return Y


def per_factor_matrix(directions, n):
    """H_1 ... H_m as one rank-1 update per factor, the first direction first."""
    M = np.eye(n)
    for u in directions:
        M -= 2.0 * np.outer(M @ u, u)
    return M


def roundoff_tol(m):
    return 1e-13 * max(m, 1)


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_synthesize_matches_per_factor_construction(spec):
    V, product = synthesize(spec)
    factors = [make_reflector(d) for d in reflector_directions(spec)]
    assert_rows_are_reflectors(product.directions, [f.u for f in factors])
    expected = per_factor_matrix([f.u for f in factors], spec.n)
    assert np.abs(V - expected).max() <= roundoff_tol(spec.m)


ORACLE_N = 140
ORACLE_MS = (0, 1, 63, 64, 65, 128, 129, 130)  # both sides of one and two blocks of 64


def oracle_directions(kind, m, rng, n=ORACLE_N):
    """m unit rows of n entries: generic, or a set that stresses the UT transform."""
    def unit(rows):
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    u = unit(rng.standard_normal((1, n)))
    if kind == "random":
        return unit(rng.standard_normal((m, n)))
    if kind == "repeated":
        return np.repeat(u, m, axis=0)
    if kind == "alternating":  # u, -u, u, ...; the product keeps one canonical sign
        return np.repeat(u, m, axis=0) * np.where(np.arange(m) % 2, -1.0, 1.0)[:, None]
    if kind == "close":  # rows about 1e-8 apart
        return unit(u + 1e-8 * unit(rng.standard_normal((m, n))))
    assert kind == "orthonormal"
    return np.linalg.qr(rng.standard_normal((n, m)))[0].T


ORACLE_KINDS = ("random", "repeated", "alternating", "close", "orthonormal")


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@pytest.mark.parametrize("m", ORACLE_MS)
@pytest.mark.parametrize("k", [0, 1, 3, 96])
@pytest.mark.parametrize("n", [1, 33, ORACLE_N, 500])
def test_block_apply_matches_rank_one_oracle(kind, m, k, n):
    rng = np.random.default_rng([ORACLE_KINDS.index(kind), m, k, n])
    product = HouseholderProduct(n, oracle_directions(kind, m, rng, n))
    X = rng.standard_normal((n, k)) * np.logspace(-3, 3, k)  # columns of many norms
    X_before = X.copy()
    Y = apply(product, X)
    column_tol = roundoff_tol(m) * np.maximum(1.0, np.linalg.norm(X, axis=0))
    assert Y.shape == X.shape  # k = 0 included: an n-by-0 block comes back as one
    assert (np.abs(Y - per_factor_apply(product.directions, X)).max(axis=0) <= column_tol).all()
    if kind in ("repeated", "alternating") and m % 2 == 0:  # each pair multiplies out to I
        assert (np.abs(Y - X).max(axis=0) <= column_tol).all()
    np.testing.assert_array_equal(X, X_before)


@pytest.mark.parametrize("kind", ORACLE_KINDS)
@pytest.mark.parametrize("m", ORACLE_MS)
def test_materialize_matches_rank_one_oracle(kind, m):
    rng = np.random.default_rng([ORACLE_KINDS.index(kind), m])
    product = HouseholderProduct(ORACLE_N, oracle_directions(kind, m, rng))
    M = materialize(product)
    assert M.flags.c_contiguous
    assert np.abs(M - per_factor_matrix(product.directions, ORACLE_N)).max() <= roundoff_tol(m)


def test_materialize_single_factor_is_exact():
    u = make_reflector(np.random.default_rng(7).standard_normal(ORACLE_N)).u
    np.testing.assert_array_equal(
        materialize(HouseholderProduct(ORACLE_N, [u])), np.eye(ORACLE_N) - 2.0 * np.outer(u, u)
    )


def test_block_apply_and_materialize_at_dimension_zero():
    empty = HouseholderProduct(0)
    assert apply(empty, np.empty((0, 3))).shape == (0, 3)  # n = 0
    assert apply(empty, np.empty(0)).shape == (0,)
    M = materialize(empty)
    assert M.shape == (0, 0) and M.flags.c_contiguous


@pytest.mark.parametrize("spec", SPECS, ids=str)
@pytest.mark.parametrize("eps", [1e-6, 1e-10])
def test_greedy_and_qr_rows_are_canonical_reflectors(spec, eps):
    V, _ = synthesize(spec)
    for product in (greedy_decompose(V, eps=eps)[0], qr_baseline(V)[0]):
        assert_rows_are_reflectors(product.directions, [Reflector(u).u for u in product.directions])


SYMMETRIC_INPUTS = {str(spec): synthesize(spec)[0] for spec in SPECS if spec.distribution == "symmetric"}
SYMMETRIC_INPUTS["negated-identity-n9"] = -np.eye(9)


@pytest.mark.parametrize("V", SYMMETRIC_INPUTS.values(), ids=SYMMETRIC_INPUTS.keys())
@pytest.mark.parametrize("eps", [1e-6, 1e-10])
def test_greedy_on_symmetric_input_gives_an_orthonormal_basis_of_the_minus_one_eigenspace(V, eps):
    # a symmetric orthogonal V is I - 2P, P the projector onto its -1
    # eigenspace, so greedy's rows must be an orthonormal basis of that space,
    # one per eigenvalue -1: the per-eigenvector reflectors up to a rotation
    spectrum = symmetric_eigendecomposition(symmetric_part(V))
    negative = spectrum.eigenvectors[:, spectrum.eigenvalues < 0.0]
    product, trace = greedy_decompose(V, eps=eps)
    U = product.directions
    assert trace.termination == "converged"
    assert U.shape[0] == negative.shape[1]
    np.testing.assert_allclose(U @ U.T, np.eye(U.shape[0]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(U.T @ U, negative @ negative.T, rtol=0, atol=1e-12)


def test_load_product_matches_per_row_reflectors(tmp_path):
    rng = np.random.default_rng(5)
    U = rng.standard_normal((6, 7))
    U[1, 0] = -0.0
    U[2, :2] = [-1e-13, 0.0]
    U[3, 0] = 2e-13
    U /= np.linalg.norm(U, axis=1)[:, None]
    U[::2] *= -1.0  # non-canonical signs, as a hand-written file may hold
    lines = [" ".join(fileio.FLOAT_FMT % value for value in row) for row in U]
    path = tmp_path / "p.hprod"
    path.write_text("HPROD 7 6\n" + "\n".join(lines) + "\n")
    expected = [Reflector(np.array([float(v) for v in line.split()])).u for line in lines]
    assert_rows_are_reflectors(fileio.load_product(path).directions, expected)
