import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hhfactor import (
    HouseholderProduct,
    Reflector,
    apply,
    check_orthogonal,
    enumerate_candidates,
    greedy_decompose,
    make_reflector,
    materialize,
    min_factors,
    qr_baseline,
    recover,
    residual_upper_bound,
    same_reflector,
    solve_column,
    symmetric_eigendecomposition,
    symmetric_part,
)
from hhfactor import fileio
from hhfactor import core
from hhfactor.core import SIGN_EPS


def random_product(rng, n, m):
    return HouseholderProduct(
        n, [make_reflector(rng.standard_normal(n)).u for _ in range(m)]
    )


# ---------------------------------------------------------------- reflectors


def test_make_reflector_normalizes():
    r = make_reflector([4 / 3, 2 / 3, 4 / 3])
    np.testing.assert_allclose(r.u, [2 / 3, 1 / 3, 2 / 3], atol=1e-15)


def test_make_reflector_keeps_unit_canonical_input():
    r = make_reflector([0.0, 0.0, 1.0])
    np.testing.assert_array_equal(r.u, [0.0, 0.0, 1.0])


def test_make_reflector_canonicalizes_sign():
    r = make_reflector([-1.0, 0.0])
    np.testing.assert_array_equal(r.u, [1.0, 0.0])


def test_make_reflector_rejects_zero():
    with pytest.raises(ValueError, match="degenerate reflector"):
        make_reflector(np.zeros(4))


def test_reflector_rejects_non_unit():
    with pytest.raises(ValueError, match="unit norm"):
        Reflector(np.array([1.0, 1.0]))


def test_reflector_rejects_non_vector():
    with pytest.raises(ValueError, match="must be a vector"):
        Reflector(np.eye(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_reflector_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        Reflector(np.array([bad, 1.0, 0.0]))


def test_reflector_direction_is_read_only():
    r = make_reflector([3.0, 4.0])
    with pytest.raises(ValueError):
        r.u[0] = 0.0


def test_same_reflector_identifies_signs():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(9)
    assert same_reflector(make_reflector(v), make_reflector(-v))
    assert not same_reflector(make_reflector(v), make_reflector(rng.standard_normal(9)))


def test_array_holding_values_compare_by_identity():
    # generated == and hash() would compare and hash the arrays and raise;
    # same_reflector compares values
    u = np.array([2 / 3, 1 / 3, 2 / 3])
    Y = (np.eye(3) - 2.0 * np.outer(u, u)) @ np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    makers = [
        lambda: Reflector(u),
        lambda: HouseholderProduct(3, [u, u]),
        lambda: symmetric_eigendecomposition(np.eye(2)),
        lambda: enumerate_candidates(Y[:, 0]),
        lambda: recover(Y),
    ]
    for make in makers:
        value, twin = make(), make()
        assert value == value and value != twin
        assert hash(value) == hash(value) != hash(twin)


@settings(deadline=None)
@given(
    arrays(
        np.float64,
        st.integers(2, 16),
        elements=st.floats(-1e3, 1e3, allow_nan=False),
    ).filter(lambda v: np.linalg.norm(v) > 1e-3)
)
def test_sign_of_input_does_not_matter(v):
    assert np.array_equal(make_reflector(v).u, make_reflector(-v).u)


# ------------------------------------------------------------------- apply


def test_apply_empty_product_is_identity():
    p = HouseholderProduct(3)
    np.testing.assert_array_equal(apply(p, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_apply_single_reflector_worked_example():
    p = HouseholderProduct(3, [make_reflector([2 / 3, 1 / 3, 2 / 3]).u])
    np.testing.assert_allclose(
        apply(p, [1.0, 1.0, 0.0]), [-1 / 3, 1 / 3, -4 / 3], atol=1e-15
    )


def test_apply_matches_dense_product():
    rng = np.random.default_rng(1)
    p = random_product(rng, 12, 3)
    x = rng.standard_normal(12)
    np.testing.assert_allclose(
        apply(p, x),
        materialize(p) @ x,
        atol=1e-10 * np.sqrt(12) * np.linalg.norm(x),
    )


def test_apply_rejects_dimension_mismatch():
    p = HouseholderProduct(3, [make_reflector([1.0, 0.0, 0.0]).u])
    with pytest.raises(ValueError, match="dimension mismatch"):
        apply(p, np.ones(4))


@settings(deadline=None, max_examples=50)
@given(st.integers(2, 64), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_apply_agrees_with_materialize_randomized(n, m, seed):
    rng = np.random.default_rng(seed)
    p = random_product(rng, n, min(m, n))
    x = rng.standard_normal(n)
    np.testing.assert_allclose(
        apply(p, x), materialize(p) @ x, atol=1e-9 * max(np.linalg.norm(x), 1.0)
    )


@settings(deadline=None, max_examples=50)
@given(st.integers(2, 32), st.integers(0, 2**32 - 1))
def test_single_reflection_is_an_involution(n, seed):
    rng = np.random.default_rng(seed)
    p = random_product(rng, n, 1)
    x = rng.standard_normal(n)
    np.testing.assert_allclose(
        apply(p, apply(p, x)), x, atol=1e-10 * max(np.linalg.norm(x), 1.0)
    )


@pytest.mark.parametrize("n, m", [(1, 1), (7, 0), (7, 3), (33, 33), (64, 9)])
@pytest.mark.parametrize("k", [1, 2, 17])
def test_block_apply_matches_vector_apply(n, m, k):
    rng = np.random.default_rng(n * 1000 + m * 10 + k)
    p = random_product(rng, n, m)
    X = rng.standard_normal((n, k))
    expected = np.column_stack([apply(p, X[:, j]) for j in range(k)])
    Y = apply(p, X)
    assert Y.shape == (n, k)
    assert np.linalg.norm(Y - expected) <= 1e-12 * np.linalg.norm(expected)
    np.testing.assert_array_equal(X, apply(HouseholderProduct(n), X))  # X is left alone


def test_block_apply_keeps_zero_columns_and_rejects_bad_shapes():
    p = HouseholderProduct(3, [make_reflector([2 / 3, 1 / 3, 2 / 3]).u])
    assert apply(p, np.empty((3, 0))).shape == (3, 0)
    for bad in (np.ones((4, 2)), np.ones((3, 2, 1)), 1.0):
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply(p, bad)


@pytest.mark.parametrize("shape", [(2,), (2, 3)], ids=["vector", "block"])
@pytest.mark.parametrize(
    "bad, message",
    [(1j, "real, got complex"), (np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite")],
)
def test_apply_rejects_complex_and_non_finite_input(shape, bad, message):
    # with u = e1 a NaN in x[0] used to spread to every entry of the result
    p = HouseholderProduct(2, [[1.0, 0.0]])
    x = np.ones(shape, dtype=complex if bad == 1j else float)
    x[0] = bad
    with pytest.raises(ValueError, match=message):
        apply(p, x)


@pytest.mark.parametrize("shape", [(67,), (33, 5)], ids=["vector", "block"])
def test_apply_finiteness_check_sees_every_entry_and_survives_overflow(shape):
    # the check is one dot product of x with itself: a bad entry anywhere makes
    # it NaN or inf, and a finite x whose sum of squares overflows is still
    # applied; neither case may warn
    rng = np.random.default_rng(5)
    p = random_product(rng, shape[0], 3)
    x = rng.standard_normal(shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for index in np.ndindex(shape):
            for bad in (np.nan, np.inf, -np.inf):
                y = x.copy()
                y[index] = bad
                with pytest.raises(ValueError, match="finite"):
                    apply(p, y)
        scale = 2.0**1000  # a power of two: scaling commutes with every rounding
        np.testing.assert_array_equal(apply(p, x * scale), apply(p, x) * scale)


def traced_peak_bytes(call):
    """Peak bytes that tracemalloc sees allocated during call(), above what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_block_apply_and_materialize_allocate_no_second_block():
    # numpy reports its allocations to tracemalloc. Beyond the n-by-k result
    # (the Fortran-ordered copy of X, or the dense matrix), the UT transform
    # keeps one update panel, the b-by-b T^-1 and T of each block, and a few
    # b-by-k arrays such as Z B^T and W^T.
    n, k, m = 512, 512, 128
    rng = np.random.default_rng(9)
    p = random_product(rng, n, m)
    X = rng.standard_normal((n, k))
    panel = core.PANEL * n * 8  # an update panel of at most PANEL rows of n entries
    small = 5 * core.BLOCK * k * 8  # a second n-by-k array would take 8 of these
    # materialize also copies the directions in reverse order, m-by-n
    for call, copies in ((lambda: apply(p, X), 0), (lambda: materialize(p), p.directions.nbytes)):
        call()  # the first call may load modules
        assert traced_peak_bytes(call) <= n * k * 8 + panel + small + copies


U_WORKED = np.array([2 / 3, 1 / 3, 2 / 3])
H_WORKED = np.eye(3) - 2.0 * np.outer(U_WORKED, U_WORKED)
X_WORKED = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

# (entry point, its real argument): the call must accept the argument and
# refuse it once it is complex, never keep only its real part
REAL_ENTRY_POINTS = {
    "check_orthogonal": (check_orthogonal, H_WORKED),
    "greedy_decompose": (greedy_decompose, H_WORKED),
    "min_factors": (min_factors, H_WORKED),
    "residual_upper_bound": (lambda V: residual_upper_bound(V, 1), H_WORKED),
    "qr_baseline": (qr_baseline, H_WORKED),
    "symmetric_part": (symmetric_part, H_WORKED),
    "symmetric_eigendecomposition": (symmetric_eigendecomposition, H_WORKED),
    "Reflector": (Reflector, U_WORKED),
    "make_reflector": (make_reflector, U_WORKED),
    "HouseholderProduct": (lambda U: HouseholderProduct(3, U), U_WORKED[None]),
    "solve_column-column": (lambda y: solve_column(y, X_WORKED[:, 0]), H_WORKED @ X_WORKED[:, 0]),
    "solve_column-guess": (lambda x: solve_column(H_WORKED @ X_WORKED[:, 0], x), X_WORKED[:, 0]),
    "enumerate_candidates": (enumerate_candidates, H_WORKED @ X_WORKED[:, 0]),
    "recover": (recover, H_WORKED @ X_WORKED),
    "format_matrix": (fileio.format_matrix, H_WORKED),
}


@pytest.mark.parametrize("entry", REAL_ENTRY_POINTS.values(), ids=REAL_ENTRY_POINTS.keys())
def test_complex_input_is_refused_not_cast_to_its_real_part(entry):
    call, real = entry
    call(real)
    with pytest.raises(ValueError, match="must be real, got complex entries"):
        call(real + 0j)


# -------------------------------------------------------------- materialize


def test_materialize_single_reflector(reflection_3x3):
    p = HouseholderProduct(3, [make_reflector([2 / 3, 1 / 3, 2 / 3]).u])
    np.testing.assert_allclose(materialize(p), reflection_3x3, atol=1e-15)


def test_materialize_empty_product():
    np.testing.assert_array_equal(materialize(HouseholderProduct(4)), np.eye(4))


def test_materialize_orthogonal_directions_commute_to_a_sum():
    u1 = make_reflector([1.0, 0.0, 0.0, 0.0])
    u2 = make_reflector([0.0, 0.0, 3.0, 4.0])
    p = HouseholderProduct(4, [u1.u, u2.u])
    expected = np.eye(4) - 2 * np.outer(u1.u, u1.u) - 2 * np.outer(u2.u, u2.u)
    np.testing.assert_allclose(materialize(p), expected, atol=1e-15)


def test_materialized_product_is_orthogonal():
    rng = np.random.default_rng(2)
    for n, m in [(5, 2), (16, 16), (33, 7)]:
        M = materialize(random_product(rng, n, m))
        assert np.linalg.norm(M.T @ M - np.eye(n), "fro") <= 1e-10 * n


def test_reflection_matrix_properties():
    # symmetric, involutory, determinant -1
    rng = np.random.default_rng(3)
    for n in (2, 5, 17):
        H = materialize(random_product(rng, n, 1))
        assert np.linalg.norm(H - H.T, "fro") <= 1e-9
        assert np.linalg.norm(H @ H - np.eye(n), "fro") <= 1e-9
        assert abs(np.linalg.det(H) + 1.0) <= 1e-9


# ----------------------------------------------------------- symmetric part


def test_symmetric_part_fixes_symmetric_input():
    A = np.array([[2.0, 1.0], [1.0, 5.0]])
    np.testing.assert_array_equal(symmetric_part(A), A)


def test_symmetric_part_of_rotation_is_scaled_identity():
    theta = 0.7
    c, s = np.cos(theta), np.sin(theta)
    R = np.array([[c, -s], [s, c]])
    np.testing.assert_allclose(symmetric_part(R), c * np.eye(2), atol=1e-15)


def test_symmetric_part_of_reflection_pair():
    # (H1 H2 + (H1 H2)^T)/2 = I - 2 u1 u1^T - 2 u2 u2^T + 2k (u1 u2^T + u2 u1^T)
    rng = np.random.default_rng(4)
    u1 = make_reflector(rng.standard_normal(6)).u
    u2 = make_reflector(rng.standard_normal(6)).u
    k = u1 @ u2
    V = materialize(
        HouseholderProduct(6, [u1, u2])
    )
    expected = (
        np.eye(6)
        - 2 * np.outer(u1, u1)
        - 2 * np.outer(u2, u2)
        + 2 * k * (np.outer(u1, u2) + np.outer(u2, u1))
    )
    np.testing.assert_allclose(symmetric_part(V), expected, atol=1e-12)


# ---------------------------------------------------- eigendecomposition


def test_eigendecomposition_identity():
    spectrum = symmetric_eigendecomposition(np.eye(5))
    np.testing.assert_allclose(spectrum.eigenvalues, np.ones(5))


def test_eigendecomposition_reflection_spectrum():
    rng = np.random.default_rng(5)
    r = make_reflector(rng.standard_normal(8))
    H = materialize(HouseholderProduct(8, [r.u]))
    spectrum = symmetric_eigendecomposition(H)
    np.testing.assert_allclose(spectrum.eigenvalues[0], -1.0, atol=1e-12)
    np.testing.assert_allclose(spectrum.eigenvalues[1:], np.ones(7), atol=1e-12)
    bottom = spectrum.eigenvectors[:, 0]
    assert min(np.linalg.norm(bottom - r.u), np.linalg.norm(bottom + r.u)) <= 1e-10


def test_eigendecomposition_pair_has_doubled_bottom_eigenvalue():
    rng = np.random.default_rng(6)
    u1 = make_reflector(rng.standard_normal(9)).u
    u2 = make_reflector(rng.standard_normal(9)).u
    k = u1 @ u2
    V = materialize(HouseholderProduct(9, [u1, u2]))
    spectrum = symmetric_eigendecomposition(symmetric_part(V))
    np.testing.assert_allclose(
        spectrum.eigenvalues[:2], [-1 + 2 * k**2] * 2, atol=1e-10
    )
    np.testing.assert_allclose(spectrum.eigenvalues[2:], np.ones(7), atol=1e-10)


def test_eigendecomposition_contract_on_random_symmetric_inputs():
    rng = np.random.default_rng(7)
    for n in (3, 10, 40):
        A = rng.standard_normal((n, n))
        A = (A + A.T) / 2
        spectrum = symmetric_eigendecomposition(A)
        lam, Q = spectrum.eigenvalues, spectrum.eigenvectors
        assert np.all(np.diff(lam) >= 0)
        assert np.linalg.norm(Q.T @ Q - np.eye(n), "fro") <= 1e-10 * n
        reconstruction = (Q * lam) @ Q.T
        assert np.linalg.norm(reconstruction - A, "fro") <= 1e-8 * n


def test_eigendecomposition_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_eigendecomposition(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigendecomposition_rejects_non_square():
    with pytest.raises(ValueError, match="expected a square matrix"):
        symmetric_eigendecomposition(np.ones((2, 3)))


def test_symmetric_part_eigenvalues_of_orthogonal_stay_in_unit_interval():
    # real parts of unit-modulus eigenvalues
    rng = np.random.default_rng(8)
    for n, m in [(6, 3), (12, 12)]:
        V = materialize(random_product(rng, n, m))
        lam = symmetric_eigendecomposition(symmetric_part(V)).eigenvalues
        assert lam[0] >= -1.0 - 1e-10
        assert lam[-1] <= 1.0 + 1e-10


def test_eigendecomposition_is_deterministic():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((12, 12))
    A = (A + A.T) / 2
    first = symmetric_eigendecomposition(A)
    second = symmetric_eigendecomposition(A.copy())
    np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
    np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)


# --------------------------------------------------------------- validation


def test_check_orthogonal_rejects_non_orthogonal():
    with pytest.raises(ValueError, match="not orthogonal"):
        check_orthogonal(np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_orthogonal_rejects_non_finite(bad):
    M = np.eye(3)
    M[1, 2] = bad
    with pytest.raises(ValueError, match="not orthogonal"):
        check_orthogonal(M)


def test_check_orthogonal_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        check_orthogonal(np.ones((2, 3)))


def canonical_sign_reference(u):
    """The scalar sign rule: flip u when its first entry above SIGN_EPS is negative."""
    nonzero = np.flatnonzero(np.abs(u) > SIGN_EPS)
    return -u if nonzero.size and u[nonzero[0]] < 0.0 else u


def test_product_rows_follow_the_scalar_sign_rule():
    rng = np.random.default_rng(11)
    U = rng.standard_normal((40, 6))
    U[::3, 0] = 0.0
    U[::5, :2] = rng.choice([-0.0, 0.0, -SIGN_EPS, SIGN_EPS], size=(8, 2))
    U /= np.linalg.norm(U, axis=1)[:, None]
    U[::2] *= -1.0
    p = HouseholderProduct(6, U)
    for row, u in zip(p.directions, U):
        np.testing.assert_array_equal(row, canonical_sign_reference(u))
        np.testing.assert_array_equal(row, Reflector(u).u)
    assert not p.directions.flags.writeable and p.directions.flags.c_contiguous
    assert [f.u.tolist() for f in p.factors] == p.directions.tolist()
    assert p.m == 40 and U.flags.writeable  # the caller's array is copied, not frozen


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[np.nan, 1.0, 0.0]], "finite with unit norm"),
        ([[1.0, 0.0, 0.0], [np.inf, 0.0, 0.0]], "direction 1 must be finite"),
        ([[0.6, 0.8, 1e-3]], "unit norm"),
        ([[0.0, 0.0, 0.0]], "unit norm"),
        ([1.0, 0.0, 0.0], "shape"),
    ],
)
def test_product_rejects_bad_directions(rows, message):
    with pytest.raises(ValueError, match=message):
        HouseholderProduct(3, rows)


def test_product_rejects_negative_dimension():
    with pytest.raises(ValueError, match="product dimension -3"):
        HouseholderProduct(-3)


def test_product_rejects_mismatched_factor_dimension():
    with pytest.raises(ValueError, match="dimension"):
        HouseholderProduct(3, [make_reflector([1.0, 0.0]).u])
