"""Every producer's direction array against the per-factor Reflector path.

Products used to be built one Reflector at a time; the arrays built in one
step must hold exactly the rows those Reflectors held, bit for bit.
"""

import numpy as np
import pytest

from hhfactor import (
    DISTRIBUTIONS,
    GeneratorSpec,
    Reflector,
    greedy_decompose,
    make_reflector,
    qr_baseline,
    symmetric_decompose,
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


def per_factor_matrix(factors, n):
    """materialize over a tuple of Reflectors, as it was written for them."""
    M = np.eye(n)
    for f in factors:
        M -= 2.0 * np.outer(M @ f.u, f.u)
    return M


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_synthesize_matches_per_factor_construction(spec):
    V, product = synthesize(spec)
    factors = [make_reflector(d) for d in reflector_directions(spec)]
    assert_rows_are_reflectors(product.directions, [f.u for f in factors])
    np.testing.assert_array_equal(V, per_factor_matrix(factors, spec.n))


@pytest.mark.parametrize("spec", SPECS, ids=str)
@pytest.mark.parametrize("eps", [1e-6, 1e-10])
def test_greedy_and_qr_rows_are_canonical_reflectors(spec, eps):
    V, _ = synthesize(spec)
    for product in (greedy_decompose(V, eps=eps)[0], qr_baseline(V)[0]):
        assert_rows_are_reflectors(product.directions, [Reflector(u).u for u in product.directions])


@pytest.mark.parametrize("spec", [s for s in SPECS if s.distribution == "symmetric"], ids=str)
def test_symmetric_decompose_matches_per_eigenvector_reflectors(spec):
    V, _ = synthesize(spec)
    spectrum = symmetric_eigendecomposition(symmetric_part(V))
    negative = np.flatnonzero(spectrum.eigenvalues < 0.0)
    expected = [Reflector(spectrum.eigenvectors[:, i]).u for i in negative]
    assert_rows_are_reflectors(symmetric_decompose(V).directions, expected)


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
