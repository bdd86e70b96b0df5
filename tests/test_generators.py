import numpy as np
import pytest

from hhfactor import (
    DISTRIBUTIONS,
    GeneratorSpec,
    min_factors,
    symmetric_eigendecomposition,
    synthesize,
)
from hhfactor.generators import haar_orthogonal, reflector_directions


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown distribution"):
        GeneratorSpec("cauchy", 8, 2, 0)
    with pytest.raises(ValueError, match="n must be positive"):
        GeneratorSpec("gaussian", n=0, m=1, seed=0)
    with pytest.raises(ValueError, match="m must be"):
        GeneratorSpec("gaussian", 8, 9, 0)
    with pytest.raises(ValueError, match="m must be"):
        GeneratorSpec("gaussian", 8, 0, 0)
    with pytest.raises(ValueError, match="sparse fraction"):
        GeneratorSpec("sparse", 8, 2, 0, sparse_fraction=0.0)
    with pytest.raises(ValueError, match="seed"):
        GeneratorSpec("gaussian", 8, 2, -1)


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_directions_are_unit_norm(distribution):
    spec = GeneratorSpec(distribution, n=40, m=6, seed=11)
    directions = reflector_directions(spec)
    assert directions.shape == (6, 40)
    np.testing.assert_allclose(np.linalg.norm(directions, axis=1), np.ones(6), atol=1e-12)


@pytest.mark.parametrize("distribution", DISTRIBUTIONS)
def test_generation_is_deterministic(distribution):
    spec = GeneratorSpec(distribution, n=20, m=5, seed=42)
    np.testing.assert_array_equal(reflector_directions(spec), reflector_directions(spec))
    V1, _ = synthesize(spec)
    V2, _ = synthesize(spec)
    np.testing.assert_array_equal(V1, V2)


def test_different_seeds_differ():
    a = reflector_directions(GeneratorSpec("gaussian", 16, 3, seed=0))
    b = reflector_directions(GeneratorSpec("gaussian", 16, 3, seed=1))
    assert not np.allclose(a, b)


def test_sparse_directions_have_prescribed_support():
    directions = reflector_directions(
        GeneratorSpec("sparse", n=100, m=10, seed=7, sparse_fraction=0.02)
    )
    for row in directions:
        assert np.count_nonzero(row) == 2  # ceil(0.02 * 100)


def test_correlated_directions_share_half_of_the_previous_vector():
    spec = GeneratorSpec("correlated", n=40, m=6, seed=13)
    directions = reflector_directions(spec)
    for previous, current in zip(directions, directions[1:]):
        # retained entries are the previous entries divided by one common
        # renormalization factor, so their ratios agree
        ratios = current / previous
        shared = max(
            int(np.sum(np.abs(ratios - r) < 1e-9)) for r in ratios
        )
        assert shared >= spec.n // 2


def test_bernoulli_directions_have_equal_magnitude_entries():
    directions = reflector_directions(GeneratorSpec("bernoulli", n=25, m=4, seed=3))
    np.testing.assert_allclose(np.abs(directions), 1.0 / np.sqrt(25), atol=1e-15)


def test_exponential_directions_are_nonnegative():
    directions = reflector_directions(GeneratorSpec("exponential", n=30, m=5, seed=9))
    assert (directions >= 0.0).all()


def test_symmetric_instance_spectrum():
    V, product = synthesize(GeneratorSpec("symmetric", n=12, m=5, seed=21))
    assert product.m == 5
    np.testing.assert_allclose(V, V.T, atol=1e-12)
    eigenvalues = symmetric_eigendecomposition((V + V.T) / 2.0).eigenvalues
    np.testing.assert_allclose(eigenvalues[:5], -np.ones(5), atol=1e-10)
    np.testing.assert_allclose(eigenvalues[5:], np.ones(7), atol=1e-10)


def test_symmetric_full_count_gives_negated_identity():
    V, _ = synthesize(GeneratorSpec("symmetric", n=8, m=8, seed=2))
    np.testing.assert_allclose(V, -np.eye(8), atol=1e-12)


@pytest.mark.parametrize("distribution", ["gaussian", "correlated", "exponential"])
def test_synthesized_instances_have_minimal_factor_count(distribution):
    spec = GeneratorSpec(distribution, n=48, m=11, seed=5)
    V, _ = synthesize(spec)
    assert min_factors(V) == 11


def test_sparse_instance_has_minimal_factor_count():
    # 2-sparse directions with random supports are independent in practice
    V, _ = synthesize(GeneratorSpec("sparse", n=100, m=10, seed=5, sparse_fraction=0.02))
    assert min_factors(V) == 10


def test_haar_orthogonal_is_orthogonal():
    rng = np.random.default_rng(17)
    Q = haar_orthogonal(rng, 30)
    assert np.linalg.norm(Q.T @ Q - np.eye(30), "fro") <= 1e-10 * 30
    assert min_factors(Q) == 30  # generic: no fixed directions
