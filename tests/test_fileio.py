import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from hhfactor import HouseholderProduct, Reflector, greedy_decompose, make_reflector, materialize
from hhfactor import fileio


def test_matrix_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((7, 5)) * np.logspace(-12, 12, 5)
    path = tmp_path / "m.mat"
    fileio.save_matrix(path, M)
    np.testing.assert_array_equal(fileio.load_matrix(path), M)


def test_matrix_reserialization_is_stable(tmp_path):
    rng = np.random.default_rng(1)
    M = rng.standard_normal((4, 4))
    path = tmp_path / "m.mat"
    fileio.save_matrix(path, M)
    text = path.read_text()
    fileio.save_matrix(path, fileio.load_matrix(path))
    assert path.read_text() == text


def test_matrix_parse_errors():
    with pytest.raises(ValueError, match="empty"):
        fileio.parse_matrix("")
    with pytest.raises(ValueError, match="header"):
        fileio.parse_matrix("3\n1 2 3\n")
    with pytest.raises(ValueError, match="rows"):
        fileio.parse_matrix("2 2\n1 2\n")
    with pytest.raises(ValueError, match="entries"):
        fileio.parse_matrix("1 3\n1 2\n")


@pytest.mark.parametrize("entry", ["nan", "NaN", "inf", "-inf", "1e999", "-1e999"])
def test_matrix_parse_rejects_non_finite_entries(entry):
    with pytest.raises(ValueError, match="non-finite entries"):
        fileio.parse_matrix(f"1 3\n1 {entry} 0\n")


def test_matrix_parse_shapes():
    np.testing.assert_array_equal(fileio.parse_matrix("1 1\n-2.5\n"), [[-2.5]])
    with pytest.raises(ValueError, match="empty"):
        fileio.parse_matrix("\n  \n")
    with pytest.raises(ValueError, match="expected 3 matrix rows, found 2"):
        fileio.parse_matrix("3 2\n1 2\n3 4\n")
    with pytest.raises(ValueError, match="expected 1 matrix rows, found 2"):
        fileio.parse_matrix("1 2\n1 2\n3 4\n")
    with pytest.raises(ValueError, match="row 1 has 3 entries, expected 2"):
        fileio.parse_matrix("2 2\n1 2\n3 4 5\n")
    with pytest.raises(ValueError, match="expected 2 matrix rows, found 1"):
        fileio.parse_matrix("2 0\n1\n")


@pytest.mark.parametrize("shape", [(2, 0), (0, 0), (0, 3)])
def test_matrix_without_entries_round_trips(shape):
    M = np.empty(shape)
    assert fileio.parse_matrix(fileio.format_matrix(M)).shape == shape


def per_value_format(M):
    """The formatter one value at a time: the reference for the row format."""
    lines = [f"{M.shape[0]} {M.shape[1]}"]
    lines.extend(" ".join(fileio.FLOAT_FMT % value for value in row) for row in M)
    return "\n".join(lines) + "\n"


def test_format_matrix_rejects_non_matrix():
    with pytest.raises(ValueError, match="expected a matrix"):
        fileio.format_matrix(np.ones(3))


def test_format_matrix_matches_per_value_format():
    tiny = np.finfo(float).tiny
    M = np.array(
        [
            [-0.0, 0.0, 5e-324, tiny / 3, -tiny],
            [1e308, -1.7976931348623157e308, 3.0, -42.0, 2.0**53],
            [0.1, 1 / 3, -2.5e-17, 123456789.0, 1e-300],
        ]
    )
    assert fileio.format_matrix(M) == per_value_format(M)
    assert fileio.format_matrix(M).splitlines()[1].startswith("-0 0 4.9406564584124654e-324")
    assert fileio.format_matrix(np.array([[7, -3]])) == "1 2\n7 -3\n"
    assert fileio.format_matrix(np.empty((2, 0))) == per_value_format(np.empty((2, 0)))


FINITE_MATRICES = arrays(
    np.float64,
    array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    elements=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)


@settings(deadline=None, max_examples=100)
@given(FINITE_MATRICES, st.data())
def test_matrix_text_roundtrip_and_non_finite_rejection(M, data):
    text = fileio.format_matrix(M)
    assert text == per_value_format(M)
    np.testing.assert_array_equal(fileio.parse_matrix(text), M)
    i = data.draw(st.integers(0, M.shape[0] - 1))
    j = data.draw(st.integers(0, M.shape[1] - 1))
    rows = text.splitlines()
    values = rows[i + 1].split()
    values[j] = data.draw(st.sampled_from(["nan", "inf", "-inf", "1e999", "-2e400"]))
    rows[i + 1] = " ".join(values)
    with pytest.raises(ValueError, match="non-finite entries"):
        fileio.parse_matrix("\n".join(rows))


def test_save_product_matches_per_value_format(tmp_path):
    directions = ([1.0, -0.0, 5e-324, 0.0, 1e-300], [0.6, -0.8, 1e-308, -5e-324, 0.0])
    product = HouseholderProduct(5, np.array(directions))
    path = tmp_path / "p.hprod"
    fileio.save_product(path, product)
    rows = (" ".join(fileio.FLOAT_FMT % value for value in f.u) for f in product.factors)
    assert path.read_text() == "HPROD 5 2\n" + "".join(row + "\n" for row in rows)


def test_product_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    product = HouseholderProduct(
        9, [make_reflector(rng.standard_normal(9)).u for _ in range(4)]
    )
    path = tmp_path / "p.hprod"
    fileio.save_product(path, product)
    loaded = fileio.load_product(path)
    assert loaded.n == 9 and loaded.m == 4
    for original, restored in zip(product.factors, loaded.factors):
        assert np.max(np.abs(original.u - restored.u)) <= 1e-15


def test_empty_product_roundtrip(tmp_path):
    path = tmp_path / "id.hprod"
    fileio.save_product(path, HouseholderProduct(6))
    loaded = fileio.load_product(path)
    assert loaded.m == 0
    np.testing.assert_array_equal(materialize(loaded), np.eye(6))


def test_product_parse_errors(tmp_path):
    path = tmp_path / "bad.hprod"
    path.write_text("NOPE 3 1\n1 0 0\n")
    with pytest.raises(ValueError, match="header"):
        fileio.load_product(path)
    path.write_text("HPROD 3 2\n1 0 0\n")
    with pytest.raises(ValueError, match="reflector rows"):
        fileio.load_product(path)
    path.write_text("\n  \n\n")
    with pytest.raises(ValueError, match="empty factored file"):
        fileio.load_product(path)


def test_trace_csv_roundtrip_and_recursion(tmp_path):
    rng = np.random.default_rng(3)
    n = 12
    product = HouseholderProduct(
        n, [make_reflector(rng.standard_normal(n)).u for _ in range(5)]
    )
    V = materialize(product)
    _, trace = greedy_decompose(V, eps=1e-6)
    path = tmp_path / "trace.csv"
    fileio.save_trace_csv(path, trace)
    assert path.read_text().splitlines()[0] == "iter,residual,lambda_min,trace,dim_e1"

    rows = fileio.load_trace_csv(path)
    assert [row.iteration for row in rows] == list(range(trace.m))
    for persisted, original in zip(rows, trace.rows):
        assert persisted == original  # 17 significant digits round-trip doubles
    # the re-read rows satisfy the trace recursion and eigenspace growth
    for earlier, later in zip(rows, rows[1:]):
        assert abs(later.trace - earlier.trace + 2.0 * earlier.lambda_min) <= 1e-8 * n
        assert later.dim_e1 == earlier.dim_e1 + 1


TRACE_HEADER = "iter,residual,lambda_min,trace,dim_e1\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ("a,b\n", "header"),
        (TRACE_HEADER + "0,1.0,-1.0\n", "3 fields"),
        (TRACE_HEADER + "0,1.0,-1.0,2.0,3,4\n", "6 fields"),
        (TRACE_HEADER + "0,1.0,-1.0,2.0,3\n1,nan,-1.0,2.0,4\n", "row 1 has non-finite"),
    ],
    ids=["bad-header", "short-row", "long-row", "nan-row"],
)
def test_trace_csv_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "trace.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        fileio.load_trace_csv(path)
