import re

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
    with pytest.raises(ValueError, match="row 0 has 3 entries, expected 2"):
        fileio.parse_matrix("2 2\n1 2 3\n4 5 6\n")  # every row one too long
    with pytest.raises(ValueError, match="row 1 has 1 entries, expected 2"):
        fileio.parse_matrix("3 2\n1 x\n3\n5 6\n")  # a wrong count is named before a bad token
    with pytest.raises(ValueError, match="row 0 has 1 entries, expected 0"):
        fileio.parse_matrix("1 0\n7\n")
    with pytest.raises(ValueError, match="expected 2 matrix rows, found 1"):
        fileio.parse_matrix("2 0\n1\n")


def per_token_parse(text):
    """The reader one float() per token: the reference for parse_matrix."""
    lines = [line for line in text.splitlines() if line.strip()]
    rows, cols = (int(v) for v in lines[0].split())
    M = np.empty((rows, cols))
    for i, line in enumerate(lines[1:]):
        M[i] = [float(v) for v in line.split()]
    return M


HAND_WRITTEN_TOKENS = (
    "1.", ".5", "+1", "1E5", "-0", "-0.", "+.5e-3", "007", "1e0", "-1E+308",
    "5e-324", "-4.9406564584124654e-324", "2.2250738585072009e-308", "1e-320",
    "1.7976931348623157e308", "0.1000000000000000055511151231257827",
)
NUMBER_TOKENS = st.one_of(
    st.sampled_from(HAND_WRITTEN_TOKENS),
    st.from_regex(
        r"[+-]?([0-9]{1,20}\.?[0-9]{0,20}|\.[0-9]{1,20})([eE][+-]?[0-9]{1,2})?", fullmatch=True
    ),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True).map(repr),
)
SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t", "\t "])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\n\n", "\r\n \t\r\n"])


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_reader_is_bit_identical_to_per_token_float(rows, cols, data):
    lines = [f"{rows} {cols}"]
    for _ in range(rows):
        tokens = data.draw(st.lists(NUMBER_TOKENS, min_size=cols, max_size=cols))
        line = data.draw(st.sampled_from(["", " ", "\t"])) + tokens[0]
        for token in tokens[1:]:
            line += data.draw(SEPARATORS) + token
        lines.append(line + data.draw(st.sampled_from(["", " ", "\t"])))
    text = "".join(line + data.draw(LINE_ENDS) for line in lines)
    parsed = fileio.parse_matrix(text)
    np.testing.assert_array_equal(parsed.view(np.uint64), per_token_parse(text).view(np.uint64))


@pytest.mark.parametrize(
    "token",
    ["1_0", "\u0661", "#", "1,5", "0x1p3"],
    ids=["underscore", "arabic-indic-one", "hash", "decimal-comma", "hex-float"],
)
def test_reader_refuses_tokens_outside_the_number_syntax(tmp_path, token):
    # float() reads "1_0" as 10 and the Arabic-Indic digit as 1; the reader
    # refuses both, and reads "#" as a bad token, not as a comment
    with pytest.raises(ValueError, match=re.escape(repr(token))):
        fileio.parse_matrix(f"2 2\n1 {token}\n3 4\n")
    path = tmp_path / "p.hprod"
    path.write_text(f"HPROD 2 1\n{token} 0\n")
    with pytest.raises(ValueError, match=re.escape(repr(token))):
        fileio.load_product(path)


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
