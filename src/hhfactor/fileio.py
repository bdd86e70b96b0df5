"""Plain-text file formats: matrices, reflector chains, iteration traces.

All floats are written with 17 significant digits, which round-trips IEEE
doubles exactly. The formats are line-oriented and diffable:

  matrix file    first line "n p", then n rows of p numbers
  factored file  first line "HPROD n m", then m rows of n numbers (one
                 canonical reflector direction per row); the leading token
                 versions the format
  trace CSV      header "iter,residual,lambda_min,trace,dim_e1", one row per
                 completed iteration

Matrix and factored files are read by numpy's loadtxt. Numbers are separated
by any whitespace; lines holding only whitespace are skipped. A number is an
ASCII decimal literal with an optional sign, point and e/E exponent, such as
"1", "-0", "1.", ".5", "+1" or "1E5", read with correct rounding; nan, inf
and literals that overflow are read and then refused as non-finite. Anything
else raises ValueError, including "#", "1,5", hex floats ("0x1p3"),
underscores ("1_0") and non-ASCII digits.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .core import HouseholderProduct, _real_array
from .decompose import DecompositionTrace, TraceRow

FLOAT_FMT = "%.17g"
PRODUCT_MAGIC = "HPROD"
TRACE_FIELDS = ("iter", "residual", "lambda_min", "trace", "dim_e1")


def _format_rows(header: str, M: np.ndarray) -> str:
    row_format = " ".join([FLOAT_FMT] * M.shape[1])  # one format call per row
    lines = [header]
    lines.extend(row_format % tuple(row.tolist()) for row in M)
    return "\n".join(lines) + "\n"


def format_matrix(M: np.ndarray) -> str:
    M = _real_array(M, "matrix")
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    return _format_rows(f"{M.shape[0]} {M.shape[1]}", M)


def save_matrix(path, M: np.ndarray) -> None:
    Path(path).write_text(format_matrix(M))


def _parse_rows(lines: list[str], rows: int, cols: int, kind: str) -> np.ndarray:
    """rows lines of cols numbers; ValueError on a wrong count, bad token or non-finite entry."""
    if len(lines) != rows:
        raise ValueError(f"expected {rows} {kind} rows, found {len(lines)}")
    if not lines:  # loadtxt warns on empty input
        return np.empty((0, cols))
    try:
        # comments=None: a "#" is a bad token, not the start of a comment
        M = np.loadtxt(lines, dtype=float, comments=None, ndmin=2)
        if M.shape[1] != cols:
            raise ValueError(f"rows have {M.shape[1]} entries, expected {cols}")
    except ValueError:
        for i, line in enumerate(lines):  # name the first row of the wrong length, if any
            count = len(line.split())
            if count != cols:
                raise ValueError(f"row {i} has {count} entries, expected {cols}") from None
        raise
    if not np.isfinite(M).all():  # "nan", "inf" and overflowing literals such as 1e999
        raise ValueError(f"{kind} file has non-finite entries")
    return M


def parse_matrix(text: str) -> np.ndarray:
    """Read a matrix file's text; a wrong shape, bad token or non-finite entry raises ValueError."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad matrix header: {lines[0]!r}")
    rows, cols = int(header[0]), int(header[1])
    if cols == 0 and len(lines) == 1:  # rows without numbers are the blank lines dropped above
        return np.empty((rows, 0))
    return _parse_rows(lines[1:], rows, cols, "matrix")


def load_matrix(path) -> np.ndarray:
    return parse_matrix(Path(path).read_text())


def save_product(path, product: HouseholderProduct) -> None:
    header = f"{PRODUCT_MAGIC} {product.n} {product.m}"
    Path(path).write_text(_format_rows(header, product.directions))


def load_product(path) -> HouseholderProduct:
    """Read a factored file; a row that is not a finite unit direction raises ValueError."""
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty factored file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != PRODUCT_MAGIC:
        raise ValueError(f"bad factored-file header: {lines[0]!r}")
    n, m = int(header[1]), int(header[2])
    return HouseholderProduct(n, _parse_rows(lines[1:], m, n, "reflector"))


def format_trace_csv(trace: DecompositionTrace) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TRACE_FIELDS)
    for row in trace.rows:
        writer.writerow(
            [
                row.iteration,
                FLOAT_FMT % row.residual,
                FLOAT_FMT % row.lambda_min,
                FLOAT_FMT % row.trace,
                row.dim_e1,
            ]
        )
    return out.getvalue()


def save_trace_csv(path, trace: DecompositionTrace) -> None:
    Path(path).write_text(format_trace_csv(trace))


def load_trace_csv(path) -> list[TraceRow]:
    """Read a trace CSV; a bad header, field count or non-finite value raises ValueError."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(header) != TRACE_FIELDS:
            raise ValueError(f"bad trace header: {header!r}")
        rows = []
        for record in reader:
            if len(record) != len(TRACE_FIELDS):
                raise ValueError(
                    f"trace row {len(rows)} has {len(record)} fields, expected {len(TRACE_FIELDS)}"
                )
            values = [float(value) for value in record[1:4]]
            if not np.isfinite(values).all():
                raise ValueError(f"trace row {len(rows)} has non-finite values")
            rows.append(TraceRow(int(record[0]), *values, int(record[4])))
    return rows
