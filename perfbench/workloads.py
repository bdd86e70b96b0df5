"""Seeded instances for each workload, their reference answers and checks.

Each workload is a fixed list of cells. A cell's shape (n, factor count,
popcount, degenerate kind) is the same for every seed; the seed only draws
the random directions, supports and vectors. Run time depends almost only on
the shape, so a block of instances (one per cell) costs nearly the same on
every seed. Sizes keep the mean command between 0.05 and 0.2 s on one core,
so a 25-second run holds well over a hundred commands and at least ten of
them lie beyond the 90th percentile.

Checks read the command's output with this module's own parser and compare
it with a dense reference built here, not with the package's readers or its
``materialize``, so a bug shared by the package's writer and reader still
shows as a failure.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hhfactor import fileio
from hhfactor.decompose import min_factors
from hhfactor.generators import GeneratorSpec, synthesize

EPS = 1e-6             # decompose tolerance, also the residual a check accepts
APPLY_RTOL = 1e-10     # relative Frobenius error accepted from apply
DIRECTION_ATOL = 1e-8  # recovered u versus the planted one, up to sign

EXIT_OK, EXIT_AMBIGUOUS, EXIT_NO_SOLUTION = 0, 3, 4

# p << n: each greedy step pays a full eigh and a rank SVD at size n.
LOWRANK_CELLS = tuple(
    (dist, n, m)
    for n, m, dist in itertools.product((192, 256), (4, 8, 12), ("gaussian", "sparse", "correlated"))
)
# p = n (or n/2 for the symmetric cell): nothing to compress; -I has a fully
# degenerate bottom eigenspace. An odd number of cells puts the median inside
# one cell's samples instead of between two cells of different cost.
FULLRANK_CELLS = (
    ("gaussian", 64, 64), ("exponential", 64, 64), ("symmetric", 64, 32), ("negated-identity", 64, 64),
    ("gaussian", 80, 80),
    ("gaussian", 96, 96), ("exponential", 96, 96), ("symmetric", 96, 48), ("negated-identity", 96, 96),
)
# (n, popcount, kind); n cycles over 12..16, one cell in five is degenerate:
# "identical" repeats one column (exit 3), "noninteger" scales column 0 to a
# squared norm of popcount + 1/2 (exit 4).
RECOVER_CELLS = (
    (12, 4, "unique"), (13, 5, "unique"), (14, 4, "unique"), (15, 3, "unique"), (16, 4, "unique"),
    (12, 6, "unique"), (13, 4, "unique"), (14, 3, "identical"), (15, 4, "unique"), (16, 3, "unique"),
    (12, 5, "unique"), (13, 3, "identical"), (14, 3, "unique"), (15, 4, "noninteger"), (16, 2, "unique"),
)
RECOVER_COLUMNS = 4
# (n, m, vectors): text IO of an n-by-vectors matrix both ways plus a
# per-column apply loop of m reflections.
APPLY_CELLS = tuple((512, m, 96) for m in (32, 128, 256))


@dataclass(frozen=True)
class Instance:
    """One CLI command with the reference its output is checked against.

    check(reference, stdout, output) returns None when the output is right
    and a one-line reason otherwise; output holds the bytes of the file the
    command writes, or None when it writes none.
    """

    label: str
    argv: tuple[str, ...]
    output: Path | None
    expect_exit: int
    reference: object
    check: Callable[[object, str, bytes | None], str | None]


def cell_seed(seed: int, index: int, stream: int = 0) -> int:
    """Independent 64-bit seed for instance index (and stream) of a workload seed."""
    return int(np.random.SeedSequence([seed, index, stream]).generate_state(1, np.uint64)[0])


def dense_product(directions: np.ndarray, n: int) -> np.ndarray:
    """(I - 2 u_1 u_1^T) ... (I - 2 u_k u_k^T) for the rows u_i of directions."""
    M = np.eye(n)
    for u in directions:
        M -= 2.0 * np.outer(M @ u, u)
    return M


def parse_numbers(data: bytes, magic: str | None) -> np.ndarray:
    """Parse a matrix file ("rows cols" header) or a factored file ("HPROD n m")."""
    tokens = data.split()
    if magic is not None:
        if not tokens or tokens[0].decode() != magic:
            raise ValueError("bad header")
        tokens = tokens[1:]
    n, m = int(tokens[0]), int(tokens[1])
    values = np.array(tokens[2:], dtype=float)
    if values.size != n * m:
        raise ValueError(f"expected {n * m} numbers, found {values.size}")
    return values.reshape((m, n) if magic else (n, m))


def _check_decompose(reference, stdout, output):
    V, p = reference
    if output is None:
        return "no factored file written"
    try:
        directions = parse_numbers(output, fileio.PRODUCT_MAGIC)
    except ValueError as exc:
        return f"unreadable factored file: {exc}"
    if directions.shape[0] != p:
        return f"{directions.shape[0]} factors, min_factors gives {p}"
    residual = np.linalg.norm(dense_product(directions, V.shape[0]) - V, "fro")
    if not residual <= EPS:
        return f"residual {residual:.3e} exceeds {EPS:g}"
    return None


def _check_apply(reference, stdout, output):
    if output is None:
        return "no output matrix written"
    try:
        Y = parse_numbers(output, None)
    except ValueError as exc:
        return f"unreadable output matrix: {exc}"
    if Y.shape != reference.shape:
        return f"output shape {Y.shape}, expected {reference.shape}"
    error = np.linalg.norm(Y - reference, "fro") / np.linalg.norm(reference, "fro")
    if not error <= APPLY_RTOL:
        return f"relative error {error:.3e} exceeds {APPLY_RTOL:g}"
    return None


def _check_recover(reference, stdout, output):
    if reference is None:
        return None  # degenerate instance: the exit code is the verdict
    u_true, X_true = reference
    lines = stdout.splitlines()
    try:
        start = lines.index("X:")
        u = np.array(lines[start - 1].removeprefix("u: ").split(), dtype=float)
        X = np.array([line.split() for line in lines[start + 1 : start + 1 + X_true.shape[0]]], dtype=int)
    except ValueError as exc:
        return f"unreadable recover output: {exc}"
    if u.shape != u_true.shape or not min(
        np.linalg.norm(u - u_true), np.linalg.norm(u + u_true)
    ) <= DIRECTION_ATOL:
        return "recovered u differs from the planted one"
    if X.shape != X_true.shape or not np.array_equal(X, X_true):
        return "recovered X differs from the planted one"
    return None


def _decompose_instances(indexed_cells, seed, workdir, timer):
    instances = []
    for index, (dist, n, m) in indexed_cells:
        if dist == "negated-identity":
            V = -np.eye(n)
        else:
            V, _ = timer(synthesize, GeneratorSpec(dist, n=n, m=m, seed=cell_seed(seed, index)))
        label = f"{dist}-n{n}-m{m}"
        matrix_path = workdir / f"{index}-{label}.mat"
        fileio.save_matrix(matrix_path, V)
        out_path = workdir / f"{index}-{label}.hprod"
        argv = ("decompose", str(matrix_path), "--eps", repr(EPS), "--out", str(out_path))
        instances.append(
            Instance(label, argv, out_path, EXIT_OK, (V, min_factors(V)), _check_decompose)
        )
    return instances


def _apply_instances(indexed_cells, seed, workdir, timer):
    instances = []
    for index, (n, m, vectors) in indexed_cells:
        _, product = timer(synthesize, GeneratorSpec("gaussian", n=n, m=m, seed=cell_seed(seed, index)))
        X = np.random.default_rng(cell_seed(seed, index, 1)).standard_normal((n, vectors))
        label = f"n{n}-m{m}-x{vectors}"
        factors_path = workdir / f"{index}-{label}.hprod"
        vectors_path = workdir / f"{index}-{label}.mat"
        fileio.save_product(factors_path, product)
        fileio.save_matrix(vectors_path, X)
        directions = np.array([factor.u for factor in product.factors])
        reference = dense_product(directions, n) @ X
        out_path = workdir / f"{index}-{label}.out.mat"
        argv = ("apply", str(factors_path), str(vectors_path), "--out", str(out_path))
        instances.append(Instance(label, argv, out_path, EXIT_OK, reference, _check_apply))
    return instances


def planted_recovery(rng: np.random.Generator, n: int, ones: int, kind: str):
    """Planted (u, X, Y) with Y = (I - 2uu^T) X and the exit code recover must give.

    X has RECOVER_COLUMNS distinct binary columns of popcount ones ("unique"),
    or one such column repeated ("identical"). "noninteger" rescales column 0
    of Y so that its squared norm is ones + 1/2.
    """
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    supports: list[tuple[int, ...]] = []
    while len(supports) < (1 if kind == "identical" else RECOVER_COLUMNS):
        support = tuple(sorted(rng.choice(n, size=ones, replace=False)))
        if support not in supports:
            supports.append(support)
    X = np.zeros((n, RECOVER_COLUMNS), dtype=int)
    for j in range(RECOVER_COLUMNS):
        X[list(supports[j % len(supports)]), j] = 1
    Y = X - 2.0 * np.outer(u, u @ X)
    expect = {"unique": EXIT_OK, "identical": EXIT_AMBIGUOUS, "noninteger": EXIT_NO_SOLUTION}[kind]
    if kind == "noninteger":
        Y[:, 0] *= np.sqrt((ones + 0.5) / ones)
    return u, X, Y, expect


def _recover_instances(indexed_cells, seed, workdir, timer):
    instances = []
    for index, (n, ones, kind) in indexed_cells:
        rng = np.random.default_rng(cell_seed(seed, index))
        u, X, Y, expect = planted_recovery(rng, n, ones, kind)
        label = f"{kind}-n{n}-k{ones}"
        data_path = workdir / f"{index}-{label}.mat"
        fileio.save_matrix(data_path, Y)
        reference = (u, X) if expect == EXIT_OK else None
        argv = ("recover", str(data_path))
        instances.append(Instance(label, argv, None, expect, reference, _check_recover))
    return instances


# (make_instances, cells, blocks): a block holds one fresh instance of every cell.
# Decompose and apply costs follow from the cell's shape alone, so one block
# suffices. A few recovery instances in a hundred are several times slower
# than their shape suggests, so recover-binary draws more blocks than a run
# uses, and each run sees hundreds of distinct instances.
WORKLOAD_SPECS = {
    "decompose-lowrank": (_decompose_instances, LOWRANK_CELLS, 1),
    "decompose-fullrank": (_decompose_instances, FULLRANK_CELLS, 1),
    "recover-binary": (_recover_instances, RECOVER_CELLS, 40),
    "apply-batch": (_apply_instances, APPLY_CELLS, 1),
}
WORKLOADS = tuple(WORKLOAD_SPECS)


def build(workload: str, seed: int, workdir: Path, cells=None):
    """Write the workload's input files into workdir and compute references.

    Returns the instances as a list of blocks, each with one instance per
    cell, and the seconds spent inside ``synthesize``. cells overrides the
    workload's cell list (the self-test uses tiny ones).
    """
    make_instances, default_cells, blocks = WORKLOAD_SPECS[workload]
    cells = default_cells if cells is None else cells
    synthesize_s = 0.0

    def timer(fn, *args):
        nonlocal synthesize_s
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            synthesize_s += time.perf_counter() - start

    return [
        make_instances(enumerate(cells, start=block * len(cells)), seed, workdir, timer)
        for block in range(blocks)
    ], synthesize_s
