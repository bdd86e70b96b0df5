"""Acceptance suite.

One test per acceptance criterion, each printing a PASS/FAIL line (run with
pytest -s to see them) and asserting at the stated tolerance.
"""

import itertools
import time

import numpy as np
import pytest

from hhfactor import (
    DISTRIBUTIONS,
    GeneratorSpec,
    HouseholderProduct,
    Reflector,
    apply,
    enumerate_candidates,
    greedy_decompose,
    haar_orthogonal,
    make_reflector,
    materialize,
    min_factors,
    non_uniqueness_example,
    qr_baseline,
    recover,
    residual_upper_bound,
    same_reflector,
    solve_column,
    synthesize,
)
from hhfactor import cli, fileio

U_3X3 = np.array([2 / 3, 1 / 3, 2 / 3])


def reflection(u):
    u = np.asarray(u, dtype=float)
    return np.eye(u.shape[0]) - 2.0 * np.outer(u, u)


def report(name, ok, detail=""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
          + (f" -- {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# -------------------------------------------------------------- criterion 1


def test_criterion_1_single_reflection_vs_qr_baseline(reflection_3x3):
    start = time.perf_counter()
    product, trace = greedy_decompose(reflection_3x3, max_m=3, eps=1e-10)
    greedy_ok = (
        trace.m == 1
        and trace.final_residual <= 1e-10
        and same_reflector(product.factors[0], Reflector(U_3X3), tol=1e-10)
    )
    qr_product, diagonal = qr_baseline(reflection_3x3)
    qr_ok = qr_product.m == 3 and np.allclose(diagonal, [-1, -1, 1], atol=1e-12)
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (one greedy factor vs three QR factors)",
        greedy_ok and qr_ok and elapsed < 1.0,
        f"greedy m={trace.m} residual={trace.final_residual:.2e}, "
        f"qr m={qr_product.m} diag={diagonal}, {elapsed:.2f}s",
    )


# --------------------------------------------------------- criteria 2 and 3


def _clean_instance(distribution, n, m, seed):
    """Synthesize an instance with an unambiguous fixed-subspace boundary.

    The minimal-count comparison presumes singular values of V - I split
    cleanly into (numerical) zeros and order-one values; sampled instances
    occasionally land in between (e.g. very sparse directions that almost
    close a dependency), where the rank threshold and the residual tolerance
    legitimately disagree. Such borderline draws are reseeded.
    """
    for attempt in itertools.count():
        V, _ = synthesize(
            GeneratorSpec(distribution, n=n, m=m, seed=seed + 10_000_000 * attempt)
        )
        singular_values = np.linalg.svd(V - np.eye(n), compute_uv=False)
        if not np.any((singular_values > 1e-8) & (singular_values < 1e-4)):
            return V


@pytest.fixture(scope="module")
def desk_scale_runs():
    start = time.perf_counter()
    runs = []
    for dist_index, distribution in enumerate(DISTRIBUTIONS):
        for n in (8, 16, 32, 64):
            for m in (1, n // 4, n // 2, n):
                for trial in range(20):
                    seed = ((dist_index * 100 + n) * 100 + m) * 100 + trial
                    V = _clean_instance(distribution, n, m, seed)
                    _, trace = greedy_decompose(V, max_m=n, eps=1e-6)
                    runs.append(
                        {
                            "distribution": distribution,
                            "n": n,
                            "m": m,
                            "trial": trial,
                            "trace": trace,
                            "min_factors": min_factors(V),
                        }
                    )
    return {"runs": runs, "elapsed": time.perf_counter() - start}


def test_criterion_2_greedy_terminates_at_the_minimal_count(desk_scale_runs):
    runs, elapsed = desk_scale_runs["runs"], desk_scale_runs["elapsed"]
    failures = [
        (r["distribution"], r["n"], r["m"], r["trial"])
        for r in runs
        if r["trace"].m != r["min_factors"] or r["trace"].final_residual > 1e-6
    ]
    report(
        "criterion 2 (exact recovery at the minimal factor count)",
        not failures and elapsed < 120.0,
        f"{len(runs) - len(failures)}/{len(runs)} trials, {elapsed:.1f}s"
        + (f", first failure {failures[0]}" if failures else ""),
    )


def test_criterion_3_trace_and_eigenspace_recursions(desk_scale_runs):
    runs = desk_scale_runs["runs"]
    checked = 0
    bad = []
    for r in runs:
        trace = r["trace"]
        n = r["n"]
        traces = [row.trace for row in trace.rows] + [trace.final_trace]
        dims = [row.dim_e1 for row in trace.rows] + [trace.final_dim_e1]
        for k, row in enumerate(trace.rows):
            checked += 1
            if abs(traces[k + 1] - traces[k] + 2.0 * row.lambda_min) > 1e-8 * n:
                bad.append(("trace", r["distribution"], n, r["m"], r["trial"], k))
            if dims[k + 1] != dims[k] + 1:
                bad.append(("eigenspace", r["distribution"], n, r["m"], r["trial"], k))
    report(
        "criterion 3 (per-iteration trace recursion and eigenspace growth)",
        not bad,
        f"{checked} iterations checked"
        + (f", first violation {bad[0]}" if bad else ""),
    )


# -------------------------------------------------------------- criterion 4


def truncated_residuals(V, trace):
    n = V.shape[0]
    residuals = [float(np.linalg.norm(np.eye(n) - V, "fro"))]
    residuals.extend(row.residual for row in trace.rows)
    while len(residuals) < n + 1:
        residuals.append(trace.final_residual)
    return residuals


def test_criterion_4_error_bound(tmp_path):
    n = 32
    violations = []
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        V = haar_orthogonal(rng, n)
        _, trace = greedy_decompose(V, eps=1e-14)
        residuals = truncated_residuals(V, trace)
        for m in range(n + 1):
            bound = residual_upper_bound(V, m)
            if residuals[m] > bound + 1e-6:
                violations.append((seed, m, residuals[m], bound))
    dominance_ok = not violations

    # exact-arithmetic two-factor construction: the bound at m=2 is exactly 0
    dim = 8
    e1 = np.zeros(dim)
    e1[0] = 1.0
    half = np.zeros(dim)
    half[:4] = 0.5
    pair = materialize(
        HouseholderProduct(dim, [make_reflector(e1).u, make_reflector(half).u])
    )
    pair_bound = residual_upper_bound(pair, 2)
    pair_ok = pair_bound == 0.0

    # 500-dimensional sweep cell at the loose tolerance via the CLI
    outdir = tmp_path / "sweep"
    code = cli.main(
        ["sweep", "gaussian", "--outdir", str(outdir),
         "--n", "500", "--m-list", "25", "--eps", "0.05", "--seed", "7"]
    )
    rows = fileio.load_trace_csv(outdir / "gaussian_n500_m25.csv")
    V500, _ = synthesize(GeneratorSpec("gaussian", n=500, m=25, seed=7))
    sweep_ok = code == 0 and rows[-1].residual <= 0.05 and min_factors(V500) == 25

    detail = (
        f"dominance {'ok' if dominance_ok else f'violated at {len(violations)} (seed,m) pairs, '}"
        + (
            f"first (seed={violations[0][0]}, m={violations[0][1]}, "
            f"residual={violations[0][2]:.4f} > bound={violations[0][3]:.4f}); "
            if violations
            else "; "
        )
        + f"exact-pair bound={pair_bound}; sweep final residual={rows[-1].residual:.4f}"
    )
    report(
        "criterion 4 (a priori error bound)",
        dominance_ok and pair_ok and sweep_ok,
        detail,
    )


# -------------------------------------------------------------- criterion 5


def test_criterion_5_negated_identity_needs_full_dimension():
    results = {}
    for n in (4, 8, 16):
        V = -np.eye(n)
        oracle = min_factors(V)
        _, trace = greedy_decompose(V, eps=1e-6)
        results[n] = (oracle, trace.m)
    ok = all(oracle == n and used == n for n, (oracle, used) in results.items())
    report(
        "criterion 5 (negated identity requires n reflections)",
        ok,
        ", ".join(f"n={n}: oracle={o} greedy={u}" for n, (o, u) in results.items()),
    )


# -------------------------------------------------------------- criterion 6


def test_criterion_6_per_guess_verdicts_and_recovery(reflection_3x3):
    start = time.perf_counter()
    Y = reflection_3x3 @ np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    verdicts = []
    for column in Y.T:
        valid = set()
        for bits in itertools.product((0, 1), repeat=3):
            if isinstance(solve_column(column, np.array(bits, float)), Reflector):
                valid.add(bits)
        verdicts.append(valid)
    # Norm preservation: every guess x != y with ||x|| = ||y|| is solved exactly
    # by the reflector along x - y, so each column accepts its whole slice.
    col1_ok = verdicts[0] == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}
    col2_ok = verdicts[1] == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    # Uniqueness lives in the intersection: exactly one pair of guesses, one
    # per column, shares a reflector.
    first, second = (enumerate_candidates(column) for column in Y.T)
    shared = [
        (g1, g2)
        for c1, g1 in zip(first.candidates, first.guesses)
        for c2, g2 in zip(second.candidates, second.guesses)
        if same_reflector(c1, c2)
    ]
    shared_ok = shared == [((1, 1, 0), (0, 0, 1))]
    result = recover(Y)
    recover_ok = same_reflector(result.u, Reflector(U_3X3))
    elapsed = time.perf_counter() - start
    report(
        "criterion 6 (per-guess verdict table and two-column recovery)",
        col1_ok and col2_ok and shared_ok and recover_ok and elapsed < 1.0,
        f"col1 valid={sorted(verdicts[0])} ({'ok' if col1_ok else 'mismatch'}), "
        f"col2 valid={sorted(verdicts[1])} ({'ok' if col2_ok else 'mismatch'}), "
        f"shared guesses={shared} ({'ok' if shared_ok else 'expected only ((1,1,0), (0,0,1))'}), "
        f"recovered u ok={recover_ok}, {elapsed:.2f}s",
    )


# -------------------------------------------------------------- criterion 7


def random_recovery_instance(rng, n):
    while True:
        u = make_reflector(rng.standard_normal(n))
        X = rng.integers(0, 2, size=(n, 2)).astype(float)
        if np.array_equal(X[:, 0], X[:, 1]):
            continue
        if not X[:, 0].any() or not X[:, 1].any():
            continue
        if any(abs(u.u @ X[:, j]) < 1e-6 for j in range(2)):
            continue  # the reflection would (nearly) fix a column
        return u, X, reflection(u.u) @ X


def unpruned_candidates(y):
    found = []
    for bits in itertools.product((0.0, 1.0), repeat=len(y)):
        solved = solve_column(y, np.array(bits))
        if isinstance(solved, Reflector):
            if not any(same_reflector(solved, c) for c in found):
                found.append(solved)
    return found


def test_criterion_7_two_column_recovery_at_desk_scale():
    start = time.perf_counter()
    recovered = 0
    pruning_checked = 0
    failures = []
    for i in range(200):
        n = 6 + (i % 9)  # cycles 6..14
        rng = np.random.default_rng(5000 + i)
        u, X, Y = random_recovery_instance(rng, n)
        result = recover(Y)
        if same_reflector(result.u, u) and np.array_equal(result.X, X.astype(int)):
            recovered += 1
        else:
            failures.append(i)
        if n <= 10:
            pruning_checked += 1
            from hhfactor import enumerate_candidates

            for j in range(2):
                pruned = enumerate_candidates(Y[:, j]).candidates
                oracle = unpruned_candidates(Y[:, j])
                assert len(pruned) == len(oracle) and all(
                    any(same_reflector(a, b) for b in pruned) for a in oracle
                ), f"pruning mismatch on instance {i} column {j}"
    elapsed = time.perf_counter() - start
    report(
        "criterion 7 (seeded two-column recovery)",
        recovered == 200 and elapsed < 120.0,
        f"{recovered}/200 recovered, pruning verified on {pruning_checked} instances, "
        f"{elapsed:.1f}s" + (f", failures {failures[:3]}" if failures else ""),
    )


# -------------------------------------------------------------- criterion 8


def test_criterion_8_non_uniqueness_construction():
    details = []
    ok = True
    for p in (1, 3):
        u1, X1, u2, X2 = non_uniqueness_example(p)
        gap = np.linalg.norm(reflection(u1.u) @ X1 - reflection(u2.u) @ X2, "fro")
        distinct = not same_reflector(u1, u2)
        ok = ok and gap <= 1e-12 and distinct
        details.append(f"p={p}: gap={gap:.2e} distinct={distinct}")
    report("criterion 8 (real-valued codes admit colliding factorizations)", ok,
           "; ".join(details))


# -------------------------------------------------------------- criterion 9


def median_seconds(fn):
    """Median wall time of 400 single calls to fn, after one warm-up call."""
    fn()
    samples = []
    for _ in range(400):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


def test_criterion_9_factored_apply_scaling():
    dense, product = synthesize(GeneratorSpec("gaussian", n=1024, m=64, seed=0))
    x = np.random.default_rng(1).standard_normal(1024)
    t = {}
    for m in (8, 16, 32, 64):
        truncated = HouseholderProduct(1024, product.directions[:m])
        t[m] = median_seconds(lambda: apply(truncated, x))
    dense_seconds = median_seconds(lambda: dense @ x)
    ratio = t[32] / t[8]
    ratio_ok = 2.5 <= ratio <= 5.5
    beats_dense = all(seconds < dense_seconds for seconds in t.values())
    report(
        "criterion 9 (apply cost grows linearly in the factor count)",
        ratio_ok and beats_dense,
        f"t(32)/t(8)={ratio:.2f}, "
        + ", ".join(f"t({m})={seconds * 1e6:.0f}us" for m, seconds in t.items())
        + f", dense={dense_seconds * 1e6:.0f}us",
    )
