import argparse
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hhfactor.decompose as decompose
from hhfactor import (
    GeneratorSpec,
    HouseholderProduct,
    haar_orthogonal,
    make_reflector,
    materialize,
    residual_upper_bound,
    synthesize,
)
from hhfactor import cli, fileio
from hhfactor.cli import main

U_TRUE = np.array([2 / 3, 1 / 3, 2 / 3])


def write_worked_matrix(path):
    V = np.eye(3) - 2.0 * np.outer(U_TRUE, U_TRUE)
    fileio.save_matrix(path, V)
    return V


def test_synth_writes_deterministic_files(tmp_path):
    args = ["synth", "--dist", "gaussian", "--n", "12", "--m", "3", "--seed", "9"]
    first, second = tmp_path / "a.mat", tmp_path / "b.mat"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_text() == second.read_text()


def checkout_env(**variables):
    """The environment with this checkout's src first on PYTHONPATH, plus variables."""
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)), **variables)


def test_synth_output_does_not_depend_on_blas_threads(tmp_path):
    # materialize runs on level-3 BLAS, which may split work across threads
    written = []
    for threads in ("1", "2"):
        out, factors = tmp_path / f"t{threads}.mat", tmp_path / f"t{threads}.hprod"
        done = subprocess.run(
            [sys.executable, "-m", "hhfactor", "synth", "--dist", "gaussian", "--n", "512",
             "--m", "256", "--seed", "3", "--out", str(out), "--factors", str(factors)],
            env=checkout_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True,
            check=False,
        )
        assert done.returncode == 0, done.stderr
        written.append((out.read_bytes(), factors.read_bytes()))
    assert written[0] == written[1]


def test_package_runs_as_a_module(tmp_path):
    # python -m hhfactor and python -m hhfactor.cli work from a checkout,
    # without installing the package
    env = checkout_env()
    for module in ("hhfactor", "hhfactor.cli"):
        out = tmp_path / f"{module}.mat"
        done = subprocess.run(
            [sys.executable, "-m", module, "synth", "--n", "6", "--m", "2", "--out", str(out)],
            env=env, capture_output=True, text=True, check=False,
        )
        assert done.returncode == 0, done.stderr
        assert f"wrote {out}" in done.stdout
        assert fileio.load_matrix(out).shape == (6, 6)


# runs each command of the JSON list argv[1] in turn and prints, as JSON,
# whether scipy.linalg was loaded after the import and after each command
SCIPY_LINALG_PROBE = """
import contextlib, io, json, sys
from hhfactor import cli
loaded = ["scipy.linalg" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        loaded.append([cli.main(argv), "scipy.linalg" in sys.modules])
print(json.dumps(loaded))
"""


def scipy_linalg_loaded(*commands):
    """[loaded after import, [exit code, loaded] per command], all in one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_LINALG_PROBE, json.dumps(commands)],
        env=checkout_env(), capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_recover_bound_synth_block_apply_decompose_and_sweep_leave_scipy_linalg_unloaded(tmp_path):
    # its import costs about 0.2 s and 28 MB that these commands never use:
    # block apply, materialize and the low-rank route's QR run on numpy's own
    # BLAS and LAPACK
    data_path = tmp_path / "y.mat"
    fileio.save_matrix(data_path, (np.eye(3) - 2.0 * np.outer(U_TRUE, U_TRUE)) @ np.eye(3)[:, :2])
    negated_path, gaussian_path = tmp_path / "neg.mat", tmp_path / "g.mat"
    fileio.save_matrix(negated_path, -np.eye(64))
    fileio.save_matrix(gaussian_path, synthesize(GeneratorSpec("gaussian", n=64, m=64, seed=1))[0])
    lowrank_path = tmp_path / "low.mat"  # a decompose-lowrank cell
    fileio.save_matrix(lowrank_path, synthesize(GeneratorSpec("gaussian", n=256, m=8, seed=3))[0])
    factors_path = tmp_path / "g.hprod"
    fileio.save_product(factors_path, synthesize(GeneratorSpec("gaussian", n=64, m=4, seed=2))[1])
    column_path = tmp_path / "x.mat"
    fileio.save_matrix(column_path, np.ones((64, 1)))
    commands = (
        ["recover", str(data_path)],
        ["bound", str(gaussian_path)],
        ["decompose", str(negated_path), "--out", str(tmp_path / "neg.hprod")],
        ["decompose", str(gaussian_path), "--eps", "1e-6"],
        ["decompose", str(lowrank_path), "--eps", "1e-6"],
        ["sweep", "gaussian", "--outdir", str(tmp_path / "sweep"), "--n", "64", "--m-list", "2,4"],
        ["apply", str(factors_path), str(gaussian_path)],  # a block of 64 columns
        ["apply", str(factors_path), str(column_path)],  # a block of one column
        ["synth", "--n", "8", "--m", "2", "--out", str(tmp_path / "s.mat")],
    )
    assert scipy_linalg_loaded(*commands) == [False] + [[0, False]] * len(commands)


def test_decompose_with_a_repeated_angle_loads_scipy_linalg(tmp_path):
    # two planes at one angle lie in an arbitrary basis of their eigenspace,
    # so greedy reads its blocks off scipy's real Schur form
    D = np.eye(64)
    D[:4, :4] = np.kron(np.eye(2), [[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    Q = haar_orthogonal(np.random.default_rng(5), 64)
    matrix_path = tmp_path / "v.mat"
    fileio.save_matrix(matrix_path, Q @ D @ Q.T)
    assert scipy_linalg_loaded(["decompose", str(matrix_path), "--eps", "1e-6"]) == [False, [0, True]]


# applies a 3-factor product to a block, then to a vector, and prints whether
# scipy.linalg was loaded after each
VECTOR_APPLY_PROBE = """
import json, sys
import numpy as np
from hhfactor import HouseholderProduct, apply
product = HouseholderProduct(4, np.eye(4)[:3])
loaded = []
for x in (np.ones((4, 2)), np.ones(4)):
    apply(product, x)
    loaded.append("scipy.linalg" in sys.modules)
print(json.dumps(loaded))
"""


def test_vector_apply_loads_the_level_1_kernels_and_block_apply_does_not():
    # numpy has no in-place axpy, so a vector still runs on scipy's ddot and daxpy
    done = subprocess.run(
        [sys.executable, "-c", VECTOR_APPLY_PROBE],
        env=checkout_env(), capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, True]


def test_synth_factors_match_matrix(tmp_path):
    matrix_path = tmp_path / "v.mat"
    factors_path = tmp_path / "v.hprod"
    assert (
        main(
            [
                "synth", "--dist", "sparse", "--n", "50", "--m", "4", "--seed", "3",
                "--out", str(matrix_path), "--factors", str(factors_path),
            ]
        )
        == 0
    )
    V = fileio.load_matrix(matrix_path)
    product = fileio.load_product(factors_path)
    assert np.linalg.norm(materialize(product) - V, "fro") <= 1e-10 * 50


def test_synth_rejects_bad_spec(tmp_path, capsys):
    code = main(
        ["synth", "--dist", "gaussian", "--n", "4", "--m", "9", "--out", str(tmp_path / "x")]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_decompose_worked_example(tmp_path, capsys):
    matrix_path = tmp_path / "v.mat"
    write_worked_matrix(matrix_path)
    trace_path = tmp_path / "t.csv"
    out_path = tmp_path / "v.hprod"
    code = main(
        ["decompose", str(matrix_path), "--eps", "1e-8",
         "--trace", str(trace_path), "--out", str(out_path)]
    )
    assert code == 0
    assert "m=1" in capsys.readouterr().out
    rows = fileio.load_trace_csv(trace_path)
    assert len(rows) == 1
    product = fileio.load_product(out_path)
    assert product.m == 1
    assert min(
        np.linalg.norm(product.factors[0].u - U_TRUE),
        np.linalg.norm(product.factors[0].u + U_TRUE),
    ) <= 1e-10


def test_decompose_identity_writes_empty_product(tmp_path):
    matrix_path = tmp_path / "i.mat"
    fileio.save_matrix(matrix_path, np.eye(4))
    trace_path = tmp_path / "t.csv"
    out_path = tmp_path / "i.hprod"
    code = main(
        ["decompose", str(matrix_path), "--eps", "0.05",
         "--trace", str(trace_path), "--out", str(out_path)]
    )
    assert code == 0
    assert fileio.load_trace_csv(trace_path) == []
    assert fileio.load_product(out_path).m == 0


def test_decompose_reports_cap_with_exit_code(tmp_path):
    rng = np.random.default_rng(5)
    product = HouseholderProduct(
        8, [make_reflector(rng.standard_normal(8)).u for _ in range(5)]
    )
    matrix_path = tmp_path / "v.mat"
    fileio.save_matrix(matrix_path, materialize(product))
    assert main(["decompose", str(matrix_path), "--m", "2", "--eps", "1e-6"]) == 2


def test_decompose_below_roundoff_stops_at_the_cleared_product(tmp_path, capsys):
    # a det -1 Haar input at n = 32 is 31 reflections; eps = 1e-14 lies below
    # the residual roundoff lets them reach, so the run reports the cap
    V = haar_orthogonal(np.random.default_rng(46), 32)
    if np.linalg.det(V) > 0:
        V[:, 0] = -V[:, 0]
    matrix_path, out_path = tmp_path / "v.mat", tmp_path / "v.hprod"
    fileio.save_matrix(matrix_path, V)
    assert main(["decompose", str(matrix_path), "--eps", "1e-14", "--out", str(out_path)]) == 2
    assert "m=31 " in capsys.readouterr().out
    product = fileio.load_product(out_path)
    assert product.m == 31
    assert np.linalg.norm(materialize(product) - V, "fro") <= 1e-13


def test_decompose_rejects_non_orthogonal(tmp_path, capsys):
    matrix_path = tmp_path / "bad.mat"
    fileio.save_matrix(matrix_path, np.full((3, 3), 0.7))
    assert main(["decompose", str(matrix_path)]) == 1
    assert "not orthogonal" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_decompose_rejects_non_finite_entries(tmp_path, capsys, bad):
    matrix_path = tmp_path / "bad.mat"
    matrix_path.write_text(f"3 3\n1 0 0\n0 1 {bad}\n0 0 1\n")
    assert main(["decompose", str(matrix_path)]) == 1
    assert "non-finite entries" in capsys.readouterr().err


def test_decompose_rejects_nan_eps(tmp_path, capsys):
    matrix_path = tmp_path / "i2.mat"
    fileio.save_matrix(matrix_path, np.eye(2))
    assert main(["decompose", str(matrix_path), "--eps", "nan"]) == 1
    captured = capsys.readouterr()
    assert "eps must be positive" in captured.err
    assert captured.out == ""


def test_decompose_missing_file_is_invalid(capsys):
    assert main(["decompose", "/nonexistent/v.mat"]) == 1
    capsys.readouterr()


def test_sweep_writes_trace_per_cell(tmp_path, capsys):
    outdir = tmp_path / "sweep"
    code = main(
        ["sweep", "gaussian", "--outdir", str(outdir),
         "--n", "24", "--m-list", "2,4", "--eps", "0.05", "--seed", "1"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "m=2" in out and "m=4" in out
    for m in (2, 4):
        rows = fileio.load_trace_csv(outdir / f"gaussian_n24_m{m}.csv")
        assert rows[-1].residual <= 0.05
        for earlier, later in zip(rows, rows[1:]):
            assert abs(later.trace - earlier.trace + 2.0 * earlier.lambda_min) <= 1e-8 * 24


@pytest.mark.parametrize(
    "extra,message",
    [
        (["--n", "12", "--m-list", "3,3"], "repeats"),
        (["--n", "0"], "at most n=0"),
        (["--n", "12", "--m-list", "2,-1"], "at least 1"),
        (["--n", "12", "--m-list", "0"], "at least 1"),
        (["--n", "12", "--m-list", "2", "--eps", "0"], "eps must be positive"),
        (["--n", "12", "--m-list", "2", "--eps", "nan"], "eps must be positive"),
        (["--n", "12", "--m-list", "2", "--seed", "-1"], "seed must be a 64-bit unsigned integer"),
        (["--m-list", ","], "--m-list ',' holds no m"),
    ],
    ids=[
        "repeated-m", "no-m-within-n", "negative-m-after-a-valid-one", "zero-m",
        "zero-eps", "nan-eps", "negative-seed", "no-m-at-all",
    ],
)
def test_sweep_rejects_bad_m_lists(tmp_path, capsys, extra, message):
    outdir = tmp_path / "sweep"
    args = ["sweep", "gaussian", "--outdir", str(outdir)]
    code = main(args + extra)
    assert code == 1
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""
    assert not outdir.exists()  # refused before the first cell ran


@pytest.mark.parametrize(
    "m_list,message",
    [("0,8", "m must be at least 1, got 0"), ("-4,8", "m must be at least 1, got -4"),
     ("8,8", "m-list repeats a value: 8,8"), ("4,8,4", "m-list repeats a value: 4,8,4")],
    ids=["zero", "negative", "only-a-repeat", "repeat-among-others"],
)
def test_sweep_checks_its_m_list_before_synthesizing(tmp_path, capsys, monkeypatch, m_list, message):
    def refuse(spec):
        raise AssertionError("synthesized before the m list was checked")

    monkeypatch.setattr(cli, "synthesize", refuse)
    outdir = tmp_path / "sweep"
    assert main(["sweep", "gaussian", "--outdir", str(outdir), "--n", "16", f"--m-list={m_list}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""
    assert not outdir.exists()


def test_sweep_requires_outdir(capsys):
    assert main(["sweep", "gaussian"]) == 1
    assert "outdir" in capsys.readouterr().err


def test_decompose_requires_an_input(capsys):
    assert main(["decompose"]) == 1
    captured = capsys.readouterr()
    assert "the following arguments are required: input" in captured.err and captured.out == ""


def test_sweep_exits_at_the_cap_when_eps_is_out_of_reach(tmp_path, capsys):
    outdir = tmp_path / "sweep"
    code = main(["sweep", "gaussian", "--outdir", str(outdir),
                 "--n", "8", "--m-list", "2,3", "--eps", "1e-300"])
    assert code == 2
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(line.endswith("termination=n_cap") for line in lines)
    assert sorted(path.name for path in outdir.iterdir()) == [
        "gaussian_n8_m2.csv", "gaussian_n8_m3.csv"]


def test_bound_command_prints_rows(tmp_path, capsys):
    matrix_path = tmp_path / "v.mat"
    write_worked_matrix(matrix_path)
    assert main(["bound", str(matrix_path), "--m-range", "0:2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "m,bound"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]
    assert float(lines[2].split(",")[1]) == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_bound_command_reports_zero_for_exact_pair(tmp_path, capsys):
    n = 8
    e1 = np.zeros(n)
    e1[0] = 1.0
    half = np.zeros(n)
    half[:4] = 0.5
    pair = materialize(
        HouseholderProduct(n, [make_reflector(e1).u, make_reflector(half).u])
    )
    matrix_path = tmp_path / "pair.mat"
    fileio.save_matrix(matrix_path, pair)
    assert main(["bound", str(matrix_path), "--m-range", "2:2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[1] == "2,0"


def test_bound_command_matches_public_function(tmp_path, capsys):
    V, _ = synthesize(GeneratorSpec("gaussian", n=12, m=7, seed=4))
    matrix_path = tmp_path / "v.mat"
    fileio.save_matrix(matrix_path, V)
    V = fileio.load_matrix(matrix_path)
    assert main(["bound", str(matrix_path), "--m-range", "0:12"]) == 0
    expected = "m,bound\n" + "".join(
        f"{m},{fileio.FLOAT_FMT % residual_upper_bound(V, m)}\n" for m in range(13)
    )
    assert capsys.readouterr().out == expected


def test_bound_command_eigensolves_once(tmp_path, capsys, monkeypatch):
    calls = []
    eigensolve = decompose.symmetric_eigendecomposition
    monkeypatch.setattr(
        decompose,
        "symmetric_eigendecomposition",
        lambda A: calls.append(A.shape) or eigensolve(A),
    )
    matrix_path = tmp_path / "v.mat"
    write_worked_matrix(matrix_path)
    assert main(["bound", str(matrix_path), "--m-range", "0:3"]) == 0
    assert calls == [(3, 3)]
    capsys.readouterr()


def test_bound_command_defaults_to_every_m(tmp_path, capsys):
    matrix_path = tmp_path / "v.mat"
    write_worked_matrix(matrix_path)
    assert main(["bound", str(matrix_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[0] for line in lines] == ["m", "0", "1", "2", "3"]


def test_bound_command_refuses_a_comma_list(tmp_path, capsys):
    matrix_path = tmp_path / "v.mat"
    write_worked_matrix(matrix_path)
    assert main(["bound", str(matrix_path), "--m-range", "1,3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert '"lo:hi"' in captured.err


def test_bound_command_refuses_a_reversed_range(tmp_path, capsys):
    matrix_path = tmp_path / "v.mat"
    write_worked_matrix(matrix_path)
    assert main(["bound", str(matrix_path), "--m-range", "3:1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--m-range '3:1' is empty" in captured.err


def test_bound_command_out_of_range_writes_no_rows(tmp_path, capsys):
    matrix_path = tmp_path / "swap.mat"
    fileio.save_matrix(matrix_path, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert main(["bound", str(matrix_path), "--m-range", "0:4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "m must be in [0, 2], got 3" in captured.err


def test_apply_empty_product_echoes_vectors(tmp_path, capsys):
    factors_path = tmp_path / "id.hprod"
    fileio.save_product(factors_path, HouseholderProduct(3))
    vector_path = tmp_path / "x.mat"
    fileio.save_matrix(vector_path, np.array([[1.0], [2.0], [3.0]]))
    assert main(["apply", str(factors_path), str(vector_path)]) == 0
    out = capsys.readouterr().out
    assert np.array_equal(fileio.parse_matrix(out), [[1.0], [2.0], [3.0]])


def test_apply_to_no_vectors_round_trips(tmp_path, capsys):
    factors_path = tmp_path / "p.hprod"
    fileio.save_product(factors_path, HouseholderProduct(3, [make_reflector(U_TRUE).u]))
    vector_path, out_path = tmp_path / "x.mat", tmp_path / "y.mat"
    fileio.save_matrix(vector_path, np.empty((3, 0)))
    assert main(["apply", str(factors_path), str(vector_path), "--out", str(out_path)]) == 0
    assert fileio.load_matrix(out_path).shape == (3, 0)
    assert main(["apply", str(factors_path), str(out_path)]) == 0
    assert fileio.parse_matrix(capsys.readouterr().out).shape == (3, 0)


def test_apply_matches_dense_multiplication(tmp_path):
    rng = np.random.default_rng(6)
    product = HouseholderProduct(
        10, [make_reflector(rng.standard_normal(10)).u for _ in range(3)]
    )
    factors_path = tmp_path / "p.hprod"
    fileio.save_product(factors_path, product)
    X = rng.standard_normal((10, 4))
    vector_path = tmp_path / "x.mat"
    fileio.save_matrix(vector_path, X)
    out_path = tmp_path / "y.mat"
    assert main(["apply", str(factors_path), str(vector_path), "--out", str(out_path)]) == 0
    np.testing.assert_allclose(
        fileio.load_matrix(out_path), materialize(product) @ X, atol=1e-10
    )


def test_apply_rejects_shape_mismatch(tmp_path, capsys):
    factors_path = tmp_path / "id.hprod"
    fileio.save_product(factors_path, HouseholderProduct(3))
    vector_path = tmp_path / "x.mat"
    fileio.save_matrix(vector_path, np.ones((4, 1)))
    assert main(["apply", str(factors_path), str(vector_path)]) == 1
    capsys.readouterr()


def test_apply_rejects_non_finite_vectors(tmp_path, capsys):
    factors_path = tmp_path / "p.hprod"
    fileio.save_product(factors_path, HouseholderProduct(3, [make_reflector(U_TRUE).u]))
    vector_path = tmp_path / "x.mat"
    vector_path.write_text("3 1\n1\nnan\n0\n")
    assert main(["apply", str(factors_path), str(vector_path)]) == 1
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert captured.out == ""


def test_apply_rejects_overflowing_vectors(tmp_path, capsys):
    factors_path = tmp_path / "p.hprod"
    fileio.save_product(factors_path, HouseholderProduct(3, [make_reflector(U_TRUE).u]))
    vector_path = tmp_path / "x.mat"
    vector_path.write_text("3 1\n1\n1e999\n0\n")
    assert main(["apply", str(factors_path), str(vector_path)]) == 1
    captured = capsys.readouterr()
    assert "non-finite entries" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "text, message",
    [
        ("HPROD 3 1\nnan 1 0\n", "non-finite entries"),
        ("HPROD 3 1\n1 inf 0\n", "non-finite entries"),
        ("HPROD 3 1\n1 0 1e999\n", "non-finite entries"),
        ("HPROD 3 1\n0.6 0.8 1e-3\n", "unit norm"),
        ("HPROD 3 2\n1 0 0\n0.6 0.8\n", "row 1 has 2 entries, expected 3"),
        ("HPROD 3 1\n1 0 1_0\n", "'1_0'"),
        ("HPROD -3 0\n", "negative dimension"),
    ],
)
def test_apply_rejects_bad_factored_files(tmp_path, capsys, text, message):
    factors_path = tmp_path / "bad.hprod"
    factors_path.write_text(text)
    vector_path = tmp_path / "x.mat"
    fileio.save_matrix(vector_path, np.ones((3, 1)))
    assert main(["apply", str(factors_path), str(vector_path)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_recover_worked_example(tmp_path, capsys):
    H = np.eye(3) - 2.0 * np.outer(U_TRUE, U_TRUE)
    Y = H @ np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    data_path = tmp_path / "y.mat"
    fileio.save_matrix(data_path, Y)
    assert main(["recover", str(data_path)]) == 0
    out = capsys.readouterr().out
    printed_u = np.array([float(v) for v in out.splitlines()[0].split()[1:]])
    np.testing.assert_allclose(printed_u, U_TRUE, atol=1e-12)
    assert "residual" in out


def test_recover_identical_columns_is_ambiguous(tmp_path, capsys):
    rng = np.random.default_rng(7)
    u = make_reflector(rng.standard_normal(6)).u
    H = np.eye(6) - 2.0 * np.outer(u, u)
    x = np.zeros(6)
    x[0] = 1.0
    Y = np.column_stack([H @ x, H @ x])
    data_path = tmp_path / "y.mat"
    fileio.save_matrix(data_path, Y)
    assert main(["recover", str(data_path)]) == 3
    assert "ambiguous" in capsys.readouterr().out


def test_recover_inconsistent_data_has_no_solution(tmp_path, capsys):
    rng = np.random.default_rng(8)
    u1 = make_reflector(rng.standard_normal(6)).u
    u2 = make_reflector(rng.standard_normal(6)).u
    x1, x2 = np.zeros(6), np.zeros(6)
    x1[:2] = 1.0
    x2[2:5] = 1.0
    H1 = np.eye(6) - 2.0 * np.outer(u1, u1)
    H2 = np.eye(6) - 2.0 * np.outer(u2, u2)
    data_path = tmp_path / "y.mat"
    fileio.save_matrix(data_path, np.column_stack([H1 @ x1, H2 @ x2]))
    assert main(["recover", str(data_path)]) == 4
    assert "no solution" in capsys.readouterr().out


def test_recover_rejects_non_finite_data(tmp_path, capsys):
    data_path = tmp_path / "y.mat"
    data_path.write_text("3 2\n0.5 0\nnan 0.5\n0.5 0.5\n")
    assert main(["recover", str(data_path)]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_recover_single_column_is_invalid(tmp_path, capsys):
    data_path = tmp_path / "y.mat"
    fileio.save_matrix(data_path, np.ones((4, 1)) * 0.5)
    assert main(["recover", str(data_path)]) == 1
    capsys.readouterr()


def test_recover_pivot_inconclusive_pair_past_the_cap_has_no_solution(tmp_path, capsys):
    # two columns 1e-6 apart with equal norms leave the pivot the whole
    # binomial slice, C(30, 6) guesses, of which at most four are tested
    rng = np.random.default_rng(10)
    n = 30
    u = make_reflector(rng.standard_normal(n)).u
    x = np.zeros(n)
    x[:6] = 1.0
    y = x - 2.0 * (u @ x) * u
    w = rng.standard_normal(n)
    w -= (w @ y) / (y @ y) * y
    data_path = tmp_path / "y.mat"
    fileio.save_matrix(data_path, np.column_stack([y, y + 1e-6 * w / np.linalg.norm(w)]))
    assert main(["recover", str(data_path)]) == 4
    assert "no solution: no common candidate" in capsys.readouterr().out


@pytest.mark.parametrize("n", [26, 64])
def test_recover_above_the_enumeration_cap(tmp_path, capsys, n):
    rng = np.random.default_rng(9)
    u = make_reflector(rng.standard_normal(n)).u
    H = np.eye(n) - 2.0 * np.outer(u, u)
    X = np.zeros((n, 2))
    X[0, 0] = 1.0
    X[:2, 1] = 1.0
    data_path = tmp_path / "y.mat"
    fileio.save_matrix(data_path, H @ X)
    assert main(["recover", str(data_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    printed_X = np.array([line.split() for line in lines[2 : 2 + n]], dtype=int)
    np.testing.assert_array_equal(printed_X, X.astype(int))


def test_recover_has_no_max_n_flag(tmp_path, capsys):
    data_path = tmp_path / "y.mat"
    fileio.save_matrix(data_path, np.ones((4, 2)) * 0.5)
    assert main(["recover", str(data_path), "--max-n", "26"]) == 1
    assert "unrecognized arguments: --max-n" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["synth", "--dist", "sparse", "--n", "8", "--m", "2", "--out", "{tmp}/v.mat",
          "--sparse-fraction", "0.1"], "--sparse-fraction"),
        (["sweep", "gaussian", "--outdir", "{tmp}/sweep", "--n", "8",
          "--m-list", "2", "--save-factors"], "--save-factors"),
        (["decompose", "--sweep", "gaussian", "--outdir", "{tmp}/sweep", "--n", "8",
          "--m-list", "2"], "--sweep"),
        (["sweep", "gaussian", "--outdir", "{tmp}/sweep", "--n", "8", "--m-list", "2",
          "--jobs", "2"], "--jobs"),
    ],
    ids=["synth-sparse-fraction", "sweep-save-factors", "decompose-sweep", "sweep-jobs"],
)
def test_removed_flags_are_unrecognized(tmp_path, capsys, argv, flag):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # refused before anything was written


def test_removed_bench_command_is_unknown(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--n", "64"]) == 1
    captured = capsys.readouterr()
    assert "invalid choice: 'bench'" in captured.err and captured.out == ""
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        # decompose takes none of sweep's flags
        ["decompose", "{tmp}/v.mat", "--outdir", "{tmp}/sweep"],
        ["decompose", "{tmp}/v.mat", "--n", "8"],
        ["decompose", "{tmp}/v.mat", "--m-list", "2"],
        ["decompose", "{tmp}/v.mat", "--seed", "3"],
        ["decompose", "{tmp}/v.mat", "--jobs", "4"],
        # sweep takes none of decompose's, nor an input file; --out and --m are
        # not read as prefixes of --outdir and --m-list either
        ["sweep", "gaussian", "--outdir", "{tmp}/sweep", "--n", "8", "--m-list", "2",
         "--out", "{tmp}/f.hprod"],
        ["sweep", "gaussian", "--outdir", "{tmp}/sweep", "--n", "8", "--m-list", "2",
         "--trace", "{tmp}/t.csv"],
        ["sweep", "gaussian", "--outdir", "{tmp}/sweep", "--n", "8", "--m", "1"],
        ["sweep", "gaussian", "--outdir", "{tmp}/sweep", "--n", "8", "--m-list", "2",
         "{tmp}/v.mat"],
        # no flag is matched by a prefix
        ["decompose", "{tmp}/v.mat", "--tr", "{tmp}/t.csv", "--e", "1e-9"],
        ["bound", "{tmp}/v.mat", "--m", "0:2"],
        ["sweep", "gaussian", "--outdir", "{tmp}/sweep", "--n", "8", "--m", "3"],
    ],
    ids=[
        "decompose-outdir", "decompose-n", "decompose-m-list", "decompose-seed",
        "decompose-jobs", "sweep-out", "sweep-trace", "sweep-m", "sweep-input",
        "abbrev-trace-eps", "abbrev-bound-m-range", "abbrev-sweep-m-list",
    ],
)
def test_flags_of_another_command_or_abbreviated_are_unrecognized(tmp_path, capsys, argv):
    write_worked_matrix(tmp_path / "v.mat")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err and captured.out == ""
    assert [path.name for path in tmp_path.iterdir()] == ["v.mat"]  # nothing written


@pytest.mark.parametrize(
    "argv",
    [["decompose", "{tmp}/v.mat", "--eps", "abc"], ["synth", "--m", "2", "--out", "{tmp}/x.mat"]],
    ids=["bad-eps", "synth-without-n"],
)
def test_usage_errors_exit_1(tmp_path, capsys, argv):
    write_worked_matrix(tmp_path / "v.mat")
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert "usage: hhfactor" in captured.err and captured.out == ""
    assert [path.name for path in tmp_path.iterdir()] == ["v.mat"]


@pytest.mark.parametrize("command", ["decompose", "sweep", "synth", "bound", "apply", "recover"])
def test_help_exits_0(capsys, command):
    assert main([command, "--help"]) == 0
    assert f"usage: hhfactor {command}" in capsys.readouterr().out


def test_top_level_help_lists_the_six_commands(capsys):
    assert main(["--help"]) == 0
    assert "{synth,decompose,sweep,bound,apply,recover}" in capsys.readouterr().out


def test_bench_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        import hhfactor.bench  # noqa: F401


def test_main_builds_the_parser_once_per_process(tmp_path, capsys, monkeypatch):
    matrix_path = tmp_path / "v.mat"
    write_worked_matrix(matrix_path)
    assert main(["decompose", str(matrix_path)]) == 0

    def rebuilt():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    assert main(["decompose", str(matrix_path)]) == 0
    assert main(["bound", str(matrix_path), "--m-range", "0:1"]) == 0
    capsys.readouterr()


def test_build_parser_is_not_cached():
    assert cli.build_parser() is not cli.build_parser()


def test_cli_surface_matches_readme_and_every_declared_argument_is_read():
    subparsers = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = [line.split()[1] for line in cli_block.splitlines() if line.startswith("hhfactor ")]
    assert list(subparsers.choices) == documented
    declared = {
        name: [action.dest for action in parser._actions if action.dest != "help"]
        for name, parser in subparsers.choices.items()
    }
    assert sum(map(len, declared.values())) == 23
    for name, dests in declared.items():
        source = inspect.getsource(subparsers.choices[name].get_default("func"))
        unread = [dest for dest in dests if f"args.{dest}" not in source]
        assert not unread, f"{name} declares but never reads {unread}"
