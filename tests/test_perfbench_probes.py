import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hhfactor import GeneratorSpec, decompose, greedy_decompose, synthesize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def probed_names():
    """(module, name) of every probe in perfbench/run.py.

    run.py pins BLAS threads in os.environ when it is imported, so the list is
    read in a child process and that setting stays out of this one.
    """
    script = "import json, run; print(json.dumps([[p.module, p.attr] for p in run.probes()]))"
    result = subprocess.run(
        [sys.executable, "-B", "-c", script],
        cwd=PERFBENCH,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout)


def test_every_probed_name_resolves_in_the_package():
    # the benchmark's self-test fails when a probed name is renamed away,
    # so a rename must fail here first
    names = probed_names()
    assert len(names) >= 10
    missing = [f"{module}.{name}" for module, name in names if not hasattr(importlib.import_module(module), name)]
    assert missing == []


@pytest.mark.parametrize("dist, n, m", [("gaussian", 192, 8), ("gaussian", 64, 64)])
def test_decompose_eigensolves_once_through_the_probed_names(monkeypatch, dist, n, m):
    # the benchmark's core.eigh and core.symmetric_part layers time
    # decompose.symmetric_eigendecomposition and decompose.symmetric_part; a
    # low-rank input (r-by-r) and a full-rank one (n-by-n) must each call both
    # exactly once, so neither layer silently reads 0
    V, _ = synthesize(GeneratorSpec(dist, n=n, m=m, seed=5))
    calls = []
    for name in ("symmetric_eigendecomposition", "symmetric_part"):
        original = getattr(decompose, name)
        monkeypatch.setattr(decompose, name, lambda A, original=original, name=name: calls.append(name) or original(A))
    _, trace = greedy_decompose(V, eps=1e-6)
    assert trace.m == m
    assert sorted(calls) == ["symmetric_eigendecomposition", "symmetric_part"]


def test_perfbench_self_test_passes(tmp_path):
    # the self-test drives every workload through the package's product API.
    # It writes under its checkout's .perfbench_out, so it runs from a copy:
    # overlapping test runs then never share (and delete) each other's files
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(PERFBENCH.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").symlink_to(PERFBENCH.parent / "src", target_is_directory=True)
    result = subprocess.run(
        [sys.executable, "-B", "perfbench/selftest.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
