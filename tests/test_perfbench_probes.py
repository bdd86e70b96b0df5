import importlib
import json
import subprocess
import sys
from pathlib import Path

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
