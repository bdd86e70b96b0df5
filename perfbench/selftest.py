"""Self-test of the benchmark at tiny sizes; takes about a minute.

    python3 perfbench/selftest.py

Checks that every declared metric is emitted with its unit, that a corrupted
reference is counted as a failure, that a probe on an absent name reads as
zero calls, that layer self times add up to each traced operation, and that
the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile

import run
from spans import Probe, profiles

TINY_CELLS = {
    "decompose-lowrank": (("gaussian", 24, 2), ("sparse", 24, 3)),
    "decompose-fullrank": (("exponential", 8, 8), ("negated-identity", 6, 6)),
    "recover-binary": ((8, 3, "unique"), (9, 2, "identical"), (8, 3, "noninteger")),
    "apply-batch": ((16, 3, 4), (16, 5, 4)),
}


def corrupt_reference(instance):
    """The same instance checked against a wrong reference or verdict."""
    reference = instance.reference
    if instance.argv[0] == "decompose":
        V, p = reference
        reference = (V, p + 1)
    elif instance.argv[0] == "apply":
        reference = reference + 1.0
    elif reference is not None:
        u, X = reference
        reference = (u, 1 - X)
    else:
        return dataclasses.replace(instance, expect_exit=0)
    return dataclasses.replace(instance, reference=reference)


def expect(condition, message):
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def declared():
    with open(run.ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        [w["name"] for w in spec["workloads"]],
    )


def main() -> int:
    run.load_package()
    end_to_end, per_layer, workloads = declared()
    expect(sorted(workloads) == sorted(TINY_CELLS), f"workloads {workloads}")
    run.OUT_DIR.mkdir(exist_ok=True)
    workdir = run.OUT_DIR / "selftest"
    try:
        for workload, cells in TINY_CELLS.items():
            raw = run.measure(workload, 7, 0.3, 0, workdir, cells=cells)
            metrics = run.end_to_end_metrics(raw)
            expect({k: v["unit"] for k, v in metrics.items()} == end_to_end, f"{workload} end-to-end names/units")
            expect(not raw["failures"], f"{workload} failures {raw['failures']}")
            expect(metrics["ok_frac"]["value"] == 1.0, f"{workload} ok_frac")

            bad = run.measure(
                workload, 7, 0.3, 0, workdir, cells=cells,
                corrupt=lambda instances: [corrupt_reference(i) for i in instances],
            )
            bad_metrics = run.end_to_end_metrics(bad)
            expect(len(bad["failures"]) == len(bad["latencies"]), f"{workload} corrupted references not all failed")
            expect(bad_metrics["ok_frac"]["value"] == 0.0, f"{workload} ok_frac with corrupted references")

            absent = Probe("absent", "hhfactor.cli", "no_such_name")
            traced = run.measure(
                workload, 7, 0.3, 1, workdir, cells=cells, tracer_probes=run.probes() + (absent,)
            )
            layers = run.layer_metrics(traced)
            expect({k: v["unit"] for k, v in layers.items()} == per_layer, f"{workload} per-layer names/units")
            tracer = traced["tracer"]
            expect(tracer.missing == ["hhfactor.cli.no_such_name"], f"missing {tracer.missing}")
            ops = profiles(tracer.spans).values()
            expect(all(p.calls.get("absent", 0) == 0 for p in ops), "absent name has calls")
            for profile in ops:
                total = sum(profile.self_s.values())
                expect(abs(total - profile.duration) <= 1e-9 * max(1.0, profile.duration), "self times do not add up")
            print(f"ok {workload}: {len(raw['latencies'])} ops, {len(ops)} traced")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", f"{bare}/perfbench")
        result = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "recover-binary",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(result.returncode != 0 and not result.stdout.strip(), "ran without the package source")
    print("ok refuses to run without src/hhfactor")
    return 0


if __name__ == "__main__":
    sys.exit(main())
