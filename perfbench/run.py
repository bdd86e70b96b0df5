"""End-to-end and per-layer benchmark of the hhfactor command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload decompose-lowrank --seed 1 --seconds 20 --trace 0

The benchmark is a closed loop with one client in one process: each operation
is the next CLI command, run in-process through ``hhfactor.cli.main(argv)`` on
text files written during set-up. It imports the package from ``src/`` of
the checkout and refuses to run without it.

A run sets up the workload's seeded instances several times (set-up time is
their median) and runs one untimed warm-up command. It then runs cycles, each
over one block of instances (one instance of every cell of the workload),
until about ``--seconds`` of command time is spent. Every command's exit code
and output are checked against the reference outside the timed interval.
With ``--trace 0`` the last line of stdout reports the end-to-end metrics.
With ``--trace 1`` each block runs twice, untraced and then traced, and the
last line reports the per-layer metrics of the traced cycles, as seconds of
self time and counts per operation. Earlier lines are for people:
provenance, metrics with units, and any failing instance.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

BLAS_THREADS = 1  # pinned before numpy loads; steadier than two threads at these sizes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

from spans import Probe, Tracer, profiles  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 3          # set-up runs at least this often; setup_s is the median
SETUP_MIN_SECONDS = 2.0    # and more often, up to SETUP_MAX_REPEATS, while cheaper than this
SETUP_MAX_REPEATS = 25
TAIL_PERCENTILE = 90

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

# (metric, unit, span name, what): "self" is seconds of self time, "calls" the
# number of calls, anything else a count the probe records. Values are per
# traced operation.
LAYER_METRICS = (
    ("cli.self_s", "s", "cli", "self"),
    ("fileio.read_s", "s", "fileio.read", "self"),
    ("fileio.write_s", "s", "fileio.write", "self"),
    ("fileio.bytes_read", "B", "fileio.read", "bytes"),
    ("fileio.bytes_written", "B", "fileio.write", "bytes"),
    ("core.check_orthogonal_s", "s", "core.check_orthogonal", "self"),
    ("core.check_orthogonal.calls", "count", "core.check_orthogonal", "calls"),
    ("core.symmetric_part_s", "s", "core.symmetric_part", "self"),
    ("core.eigh_s", "s", "core.eigh", "self"),
    ("core.eigh.calls", "count", "core.eigh", "calls"),
    ("core.rank_s", "s", "core.rank", "self"),
    ("core.rank.calls", "count", "core.rank", "calls"),
    ("core.apply_s", "s", "core.apply", "self"),
    ("core.apply.calls", "count", "core.apply", "calls"),
    ("core.apply.flops", "flop", "core.apply", "flops"),
    ("decompose.greedy_self_s", "s", "decompose.greedy", "self"),
    ("decompose.greedy.steps", "count", "decompose.greedy", "steps"),
    ("dictlearn.recover_self_s", "s", "dictlearn.recover", "self"),
    ("dictlearn.enumerate_s", "s", "dictlearn.enumerate", "self"),
    ("dictlearn.enumerate.calls", "count", "dictlearn.enumerate", "calls"),
    ("dictlearn.guesses", "count", "dictlearn.enumerate", "guesses"),
    ("dictlearn.candidates", "count", "dictlearn.enumerate", "candidates"),
    ("dictlearn.match_s", "s", "dictlearn.match", "self"),
)
DERIVED_UNITS = {
    "dictlearn.candidates_per_guess": "frac",
    "generators.synthesize_s": "s",
    "trace.op_s": "s",
    "trace.overhead_frac": "frac",
}


def _path_bytes(args, result):
    return {"bytes": os.path.getsize(args[0])}


def _apply_flops(args, result):
    product, x = args[0], np.asarray(args[1])
    columns = x.shape[1] if x.ndim == 2 else 1
    return {"flops": 4 * product.m * product.n * columns}


def _greedy_steps(args, result):
    return {"steps": result[0].m}


def _enumeration_counts(args, result):
    """Guesses the enumeration visits: the binomial slice C(n, round(||y||^2)),
    none when the squared norm is not within 1e-6 of an integer in 1..n."""
    y = np.asarray(args[0], dtype=float)
    norm_sq = float(y @ y)
    ones = round(norm_sq)
    consistent = 0 < ones <= y.shape[0] and abs(norm_sq - ones) <= 1e-6
    return {
        "guesses": math.comb(y.shape[0], ones) if consistent else 0,
        "candidates": len(result),
    }


def probes():
    """The cross-module names the CLI's callers look up, one probe each."""
    return (
        Probe("fileio.read", "hhfactor.fileio", "load_matrix", _path_bytes),
        Probe("fileio.read", "hhfactor.fileio", "load_product", _path_bytes),
        Probe("fileio.write", "hhfactor.fileio", "save_matrix", _path_bytes),
        Probe("fileio.write", "hhfactor.fileio", "save_product", _path_bytes),
        Probe("fileio.write", "hhfactor.fileio", "save_trace_csv", _path_bytes),
        Probe("core.check_orthogonal", "hhfactor.cli", "check_orthogonal"),
        Probe("core.check_orthogonal", "hhfactor.decompose", "check_orthogonal"),
        Probe("core.symmetric_part", "hhfactor.decompose", "symmetric_part"),
        Probe("core.eigh", "hhfactor.decompose", "symmetric_eigendecomposition"),
        Probe("core.rank", "hhfactor.decompose", "_fixed_subspace_dim"),
        Probe("core.apply", "hhfactor.cli", "apply_product", _apply_flops),
        Probe("decompose.greedy", "hhfactor.cli", "greedy_decompose", _greedy_steps),
        Probe("dictlearn.recover", "hhfactor.cli", "recover"),
        Probe("dictlearn.enumerate", "hhfactor.dictlearn", "enumerate_candidates", _enumeration_counts),
        Probe("dictlearn.match", "hhfactor.dictlearn", "_match_mask"),
    )


def load_package(root: Path = ROOT) -> None:
    """Put the checkout's src/ first on sys.path; exit with status 1 without it."""
    src = root / "src"
    if not (src / "hhfactor" / "cli.py").is_file():
        sys.exit(f"perfbench: no package source at {src / 'hhfactor'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import hhfactor

    if Path(hhfactor.__file__).resolve().parent != (src / "hhfactor").resolve():
        sys.exit(f"perfbench: imported hhfactor from {hhfactor.__file__}, not from {src}")


def provenance(root: Path = ROOT) -> dict:
    """Machine, library versions and source identity of this run."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "hhfactor").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _git_head(root),
        "source_sha256": digest.hexdigest()[:16],
    }


def _git_head(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def run_command(instance):
    """Run one CLI command in-process; returns (seconds, exit code, stdout, stderr)."""
    from hhfactor import cli

    if instance.output is not None:
        instance.output.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = cli.main(list(instance.argv))
        except Exception as exc:  # a crash is a failed operation, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, code, stdout.getvalue(), stderr.getvalue()


class Checker:
    """Checks each command's result, caching the verdict per distinct output."""

    def __init__(self):
        self._verdicts: dict[tuple, str | None] = {}

    def __call__(self, key, instance, code, stdout, stderr) -> str | None:
        if code != instance.expect_exit:
            detail = (stderr or stdout).strip().splitlines()[-1:] or [""]
            return f"exit {code!r}, expected {instance.expect_exit} {detail[0]}".rstrip()
        output = None
        if instance.output is not None and instance.output.is_file():
            output = instance.output.read_bytes()
        key = (key, stdout, hashlib.sha256(output).digest() if output is not None else None)
        if key not in self._verdicts:
            self._verdicts[key] = instance.check(instance.reference, stdout, output)
        return self._verdicts[key]


def tail(latencies):
    """The TAIL_PERCENTILE latency and how many samples lie above it."""
    value = float(np.percentile(latencies, TAIL_PERCENTILE))
    return value, int(sum(1 for x in latencies if x > value))


def measure(workload, seed, seconds, trace, workdir, cells=None, corrupt=None, tracer_probes=None):
    """Set up, warm up and run whole cycles of blocks; returns the raw results.

    cells and corrupt (a function applied to the instance list after set-up)
    let the self-test run tiny instances with a wrong reference.
    """
    import workloads

    setup_times, synth_times = [], []
    while len(setup_times) < SETUP_REPEATS or (
        sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_REPEATS
    ):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        start = time.perf_counter()
        blocks, synthesize_s = workloads.build(workload, seed, workdir, cells)
        setup_times.append(time.perf_counter() - start)
        synth_times.append(synthesize_s)
    if corrupt is not None:
        blocks = [corrupt(block) for block in blocks]

    check = Checker()
    run_command(blocks[0][0])  # warm-up: caches, lazy imports, first-call costs

    tracer = Tracer(probes() if tracer_probes is None else tracer_probes)
    latencies, failures = [], []
    cycle_seconds = {False: [], True: []}
    busy = 0.0
    cycle = 0
    while True:
        traced = bool(trace) and cycle % 2 == 1
        block = (cycle // 2 if trace else cycle) % len(blocks)
        if traced:
            tracer.install()
        cycle_busy = 0.0
        try:
            for index, instance in enumerate(blocks[block]):
                if traced:
                    with tracer.operation("cli"):
                        result = run_command(instance)
                else:
                    result = run_command(instance)
                latency, code, stdout, stderr = result
                cycle_busy += latency
                latencies.append(latency)
                reason = check((block, index), instance, code, stdout, stderr)
                if reason is not None:
                    failures.append(f"{block}.{index}:{instance.label}: {reason}")
        finally:
            tracer.uninstall()
        cycle_seconds[traced].append(cycle_busy)
        busy += cycle_busy
        cycle += 1
        if cycle >= (2 if trace else 1) and busy + busy / cycle / 2 > seconds:
            break
    return {
        "setup_times": setup_times,
        "synthesize_s": statistics.median(synth_times),
        "latencies": latencies,
        "failures": failures,
        "cycle_seconds": cycle_seconds,
        "tracer": tracer,
    }


def end_to_end_metrics(raw) -> dict:
    latencies = raw["latencies"]
    attempted = len(latencies)
    tail_value, _ = tail(latencies)
    values = {
        "setup_s": statistics.median(raw["setup_times"]),
        "ops_per_s": attempted / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "ok_frac": (attempted - len(raw["failures"])) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": END_TO_END_UNITS[name]} for name in END_TO_END_UNITS}


def layer_metrics(raw) -> dict:
    per_op = list(profiles(raw["tracer"].spans).values())
    ops = len(per_op)
    values = {}
    for name, unit, span, what in LAYER_METRICS:
        if what == "self":
            total = sum(p.self_s.get(span, 0.0) for p in per_op)
        elif what == "calls":
            total = sum(p.calls.get(span, 0) for p in per_op)
        else:
            total = sum(p.counts.get(f"{span}.{what}", 0) for p in per_op)
        values[name] = (total / ops, unit)
    guesses = values["dictlearn.guesses"][0]
    untraced, traced = raw["cycle_seconds"][False], raw["cycle_seconds"][True]
    derived = {
        "dictlearn.candidates_per_guess": values["dictlearn.candidates"][0] / guesses if guesses else 0.0,
        "generators.synthesize_s": raw["synthesize_s"],
        "trace.op_s": sum(p.duration for p in per_op) / ops,
        "trace.overhead_frac": statistics.mean(traced) / statistics.mean(untraced) - 1.0,
    }
    values.update((name, (value, DERIVED_UNITS[name])) for name, value in derived.items())
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def purpose_lines(workload, metrics) -> list[str]:
    """Whether the traced run confirms what the workload is meant to stress."""
    value = {name: entry["value"] for name, entry in metrics.items()}
    op = value["trace.op_s"]
    shares = {
        "decompose-lowrank": ("core.rank_s + core.eigh_s", value["core.rank_s"] + value["core.eigh_s"]),
        "decompose-fullrank": (
            "decompose.greedy_self_s + core.*_s",
            value["decompose.greedy_self_s"] + value["core.eigh_s"] + value["core.rank_s"]
            + value["core.symmetric_part_s"] + value["core.check_orthogonal_s"],
        ),
        "recover-binary": ("dictlearn.enumerate_s", value["dictlearn.enumerate_s"]),
        "apply-batch": ("fileio.read_s + fileio.write_s", value["fileio.read_s"] + value["fileio.write_s"]),
    }
    label, seconds = shares[workload]
    share = seconds / op
    lines = [f"purpose: {label} is {share:.1%} of traced op time ({'majority' if share > 0.5 else 'NOT a majority'})"]
    layers = {
        name: entry["value"] / op
        for name, entry in metrics.items()
        if entry["unit"] == "s" and name not in ("trace.op_s", "generators.synthesize_s")
    }
    largest = max(layers, key=layers.get)
    lines.append(
        "layer shares: "
        + ", ".join(f"{name} {share:.1%}" for name, share in sorted(layers.items(), key=lambda kv: -kv[1]) if share >= 0.005)
        + f" (largest: {largest})"
    )
    return lines


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        raw = measure(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("provenance: " + json.dumps(provenance()))
    latencies = raw["latencies"]
    tail_value, beyond = tail(latencies)
    print(
        f"workload {args.workload}, seed {args.seed}: {len(latencies)} operations, "
        f"{len(raw['cycle_seconds'][False]) + len(raw['cycle_seconds'][True])} cycles, "
        f"{sum(latencies):.2f} s of command time; latency_tail_s is p{TAIL_PERCENTILE} "
        f"with {beyond} of {len(latencies)} samples beyond it"
    )
    if args.trace:
        metrics = layer_metrics(raw)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        raw["tracer"].write(spans_path)
        print(f"spans of {len(raw['cycle_seconds'][True])} traced cycles written to {spans_path.relative_to(ROOT)}")
        if raw["tracer"].missing:
            print("absent names (read as 0 calls): " + ", ".join(raw["tracer"].missing))
        for line in purpose_lines(args.workload, metrics):
            print(line)
    else:
        metrics = end_to_end_metrics(raw)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for failure, count in Counter(raw["failures"]).items():
        print(f"FAILED {failure} ({count} of {len(latencies)} operations)")
    print(
        json.dumps(
            {
                "correct": not raw["failures"],
                "attempted": len(latencies),
                "failed": len(raw["failures"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    load_package()
    sys.exit(main())
