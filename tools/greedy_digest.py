"""Digest of greedy_decompose on every instance of the two decompose workloads.

Usage, from the root of a source checkout:

    python3 tools/greedy_digest.py LO HI > digest.txt
    python3 tools/greedy_digest.py --counts LO HI > counts.txt

For each workload seed in [LO, HI) and each cell of decompose-lowrank and
decompose-fullrank (perfbench/workloads.py), it builds the cell's matrix as
the workload does (-I for the negated-identity cells), runs greedy_decompose
at the workload's eps, and prints one line: seed, workload, label, factor
count, termination and the SHA-256 of the factor directions' bytes followed
by repr(trace). Two checkouts whose digests match under ``diff`` return
byte-identical factors and traces on those instances. With ``--counts`` the
line ends with the dim_e1 of every trace row instead of the hash: these are
the parts that must stay exact when a change moves trailing bits, so ``diff``
of two such outputs gates them alone. The BLAS runs at one thread, since
results can differ in the last bits between thread counts.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True  # leave no cache files under perfbench/
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from hhfactor.decompose import greedy_decompose  # noqa: E402
from hhfactor.generators import GeneratorSpec, synthesize  # noqa: E402
from workloads import EPS, FULLRANK_CELLS, LOWRANK_CELLS, cell_seed  # noqa: E402

WORKLOAD_CELLS = (("decompose-lowrank", LOWRANK_CELLS), ("decompose-fullrank", FULLRANK_CELLS))


def digest_lines(seed: int, counts: bool = False):
    """One digest line per cell of both decompose workloads at this seed; see the module docstring."""
    for workload, cells in WORKLOAD_CELLS:
        for index, (dist, n, m) in enumerate(cells):
            if dist == "negated-identity":
                V = -np.eye(n)
            else:
                V, _ = synthesize(GeneratorSpec(dist, n=n, m=m, seed=cell_seed(seed, index)))
            product, trace = greedy_decompose(V, eps=EPS)
            if counts:
                digest = " ".join(str(row.dim_e1) for row in trace.rows)
            else:
                digest = hashlib.sha256(product.directions.tobytes() + repr(trace).encode()).hexdigest()
            yield f"{seed} {workload} {dist}-n{n}-m{m} {trace.m} {trace.termination} {digest}"


def main(argv: list[str]) -> int:
    counts = argv[:1] == ["--counts"]
    if len(argv) != 2 + counts:
        print("usage: greedy_digest.py [--counts] LO HI", file=sys.stderr)
        return 1
    lo, hi = map(int, argv[counts:])
    for seed in range(lo, hi):
        for line in digest_lines(seed, counts):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
