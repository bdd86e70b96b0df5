"""Command-line interface.

Commands: synth, decompose, bound, apply, recover, bench. Exit codes:
0 success (unique recovery, converged decomposition), 1 invalid input,
2 factor cap reached, 3 ambiguous recovery, 4 no recovery solution.
All output is deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import fileio
from .bench import check_m_list, run_benchmark
from .core import apply as apply_product
from .core import check_orthogonal
from .decompose import _residual_bounds, greedy_decompose
from .dictlearn import (
    AmbiguousRecoveryError,
    NoCommonCandidateError,
    recover,
)
from .generators import DISTRIBUTIONS, GeneratorSpec, synthesize

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_CAP = 2
EXIT_AMBIGUOUS = 3
EXIT_NO_SOLUTION = 4

SWEEP_M_LIST = (1, 5, 10, 25, 50, 100, 200, 400)  # defaults of the sweep flag
SWEEP_EPS = 0.05


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_range(text: str, upper: int) -> range:
    """Parse an inclusive "lo:hi" with lo <= hi; the empty default covers 0..upper."""
    if not text:
        return range(upper + 1)
    lo, colon, hi = text.partition(":")
    if not colon:
        raise ValueError(f'--m-range must be "lo:hi", got {text!r}')
    if int(lo) > int(hi):
        raise ValueError(f"--m-range {text!r} is empty: lo must not exceed hi")
    return range(int(lo), int(hi) + 1)


def cmd_synth(args) -> int:
    spec = GeneratorSpec(args.dist, n=args.n, m=args.m, seed=args.seed)
    matrix, product = synthesize(spec)
    fileio.save_matrix(args.out, matrix)
    if args.factors:
        fileio.save_product(args.factors, product)
    print(f"wrote {args.out}: {spec.distribution} n={spec.n} m={spec.m} seed={spec.seed}")
    return EXIT_OK


def _decompose_one(matrix, max_m, eps, trace_path, out_path):
    product, trace = greedy_decompose(matrix, max_m=max_m, eps=eps)
    if trace_path:
        fileio.save_trace_csv(trace_path, trace)
    if out_path:
        fileio.save_product(out_path, product)
    print(
        f"m={trace.m} residual={trace.final_residual:.6g} "
        f"termination={trace.termination}"
    )
    return EXIT_OK if trace.termination == "converged" else EXIT_CAP


def _run_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    m_list = _parse_int_list(args.m_list) if args.m_list else SWEEP_M_LIST
    check_m_list(m_list)  # before outdir exists or any cell writes its file
    m_list = tuple(m for m in m_list if m <= args.n)
    if not m_list:
        raise ValueError(f"no sweep m is at most n={args.n}")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    def run_cell(cell_index_m):
        index, m = cell_index_m
        spec = GeneratorSpec(args.dist, n=args.n, m=m, seed=args.seed + index)
        matrix, _ = synthesize(spec)
        _, trace = greedy_decompose(matrix, max_m=args.n, eps=args.eps)
        fileio.save_trace_csv(outdir / f"{args.dist}_n{args.n}_m{m}.csv", trace)
        return m, trace

    worst = EXIT_OK
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        for m, trace in pool.map(run_cell, enumerate(m_list)):
            print(
                f"{args.dist} n={args.n} m={m}: used {trace.m} factors, "
                f"residual={trace.final_residual:.6g}, termination={trace.termination}"
            )
            if trace.termination != "converged":
                worst = EXIT_CAP
    return worst


def cmd_decompose(args) -> int:
    if args.sweep:
        if not args.outdir:
            print("error: --sweep requires --outdir", file=sys.stderr)
            return EXIT_INVALID
        args.dist = args.sweep
        return _run_sweep(args)
    if not args.input:
        print("error: an input matrix file is required without --sweep", file=sys.stderr)
        return EXIT_INVALID
    matrix = fileio.load_matrix(args.input)
    return _decompose_one(matrix, args.max_m, args.eps, args.trace, args.out)


def cmd_bound(args) -> int:
    matrix = check_orthogonal(fileio.load_matrix(args.input))
    bound = _residual_bounds(matrix)
    # every m is checked before any row is printed, so a bad range writes nothing
    rows = [
        f"{m},{fileio.FLOAT_FMT % bound(m)}\n"
        for m in _parse_range(args.m_range, matrix.shape[0])
    ]
    sys.stdout.write("m,bound\n" + "".join(rows))
    return EXIT_OK


def cmd_apply(args) -> int:
    product = fileio.load_product(args.factors)
    result = apply_product(product, fileio.load_matrix(args.input))
    if args.out:
        fileio.save_matrix(args.out, result)
    else:
        sys.stdout.write(fileio.format_matrix(result))
    return EXIT_OK


def cmd_recover(args) -> int:
    Y = fileio.load_matrix(args.input)
    try:
        result = recover(Y)
    except AmbiguousRecoveryError as exc:
        print(f"ambiguous: {exc}")
        return EXIT_AMBIGUOUS
    except NoCommonCandidateError as exc:
        print(f"no solution: {exc}")
        return EXIT_NO_SOLUTION
    print("u: " + " ".join(fileio.FLOAT_FMT % value for value in result.u.u))
    print("X:")
    for row in result.X:
        print(" ".join(str(int(value)) for value in row))
    print(f"residual: {result.residual:.6g}")
    return EXIT_OK


def cmd_bench(args) -> int:
    report = run_benchmark(n=args.n, m_list=_parse_int_list(args.m_list), repeats=args.repeats)
    for line in report.lines():
        print(line)
    return EXIT_OK if report.linear_in_m else EXIT_INVALID


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhfactor",
        description="Factor orthogonal matrices into few Householder reflections "
        "and recover reflection dictionaries from binary-coded data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded orthogonal instance")
    p.add_argument("--dist", choices=DISTRIBUTIONS, default="gaussian")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="matrix file to write")
    p.add_argument("--factors", help="also write the generating reflectors")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("decompose", help="greedy factorization of a matrix file")
    p.add_argument("input", nargs="?", help="matrix file (omit with --sweep)")
    p.add_argument("--m", dest="max_m", type=int, default=None, help="factor cap")
    p.add_argument("--eps", type=float, default=SWEEP_EPS)
    p.add_argument("--trace", help="write the per-iteration CSV here")
    p.add_argument("--out", help="write the factored form here")
    p.add_argument(
        "--sweep",
        choices=DISTRIBUTIONS,
        help="generate and decompose one instance per m in --m-list",
    )
    p.add_argument("--outdir", help="directory for sweep outputs")
    p.add_argument("--n", type=int, default=500, help="sweep dimension")
    p.add_argument(
        "--m-list",
        default="",
        help=f"sweep factor counts (default {','.join(map(str, SWEEP_M_LIST))})",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1, help="parallel sweep cells")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("bound", help="print the residual bound over a range of m")
    p.add_argument("input", help="matrix file")
    p.add_argument("--m-range", default="", help='inclusive "lo:hi" (default 0:n)')
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("apply", help="apply a factored file to vectors")
    p.add_argument("factors", help="factored file")
    p.add_argument("input", help="matrix file of column vectors")
    p.add_argument("--out", help="write result here instead of stdout")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("recover", help="recover reflection and binary codes from data")
    p.add_argument("input", help="matrix file with the data columns")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("bench", help="factored apply vs dense multiply timings")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--m-list", default="8,16,32")
    p.add_argument("--repeats", type=int, default=300)
    p.set_defaults(func=cmd_bench)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; parse_args leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
