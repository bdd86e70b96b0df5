"""Command-line interface.

Commands: synth, decompose, sweep, bound, apply, recover. Exit codes: 0
success (unique recovery, converged decomposition), 1 invalid input or
usage, 2 factor cap reached, 3 ambiguous recovery, 4 no recovery solution.
At a fixed BLAS thread count all output is deterministic for a fixed seed;
across thread counts generated matrices can differ in trailing digits.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import fileio
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

SWEEP_M_LIST = (1, 5, 10, 25, 50, 100, 200, 400)  # default of sweep --m-list
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


def cmd_decompose(args) -> int:
    matrix = fileio.load_matrix(args.input)
    product, trace = greedy_decompose(matrix, max_m=args.max_m, eps=args.eps)
    if args.trace:
        fileio.save_trace_csv(args.trace, trace)
    if args.out:
        fileio.save_product(args.out, product)
    print(
        f"m={trace.m} residual={trace.final_residual:.6g} "
        f"termination={trace.termination}"
    )
    return EXIT_OK if trace.termination == "converged" else EXIT_CAP


def cmd_sweep(args) -> int:
    # the m list, every cell's spec and eps are checked before outdir exists
    m_list = _parse_int_list(args.m_list) if args.m_list else SWEEP_M_LIST
    if not m_list:
        raise ValueError(f"--m-list {args.m_list!r} holds no m")
    if min(m_list) < 1:  # each m names one cell and one trace file
        raise ValueError(f"m must be at least 1, got {min(m_list)}")
    if len(set(m_list)) < len(m_list):
        raise ValueError(f"m-list repeats a value: {','.join(map(str, m_list))}")
    m_list = tuple(m for m in m_list if m <= args.n)
    if not m_list:
        raise ValueError(f"no sweep m is at most n={args.n}")
    specs = [GeneratorSpec(args.dist, n=args.n, m=m, seed=args.seed + index) for index, m in enumerate(m_list)]
    if not args.eps > 0.0:  # NaN fails too
        raise ValueError("eps must be positive")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    worst = EXIT_OK
    for spec in specs:
        matrix, _ = synthesize(spec)
        _, trace = greedy_decompose(matrix, max_m=args.n, eps=args.eps)
        fileio.save_trace_csv(outdir / f"{args.dist}_n{args.n}_m{spec.m}.csv", trace)
        print(
            f"{args.dist} n={args.n} m={spec.m}: used {trace.m} factors, "
            f"residual={trace.final_residual:.6g}, termination={trace.termination}"
        )
        if trace.termination != "converged":
            worst = EXIT_CAP
    return worst


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
    lines = ["u: " + " ".join(fileio.FLOAT_FMT % value for value in result.u.u.tolist()), "X:"]
    lines += (" ".join(map(str, row)) for row in result.X.tolist())  # X holds ints
    lines.append(f"residual: {result.residual:.6g}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhfactor",
        description="Factor orthogonal matrices into few Householder reflections "
        "and recover reflection dictionaries from binary-coded data.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, allow_abbrev=False)  # no prefix matching

    p = add("synth", help="generate a seeded orthogonal instance")
    p.add_argument("--dist", choices=DISTRIBUTIONS, default="gaussian")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="matrix file to write")
    p.add_argument("--factors", help="also write the generating reflectors")
    p.set_defaults(func=cmd_synth)

    p = add("decompose", help="greedy factorization of a matrix file")
    p.add_argument("input", help="matrix file")
    p.add_argument("--m", dest="max_m", type=int, default=None, help="factor cap")
    p.add_argument("--eps", type=float, default=SWEEP_EPS)
    p.add_argument("--trace", help="write the per-iteration CSV here")
    p.add_argument("--out", help="write the factored form here")
    p.set_defaults(func=cmd_decompose)

    p = add("sweep", help="generate and decompose one instance per m in --m-list")
    p.add_argument("dist", choices=DISTRIBUTIONS)
    p.add_argument("--outdir", required=True, help="directory for the per-cell trace CSVs")
    p.add_argument("--n", type=int, default=500)
    p.add_argument(
        "--m-list",
        default="",
        help=f"factor counts (default {','.join(map(str, SWEEP_M_LIST))})",
    )
    p.add_argument("--eps", type=float, default=SWEEP_EPS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sweep)

    p = add("bound", help="print the residual bound over a range of m")
    p.add_argument("input", help="matrix file")
    p.add_argument("--m-range", default="", help='inclusive "lo:hi" (default 0:n)')
    p.set_defaults(func=cmd_bound)

    p = add("apply", help="apply a factored file to vectors")
    p.add_argument("factors", help="factored file")
    p.add_argument("input", help="matrix file of column vectors")
    p.add_argument("--out", help="write result here instead of stdout")
    p.set_defaults(func=cmd_apply)

    p = add("recover", help="recover reflection and binary codes from data")
    p.add_argument("input", help="matrix file with the data columns")
    p.set_defaults(func=cmd_recover)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser() once per process; parse_args leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed usage, or help on exit 0
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
