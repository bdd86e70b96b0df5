"""Wall-time comparison of factored apply against dense multiplication.

The factored path costs O(m*n) per vector versus O(n^2) dense, so at fixed n
the time should grow roughly linearly in m and undercut the dense product for
small m. Medians over many single-call timings keep the numbers stable on
noisy machines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import HouseholderProduct, apply
from .generators import GeneratorSpec, synthesize

LINEARITY_SLACK = (0.625, 1.375)  # accepted ratio window relative to m_hi/m_lo


def median_seconds(fn, repeats: int) -> float:
    """Median wall time of repeated single calls to fn."""
    fn()  # warm-up
    samples = np.empty(repeats)
    for i in range(repeats):
        start = time.perf_counter()
        fn()
        samples[i] = time.perf_counter() - start
    return float(np.median(samples))


def check_m_list(m_list: tuple[int, ...]) -> None:
    """Refuse an m below 1 and a repeated m: each m names one timing or one file."""
    if min(m_list, default=1) < 1:
        raise ValueError(f"m must be at least 1, got {min(m_list)}")
    if len(set(m_list)) < len(m_list):
        raise ValueError(f"m-list repeats a value: {','.join(map(str, m_list))}")


@dataclass(frozen=True)
class BenchReport:
    n: int
    m_list: tuple[int, ...]
    apply_seconds: tuple[float, ...]
    dense_seconds: float
    ratio: float            # t(m_hi) / t(m_lo)
    ratio_window: tuple[float, float]
    linear_in_m: bool

    def lines(self) -> list[str]:
        out = [f"n = {self.n}, median over repeated applies"]
        for m, seconds in zip(self.m_list, self.apply_seconds):
            verdict = "beats dense" if seconds < self.dense_seconds else "NOT faster"
            out.append(f"  factored m={m:4d}: {seconds * 1e6:9.2f} us  ({verdict})")
        out.append(f"  dense multiply : {self.dense_seconds * 1e6:9.2f} us")
        lo, hi = self.ratio_window
        out.append(
            f"  t(m={self.m_list[-1]})/t(m={self.m_list[0]}) = {self.ratio:.2f}"
            f" (linear window [{lo:.2f}, {hi:.2f}]:"
            f" {'ok' if self.linear_in_m else 'violated'})"
        )
        return out


def run_benchmark(
    n: int = 1024,
    m_list: tuple[int, ...] = (8, 16, 32),
    seed: int = 0,
    repeats: int = 300,
) -> BenchReport:
    """Time factored apply for each m in m_list against one dense multiply.

    The linearity check compares t(max m)/t(min m) against the ideal factor
    max(m)/min(m) with wide slack; a BenchReport carries the verdict.
    """
    m_list = tuple(sorted(m_list))
    if len(m_list) < 2:
        raise ValueError("need at least two m values to check scaling")
    check_m_list(m_list)
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    dense, product = synthesize(GeneratorSpec("gaussian", n=n, m=max(m_list), seed=seed))
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal(n)

    apply_seconds = []
    for m in m_list:
        truncated = HouseholderProduct(n, product.directions[:m])
        apply_seconds.append(median_seconds(lambda p=truncated: apply(p, x), repeats))
    dense_seconds = median_seconds(lambda: dense @ x, repeats)

    ratio = apply_seconds[-1] / apply_seconds[0]
    ideal = m_list[-1] / m_list[0]
    window = (LINEARITY_SLACK[0] * ideal, LINEARITY_SLACK[1] * ideal)
    return BenchReport(
        n=n,
        m_list=m_list,
        apply_seconds=tuple(apply_seconds),
        dense_seconds=dense_seconds,
        ratio=ratio,
        ratio_window=window,
        linear_in_m=window[0] <= ratio <= window[1],
    )
