"""In-memory spans recorded around the package's cross-module calls.

A probe replaces one module-level name, such as
``hhfactor.decompose.symmetric_eigendecomposition``, with a wrapper that
records a span each time the name is called. Callers look such names up at
call time, so the wrapper sees every call without any change to the package.
A probe whose name no longer exists is skipped and its layer reads as zero
calls, so a change that removes or renames a function never breaks the
benchmark.

Spans carry an operation id and the id of the enclosing span; a span's self
time is its duration minus the durations of its direct children. The self
times of all spans of one operation therefore add up to the duration of the
operation's root span.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Probe:
    """Record spans named ``span`` around calls to ``module.attr``.

    counts, when given, maps (args, result) of a call that returned to a dict
    of extra counts summed into the span, e.g. {"bytes": 1024}.
    """

    span: str
    module: str
    attr: str
    counts: Callable[[tuple, object], dict] | None = None


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Installs probes and collects the spans of traced operations."""

    def __init__(self, probes):
        self.probes = tuple(probes)
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []
        self._op = -1

    def install(self) -> None:
        """Replace every probed name that exists with a recording wrapper."""
        self.missing = []
        for probe in self.probes:
            module = importlib.import_module(probe.module)
            original = getattr(module, probe.attr, None)
            if original is None:
                self.missing.append(f"{probe.module}.{probe.attr}")
                continue
            self._saved.append((module, probe.attr, original))
            setattr(module, probe.attr, self._wrap(probe, original))

    def uninstall(self) -> None:
        """Put back the original names, newest first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    @contextmanager
    def operation(self, name: str):
        """Root span of one operation; spans opened inside it share its op id."""
        self._op += 1
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self._op, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, probe: Probe, original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = self._open(probe.span)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if probe.counts is not None:
                span.counts.update(probe.counts(args, result))
            return result

        return wrapper

    def write(self, path) -> None:
        """Write one JSON object per span."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.__dict__) + "\n")


@dataclass
class OperationProfile:
    """Per-span-name totals of one operation."""

    duration: float
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(float))


def profiles(spans) -> dict[int, OperationProfile]:
    """Self time, call count and summed counts per span name, per operation."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    result: dict[int, OperationProfile] = {}
    for span in spans:
        if span.parent is None:
            result[span.op] = OperationProfile(span.end - span.start)
    for span in spans:
        profile = result[span.op]
        profile.self_s[span.name] += span.end - span.start - child_time[span.id]
        if span.parent is not None:
            profile.calls[span.name] += 1
        for key, value in span.counts.items():
            profile.counts[f"{span.name}.{key}"] += value
    return result
