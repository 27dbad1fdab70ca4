"""Wall-time and memory measurement.

Two meters, for two questions:

- :func:`measure` is the benchmarks' heap meter.  Peak memory is
  tracemalloc's high-water mark over the call — the "how much memory
  does building this graph take" question the paper's Figs. 8-9 ask,
  comparing a SEG build with an SVF build inside one process.
  tracemalloc slows the measured code several-fold, so time and memory
  comparisons stay apples-to-apples only as long as both systems are
  measured this way.
- CLI runs never trace memory: ``check``, ``profile`` and
  ``selfcheck`` time the analysis with ``time.perf_counter()``, and
  every run record carries :func:`peak_rss_mb`, the resident-set
  high-water mark the kernel keeps for free.  So a recorded or
  profiled run costs what a plain run costs.

Nesting: earlier versions unconditionally ``tracemalloc.start()`` /
``stop()`` and ``reset_peak()``, so a ``measure`` inside a ``measure``
stomped the outer call's tracking (the inner ``stop`` killed tracing,
the inner ``reset_peak`` erased the outer high-water mark).  Now a
module-level stack of active frames folds every observed watermark into
all enclosing measurements, and tracemalloc is only stopped by the
measurement that started it.
"""

from __future__ import annotations

import gc
import sys
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, List, Tuple, TypeVar

try:
    import resource
except ImportError:  # pragma: no cover - not on POSIX
    resource = None  # type: ignore[assignment]

T = TypeVar("T")


@dataclass(frozen=True)
class Measurement:
    seconds: float
    peak_bytes: int

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / (1024 * 1024)


class _Frame:
    __slots__ = ("baseline", "peak")

    def __init__(self, baseline: int) -> None:
        self.baseline = baseline
        self.peak = baseline


_active: List[_Frame] = []


def measure(thunk: Callable[[], T]) -> Tuple[T, Measurement]:
    """Run ``thunk`` measuring wall time and peak additional memory.

    Safe to nest: each level reports its own peak-over-baseline, and an
    inner call never disturbs an outer call's tracking.
    """
    gc.collect()
    owner = not tracemalloc.is_tracing()
    if owner:
        tracemalloc.start()
    # Fold the watermark reached so far into every enclosing frame,
    # because reset_peak() below erases it for them.
    current, peak = tracemalloc.get_traced_memory()
    for outer in _active:
        if peak > outer.peak:
            outer.peak = peak
    tracemalloc.reset_peak()
    frame = _Frame(baseline=current)
    _active.append(frame)
    start = time.perf_counter()
    try:
        result = thunk()
    finally:
        seconds = time.perf_counter() - start
        _, peak_now = tracemalloc.get_traced_memory()
        if peak_now > frame.peak:
            frame.peak = peak_now
        _active.pop()
        # Our peak is also a watermark the enclosing measurements lived
        # through.
        for outer in _active:
            if frame.peak > outer.peak:
                outer.peak = frame.peak
        if owner:
            tracemalloc.stop()
    return result, Measurement(seconds, max(0, frame.peak - frame.baseline))


def time_only(thunk: Callable[[], T]) -> Tuple[T, float]:
    """Run ``thunk`` measuring wall time only (no tracemalloc overhead)."""
    gc.collect()
    start = time.perf_counter()
    result = thunk()
    return result, time.perf_counter() - start


def peak_rss_mb() -> float:
    """Largest resident set of this process, in MiB; 0.0 where
    ``resource`` is missing.  ``ru_maxrss`` is in KiB on Linux and in
    bytes on macOS."""
    if resource is None:
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)
