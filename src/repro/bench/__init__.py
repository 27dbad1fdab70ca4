"""Benchmark harness utilities.

- :mod:`repro.obs.measure` (re-exported here) — wall-clock and
  peak-heap measurement (tracemalloc) for the Figs. 7-9 comparisons;
  only the benchmarks use it, CLI runs record the clock and peak RSS;
- :mod:`repro.bench.fitting` — least-squares curve fitting with R², for
  the Fig. 10 scalability study;
- :mod:`repro.bench.tables` — plain-text table rendering so every bench
  prints rows in the shape the paper reports.
"""

from repro.obs.measure import Measurement, measure
from repro.bench.fitting import FitResult, fit_linear, fit_power
from repro.bench.tables import render_table

__all__ = [
    "FitResult",
    "Measurement",
    "fit_linear",
    "fit_power",
    "measure",
    "render_table",
]
