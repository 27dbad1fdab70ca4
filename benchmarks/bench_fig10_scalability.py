"""Fig. 10 — Scalability of the SEG-based checker (curve fitting).

Paper: scatter time (min) and memory (G) against KLoC for all subjects,
fit curves, and report R²: both grow "almost linearly in practice"
(R² > 0.9).  Here: the same study over a program-size ladder; linear
least squares plus a power-law fit whose exponent quantifies the
observed complexity.

Each size is timed by the clock alone (``time_only``) and measured for
memory in a second, tracemalloc'd run (``measure``): tracemalloc slows
the analysis several-fold, and not evenly across sizes.
"""

from __future__ import annotations

import pytest

from repro.bench.fitting import fit_linear, fit_power
from repro.bench.tables import render_table
from repro.core.engine import Pinpoint
from repro.core.checkers import UseAfterFreeChecker
from repro.obs.measure import measure, time_only
from repro.synth.generator import GeneratorConfig, generate_program

SIZES = [400, 800, 1600, 3200, 6400, 12800, 25600, 51200]


def end_to_end(source: str):
    return Pinpoint.from_source(source).check(UseAfterFreeChecker())


def test_fig10_scalability_fits(record_result):
    rows = []
    lines_series = []
    time_series = []
    memory_series = []
    for size in SIZES:
        program = generate_program(GeneratorConfig(seed=1234, target_lines=size))
        _, seconds = time_only(lambda: end_to_end(program.source))
        _, m = measure(lambda: end_to_end(program.source))
        lines_series.append(program.line_count)
        time_series.append(seconds)
        memory_series.append(m.peak_mb)
        rows.append((program.line_count, f"{seconds:.2f}", f"{m.peak_mb:.1f}"))
    table = render_table(["lines", "time (s)", "peak memory (MB)"], rows)

    time_linear = fit_linear(lines_series, time_series)
    memory_linear = fit_linear(lines_series, memory_series)
    time_power = fit_power(lines_series, time_series)
    memory_power = fit_power(lines_series, memory_series)
    table += (
        f"\n\ntime   linear fit: {time_linear.describe()}"
        f"\nmemory linear fit: {memory_linear.describe()}"
        f"\ntime   power  fit: {time_power.describe()}"
        f"\nmemory power  fit: {memory_power.describe()}"
    )
    record_result(table, "fig10_scalability")

    # The paper's claim: nearly linear growth, R^2 > 0.9 on linear fits.
    assert time_linear.r_squared > 0.9
    assert memory_linear.r_squared > 0.9
    # Observed complexity exponents stay well below quadratic.
    assert time_power.coefficients[1] < 1.1
    assert memory_power.coefficients[1] < 1.3


@pytest.mark.benchmark(group="fig10")
@pytest.mark.parametrize("size", [400, 1600])
def test_fig10_end_to_end_benchmark(benchmark, size):
    program = generate_program(GeneratorConfig(seed=1234, target_lines=size))
    benchmark(lambda: end_to_end(program.source))
