"""Section 1 motivation — dense vs sparse value-flow analysis cost.

The paper opens by observing that dense designs (Saturn, Calysto, IFDS)
"propagate data-flow facts to all program points following control-flow
paths" and are known to have performance problems (6-11 hours at
685 KLoC for one property), while sparse analyses track values only
along data dependence.

This bench quantifies the density gap on a size ladder: the dense
baseline's per-statement propagation count vs the sparse engine's search
step count.  The dense count scales with (statements x rounds x facts),
the sparse count with value-flow edges actually relevant to the checked
property.
"""

from __future__ import annotations

import pytest

from repro.baselines.ifds import IFDSBaseline
from repro.bench.fitting import fit_power
from repro.bench.tables import render_table
from repro.core.engine import Pinpoint
from repro.core.checkers import UseAfterFreeChecker
from repro.obs.measure import time_only
from repro.synth.generator import GeneratorConfig, generate_program

SIZES = [400, 800, 1600, 3200]


def test_dense_vs_sparse_work(record_result):
    rows = []
    lines_series = []
    dense_series = []
    sparse_series = []
    for size in SIZES:
        program = generate_program(GeneratorConfig(seed=31, target_lines=size))
        dense = IFDSBaseline.from_source(program.source)
        dense_reports, dense_seconds = time_only(dense.check_use_after_free)
        engine = Pinpoint.from_source(program.source)
        sparse_result, sparse_seconds = time_only(
            lambda: engine.check(UseAfterFreeChecker())
        )
        lines_series.append(program.line_count)
        dense_series.append(dense.stats.propagations)
        sparse_series.append(sparse_result.stats.search_steps)
        rows.append(
            (
                program.line_count,
                dense.stats.propagations,
                f"{dense_seconds:.2f}",
                sparse_result.stats.search_steps,
                f"{sparse_seconds:.2f}",
            )
        )
    table = render_table(
        [
            "lines",
            "dense propagations",
            "dense time (s)",
            "sparse search steps",
            "sparse time (s)",
        ],
        rows,
    )
    ratio = dense_series[-1] / max(sparse_series[-1], 1)
    table += (
        f"\n\non the largest size the dense analysis performs {ratio:.0f}x more "
        f"propagation steps than the sparse engine visits value-flow vertices"
    )
    record_result(table, "dense_vs_sparse")
    # The sparse engine touches far fewer program points.
    assert all(d > s for d, s in zip(dense_series, sparse_series))
    assert ratio > 5


@pytest.mark.benchmark(group="dense-vs-sparse")
def test_dense_benchmark(benchmark):
    program = generate_program(GeneratorConfig(seed=31, target_lines=800))
    baseline = IFDSBaseline.from_source(program.source)
    benchmark(baseline.check_use_after_free)


@pytest.mark.benchmark(group="dense-vs-sparse")
def test_sparse_benchmark(benchmark):
    program = generate_program(GeneratorConfig(seed=31, target_lines=800))
    engine = Pinpoint.from_source(program.source)
    benchmark(lambda: engine.check(UseAfterFreeChecker()))
