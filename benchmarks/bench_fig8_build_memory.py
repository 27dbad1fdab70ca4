"""Fig. 8 — Memory cost: building SEG vs building the global FSVFG.

Paper: the two are close on small subjects (Δ≈3G at 50 KLoC); past the
135 KLoC threshold FSVFG needs 40-60G *more* while failing to finish.
Here: peak tracemalloc bytes over the build, same sweep, same shape —
the FSVFG's materialized store→load edges grow quadratically, the SEG's
per-function edges near-linearly.
"""

from __future__ import annotations

import pytest

from conftest import fig7_program
from repro.baselines.svf import SVFBaseline
from repro.bench.fitting import fit_power
from repro.bench.tables import render_table
from repro.core.engine import Pinpoint
from repro.obs.measure import measure

# Memory measurement is slow under tracemalloc; sweep a size-ladder
# subset of the catalog rather than all 30 subjects.
SWEEP = [
    "gzip",
    "crafty",
    "gap",
    "vortex",
    "perkbmk",
    "gcc",
    "git",
    "vim",
    "libicu",
    "php",
    "mysql",
]


def test_fig8_build_memory_sweep(record_result):
    rows = []
    series = []
    for name in SWEEP:
        program = fig7_program(name)
        _, seg = measure(lambda: Pinpoint.from_source(program.source))
        _, svf = measure(lambda: SVFBaseline.from_source(program.source).build())
        series.append((name, program.line_count, seg.peak_mb, svf.peak_mb))
        rows.append(
            (
                name,
                program.line_count,
                f"{seg.peak_mb:.1f}",
                f"{svf.peak_mb:.1f}",
                f"{svf.peak_mb - seg.peak_mb:+.1f}",
            )
        )
    table = render_table(
        ["subject", "gen lines", "SEG peak (MB)", "FSVFG peak (MB)", "delta (MB)"],
        rows,
    )
    floor = 500
    points = [s for s in series if s[1] >= floor]
    seg_fit = fit_power([p[1] for p in points], [p[2] for p in points])
    svf_fit = fit_power([p[1] for p in points], [p[3] for p in points])
    small = points[0]
    large = points[-1]
    table += (
        f"\n\nSEG memory:   {seg_fit.describe()}"
        f"\nFSVFG memory: {svf_fit.describe()}"
        f"\ndelta grows from {small[3] - small[2]:+.1f} MB ({small[0]}) to "
        f"{large[3] - large[2]:+.1f} MB ({large[0]})"
    )
    record_result(table, "fig8_build_memory")

    # Shape: FSVFG memory grows with a larger exponent, and the absolute
    # gap widens with size (the paper's Δ≈3G -> Δ>60G progression).
    assert svf_fit.coefficients[1] > seg_fit.coefficients[1]
    assert (large[3] - large[2]) > (small[3] - small[2])


@pytest.mark.benchmark(group="fig8-memory")
def test_fig8_seg_build_benchmark(benchmark):
    program = fig7_program("gcc")
    benchmark(lambda: Pinpoint.from_source(program.source))


@pytest.mark.benchmark(group="fig8-memory")
def test_fig8_fsvfg_build_benchmark(benchmark):
    program = fig7_program("gcc")
    benchmark(lambda: SVFBaseline.from_source(program.source).build())
