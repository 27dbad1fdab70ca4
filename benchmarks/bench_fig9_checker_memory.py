"""Fig. 9 — End-to-end checker memory: SEG-based vs FSVFG-based UAF.

Paper: the full Pinpoint pipeline (SEG building + bug checking) uses
10-30G *less* memory than SVF on subjects larger than 135 KLoC — and SVF
cannot even finish building its graph there.  Here the same end-to-end
comparison: prepare + check use-after-free with both systems.
"""

from __future__ import annotations

import pytest

from conftest import fig7_program
from repro.baselines.svf import SVFBaseline
from repro.bench.tables import render_table
from repro.core.engine import Pinpoint
from repro.core.checkers import UseAfterFreeChecker
from repro.obs.measure import measure

SWEEP = ["gap", "perkbmk", "gcc", "git", "vim", "libicu", "php", "mysql"]


def run_pinpoint(source: str):
    return Pinpoint.from_source(source).check(UseAfterFreeChecker())


def run_svf(source: str):
    return SVFBaseline.from_source(source).check(UseAfterFreeChecker())


def test_fig9_checker_memory_sweep(record_result):
    rows = []
    series = []
    for name in SWEEP:
        program = fig7_program(name)
        _, pinpoint = measure(lambda: run_pinpoint(program.source))
        _, svf = measure(lambda: run_svf(program.source))
        series.append((name, program.line_count, pinpoint.peak_mb, svf.peak_mb))
        rows.append(
            (
                name,
                program.line_count,
                f"{pinpoint.peak_mb:.1f}",
                f"{svf.peak_mb:.1f}",
            )
        )
    table = render_table(
        ["subject", "gen lines", "Pinpoint peak (MB)", "SVF-based peak (MB)"],
        rows,
    )
    largest = series[-1]
    table += (
        f"\n\non the largest subject ({largest[0]}): Pinpoint "
        f"{largest[2]:.1f} MB vs SVF-based {largest[3]:.1f} MB "
        f"({largest[3] - largest[2]:+.1f} MB)"
    )
    record_result(table, "fig9_checker_memory")
    # Shape: on the largest subject the SEG-based checker needs less
    # memory than the FSVFG-based one (paper: 10-30G less).
    assert largest[2] < largest[3]


@pytest.mark.benchmark(group="fig9-checker")
def test_fig9_pinpoint_end_to_end_benchmark(benchmark):
    program = fig7_program("gcc")
    benchmark(lambda: run_pinpoint(program.source))


@pytest.mark.benchmark(group="fig9-checker")
def test_fig9_svf_end_to_end_benchmark(benchmark):
    program = fig7_program("gcc")
    benchmark(lambda: run_svf(program.source))
