"""Fig. 7 — Time cost: building SEG vs building the global FSVFG.

The paper's finding: the two techniques perform similarly on small
subjects; past a threshold (135 KLoC there) FSVFG construction blows up
and times out, while SEG construction keeps scaling (up to >400x
faster).  The same sweep runs here over the scaled-down subject catalog;
the layered baseline gets a per-subject build budget standing in for the
paper's 12-hour timeout.

Shape assertions:
- SEG construction finishes on every subject, including the largest;
- the fitted complexity exponent of FSVFG construction exceeds SEG's
  (super-linear vs near-linear);
- the FSVFG/SEG time ratio grows with subject size.
"""

from __future__ import annotations

import pytest

from conftest import SVF_TIMEOUT_SECONDS, fig7_program
from repro.baselines.svf import SVFBaseline
from repro.bench.fitting import fit_power
from repro.bench.tables import render_table
from repro.core.engine import Pinpoint
from repro.obs.measure import time_only


def build_seg(source: str) -> Pinpoint:
    return Pinpoint.from_source(source)


def build_fsvfg(source: str) -> SVFBaseline:
    return SVFBaseline.from_source(source).build()


def test_fig7_build_time_sweep(subjects, record_result):
    rows = []
    svf_timed_out = False
    series = []
    for subject in subjects:
        program = fig7_program(subject.name)
        _, seg_seconds = time_only(lambda: build_seg(program.source))
        if svf_timed_out:
            svf_cell = "timeout"
            svf_seconds = None
        else:
            _, svf_seconds = time_only(lambda: build_fsvfg(program.source))
            svf_cell = f"{svf_seconds:.3f}"
            if svf_seconds > SVF_TIMEOUT_SECONDS:
                svf_timed_out = True  # larger subjects would only be worse
                svf_cell += " (timeout)"
        series.append((subject, program.line_count, seg_seconds, svf_seconds))
        rows.append(
            (
                subject.name,
                subject.kloc,
                program.line_count,
                f"{seg_seconds:.3f}",
                svf_cell,
            )
        )
    table = render_table(
        ["subject", "paper KLoC", "gen lines", "SEG build (s)", "FSVFG build (s)"],
        rows,
    )

    # Fit complexity exponents above a size floor (tiny subjects are
    # dominated by constant overhead, not asymptotics).
    floor = 500
    measured = [item for item in series if item[3] is not None]
    fit_points = [item for item in measured if item[1] >= floor]
    seg_points = [item for item in series if item[1] >= floor]
    seg_fit = fit_power([i[1] for i in seg_points], [i[2] for i in seg_points])
    svf_fit = fit_power([i[1] for i in fit_points], [i[3] for i in fit_points])
    largest = max(measured, key=lambda item: item[1])
    smallest = min(measured, key=lambda item: item[1])
    large_ratio = largest[3] / max(largest[2], 1e-9)
    small_ratio = smallest[3] / max(smallest[2], 1e-9)
    table += (
        f"\n\nSEG build:   {seg_fit.describe()}"
        f"\nFSVFG build: {svf_fit.describe()}"
        f"\nFSVFG/SEG ratio: {small_ratio:.2f}x on {smallest[0].name} -> "
        f"{large_ratio:.2f}x on {largest[0].name}"
        f"\nFSVFG timeout (> {SVF_TIMEOUT_SECONDS:.0f}s budget): "
        f"{'yes, on the largest subjects' if svf_timed_out else 'no'}"
    )
    record_result(table, "fig7_build_time")

    assert len(series) == len(subjects)  # SEG finished everywhere
    # Super-linear FSVFG vs near-linear SEG.
    assert svf_fit.coefficients[1] > seg_fit.coefficients[1]
    # The layered baseline loses ground as size grows.
    assert large_ratio > small_ratio


@pytest.mark.benchmark(group="fig7-build")
def test_fig7_seg_build_benchmark(benchmark):
    program = fig7_program("tmux")
    benchmark(lambda: build_seg(program.source))


@pytest.mark.benchmark(group="fig7-build")
def test_fig7_fsvfg_build_benchmark(benchmark):
    program = fig7_program("tmux")
    benchmark(lambda: build_fsvfg(program.source))
