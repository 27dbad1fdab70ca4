"""Table 2 — The SEG-based taint checkers on a MySQL-scale subject.

Paper's Table 2: on MySQL (2 MLoC, "typical code size in industry") the
path-traversal checker took 1.4 h / 43.1 GB with 11/56 FP reports, and
the data-transmission checker 1.5 h / 52.6 GB with 24/92 — an overall
taint FP rate of 23.6%.  Cost is "similar to that of use-after-free".

Here: both checkers run on the mysql stand-in with seeded taint flows;
time/memory are reported alongside the UAF checker's for the same
subject, and precision is measured against ground truth.
"""

from __future__ import annotations

import pytest

from conftest import subject_program
from repro.bench.tables import render_table
from repro.core.engine import Pinpoint
from repro.core.checkers import (
    DataTransmissionChecker,
    PathTraversalChecker,
    UseAfterFreeChecker,
)
from repro.obs.measure import measure


def test_table2_taint_checkers(record_result):
    program = subject_program("mysql", taint=True)
    engine = Pinpoint.from_source(program.source)

    seeded = {
        "taint-path": sum(1 for t in program.ground_truth if t.kind == "taint-path"),
        "taint-data": sum(1 for t in program.ground_truth if t.kind == "taint-data"),
    }
    taint_functions = {
        kind: {
            fn
            for t in program.ground_truth
            if t.kind == kind
            for fn in t.functions
        }
        for kind in seeded
    }

    rows = []
    recall_ok = True
    fp_total = 0
    report_total = 0
    for checker, kind in (
        (PathTraversalChecker(), "taint-path"),
        (DataTransmissionChecker(), "taint-data"),
    ):
        result, m = measure(lambda: engine.check(checker))
        hits = set()
        fps = 0
        for report in result:
            touched = {report.source.function, report.sink.function}
            matched = touched & taint_functions[kind]
            if matched:
                hits.update(matched)
            else:
                fps += 1
        found = sum(
            1
            for t in program.ground_truth
            if t.kind == kind and set(t.functions) & hits
        )
        if found < seeded[kind]:
            recall_ok = False
        fp_total += fps
        report_total += len(result.reports)
        rows.append(
            (
                checker.name,
                f"{m.peak_mb:.1f}",
                f"{m.seconds:.2f}",
                f"{fps}/{len(result.reports)}",
                f"{found}/{seeded[kind]}",
            )
        )

    # Reference row: use-after-free on the same subject (the paper notes
    # taint cost is similar to UAF cost).
    uaf_result, uaf_m = measure(lambda: engine.check(UseAfterFreeChecker()))
    rows.append(
        (
            "use-after-free (ref)",
            f"{uaf_m.peak_mb:.1f}",
            f"{uaf_m.seconds:.2f}",
            f"-/{len(uaf_result.reports)}",
            "-",
        )
    )

    table = render_table(
        ["checker", "memory (MB)", "time (s)", "#FP/#Reports", "found/seeded"],
        rows,
    )
    fp_rate = fp_total / max(report_total, 1)
    table += f"\n\noverall taint FP rate: {100 * fp_rate:.1f}% (paper: 23.6%)"
    record_result(table, "table2_taint")

    assert recall_ok, "a seeded taint flow was missed"
    # The FPs are the soundiness-expected kind (loop imprecision — as in
    # the paper, where unmodeled features account for the 23.6%).
    assert fp_rate <= 0.35


@pytest.mark.benchmark(group="table2")
def test_table2_taint_benchmark(benchmark):
    program = subject_program("tmux", taint=True)
    engine = Pinpoint.from_source(program.source)
    benchmark(lambda: engine.check(PathTraversalChecker()))
