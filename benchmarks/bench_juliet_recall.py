"""Section 5.1.2 — Recall on the Juliet-like suite.

The paper runs Pinpoint on the NSA Juliet Test Suite (1421 seeded
use-after-free/double-free defects across 51 flaw types) and detects all
of them.  Here the 51-variant structured suite from
:mod:`repro.synth.juliet` plays that role; recall must be 100% and the
"good" twin functions must stay clean.
"""

from __future__ import annotations

import pytest

from repro.bench.tables import render_table
from repro.core.engine import Pinpoint
from repro.core.checkers import DoubleFreeChecker, UseAfterFreeChecker
from repro.obs.measure import time_only
from repro.synth.juliet import (
    generate_full_scale_suite,
    generate_juliet_suite,
    suite_source,
)


def _detected(case, reports) -> bool:
    prefix = case.bad_function.rsplit("_", 1)[0]
    for report in reports:
        touched = [report.source.function, report.sink.function] + [
            loc.function for loc in report.path
        ]
        if any(
            name.startswith(prefix)
            and name.endswith(("_bad", "_make", "_release"))
            for name in touched
        ):
            return True
    return False


def test_juliet_recall(record_result):
    cases = generate_juliet_suite()
    source = suite_source(cases)
    engine = Pinpoint.from_source(source)
    uaf, uaf_seconds = time_only(lambda: engine.check(UseAfterFreeChecker()))
    df, df_seconds = time_only(lambda: engine.check(DoubleFreeChecker()))
    reports = list(uaf) + list(df)

    rows = []
    missed = []
    for case in cases:
        hit = _detected(case, reports)
        if not hit:
            missed.append(case)
        rows.append(
            (
                case.ident,
                case.bug_kind,
                case.route,
                case.control,
                "found" if hit else "MISSED",
            )
        )
    table = render_table(["case", "kind", "route", "control", "status"], rows)
    good_fps = [
        r
        for r in reports
        if r.source.function.endswith("_good") or r.sink.function.endswith("_good")
    ]
    recall = (len(cases) - len(missed)) / len(cases)
    table += (
        f"\n\nrecall: {len(cases) - len(missed)}/{len(cases)} "
        f"({100 * recall:.1f}%); good-twin false positives: {len(good_fps)}"
        f"\nUAF pass {uaf_seconds:.2f}s, DF pass {df_seconds:.2f}s"
    )
    record_result(table, "juliet_recall")

    assert not missed, f"missed cases: {[c.ident for c in missed]}"
    assert not good_fps


def test_juliet_full_scale_recall(record_result):
    """The paper's actual suite size: 1421 seeded defects over 51 flaw
    types (here 51 x 28 = 1428).  All must be detected."""
    cases = generate_full_scale_suite()
    source = suite_source(cases)
    engine = Pinpoint.from_source(source)
    uaf, uaf_seconds = time_only(lambda: engine.check(UseAfterFreeChecker()))
    df, df_seconds = time_only(lambda: engine.check(DoubleFreeChecker()))
    reports = list(uaf) + list(df)
    flagged_prefixes = set()
    for report in reports:
        for name in (
            [report.source.function, report.sink.function]
            + [loc.function for loc in report.path]
        ):
            flagged_prefixes.add(name.rsplit("_", 1)[0])
    missed = [
        case
        for case in cases
        if case.bad_function.rsplit("_", 1)[0] not in flagged_prefixes
    ]
    good_fps = [
        r
        for r in reports
        if r.source.function.endswith("_good") or r.sink.function.endswith("_good")
    ]
    recall = (len(cases) - len(missed)) / len(cases)
    text = (
        f"full-scale suite: {len(cases)} seeded defects (paper: 1421)\n"
        f"recall: {len(cases) - len(missed)}/{len(cases)} ({100 * recall:.1f}%)\n"
        f"good-twin false positives: {len(good_fps)}\n"
        f"UAF pass {uaf_seconds:.2f}s, DF pass {df_seconds:.2f}s"
    )
    record_result(text, "juliet_full_scale")
    assert not missed
    assert not good_fps


@pytest.mark.benchmark(group="juliet")
def test_juliet_benchmark(benchmark):
    source = suite_source(generate_juliet_suite())
    engine = Pinpoint.from_source(source)
    benchmark(lambda: engine.check(UseAfterFreeChecker()))
