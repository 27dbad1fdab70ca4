"""Section 5.2 — bugs of high structural complexity.

The paper's flagship finding is a MySQL use-after-free spanning 36
functions over 11 compilation units, plus a LibICU bug hidden for ten
years (CVE-2017-14952).  This bench measures how detection cost grows
with the *depth* of a seeded inter-procedural use-after-free, using the
deep-bug builder: the value flow crosses N functions through VF1/VF3
summaries, heap hops, and conditional guards.

Shape assertion: the bug is found at every depth up to (and past) the
paper's 36 functions, with cost growing smoothly rather than
exponentially in depth.
"""

from __future__ import annotations

import pytest

from repro.bench.fitting import fit_power
from repro.bench.tables import render_table
from repro.core.engine import Pinpoint
from repro.core.checkers import UseAfterFreeChecker
from repro.obs.measure import time_only
from repro.synth.deepbug import build_deep_bug

DEPTHS = [6, 12, 24, 36, 48]


def test_deep_bug_depth_sweep(record_result):
    rows = []
    times = []
    for depth in DEPTHS:
        bug = build_deep_bug(depth=depth)
        engine, prep_seconds = time_only(lambda: Pinpoint.from_source(bug.source))
        result, check_seconds = time_only(
            lambda: engine.check(UseAfterFreeChecker())
        )
        found = any(
            r.source.function == bug.free_function
            and r.sink.function == bug.deref_function
            for r in result
        )
        times.append(prep_seconds + check_seconds)
        rows.append(
            (
                depth,
                f"{prep_seconds:.2f}",
                f"{check_seconds:.2f}",
                "found" if found else "MISSED",
            )
        )
        assert found, f"missed the seeded bug at depth {depth}"
    table = render_table(
        ["bug depth (functions)", "prepare (s)", "check (s)", "status"], rows
    )
    fit = fit_power(DEPTHS, times)
    table += (
        f"\n\ncost vs depth: {fit.describe()}"
        f"\n(the paper's MySQL finding spans 36 functions)"
    )
    record_result(table, "deep_bug_depth")
    # Smooth growth: no exponential blow-up in depth.
    assert fit.coefficients[1] < 3.0


@pytest.mark.benchmark(group="deep-bug")
def test_deep_bug_36_benchmark(benchmark):
    bug = build_deep_bug(depth=36)
    engine = Pinpoint.from_source(bug.source)
    benchmark(lambda: engine.check(UseAfterFreeChecker()))
