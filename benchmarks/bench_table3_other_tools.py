"""Table 3 — Comparison with Infer/CSA-style intra-unit checkers.

Paper's Table 3: Infer and CSA are much faster than Pinpoint because
they stay within one compilation unit and do not fully track path
correlations — at the cost that (in the paper's runs) all 35 of Infer's
UAF reports and 24/26 of CSA's were false positives, and the cross-unit
bugs Pinpoint found were missed.

Here the intra-unit baseline plays both tools' role.  Shape assertions:

- it is faster than Pinpoint on the same subjects;
- its false-positive rate is far higher (it reports the seeded
  contradictory-branch traps);
- it misses every *cross-function* seeded bug that Pinpoint finds.
"""

from __future__ import annotations

import pytest

from conftest import subject_program
from repro.baselines.intraunit import IntraUnitBaseline
from repro.bench.tables import render_table
from repro.core.engine import Pinpoint
from repro.core.checkers import UseAfterFreeChecker
from repro.obs.measure import time_only
from repro.synth.generator import classify_reports

SWEEP = ["tmux", "transmission", "git", "vim", "libicu", "php", "mysql"]

CROSS_KINDS = {"true-cross", "true-return"}


def test_table3_intraunit_comparison(record_result):
    rows = []
    totals = {
        "pp_seconds": 0.0,
        "iu_seconds": 0.0,
        "iu_reports": 0,
        "iu_fps": 0,
        "cross_seeded": 0,
        "cross_found_iu": 0,
        "cross_found_pp": 0,
    }
    for name in SWEEP:
        program = subject_program(name)
        engine = Pinpoint.from_source(program.source)
        pp_result, pp_seconds = time_only(lambda: engine.check(UseAfterFreeChecker()))
        baseline = IntraUnitBaseline(engine)
        iu_reports, iu_seconds = time_only(
            lambda: baseline.check(UseAfterFreeChecker())
        )
        _, iu_fps, _ = classify_reports(iu_reports, program.ground_truth)
        cross = [t for t in program.ground_truth if t.kind in CROSS_KINDS]

        def found_by(reports, truth):
            names = set(truth.functions)
            return any(
                r.source.function in names or r.sink.function in names
                for r in reports
            )

        cross_iu = sum(1 for t in cross if found_by(iu_reports, t))
        cross_pp = sum(1 for t in cross if found_by(pp_result.reports, t))
        totals["pp_seconds"] += pp_seconds
        totals["iu_seconds"] += iu_seconds
        totals["iu_reports"] += len(iu_reports)
        totals["iu_fps"] += len(iu_fps)
        totals["cross_seeded"] += len(cross)
        totals["cross_found_iu"] += cross_iu
        totals["cross_found_pp"] += cross_pp
        rows.append(
            (
                name,
                f"{pp_seconds:.2f}",
                f"{iu_seconds:.2f}",
                f"{len(iu_fps)}/{len(iu_reports)}",
                f"{cross_iu}/{len(cross)}",
                f"{cross_pp}/{len(cross)}",
            )
        )
    table = render_table(
        [
            "subject",
            "Pinpoint (s)",
            "intra-unit (s)",
            "intra-unit FP/rep",
            "cross-unit found (IU)",
            "cross-unit found (PP)",
        ],
        rows,
    )
    iu_fp_rate = totals["iu_fps"] / max(totals["iu_reports"], 1)
    table += (
        f"\n\nintra-unit total time {totals['iu_seconds']:.2f}s vs Pinpoint "
        f"{totals['pp_seconds']:.2f}s; intra-unit FP rate "
        f"{100 * iu_fp_rate:.1f}% (paper: Infer 35/35, CSA 24/26);"
        f"\ncross-unit bugs: intra-unit {totals['cross_found_iu']}/"
        f"{totals['cross_seeded']}, Pinpoint {totals['cross_found_pp']}/"
        f"{totals['cross_seeded']}"
    )
    record_result(table, "table3_other_tools")

    assert totals["iu_seconds"] < totals["pp_seconds"]  # faster, as in Table 3
    assert iu_fp_rate >= 0.5  # almost everything it reports is false
    assert totals["cross_found_iu"] == 0  # misses all cross-unit bugs
    assert totals["cross_found_pp"] == totals["cross_seeded"]


@pytest.mark.benchmark(group="table3")
def test_table3_intraunit_benchmark(benchmark):
    program = subject_program("git")
    engine = Pinpoint.from_source(program.source)
    baseline = IntraUnitBaseline(engine)
    benchmark(lambda: baseline.check(UseAfterFreeChecker()))
