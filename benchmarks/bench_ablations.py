"""Ablations of Pinpoint's design choices (DESIGN.md index).

Three design levers the paper argues for, each toggled independently:

1. **Linear pre-filter** (Section 3.1.1): without the linear-time
   contradiction solver, every candidate path condition goes straight to
   the SMT solver — same reports, more SMT queries/time.
2. **Path sensitivity** (the SMT stage itself): without it, the seeded
   contradictory-branch traps become false positives — quantifying what
   the paper's full path-sensitivity buys in precision.
3. **Context depth** (Section 3.3.1, paper uses six nested levels):
   recall on deep call chains as the clone bound varies.
"""

from __future__ import annotations

import pytest

from conftest import subject_program
from repro.bench.tables import render_table
from repro.core.engine import EngineConfig, Pinpoint
from repro.core.checkers import UseAfterFreeChecker
from repro.obs.measure import time_only
from repro.synth.generator import GeneratorConfig, classify_reports, generate_program


def test_ablation_linear_filter(record_result):
    program = subject_program("vim")
    rows = []
    results = {}
    for label, config in (
        ("with linear filter", EngineConfig(use_linear_filter=True)),
        ("without linear filter", EngineConfig(use_linear_filter=False)),
    ):
        engine = Pinpoint.from_source(program.source, config)
        result, seconds = time_only(lambda: engine.check(UseAfterFreeChecker()))
        results[label] = result
        rows.append(
            (
                label,
                f"{seconds:.2f}",
                len(result.reports),
                result.stats.smt_queries,
                result.stats.pruned_linear,
            )
        )
    table = render_table(
        ["configuration", "time (s)", "reports", "SMT queries", "linear prunes"],
        rows,
    )
    record_result(table, "ablation_linear_filter")
    with_filter = results["with linear filter"]
    without = results["without linear filter"]
    # Same verdicts; the filter only redistributes work.
    assert len(with_filter.reports) == len(without.reports)
    assert with_filter.stats.smt_queries <= without.stats.smt_queries


def test_ablation_path_sensitivity(record_result):
    program = subject_program("vim")
    rows = []
    outcome = {}
    for label, config in (
        ("path-sensitive (full)", EngineConfig(use_smt=True)),
        (
            "path-insensitive",
            EngineConfig(use_smt=False, use_linear_filter=False),
        ),
    ):
        engine = Pinpoint.from_source(program.source, config)
        result, seconds = time_only(lambda: engine.check(UseAfterFreeChecker()))
        tps, fps, missed = classify_reports(result.reports, program.ground_truth)
        outcome[label] = (len(fps), len(missed), len(result.reports))
        rows.append(
            (label, f"{seconds:.2f}", len(result.reports), len(fps), len(missed))
        )
    table = render_table(
        ["configuration", "time (s)", "reports", "false positives", "missed"],
        rows,
    )
    record_result(table, "ablation_path_sensitivity")
    sensitive_fps = outcome["path-sensitive (full)"][0]
    insensitive_fps = outcome["path-insensitive"][0]
    assert sensitive_fps == 0
    assert insensitive_fps > 0  # the seeded traps are reported
    # Recall never drops in either mode.
    assert outcome["path-sensitive (full)"][1] == 0
    assert outcome["path-insensitive"][1] == 0


DEEP_CHAIN = """
fn level5(p) { free(p); return 0; }
fn level4(p) { level5(p); return 0; }
fn level3(p) { level4(p); return 0; }
fn level2(p) { level3(p); return 0; }
fn level1(p) { level2(p); return 0; }
fn main() {
    p = malloc();
    level1(p);
    x = *p;
    return x;
}
"""


def test_ablation_context_depth(record_result):
    rows = []
    found_by_depth = {}
    for depth in (1, 2, 4, 6, 8):
        config = EngineConfig(max_call_depth=depth)
        engine = Pinpoint.from_source(DEEP_CHAIN, config)
        result = engine.check(UseAfterFreeChecker())
        found_by_depth[depth] = len(result.reports)
        rows.append((depth, len(result.reports)))
    table = render_table(["max call depth", "reports on 5-deep chain"], rows)
    table += "\n\n(the paper's evaluation uses six nested levels)"
    record_result(table, "ablation_context_depth")
    # The paper's default depth handles the 5-deep chain.
    assert found_by_depth[6] == 1
    assert found_by_depth[8] == 1


@pytest.mark.benchmark(group="ablations")
@pytest.mark.parametrize("use_filter", [True, False])
def test_ablation_filter_benchmark(benchmark, use_filter):
    program = subject_program("git")
    config = EngineConfig(use_linear_filter=use_filter)
    engine = Pinpoint.from_source(program.source, config)
    benchmark(lambda: engine.check(UseAfterFreeChecker()))
