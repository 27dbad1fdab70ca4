"""Precision tiers — false-positive reduction and cost of ``--pta=fs``.

The paper's flow-sensitive points-to with strong updates exists to
remove false positives the cheap flow-insensitive tier reports, at a
bounded analysis-cost premium.  Three measurements reproduce that
trade-off on this engine's two tiers:

- the curated precision corpus (:mod:`repro.synth.precision`): the fs
  tier must strictly reduce false positives and lose zero true
  positives;
- the Juliet-like recall suite under both tiers: recall stays 100%
  under escalation (strong updates never hide a seeded defect);
- a Fig. 7/10-style cost sweep: full-module fs preparation vs fi
  preparation over scaled paper subjects, reporting the slowdown ratio.

Results land in ``benchmarks/results/`` and — when ``REPRO_HISTORY_DIR``
is armed — in the run-history store via the ``record_result`` fixture.
"""

from __future__ import annotations

import pytest

from conftest import subject_program
from repro.bench.tables import render_table
from repro.core.checkers import DoubleFreeChecker, UseAfterFreeChecker
from repro.core.engine import EngineConfig, Pinpoint
from repro.core.pipeline import prepare_source
from repro.obs.measure import time_only
from repro.synth.juliet import generate_juliet_suite, suite_source as juliet_source
from repro.synth.precision import (
    generate_precision_suite,
    score_tier,
    suite_source,
)

TIERS = ("fi", "fs")
# Cost-sweep subjects: a spread of the paper catalog's sizes at the
# default bench scale.
SWEEP_SUBJECTS = ("mcf", "twolf", "tmux", "transmission")


def _check_corpus(tier: str):
    cases = generate_precision_suite()
    engine = Pinpoint.from_source(
        suite_source(cases), EngineConfig(pta_tier=tier, verify="fast")
    )
    result, seconds = time_only(lambda: engine.check(UseAfterFreeChecker()))
    assert not engine.diagnostics.entries, (
        f"tier {tier} degraded functions: "
        f"{[(d.unit, d.reason) for d in engine.diagnostics.entries]}"
    )
    return cases, result, seconds


def test_precision_corpus_fp_reduction(record_result):
    """fs strictly reduces false positives on the corpus, with zero
    true-positive loss — the PR's headline acceptance gate."""
    cases, scores, stats, seconds = {}, {}, {}, {}
    for tier in TIERS:
        suite, result, wall = _check_corpus(tier)
        cases[tier] = suite
        scores[tier] = score_tier(suite, result.reports)
        stats[tier] = result.stats
        seconds[tier] = wall

    rows = []
    for case in cases["fi"]:
        fi_hit = case.name in scores["fi"]["flagged"]
        fs_hit = case.name in scores["fs"]["flagged"]
        rows.append(
            (
                case.name,
                "bug" if case.is_bug else "fp",
                "yes" if fi_hit else "no",
                "yes" if fs_hit else "no",
                "removed" if fi_hit and not fs_hit else "kept",
            )
        )
    table = render_table(
        ["case", "ground truth", "fi reports", "fs reports", "fs verdict"], rows
    )
    fi_fp = len(scores["fi"]["false_positives"])
    fs_fp = len(scores["fs"]["false_positives"])
    table += (
        f"\n\nfalse positives: fi={fi_fp} -> fs={fs_fp}"
        f"\ntrue positives:  fi={len(scores['fi']['true_positives'])} -> "
        f"fs={len(scores['fs']['true_positives'])} (missed under fs: "
        f"{scores['fs']['missed_bugs'] or 'none'})"
        f"\nfs tier: {stats['fs'].strong_updates} strong / "
        f"{stats['fs'].weak_updates} weak updates, "
        f"{stats['fs'].escalated_functions} functions escalated"
        f"\nchecker wall: fi {seconds['fi']:.3f}s, fs {seconds['fs']:.3f}s"
    )
    record_result(table, "precision_tiers_corpus")

    assert not scores["fi"]["missed_bugs"]
    assert not scores["fs"]["missed_bugs"]  # zero true-positive loss
    assert fs_fp < fi_fp  # strict false-positive reduction
    assert stats["fs"].strong_updates > 0


def test_precision_juliet_recall_both_tiers(record_result):
    """Escalation must never lose a seeded Juliet defect: recall stays
    100% under fs and the good twins stay clean."""
    juliet = generate_juliet_suite()
    source = juliet_source(juliet)
    lines = []
    for tier in TIERS:
        engine = Pinpoint.from_source(source, EngineConfig(pta_tier=tier))
        uaf = engine.check(UseAfterFreeChecker())
        df = engine.check(DoubleFreeChecker())
        reports = list(uaf) + list(df)
        flagged = set()
        for report in reports:
            for name in (
                [report.source.function, report.sink.function]
                + [loc.function for loc in report.path]
            ):
                flagged.add(name.rsplit("_", 1)[0])
        missed = [
            case for case in juliet
            if case.bad_function.rsplit("_", 1)[0] not in flagged
        ]
        good_fps = [
            r for r in reports
            if r.source.function.endswith("_good")
            or r.sink.function.endswith("_good")
        ]
        lines.append(
            f"tier {tier}: recall {len(juliet) - len(missed)}/{len(juliet)}, "
            f"good-twin FPs {len(good_fps)}, "
            f"escalated {uaf.stats.escalated_functions + df.stats.escalated_functions}"
        )
        assert not missed, f"tier {tier} missed {[c.ident for c in missed]}"
        assert not good_fps
    record_result("\n".join(lines), "precision_tiers_juliet")


def test_precision_tier_cost_sweep(record_result):
    """Full-module fs preparation vs fi over scaled paper subjects — the
    Fig. 7/10-style cost axis of the precision trade-off."""
    rows = []
    ratios = []
    for name in SWEEP_SUBJECTS:
        program = subject_program(name)
        _, fi_seconds = time_only(
            lambda: prepare_source(program.source, pta_tier="fi")
        )
        _, fs_seconds = time_only(
            lambda: prepare_source(program.source, pta_tier="fs")
        )
        ratio = fs_seconds / max(fi_seconds, 1e-9)
        ratios.append(ratio)
        rows.append(
            (
                name,
                program.line_count,
                f"{fi_seconds:.3f}",
                f"{fs_seconds:.3f}",
                f"{ratio:.2f}x",
            )
        )
    table = render_table(
        ["subject", "gen lines", "fi prepare (s)", "fs prepare (s)", "slowdown"],
        rows,
    )
    table += (
        f"\n\nmedian fs/fi slowdown: {sorted(ratios)[len(ratios) // 2]:.2f}x "
        f"(max {max(ratios):.2f}x)"
    )
    record_result(table, "precision_tiers_cost")

    # The sparse fs pass must stay within a small constant factor of fi;
    # a blow-up here means the def-use-driven solver lost its sparseness.
    assert max(ratios) < 25.0


@pytest.mark.benchmark(group="precision-tiers")
def test_precision_fs_check_benchmark(benchmark):
    source = suite_source(generate_precision_suite())

    def run():
        engine = Pinpoint.from_source(source, EngineConfig(pta_tier="fs"))
        return engine.check(UseAfterFreeChecker())

    benchmark(run)
