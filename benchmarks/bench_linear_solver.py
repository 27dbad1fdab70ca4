"""Section 3.1.1 — The linear-time contradiction solver's effectiveness.

Two empirical claims back the quasi path-sensitive design:

1. about 70% of the path conditions constructed during the points-to
   analysis are satisfiable (so solving them eagerly with a full SMT
   solver would be redundant work, repeated at bug-finding time);
2. more than 90% of the *unsatisfiable* conditions are "easy"
   contradictions (``a & !a``) that the linear-time solver catches.

This bench collects the condition corpus the local analyses build over a
subject ladder, classifies every condition with the full SMT solver as
ground truth, and measures what fraction of the unsatisfiable ones the
linear solver filters — plus the speed gap between the two solvers.
"""

from __future__ import annotations

import pytest

from conftest import subject_program
from repro.bench.tables import render_table
from repro.core.pipeline import prepare_source
from repro.obs.measure import time_only
from repro.smt.linear_solver import LinearSolver
from repro.smt.solver import Result, SMTSolver

SWEEP = ["tmux", "git", "vim"]


def _condition_corpus(source: str):
    """All conditions attached to memory data dependence by the local
    points-to analyses (load values, points-to sets, store targets)."""
    prepared = prepare_source(source)
    corpus = []
    seen = set()
    for function in prepared:
        result = function.points_to
        for values in result.load_values.values():
            for _, cond in values:
                if cond.ident not in seen:
                    seen.add(cond.ident)
                    corpus.append(cond)
        for targets in result.store_targets.values():
            for _, cond in targets:
                if cond.ident not in seen:
                    seen.add(cond.ident)
                    corpus.append(cond)
    return corpus


def test_linear_solver_effectiveness(record_result):
    rows = []
    total = sat = unsat = caught = 0
    linear_seconds = 0.0
    smt_seconds = 0.0
    for name in SWEEP:
        program = subject_program(name)
        corpus = _condition_corpus(program.source)
        smt = SMTSolver()
        linear = LinearSolver()
        subject_sat = subject_unsat = subject_caught = 0
        for cond in corpus:
            flagged, t_lin = time_only(lambda: linear.is_obviously_unsat(cond))
            linear_seconds += t_lin
            answer, t_smt = time_only(lambda: smt.check(cond))
            smt_seconds += t_smt
            if answer is Result.UNSAT:
                subject_unsat += 1
                if flagged:
                    subject_caught += 1
            else:
                subject_sat += 1
                assert not flagged, "linear solver flagged a satisfiable condition"
        total += len(corpus)
        sat += subject_sat
        unsat += subject_unsat
        caught += subject_caught
        rows.append(
            (
                name,
                len(corpus),
                subject_sat,
                subject_unsat,
                subject_caught,
            )
        )
    table = render_table(
        ["subject", "conditions", "sat", "unsat", "caught by linear"], rows
    )
    sat_fraction = sat / max(total, 1)
    caught_fraction = caught / max(unsat, 1) if unsat else 1.0
    speedup = smt_seconds / max(linear_seconds, 1e-9)
    table += (
        f"\n\nsatisfiable fraction: {100 * sat_fraction:.1f}% (paper: ~70%)"
        f"\nunsat caught by linear solver: {caught}/{unsat} "
        f"({100 * caught_fraction:.1f}%; paper: >90%)"
        f"\nlinear solver is {speedup:.0f}x faster than the SMT solver on this corpus"
    )
    record_result(table, "linear_solver")

    # Note: the local analysis already *drops* entries whose conditions
    # the linear filter catches, so the surviving corpus is mostly
    # satisfiable — exactly the paper's motivation for not running a full
    # SMT solver at this stage.
    assert sat_fraction >= 0.5
    assert speedup > 2


def test_linear_solver_on_raw_merge_conditions(record_result):
    """Re-run the local analyses with a recording linear solver to see
    the *pre-filter* corpus, measuring how many constructed conditions
    were easy contradictions."""
    program = subject_program("git")
    prepared = prepare_source(program.source)
    built = sum(f.points_to.conditions_built for f in prepared)
    pruned = sum(f.points_to.conditions_pruned for f in prepared)
    share = pruned / max(built, 1)
    text = (
        f"conditions built during local points-to: {built}\n"
        f"pruned immediately by the linear solver: {pruned} "
        f"({100 * share:.2f}%)"
    )
    record_result(text, "linear_solver_prefilter")
    assert built > 0


def test_easy_unsat_share_at_checking_stage(record_result):
    """Paper claim: >90% of unsatisfiable path conditions are 'easy'
    contradictions the linear solver catches.  Measured here on the
    bug-candidate conditions: the engine's linear prunes are the easy
    unsat conditions, the SMT prunes the hard ones."""
    from repro.core.engine import Pinpoint
    from repro.core.checkers import UseAfterFreeChecker

    rows = []
    easy_total = 0
    hard_total = 0
    for name in ("vim", "libicu", "php", "mysql"):
        program = subject_program(name)
        result = Pinpoint.from_source(program.source).check(UseAfterFreeChecker())
        easy = result.stats.pruned_linear
        hard = result.stats.pruned_smt
        easy_total += easy
        hard_total += hard
        rows.append((name, result.stats.candidates, easy, hard))
    table = render_table(
        ["subject", "candidates", "easy unsat (linear)", "hard unsat (SMT)"], rows
    )
    unsat_total = easy_total + hard_total
    share = easy_total / max(unsat_total, 1)
    table += (
        f"\n\neasy share of unsatisfiable conditions: {easy_total}/{unsat_total} "
        f"({100 * share:.1f}%; paper: >90%)"
    )
    record_result(table, "linear_solver_easy_share")
    assert unsat_total > 0
    assert share >= 0.7


@pytest.mark.benchmark(group="linear-solver")
def test_linear_solver_benchmark(benchmark):
    program = subject_program("tmux")
    corpus = _condition_corpus(program.source)
    linear = LinearSolver()
    benchmark(lambda: [linear.is_obviously_unsat(c) for c in corpus])


@pytest.mark.benchmark(group="linear-solver")
def test_smt_solver_benchmark(benchmark):
    program = subject_program("tmux")
    corpus = _condition_corpus(program.source)

    def run():
        smt = SMTSolver()
        return [smt.check(c) for c in corpus]

    benchmark(run)
