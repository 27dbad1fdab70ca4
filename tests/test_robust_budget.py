"""Resource budgets and the degradation ladder (repro.robust.budget)."""

import time

import pytest

from repro import EngineConfig, Pinpoint, UseAfterFreeChecker
from repro.robust.budget import ResourceBudget
from repro.robust.diagnostics import (
    REASON_BUDGET,
    REASON_DEADLINE,
    REASON_REDUCED_PRECISION,
    STAGE_PTA,
    STAGE_SEARCH,
    STAGE_SMT,
)
from repro.smt import terms as T
from repro.smt.solver import Result, SMTSolver

UAF = """
fn main(a) {
    p = malloc();
    if (a > 0) {
        free(p);
    }
    x = *p;
    return x;
}
"""


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# ResourceBudget unit behaviour
# ----------------------------------------------------------------------
def test_unlimited_budget_never_exhausts():
    budget = ResourceBudget()
    assert not budget.limited
    for _ in range(10000):
        assert budget.spend_steps(1)
    assert not budget.exhausted()
    assert budget.smt_deadline() is None


def test_step_budget_exhausts():
    budget = ResourceBudget(max_steps=3)
    assert budget.spend_steps(1)
    assert budget.spend_steps(2)
    assert not budget.spend_steps(1)
    assert budget.out_of_steps()
    assert budget.exhausted()


def test_wall_clock_deadline_with_fake_clock():
    clock = FakeClock()
    budget = ResourceBudget(wall_seconds=5.0, clock=clock)
    budget.start()
    assert not budget.out_of_time()
    assert budget.remaining_seconds() == pytest.approx(5.0)
    clock.now = 6.0
    assert budget.out_of_time()
    assert budget.remaining_seconds() == 0.0
    assert budget.exhausted()


def test_smt_deadline_is_min_of_query_and_wall():
    clock = FakeClock()
    budget = ResourceBudget(wall_seconds=10.0, smt_seconds=2.0, clock=clock)
    budget.start()
    assert budget.smt_deadline() == pytest.approx(2.0)
    clock.now = 9.0
    # Only 1s of wall budget left: tighter than the 2s per-query cap.
    assert budget.smt_deadline() == pytest.approx(10.0)


def test_budget_rejects_nonsense():
    with pytest.raises(ValueError):
        ResourceBudget(wall_seconds=0)
    with pytest.raises(ValueError):
        ResourceBudget(max_steps=0)
    with pytest.raises(ValueError):
        ResourceBudget(smt_seconds=-1)


# ----------------------------------------------------------------------
# EngineConfig validation (satellite)
# ----------------------------------------------------------------------
def test_engine_config_rejects_bad_depth():
    with pytest.raises(ValueError, match="max_call_depth"):
        EngineConfig(max_call_depth=0)


def test_engine_config_rejects_bad_path_budget():
    with pytest.raises(ValueError, match="max_paths_per_source"):
        EngineConfig(max_paths_per_source=0)


def test_engine_config_defaults_still_valid():
    config = EngineConfig()
    assert config.max_call_depth == 6


# ----------------------------------------------------------------------
# SMT UNKNOWN paths (satellite)
# ----------------------------------------------------------------------
def _contradictory_disjunction():
    """A term whose default-phase boolean model is theory-inconsistent:
    the solver needs a second theory round to find the consistent one."""
    x = T.int_var("x")
    y = T.int_var("y")
    return T.or_(T.and_(T.lt(x, y), T.lt(y, x)), T.lt(x, T.const(5)))


def test_theory_round_cap_yields_unknown_not_hang():
    solver = SMTSolver(max_theory_rounds=1)
    answer = solver.check(_contradictory_disjunction())
    assert answer is Result.UNKNOWN
    assert solver.last_unknown_reason == "rounds"
    # Soundy: UNKNOWN must stay reportable.
    assert solver.is_satisfiable(_contradictory_disjunction())


def test_theory_round_cap_released_finds_sat():
    solver = SMTSolver(max_theory_rounds=50)
    assert solver.check(_contradictory_disjunction()) is Result.SAT


def test_smt_deadline_already_expired_gives_unknown():
    solver = SMTSolver()
    answer = solver.check(
        _contradictory_disjunction(), deadline=time.monotonic() - 1.0
    )
    assert answer is Result.UNKNOWN
    assert solver.last_unknown_reason == "deadline"
    assert solver.deadline_hits == 1


def test_smt_default_deadline_seconds():
    solver = SMTSolver(deadline_seconds=60.0)
    # A generous default deadline must not disturb easy queries.
    assert solver.check(T.lt(T.int_var("x"), T.const(1))) is Result.SAT


def test_engine_smt_deadline_degrades_to_linear_verdict():
    clock_burner = ResourceBudget(smt_seconds=1e-9)
    engine = Pinpoint.from_source(UAF, budget=clock_burner)
    result = engine.check(UseAfterFreeChecker())
    # The candidate survives with an UNKNOWN verdict (linear fallback
    # could not refute it) and the deadline is a structured diagnostic,
    # not a hang or a crash.
    assert len(result.reports) == 1
    assert result.reports[0].verdict == "unknown"
    assert any(
        d.stage == STAGE_SMT and d.reason == REASON_DEADLINE
        for d in result.diagnostics
    )
    assert result.stats.smt_deadline_hits >= 1
    assert result.degraded


# ----------------------------------------------------------------------
# Degradation ladder: search + points-to budgets
# ----------------------------------------------------------------------
def test_search_budget_degrades_to_path_insensitive_reporting():
    budget = ResourceBudget(max_steps=1)
    engine = Pinpoint.from_source(UAF, budget=budget)
    result = engine.check(UseAfterFreeChecker())
    assert len(result.reports) == 1
    assert result.reports[0].verdict == "unknown"
    assert result.stats.degraded_candidates >= 1
    stages = {d.stage for d in result.diagnostics}
    assert STAGE_SEARCH in stages
    reasons = {d.reason for d in result.diagnostics}
    assert REASON_BUDGET in reasons or REASON_REDUCED_PRECISION in reasons


def test_pta_budget_records_degradation():
    budget = ResourceBudget(max_steps=1)
    from repro.core.pipeline import prepare_source

    module = prepare_source(UAF, budget=budget)
    assert any(d.stage == STAGE_PTA for d in module.diagnostics)
    # The prepared module is still usable end to end.
    result = Pinpoint(module, budget=budget).check(UseAfterFreeChecker())
    assert len(result.reports) == 1


def test_unlimited_budget_keeps_full_precision():
    engine = Pinpoint.from_source(UAF)
    result = engine.check(UseAfterFreeChecker())
    assert len(result.reports) == 1
    assert result.reports[0].verdict == "sat"
    assert not result.degraded
    assert result.stats.degraded_candidates == 0


def test_tight_wall_budget_completes_on_generated_program():
    """Acceptance shape: a tight wall-clock budget on a generated
    program must complete promptly and say what was degraded."""
    from repro.synth.generator import GeneratorConfig, generate_program

    program = generate_program(GeneratorConfig(seed=11, target_lines=2000))
    deadline = 0.2
    # The step budget guarantees degradation even on machines fast
    # enough to finish 2000 lines inside the wall-clock deadline.
    budget = ResourceBudget(wall_seconds=deadline, max_steps=500)
    start = time.monotonic()
    engine = Pinpoint.from_source(program.source, budget=budget)
    result = engine.check(UseAfterFreeChecker())
    elapsed = time.monotonic() - start
    # Completion, not precision, is the contract: well within 2x the
    # budget plus fixed slack for the non-budgeted phases (parse, SEG).
    assert elapsed < 2 * deadline + 20.0
    assert isinstance(result.reports, list)
    # The run must disclose its reduced precision.
    assert result.degraded
    assert any(
        d.reason in (REASON_BUDGET, REASON_REDUCED_PRECISION)
        for d in result.diagnostics
    )
