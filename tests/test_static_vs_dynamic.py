"""Cross-validation: static reports vs dynamic behavior.

The interpreter is the ground-truth oracle for the static analyses:

- every "bad" Juliet case must exhibit its seeded violation at runtime
  for some small input (the seeded bugs are real, not artifacts of the
  static model);
- every "good" twin must run clean on all probed inputs;
- Pinpoint's reports on the suite agree with the dynamic oracle.
"""

import pytest

from repro.lang.interp import run_function
from repro.lang.parser import parse_program
from repro.synth.juliet import generate_juliet_suite
from repro.synth.generator import GeneratorConfig, generate_program

PROBE_INPUTS = [-3, 0, 2, 5, 50]


def dynamic_violations(program, function, kinds):
    """Violation kinds observed over the probe inputs."""
    observed = set()
    for value in PROBE_INPUTS:
        interp = run_function(program, function, value, halt_on_violation=False)
        observed.update(v.kind for v in interp.violations)
    return observed & kinds


@pytest.mark.parametrize("case", generate_juliet_suite(), ids=lambda c: f"v{c.ident}")
def test_juliet_bad_cases_misbehave_dynamically(case):
    program = parse_program(case.source)
    expected = {"use-after-free"} if case.bug_kind == "uaf" else {"double-free"}
    observed = dynamic_violations(program, case.bad_function, expected)
    assert observed, (
        f"case {case.ident} ({case.route}/{case.control}) never violated "
        f"{expected} on inputs {PROBE_INPUTS}"
    )


@pytest.mark.parametrize("case", generate_juliet_suite(), ids=lambda c: f"v{c.ident}")
def test_juliet_good_twins_run_clean(case):
    program = parse_program(case.source)
    kinds = {"use-after-free", "double-free"}
    observed = dynamic_violations(program, case.good_function, kinds)
    assert not observed, f"good twin of case {case.ident} violated: {observed}"


def test_generated_true_bugs_misbehave_dynamically():
    """Every seeded true bug in a generated program is dynamically real."""
    program_spec = generate_program(GeneratorConfig(seed=77, target_lines=1200))
    program = parse_program(program_spec.source)
    for truth in program_spec.true_bugs():
        entry = truth.functions[-1]  # the *_main driver
        observed = dynamic_violations(program, entry, {"use-after-free"})
        assert observed, f"seeded {truth.kind} in {entry} never misbehaved"


def test_generated_traps_run_clean():
    """The seeded traps are genuinely safe code: no dynamic violation on
    any probed input (they're only *reported* by imprecise tools)."""
    program_spec = generate_program(GeneratorConfig(seed=77, target_lines=1200))
    program = parse_program(program_spec.source)
    for truth in program_spec.traps():
        if truth.is_loop_fp:
            continue  # loop FPs are safe too, but probed separately below
        entry = truth.functions[-1]
        observed = dynamic_violations(
            program, entry, {"use-after-free", "double-free"}
        )
        assert not observed, f"trap {truth.kind} in {entry} actually violated!"


def test_loop_fp_seeds_are_dynamically_safe():
    """The loop-imprecision seeds never misbehave at runtime — they are
    true false positives of the unroll-once static model."""
    program_spec = generate_program(
        GeneratorConfig(seed=77, target_lines=4000)
    )
    program = parse_program(program_spec.source)
    seeds = [t for t in program_spec.ground_truth if t.is_loop_fp]
    assert seeds, "expected loop-fp seeds at this scale"
    for truth in seeds:
        entry = truth.functions[-1]
        for n in PROBE_INPUTS:
            interp = run_function(
                program, entry, n, 1, halt_on_violation=False
            )
            kinds = {v.kind for v in interp.violations}
            assert "use-after-free" not in kinds, (
                f"{entry} misbehaved with n={n}: the seed is not a true FP"
            )


def test_filler_clusters_run_clean():
    """The safe filler code (root drivers) never violates."""
    program_spec = generate_program(GeneratorConfig(seed=5, target_lines=600))
    program = parse_program(program_spec.source)
    roots = [f.name for f in program.functions if f.name.endswith("_root")]
    assert roots
    for root in roots[:10]:
        observed = dynamic_violations(
            program, root, {"use-after-free", "double-free"}
        )
        assert not observed, f"filler {root} violated"


@pytest.mark.parametrize(
    "statement", ["malloc(rel(p));", "q = malloc(rel(p));"], ids=["effect", "assigned"]
)
def test_allocation_arguments_run_in_both_analyses(statement):
    """An allocation evaluates its arguments whether or not its result is
    kept: `rel` frees p at runtime, so the static analysis must see the
    use after free too."""
    from repro import Pinpoint, UseAfterFreeChecker

    source = (
        "fn rel(p) { free(p); return 0; }\n"
        f"fn main() {{ p = malloc(); {statement} x = *p; return x; }}\n"
    )
    program = parse_program(source)
    assert dynamic_violations(program, "main", {"use-after-free"})
    assert len(Pinpoint.from_source(source).check(UseAfterFreeChecker())) == 1
