"""Differential sanitizer harness (``repro selfcheck``).

For each seed, generate a synthetic program with known ground truth, run
the static engine with the verifier on, and cross-check three ways:

1. **soundness** — every seeded ``true-*`` defect must be reported
   (recall 1.0 per kind);
2. **precision** — the ``fp-trap``/``svf-trap`` safe twins must draw no
   report at the default configuration (loop-pattern FPs are the
   paper's own documented soundiness cost and are tolerated);
3. **differential oracle** — the :mod:`repro.lang.interp` interpreter
   executes each seeded function concretely: a "true bug" that never
   trips the dynamic checker, or a "safe twin" that does, means the
   *labels themselves* are wrong — the static result is then being
   judged against a broken ground truth, which is a selfcheck failure
   in its own right.

Verifier violations during the run count as failures too: a selfcheck
that passes while the IR/SEG invariants are broken proves nothing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.engine import EngineConfig, Pinpoint
from repro.lang.interp import Interpreter, MemoryError_, StepLimitExceeded
from repro.lang.parser import parse_program
from repro.robust.diagnostics import STAGE_VERIFY
from repro.synth.generator import (
    GeneratorConfig,
    TRAP_KINDS,
    TRUE_KINDS,
    classify_reports,
    generate_program,
    split_false_positives,
)

# Inputs exercising both arms of every trap's ``c > K`` guard
# (K is drawn from small ranges; 0 falls below, 100 above).
_TRAP_INPUTS = (0, 100)
_TRUE_INPUT = 1


@dataclass
class SeedOutcome:
    """Everything selfcheck learned from one seed."""

    seed: int
    lines: int
    total_by_kind: Dict[str, int] = field(default_factory=dict)
    found_by_kind: Dict[str, int] = field(default_factory=dict)
    missed: List[str] = field(default_factory=list)  # "kind:function"
    trap_reports: List[str] = field(default_factory=list)
    range_trap_reports: List[str] = field(default_factory=list)
    other_false_positives: List[str] = field(default_factory=list)
    expected_loop_fps: int = 0
    verify_violations: int = 0
    oracle_disagreements: List[str] = field(default_factory=list)
    reports: int = 0

    @property
    def ok(self) -> bool:
        return not (
            self.missed
            or self.trap_reports
            or self.verify_violations
            or self.oracle_disagreements
        )

    def as_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["ok"] = self.ok
        return data


@dataclass
class SelfCheckReport:
    """Aggregated selfcheck results over a seed corpus."""

    checker: str
    mode: str
    oracle: bool
    outcomes: List[SeedOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return bool(self.outcomes) and all(o.ok for o in self.outcomes)

    def recall_by_kind(self) -> Dict[str, float]:
        totals: Dict[str, int] = {}
        founds: Dict[str, int] = {}
        for outcome in self.outcomes:
            for kind, count in outcome.total_by_kind.items():
                totals[kind] = totals.get(kind, 0) + count
                founds[kind] = founds.get(kind, 0) + outcome.found_by_kind.get(
                    kind, 0
                )
        return {
            kind: (founds[kind] / total if total else 1.0)
            for kind, total in sorted(totals.items())
        }

    def as_dict(self) -> dict:
        return {
            "checker": self.checker,
            "mode": self.mode,
            "oracle": self.oracle,
            "ok": self.ok,
            "recall_by_kind": self.recall_by_kind(),
            "trap_reports": sum(len(o.trap_reports) for o in self.outcomes),
            "range_trap_reports": sum(
                len(o.range_trap_reports) for o in self.outcomes
            ),
            "other_false_positives": sum(
                len(o.other_false_positives) for o in self.outcomes
            ),
            "verify_violations": sum(o.verify_violations for o in self.outcomes),
            "oracle_disagreements": sum(
                len(o.oracle_disagreements) for o in self.outcomes
            ),
            "seeds": [o.as_dict() for o in self.outcomes],
        }


def _oracle_check(program_source: str, truths) -> List[str]:
    """Run the dynamic oracle over every seeded defect/trap; return the
    list of label disagreements."""
    disagreements: List[str] = []
    ast_program = parse_program(program_source)
    arity = {f.name: len(f.params) for f in ast_program.functions}

    def run(entry: str, value: int) -> Optional[List[MemoryError_]]:
        interp = Interpreter(ast_program, halt_on_violation=True)
        try:
            interp.call(entry, *([value] * arity.get(entry, 0)))
        except MemoryError_:
            pass  # recorded in interp.violations
        except StepLimitExceeded:
            return None  # treated as "no verdict", not a disagreement
        return interp.violations

    for truth in truths:
        entry = truth.functions[-1]  # the *_main driver of the cluster
        if truth.kind in TRUE_KINDS:
            violations = run(entry, _TRUE_INPUT)
            if violations is not None and not any(
                v.kind == "use-after-free" for v in violations
            ):
                disagreements.append(f"oracle-silent:{truth.kind}:{entry}")
        elif truth.kind in TRAP_KINDS:
            for value in _TRAP_INPUTS:
                violations = run(entry, value)
                if violations:
                    disagreements.append(
                        f"oracle-violation:{truth.kind}:{entry}"
                        f"@c={value}:{violations[0].kind}"
                    )
    return disagreements


def run_selfcheck(
    seeds,
    lines: int = 400,
    mode: str = "full",
    oracle: bool = True,
    checker: Optional[object] = None,
    config: Optional[EngineConfig] = None,
    cache_dir: Optional[str] = None,
) -> SelfCheckReport:
    """Run the differential harness over ``seeds``; never raises for a
    failing seed — failures are encoded in the returned report."""
    from repro.core.checkers.use_after_free import UseAfterFreeChecker

    report = SelfCheckReport(
        checker=getattr(checker, "name", "use-after-free"),
        mode=mode,
        oracle=oracle,
    )
    for seed in seeds:
        program = generate_program(
            GeneratorConfig(seed=seed, target_lines=lines)
        )
        truths = program.ground_truth
        run_config = config or EngineConfig()
        run_config = dataclasses.replace(run_config, verify=mode)
        engine = Pinpoint.from_source(
            program.source, run_config, cache_dir=cache_dir
        )
        result = engine.check(checker or UseAfterFreeChecker())

        outcome = SeedOutcome(seed=seed, lines=lines)
        outcome.reports = len(result.reports)
        outcome.verify_violations = sum(
            1 for d in result.diagnostics if d.stage == STAGE_VERIFY
        )

        for truth in truths:
            if truth.kind in TRUE_KINDS:
                outcome.total_by_kind[truth.kind] = (
                    outcome.total_by_kind.get(truth.kind, 0) + 1
                )
        _, false_positives, missed = classify_reports(result.reports, truths)
        for truth in missed:
            outcome.missed.append(f"{truth.kind}:{truth.functions[-1]}")
        for kind, total in outcome.total_by_kind.items():
            missed_of_kind = sum(
                1 for entry in outcome.missed if entry.startswith(f"{kind}:")
            )
            outcome.found_by_kind[kind] = total - missed_of_kind

        expected, unexpected = split_false_positives(false_positives, truths)
        outcome.expected_loop_fps = len(expected)
        trap_kind_of = {
            name: truth.kind
            for truth in truths
            if truth.kind in TRAP_KINDS
            for name in truth.functions
        }
        for fp in unexpected:
            kind = trap_kind_of.get(fp.sink.function) or trap_kind_of.get(
                fp.source.function
            )
            label = f"{kind or 'none'}:{fp.sink.function}"
            if kind in ("fp-trap", "svf-trap"):
                outcome.trap_reports.append(label)
            elif kind == "range-trap":
                outcome.range_trap_reports.append(label)
            else:
                outcome.other_false_positives.append(label)

        if oracle:
            outcome.oracle_disagreements = _oracle_check(
                program.source, truths
            )
        report.outcomes.append(outcome)
    return report


def parse_seed_spec(spec: str) -> List[int]:
    """Parse a seed spec: comma-separated integers and inclusive
    ``a..b`` ranges, e.g. ``0..19`` or ``1,4,10..12``."""
    seeds: List[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            lo_text, hi_text = part.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"empty seed range {part!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError(f"no seeds in spec {spec!r}")
    return seeds
