"""Pinpoint vs the baselines on one workload — the paper's story in one run.

Generates a synthetic codebase with seeded true bugs, false-positive
traps, and safe filler, then runs:

- Pinpoint (holistic, path- and context-sensitive),
- the layered SVF baseline (Andersen + global SVFG + reachability),
- the dense IFDS baseline (Saturn/Calysto style),
- the intra-unit baseline (Infer/CSA style),

and scores each against ground truth.

Run:  python examples/compare_baselines.py
"""

from repro import Pinpoint, UseAfterFreeChecker
from repro.baselines.ifds import IFDSBaseline
from repro.baselines.intraunit import IntraUnitBaseline
from repro.baselines.svf import SVFBaseline
from repro.bench.tables import render_table
from repro.obs.measure import time_only
from repro.synth.generator import (
    GeneratorConfig,
    classify_reports,
    generate_program,
)


def main() -> None:
    program = generate_program(GeneratorConfig(seed=2024, target_lines=1500))
    print(
        f"workload: {program.line_count} lines, "
        f"{len(program.true_bugs())} seeded bugs, "
        f"{len(program.traps())} seeded traps"
    )

    rows = []

    def score(name, reports, seconds):
        tps, fps, missed = classify_reports(reports, program.ground_truth)
        found = len(program.true_bugs()) - len(missed)
        rows.append(
            (
                name,
                f"{seconds:.2f}",
                len(reports),
                f"{found}/{len(program.true_bugs())}",
                len(fps),
            )
        )

    engine = Pinpoint.from_source(program.source)
    result, seconds = time_only(lambda: engine.check(UseAfterFreeChecker()))
    score("Pinpoint", result.reports, seconds)

    svf = SVFBaseline.from_source(program.source)
    reports, seconds = time_only(lambda: svf.check(UseAfterFreeChecker()))
    score("SVF (layered)", reports, seconds)

    ifds = IFDSBaseline.from_source(program.source)
    reports, seconds = time_only(ifds.check_use_after_free)
    score("IFDS (dense)", reports, seconds)

    intra = IntraUnitBaseline(engine)
    reports, seconds = time_only(lambda: intra.check(UseAfterFreeChecker()))
    score("intra-unit (Infer/CSA-like)", reports, seconds)

    print()
    print(
        render_table(
            ["analysis", "time (s)", "reports", "bugs found", "false positives"],
            rows,
        )
    )
    print()
    print("Pinpoint: every seeded bug, no trap reported.")
    print("SVF: warning flood (the 'pointer trap').")
    print("Intra-unit: fast, but misses cross-function bugs and reports traps.")


if __name__ == "__main__":
    main()
