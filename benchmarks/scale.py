"""Scale trajectory of ``repro check --all`` from 5k to 80k lines.

    python benchmarks/scale.py -o BENCH_scale.json
    python benchmarks/scale.py --parent ../parent -o BENCH_scale.json

Subject N is the program of ``repro generate --lines N --seed 1``.  Each
size runs three times per side, each run in fresh interpreters, without
tracing or tracemalloc.  A run is two children:

- ``repro check SUBJECT --all --json``, which gives
  - ``wall_s``: the wall time of the ``repro.cli.main`` call, output
    included (interpreter start-up and ``import repro`` excluded);
  - ``prepare_s``, ``seg_s``, ``search_s``, ``solving_s``: the
    ``engine.seconds`` stage times, search and solving summed over the
    six checkers;
  - ``peak_rss_mb``: the process's resident-set high-water mark;
  - ``full_collections``: generation-2 collections that started during
    the call (``gc.callbacks``);
  - the findings count and a digest of the reports, so two sides can be
    checked for identical findings;
- a warm session: an ``IncrementalAnalyzer`` analysis and the six
  checks, then five single-function body edits (``bench_edit = k;``
  prepended on the function's own line, the shape of the benchmark's
  ``edit-2k`` edits) spliced in with ``apply_function_edit``, each
  re-analyzed and re-checked.  ``edit_p50_ms`` is the median edit.  A
  body edit keeps the findings, so the run fails if the last edit's
  findings digest differs from the session's cold one.

A row holds each timing column's median over the three runs, and its
minimum and maximum under ``<column>_range``; the counts and digests
must agree across runs.

``--parent DIR`` names the root of another checkout of the repository
(for example the parent commit, from ``git clone``).  Its rows are
taken on the same subjects, each run alternating which side goes first,
and the script fails if the two sides' reports differ.  Each side gets
its least-squares wall exponent over the sizes' medians (a power law
fitted in log space).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SIZES = (5_000, 10_000, 20_000, 40_000, 80_000)
SEED = 1
RUNS = 3
EDITS = 5

#: Runs in the fresh interpreter, under the side's ``src``.
_CHILD = r"""
import contextlib, gc, hashlib, io, json, resource, sys, time

from repro.cli import main
from repro.obs import get_registry

full = []
gc.callbacks.append(
    lambda phase, info: full.append(1)
    if phase == "start" and info["generation"] == 2
    else None
)
out = io.StringIO()
started = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = main(["check", sys.argv[1], "--all", "--json"])
wall = time.perf_counter() - started
calls = len(full)
stages = {}
for labels, value in get_registry().counter("engine.seconds").items():
    stages[labels["phase"]] = stages.get(labels["phase"], 0.0) + value
reports = json.loads(out.getvalue())["reports"]
json.dump(
    {
        "exit_code": code,
        "wall_s": round(wall, 3),
        "prepare_s": round(stages.get("prepare", 0.0), 3),
        "seg_s": round(stages.get("seg", 0.0), 3),
        "search_s": round(stages.get("search", 0.0), 3),
        "solving_s": round(stages.get("solving", 0.0), 3),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
        ),
        "full_collections": calls,
        "findings": len(reports),
        "reports_sha256": hashlib.sha256(
            json.dumps(reports, sort_keys=True).encode()
        ).hexdigest()[:16],
    },
    sys.stdout,
)
"""

#: The warm-edit session, in its own fresh interpreter.
_EDIT_CHILD = r"""
import json, random, statistics, sys, time

from repro import IncrementalAnalyzer
from repro.cli import CHECKERS
from repro.core.incremental import apply_function_edit
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.obs.history import findings_digest

program = parse_program(open(sys.argv[1]).read())
seed, edits = int(sys.argv[2]), int(sys.argv[3])


def check(engine):
    results = [engine.check(checker()) for checker in CHECKERS.values()]
    return findings_digest([r.key() for result in results for r in result])


analyzer = IncrementalAnalyzer()
cold = check(analyzer.analyze_program(program))
names = sorted(f.name for f in program.functions)
random.Random(seed).shuffle(names)
seconds, digest = [], cold
for k, name in enumerate(names[:edits]):
    old = program.function(name)
    stmt = ast.AssignStmt(
        target="bench_edit", value=ast.Num(value=k, line=old.line), line=old.line
    )
    new = ast.FuncDef(
        name=old.name,
        params=list(old.params),
        body=ast.Block(stmts=[stmt] + list(old.body.stmts)),
        line=old.line,
    )
    started = time.perf_counter()
    program = apply_function_edit(program, new)
    digest = check(analyzer.analyze_program(program))
    seconds.append(time.perf_counter() - started)
if digest != cold:
    sys.exit(f"the last edit's findings digest {digest} differs from cold {cold}")
json.dump({"edit_p50_ms": round(statistics.median(seconds) * 1000, 2)}, sys.stdout)
"""

#: Columns reported as a median with its range.
_TIMED = (
    "wall_s", "prepare_s", "seg_s", "search_s", "solving_s", "peak_rss_mb",
    "edit_p50_ms",
)


def _run(src: Path, script: str, *args: str) -> Dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"error: child under {src} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _summarize(runs: List[Dict]) -> Dict:
    """One row from a size's runs: medians and ranges of the timing
    columns; every other column must agree across the runs."""
    row: Dict = {}
    for column in runs[0]:
        values = [run[column] for run in runs]
        if column in _TIMED:
            row[column] = round(statistics.median(values), 3)
            row[f"{column}_range"] = [min(values), max(values)]
        elif len(set(values)) != 1:
            raise SystemExit(f"error: {column} differs between runs: {values}")
        else:
            row[column] = values[0]
    return row


def _rev(root: Path) -> Optional[str]:
    done = subprocess.run(
        ["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
        capture_output=True,
        text=True,
    )
    if done.returncode != 0:
        return None
    dirty = subprocess.run(
        ["git", "-C", str(root), "status", "--porcelain", "--", "src"],
        capture_output=True,
        text=True,
    ).stdout.strip()
    return done.stdout.strip() + ("+dirty" if dirty else "")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="root of a second checkout")
    parser.add_argument("-o", "--out", type=Path, help="write the JSON here")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from repro.bench.fitting import fit_power
    from repro.synth.generator import GeneratorConfig, generate_program

    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()
    rows: Dict[str, List[Dict]] = {name: [] for name in sides}
    turn = 0
    with tempfile.TemporaryDirectory() as scratch:
        for size in SIZES:
            program = generate_program(GeneratorConfig(seed=SEED, target_lines=size))
            subject = Path(scratch) / f"scale-{size}.pin"
            subject.write_text(program.source)
            runs: Dict[str, List[Dict]] = {name: [] for name in sides}
            for _ in range(RUNS):
                order = list(sides) if turn % 2 == 0 else list(reversed(sides))
                turn += 1
                for name in order:
                    src = sides[name] / "src"
                    run = _run(src, _CHILD, str(subject))
                    run.update(_run(src, _EDIT_CHILD, str(subject), str(SEED), str(EDITS)))
                    runs[name].append(run)
                    print(f"{name:>6} {size:>6} lines:", json.dumps(run), file=sys.stderr)
            for name in sides:
                row = {"target_lines": size, "lines": program.line_count}
                row.update(_summarize(runs[name]))
                rows[name].append(row)
            digests = {rows[name][-1]["reports_sha256"] for name in sides}
            if len(digests) != 1:
                print(f"error: reports differ at {size} lines", file=sys.stderr)
                return 1

    document = {
        "command": "repro check SUBJECT --all --json",
        "warm_edits": (
            f"an IncrementalAnalyzer session and six checks, then {EDITS} "
            "single-function body edits through apply_function_edit, each "
            "re-analyzed and re-checked; edit_p50_ms is their median"
        ),
        "subjects": f"repro generate --lines N --seed {SEED}",
        "runs": f"{RUNS} per size and side, alternating which side runs first; "
        "each timing column is the median, with [min, max] in <column>_range",
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "sides": {},
    }
    for name, root in sides.items():
        fit = fit_power(
            [row["lines"] for row in rows[name]], [row["wall_s"] for row in rows[name]]
        )
        document["sides"][name] = {
            "rev": _rev(root),
            "wall_exponent": round(fit.coefficients[1], 3),
            "wall_exponent_r_squared": round(fit.r_squared, 4),
            "rows": rows[name],
        }
        print(f"{name}: wall exponent {fit.coefficients[1]:.3f}", file=sys.stderr)
    text = json.dumps(document, indent=2) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
