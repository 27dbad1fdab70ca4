"""Scale trajectory of ``repro check --all`` from 5k to 80k lines.

    python benchmarks/scale.py -o BENCH_scale.json
    python benchmarks/scale.py --parent ../parent -o BENCH_scale.json

Subject N is the program of ``repro generate --lines N --seed 1``.  Each
size runs ``repro check SUBJECT --all --json`` once, in a fresh
interpreter, without tracing or tracemalloc.  A row records

- ``wall_s``: the wall time of the ``repro.cli.main`` call, output
  included (interpreter start-up and ``import repro`` excluded);
- ``prepare_s``, ``seg_s``, ``search_s``, ``solving_s``: the
  ``engine.seconds`` stage times, search and solving summed over the six
  checkers;
- ``peak_rss_mb``: the process's resident-set high-water mark;
- ``full_collections``: generation-2 collections that started during
  the call (``gc.callbacks``);
- the findings count and a digest of the reports, so two sides can be
  checked for identical findings.

``--parent DIR`` names the root of another checkout of the repository
(for example the parent commit, from ``git worktree add`` or ``git
clone``).  Its rows are taken on the same subjects, each size
alternating which side runs first, and the script fails if the two
sides' reports differ.  Each side gets its least-squares wall exponent
over the sizes (a power law fitted in log space).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SIZES = (5_000, 10_000, 20_000, 40_000, 80_000)
SEED = 1

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


def _run(src: Path, subject: Path) -> Dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(subject)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


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
    with tempfile.TemporaryDirectory() as scratch:
        for index, size in enumerate(SIZES):
            program = generate_program(GeneratorConfig(seed=SEED, target_lines=size))
            subject = Path(scratch) / f"scale-{size}.pin"
            subject.write_text(program.source)
            order = list(sides) if index % 2 == 0 else list(reversed(sides))
            for name in order:
                row = {"target_lines": size, "lines": program.line_count}
                row.update(_run(sides[name] / "src", subject))
                rows[name].append(row)
                print(f"{name:>6} {size:>6} lines:", json.dumps(row), file=sys.stderr)
            digests = {rows[name][-1]["reports_sha256"] for name in sides}
            if len(digests) != 1:
                print(f"error: reports differ at {size} lines", file=sys.stderr)
                return 1

    document = {
        "command": "repro check SUBJECT --all --json",
        "subjects": f"repro generate --lines N --seed {SEED}",
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
