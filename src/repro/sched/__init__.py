"""repro.sched — the bottom-up prepare driver and its process pool.

Pinpoint's compositional design (paper §3.3) makes the expensive half of
the run embarrassingly parallel: a function's stage 1-3 artifacts —
transformed SSA, intraprocedural points-to, connector signature, SEG —
depend only on its own AST and its non-recursive callees' connector
signatures.  This package condenses the call graph into SCC *waves*
(:mod:`repro.sched.waves`) and runs the one preparation loop over them
(:mod:`repro.sched.scheduler`), inline or — with ``jobs > 1`` — on a
process pool (:mod:`repro.sched.pool` / :mod:`repro.sched.worker`,
imported only then), merging the results deterministically: a
``--jobs N`` run emits byte-identical reports to ``--jobs 1``.

The interprocedural summary/checker pass stays serial — it is cheap
relative to preparation and its context numbering is inherently
sequential — which is precisely what makes parallel preparation safe.

``--jobs`` on the CLI, or the ``REPRO_JOBS`` environment variable;
see :func:`resolve_jobs` and ``docs/parallelism.md``.
"""

from __future__ import annotations

import os

from repro.sched.scheduler import prepare_program
from repro.sched.waves import scc_waves, wave_sizes

#: Environment fallback for ``--jobs``.
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(explicit=None) -> int:
    """Effective worker count: CLI flag > ``REPRO_JOBS`` env var > 1.

    Unparseable or non-positive values degrade to 1 (serial) rather
    than failing the run."""
    if explicit:
        try:
            return max(1, int(explicit))
        except (TypeError, ValueError):
            return 1
    raw = os.environ.get(JOBS_ENV, "").strip()
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            return 1
    return 1


__all__ = [
    "JOBS_ENV",
    "prepare_program",
    "resolve_jobs",
    "scc_waves",
    "wave_sizes",
]
