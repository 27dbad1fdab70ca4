"""repro.sched — bottom-up preparation over call-graph waves.

Pinpoint's compositional design (paper §3.3) makes a function's stage
1-3 artifacts — transformed SSA, intraprocedural points-to, connector
signature, SEG — depend only on its own AST and its non-recursive
callees' connector signatures.  This package condenses the call graph
into SCC *waves* (:mod:`repro.sched.waves`) and runs the one
preparation loop over them (:mod:`repro.sched.scheduler`).  A wave's
barrier is where connector signatures are published and store entries
written, so a run killed part-way keeps every wave it finished.

The interprocedural summary/checker pass reads the prepared module in
the exact serial bottom-up order; see ``docs/prepare-and-store.md``.
"""

from __future__ import annotations

from repro.sched.scheduler import prepare_program
from repro.sched.waves import scc_waves, wave_sizes

__all__ = [
    "prepare_program",
    "scc_waves",
    "wave_sizes",
]
