"""repro.sched — the bottom-up prepare loop.

Pinpoint's compositional design (paper §3.3) makes a function's stage
1-3 artifacts — transformed SSA, intraprocedural points-to, connector
signature, SEG — depend only on its own AST and its non-recursive
callees' connector signatures.  :mod:`repro.sched.scheduler` prepares
every function once in the call graph's bottom-up order, verifying each
before its signature is published, building and verifying its SEG right
after, and writing each to the artifact store as soon as it is done, so
a run killed part-way keeps every function it finished.  The
interprocedural summary/checker pass reads the prepared module in that
same order; see ``docs/prepare-and-store.md``.
"""

from __future__ import annotations

from repro.sched.scheduler import prepare_program

__all__ = ["prepare_program"]
