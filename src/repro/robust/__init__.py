"""Fault-tolerant analysis harness.

At the scale the paper targets (millions of lines) the engine must
survive pathological inputs: one malformed function, one exploding SMT
query, or one crashing checker must not take down the whole run.  This
package supplies the four pieces that make that possible:

- :class:`~repro.robust.budget.ResourceBudget` — a wall-clock deadline
  plus cooperative step budgets, consulted by the points-to analysis,
  the engine's value-flow search, and the SMT solver;
- :class:`~repro.robust.diagnostics.Diagnostic` /
  :class:`~repro.robust.diagnostics.DiagnosticLog` — structured records
  of every degradation and quarantine, surfaced in ``--stats``, JSON and
  SARIF output;
- :class:`~repro.robust.quarantine.Quarantine` — an isolation scope
  that converts an exception in one unit of work (a function's parse,
  its preparation, a checker run) into a diagnostic, leaving the rest
  of the run intact;
- :mod:`~repro.robust.faults` — a deterministic fault-injection harness
  so tests can prove each degradation path actually fires.

The degradation ladder (rather than failing, the engine steps down):

1. SMT per-query deadline exceeded → fall back to the linear solver's
   verdict, report with ``verdict="unknown"``;
2. value-flow search budget exhausted → path-insensitive candidate
   reporting (no condition assembly, no solving);
3. points-to budget exhausted → conditions degrade to ``true``
   (path-insensitive heap states);
4. a unit of work crashes → quarantine it (treated as an opaque
   external call, exactly like same-SCC callees already are).
"""

from repro.robust.budget import BudgetExhausted, ResourceBudget
from repro.robust.diagnostics import Diagnostic, DiagnosticLog
from repro.robust.faults import (
    FaultPlan,
    InjectedFault,
    active_plan,
    disk_full_point,
    fault_point,
    install_faults,
    reset_faults,
)
from repro.robust.quarantine import Quarantine
from repro.robust.retry import RetryPolicy, with_retries

__all__ = [
    "BudgetExhausted",
    "Diagnostic",
    "DiagnosticLog",
    "FaultPlan",
    "InjectedFault",
    "Quarantine",
    "ResourceBudget",
    "RetryPolicy",
    "active_plan",
    "disk_full_point",
    "fault_point",
    "install_faults",
    "reset_faults",
    "with_retries",
]
