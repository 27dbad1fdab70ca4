"""Bug reports and engine statistics."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.robust.diagnostics import STAGE_VERIFY, Diagnostic

# Exit codes of a check, from least to most severe; a later rung
# dominates an earlier one.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_DEGRADED = 3
EXIT_VERIFY = 4


@dataclass(frozen=True)
class Location:
    """A program point: function name plus surface source line."""

    function: str
    line: int
    variable: str = ""

    def __str__(self) -> str:
        var = f" ({self.variable})" if self.variable else ""
        return f"{self.function}:{self.line}{var}"


@dataclass
class BugReport:
    """One value-flow bug: a source flowing to a sink on a feasible path."""

    checker: str
    source: Location
    sink: Location
    path: Tuple[Location, ...] = ()
    condition: str = "true"
    verdict: str = "sat"  # sat | unknown (timeout treated as reportable)
    # A human-readable feasibility witness: atom literals from the SMT
    # model that mention program variables ("c.0 > 0"), when available.
    witness: str = ""

    def key(self) -> Tuple:
        """Deduplication key: one report per (source stmt, sink stmt)."""
        return (self.checker, self.source, self.sink)

    def __str__(self) -> str:
        steps = " -> ".join(str(loc) for loc in self.path) or "direct"
        text = (
            f"[{self.checker}] {self.source} flows to {self.sink}\n"
            f"    path: {steps}\n"
            f"    condition: {self.condition}"
        )
        if self.witness:
            text += f"\n    feasible when: {self.witness}"
        return text


def report_as_dict(report: "BugReport") -> dict:
    """The canonical JSON shape of one report.

    Single source of truth shared by ``repro check --json``, the SARIF
    exporter's property bag, and the analysis daemon's result documents —
    byte-identity assertions between those surfaces compare exactly this.
    """
    return {
        "checker": report.checker,
        "source": {
            "function": report.source.function,
            "line": report.source.line,
            "variable": report.source.variable,
        },
        "sink": {
            "function": report.sink.function,
            "line": report.sink.line,
            "variable": report.sink.variable,
        },
        "path": [
            {"function": loc.function, "line": loc.line, "variable": loc.variable}
            for loc in report.path
        ],
        "condition": report.condition,
        "verdict": report.verdict,
    }


@dataclass
class EngineStats:
    """Counters mirroring the paper's evaluation dimensions.

    This is the *per-checker-run* view; :meth:`publish` mirrors every
    field into the process metrics registry (``engine.<field>``, labeled
    by checker) so ``--stats``, ``--metrics-out``, the JSON payload and
    SARIF all report from the same numbers.  Stage times are not kept
    here: their one home is the ``engine.seconds`` counter, labeled by
    ``phase``, which the prepare driver, :class:`~repro.core.engine.Pinpoint`
    and each checker run increment themselves.
    """

    functions: int = 0
    seg_vertices: int = 0
    seg_edges: int = 0
    summaries_rv: int = 0
    summaries_vf: int = 0
    candidates: int = 0
    pruned_linear: int = 0
    pruned_smt: int = 0
    reported: int = 0
    smt_queries: int = 0
    linear_queries: int = 0
    search_steps: int = 0
    # Summary lookups at call sites during the value-flow search: a hit
    # means the callee's summaries were available (defined, analyzed
    # earlier in bottom-up order), a miss that the call was treated as
    # opaque (external/quarantined callee).
    summary_hits: int = 0
    summary_misses: int = 0
    # Robustness counters (repro.robust): candidates decided without
    # SMT because a budget ran out, SMT queries cut off by the per-query
    # deadline, and units of work quarantined after an internal failure.
    degraded_candidates: int = 0
    smt_deadline_hits: int = 0
    quarantined_units: int = 0
    # Points-to precision tier the module was prepared at ("fi" or
    # "fs") and its store-update accounting: ``strong_updates`` counts
    # syntactic + proof-driven strong updates over every prepared
    # function.
    pta_tier: str = "fi"
    strong_updates: int = 0
    weak_updates: int = 0

    def as_dict(self) -> dict:
        """Every field, by name — nothing hand-enumerated, so a field
        added to the dataclass can never be silently missing here."""
        return dataclasses.asdict(self)

    def publish(self, checker: str, registry: Optional[MetricsRegistry] = None) -> None:
        """Mirror this run's stats into the metrics registry.

        Integer fields become ``engine.<field>`` counters labeled
        ``checker=<name>``.  Summary-cache lookups additionally feed
        ``engine.summaries.{hit,miss}``.
        """
        # Explicit None check: an empty MetricsRegistry is falsy (it has
        # __len__), so ``registry or get_registry()`` would ignore it.
        if registry is None:
            registry = get_registry()
        # The fields themselves, not a copy: as_dict() deep-copies.
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, str):
                continue  # e.g. pta_tier: not a number, not a counter
            registry.counter(
                f"engine.{spec.name}", f"EngineStats field {spec.name!r}"
            ).inc(value, checker=checker)
        registry.counter(
            "engine.summaries.hit", "Callee summaries found at call sites"
        ).inc(self.summary_hits, checker=checker)
        registry.counter(
            "engine.summaries.miss", "Call sites with no callee summaries"
        ).inc(self.summary_misses, checker=checker)


@dataclass
class CheckResult:
    """All reports from one checker run plus statistics."""

    checker: str
    reports: List[BugReport] = field(default_factory=list)
    stats: EngineStats = field(default_factory=EngineStats)
    # Degradations and quarantines: module-level events (parse recovery,
    # preparation failures) plus this run's own (search budget, SMT
    # deadline, checker crashes).  Empty for a full-coverage run.
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.reports)

    def __iter__(self):
        return iter(self.reports)

    @property
    def degraded(self) -> bool:
        """Did this run complete with less than full coverage/precision?"""
        return bool(self.diagnostics)

    def summary_line(self) -> str:
        """One stable, parseable line summarizing the run.

        Format (fixed; scripts and tests may rely on it)::

            <checker>: <N> reports (<C> candidates, <L> pruned by linear
            solver, <S> pruned by SMT)

        with `` [degraded: <D> diagnostic(s)]`` appended if and only if
        the run carries diagnostics.  All five numbers are base-10
        integers; the checker name never contains ``:``.
        """
        stats = self.stats
        line = (
            f"{self.checker}: {len(self.reports)} reports "
            f"({stats.candidates} candidates, {stats.pruned_linear} pruned by "
            f"linear solver, {stats.pruned_smt} pruned by SMT)"
        )
        if self.diagnostics:
            line += f" [degraded: {len(self.diagnostics)} diagnostic(s)]"
        return line


def aggregate_results(
    results: Sequence[CheckResult],
) -> Tuple[List[Diagnostic], int]:
    """The diagnostics of several checker runs, deduplicated, and the
    exit code they imply — shared by ``repro check`` and the daemon so
    both report the same document.

    Checkers run on one engine share its module-level diagnostics, so
    the same entry arrives once per checker; it is kept once, in first
    arrival order.  The exit code follows the ladder findings (1) <
    degraded coverage (3) < verification failure (4): degraded findings
    may be incomplete, and a broken internal invariant makes them
    untrusted."""
    # Diagnostic is a frozen dataclass: equal means every field equal.
    diagnostics = list(
        dict.fromkeys(diag for result in results for diag in result.diagnostics)
    )
    exit_code = EXIT_CLEAN
    if any(result.reports for result in results):
        exit_code = EXIT_FINDINGS
    if diagnostics:
        exit_code = EXIT_DEGRADED
    if any(diag.stage == STAGE_VERIFY for diag in diagnostics):
        exit_code = EXIT_VERIFY
    return diagnostics, exit_code
