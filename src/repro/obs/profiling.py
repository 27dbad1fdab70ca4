"""Per-pass and per-function span tables for the ``repro profile`` report.

Answers the questions the paper's evaluation (Figs. 7-10) asks of any
value-flow framework: which *pass* dominates (SEG build vs. summary
search vs. SMT solving) and which *function* is hottest, with SMT-query
attribution per function.  :func:`repro.obs.attr.cost_breakdown` puts
these tables into the profile document.

Self-time is duration minus the duration of direct child spans (same
thread, linked by parent uid), so a pass that merely contains another
pass is not double-charged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.obs.trace import Span


@dataclass
class PassRow:
    name: str
    count: int = 0
    total_seconds: float = 0.0
    self_seconds: float = 0.0


@dataclass
class UnitRow:
    unit: str
    self_seconds: float = 0.0
    smt_queries: int = 0
    passes: Dict[str, float] = field(default_factory=dict)

    @property
    def hottest_pass(self) -> str:
        if not self.passes:
            return ""
        return max(self.passes.items(), key=lambda item: item[1])[0]


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span uid -> duration minus direct children's durations."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    return {
        span.uid: max(0.0, span.duration - child_time.get(span.uid, 0.0))
        for span in spans
    }


def pass_table(spans: Sequence[Span]) -> List[PassRow]:
    """Per-pass totals, hottest (by self time) first."""
    selfs = self_times(spans)
    rows: Dict[str, PassRow] = {}
    for span in spans:
        row = rows.setdefault(span.name, PassRow(span.name))
        row.count += 1
        row.total_seconds += span.duration
        row.self_seconds += selfs[span.uid]
    return sorted(rows.values(), key=lambda r: r.self_seconds, reverse=True)


def unit_table(spans: Sequence[Span]) -> List[UnitRow]:
    """Per-unit (function/checker) self-time totals, hottest first.

    Self times are additive, so a function traced by nested passes
    (``prepare.fn`` containing ``pta.run``) is charged exactly once.
    """
    selfs = self_times(spans)
    rows: Dict[str, UnitRow] = {}
    for span in spans:
        if not span.unit:
            continue
        row = rows.setdefault(span.unit, UnitRow(span.unit))
        row.self_seconds += selfs[span.uid]
        row.passes[span.name] = row.passes.get(span.name, 0.0) + selfs[span.uid]
        queries = span.args.get("smt_queries")
        if queries:
            row.smt_queries += int(queries)
    return sorted(rows.values(), key=lambda r: r.self_seconds, reverse=True)
