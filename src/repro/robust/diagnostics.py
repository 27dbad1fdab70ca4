"""Structured diagnostics for degradations and quarantines.

A :class:`Diagnostic` names the pipeline stage, the unit of work (a
function, a checker, an SMT query), the machine-readable reason, and a
human-readable detail.  A :class:`DiagnosticLog` collects them across a
run; it is shared between the parser front end, the preparation
pipeline, and the engine so one run yields one consolidated list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.obs.metrics import get_registry

# Stages, in pipeline order.
STAGE_PARSE = "parse"
STAGE_PREPARE = "prepare"
STAGE_SEG = "seg"
STAGE_PTA = "pta"
STAGE_SEARCH = "search"
STAGE_SMT = "smt"
STAGE_CHECKER = "checker"
STAGE_VERIFY = "verify"

# Reasons.
REASON_QUARANTINED = "quarantined"
REASON_PARSE_ERROR = "parse-error"
REASON_BUDGET = "budget-exhausted"
REASON_DEADLINE = "deadline-exceeded"
REASON_REDUCED_PRECISION = "reduced-precision"
# Verifier violations carry the rule id as a suffix
# ("invariant-violation:ssa-single-def") so distinct rules on the same
# unit never dedup-collapse into one diagnostic.
REASON_INVARIANT = "invariant-violation"


@dataclass(frozen=True)
class Diagnostic:
    """One degradation or quarantine event."""

    stage: str  # parse | prepare | seg | pta | search | smt | checker
    unit: str  # function name, checker name, or query label
    reason: str  # quarantined | parse-error | budget-exhausted | ...
    detail: str = ""
    line: int = 0

    def as_dict(self) -> dict:
        entry = {"stage": self.stage, "unit": self.unit, "reason": self.reason}
        if self.detail:
            entry["detail"] = self.detail
        if self.line:
            entry["line"] = self.line
        return entry

    def __str__(self) -> str:
        where = f"{self.unit}:{self.line}" if self.line else self.unit
        text = f"[{self.stage}] {where}: {self.reason}"
        if self.detail:
            text += f" ({self.detail})"
        return text


class DiagnosticLog:
    """An append-only, deduplicating collector of diagnostics."""

    def __init__(self) -> None:
        self.entries: List[Diagnostic] = []
        self._seen = set()

    def record(
        self,
        stage: str,
        unit: str,
        reason: str,
        detail: str = "",
        line: int = 0,
    ) -> Diagnostic:
        diag = Diagnostic(stage, unit, reason, detail, line)
        self.add(diag)
        return diag

    def add(self, diag: Diagnostic) -> None:
        key = (diag.stage, diag.unit, diag.reason, diag.line)
        if key not in self._seen:
            self._seen.add(key)
            self.entries.append(diag)
            # Every recorded degradation is also a metric sample, so the
            # "what did the degradation ladder cost us" question is
            # answerable from the same registry that feeds --metrics-out.
            get_registry().counter(
                "robust.degradations",
                "Degradation/quarantine diagnostics recorded",
            ).inc(stage=diag.stage, reason=diag.reason)

    def extend(self, other: "DiagnosticLog") -> None:
        for diag in other.entries:
            self.add(diag)

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """Did the run complete with less than full coverage/precision?"""
        return bool(self.entries)

    def quarantined_units(self, stage: Optional[str] = None) -> List[str]:
        return [
            d.unit
            for d in self.entries
            if d.reason in (REASON_QUARANTINED, REASON_PARSE_ERROR)
            and (stage is None or d.stage == stage)
        ]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)
