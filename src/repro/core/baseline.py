"""Report baselining: suppress known findings, surface only new ones.

The per-commit workflow the paper's deployment context implies: a first
full scan produces a *baseline* of accepted/triaged findings; subsequent
scans report only findings not in the baseline.  Combined with
:class:`~repro.core.incremental.IncrementalAnalyzer`, this gives the
check-only-what-changed loop commercial tools ship.

Baselines are JSON and match findings *structurally* — by checker,
source/sink function names and variables (not line numbers), so
unrelated edits that shift lines do not resurface triaged findings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from repro.core.report import BugReport, CheckResult

FindingKey = Tuple[str, str, str, str, str]


def finding_key(report: BugReport) -> FindingKey:
    """Line-number-insensitive identity of a finding."""
    return (
        report.checker,
        report.source.function,
        report.source.variable,
        report.sink.function,
        report.sink.variable,
    )


@dataclass
class Baseline:
    """A set of accepted findings."""

    findings: Set[FindingKey] = field(default_factory=set)

    # ------------------------------------------------------------------
    @classmethod
    def from_results(cls, results: Iterable[CheckResult]) -> "Baseline":
        baseline = cls()
        for result in results:
            for report in result:
                baseline.findings.add(finding_key(report))
        return baseline

    # ------------------------------------------------------------------
    def filter_new(self, result: CheckResult) -> List[BugReport]:
        """Reports in ``result`` not covered by this baseline."""
        return [r for r in result if finding_key(r) not in self.findings]

    def filter_fixed(self, result: CheckResult) -> List[FindingKey]:
        """Baselined findings of this checker that no longer appear."""
        current = {finding_key(r) for r in result}
        return sorted(
            key
            for key in self.findings
            if key[0] == result.checker and key not in current
        )

    def merge(self, other: "Baseline") -> "Baseline":
        return Baseline(self.findings | other.findings)

    def __len__(self) -> int:
        return len(self.findings)

    def __contains__(self, report: BugReport) -> bool:
        return finding_key(report) in self.findings

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        entries = [
            {
                "checker": checker,
                "source_function": src_fn,
                "source_variable": src_var,
                "sink_function": sink_fn,
                "sink_variable": sink_var,
            }
            for checker, src_fn, src_var, sink_fn, sink_var in sorted(self.findings)
        ]
        return json.dumps({"version": 1, "findings": entries}, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Baseline":
        payload = json.loads(text)
        findings = {
            (
                entry["checker"],
                entry["source_function"],
                entry["source_variable"],
                entry["sink_function"],
                entry["sink_variable"],
            )
            for entry in payload.get("findings", [])
        }
        return cls(findings)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())

    @classmethod
    def load(cls, path: str) -> "Baseline":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())
