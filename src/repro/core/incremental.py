"""Incremental analysis: reuse per-function artifacts across runs.

Industrial static analysis is run on every commit, so re-analysis cost
matters as much as cold cost (the paper cites Coverity's incremental
scanning as the deployment context).  Pinpoint's architecture makes
function-level incrementality natural: everything stage 1-3 computes for
a function (connectors, points-to, SEG) depends only on

- the function's own AST, and
- the connector signatures of its (non-recursive) callees.

The :class:`IncrementalAnalyzer` keys each function's prepared artifacts
by exactly that pair.  Re-analyzing an edited program reuses every
function whose key is unchanged; an edit that changes a callee's
*interface* (its Mod/Ref behaviour) transitively invalidates callers,
while a body-only edit re-analyzes just the one function.

Checking is incremental the same way.  A checker run processes each
function into a record (its summaries, reports, diagnostics and stats
counts) exactly as a one-shot run does; the session keeps the records
and a later run replays every one whose function and callees are
unchanged.  Replayed summary conditions stay lazy: one is built only
when an edited caller (or ``--verify full``) reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cache.store import MemoryTier
from repro.core.engine import CheckMemo, EngineConfig, Pinpoint
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.robust.heap import hold_full_collections


@dataclass
class IncrementalStats:
    analyzed: int = 0
    reused: int = 0

    @property
    def total(self) -> int:
        return self.analyzed + self.reused


class IncrementalAnalyzer:
    """Analyzes successive versions of a program, reusing artifacts.

    Preparation runs through the one bottom-up driver
    (:func:`repro.sched.scheduler.prepare_program`) against a
    :class:`~repro.cache.store.MemoryTier`: unchanged functions come back
    from memory by their content address, and only what the last run
    touched stays resident.  ``store`` (a :class:`repro.cache.SummaryStore`)
    backs that tier, so a brand-new analyzer warm-starts from a cache
    directory populated by a previous process and fresh results are
    written back to it.
    """

    def __init__(
        self, config: Optional[EngineConfig] = None, store=None
    ) -> None:
        self.config = config or EngineConfig()
        self.store = store
        self._tier = MemoryTier(store)
        # Function name -> content address, from the last run.
        self._digests: Dict[str, str] = {}
        # Check records, per checker and function, which warm re-checks
        # replay instead of re-searching unchanged functions (see
        # :class:`repro.core.engine.CheckRecord`).  The memory tier
        # bounds re-*preparation* to the edit's invalidation cone; this
        # bounds the *checker pass* the same way.
        self.check_memo = CheckMemo()
        self.last_stats = IncrementalStats()

    @hold_full_collections()
    def analyze(self, source: str, budget=None) -> Pinpoint:
        """Prepare (incrementally) and wrap in an engine."""
        program = parse_program(source)
        return self.analyze_program(program, budget=budget)

    @property
    def warm(self) -> bool:
        """Has this analyzer prepared at least one program already?
        (The service layer uses this to classify requests cold/warm.)"""
        return bool(self._tier)

    @property
    def cached_functions(self) -> int:
        return len(self._tier)

    def analyze_program(self, program: ast.Program, budget=None) -> Pinpoint:
        """Prepare ``program`` the way :meth:`Pinpoint.from_source` does —
        at the config's points-to tier, under ``budget``, with the
        config's verification — but against this analyzer's memory
        tier, with this analyzer's check records."""
        from repro.sched.scheduler import prepare_program

        prepared = prepare_program(
            program,
            budget=budget,
            verify=self.config.verify,
            store=self._tier,
            pta_tier=self.config.pta_tier,
        )
        self._tier.end_run()
        self._digests = prepared.digests
        reused = len(prepared.cached)
        self.last_stats = IncrementalStats(
            analyzed=len(prepared.digests) - reused, reused=reused
        )
        self.check_memo.prune(set(prepared.digests))
        return Pinpoint(prepared, self.config, budget, memo=self.check_memo)

    def invalidate(self, name: Optional[str] = None) -> None:
        """Drop one function's cached artifacts, or everything.  Check
        records go in either case: a caller's record refers to its
        callees' summaries, so one function's record cannot go alone."""
        if name is None:
            self._tier.clear()
        elif name in self._digests:
            self._tier.discard(self._digests[name])
        self.check_memo.clear()


def apply_function_edit(
    program: ast.Program, new_func: ast.FuncDef
) -> ast.Program:
    """A new program with one function's definition replaced.

    This is the single-function-delta entry point the analysis daemon's
    ``/v1/edit`` endpoint builds on: the caller parses just the edited
    function's text, splices it over the old definition here, and feeds
    the result back through :meth:`IncrementalAnalyzer.analyze_program`
    — where the AST x interface fingerprints confine re-preparation to
    the edited function (plus interface-invalidated callers).

    The input program is not mutated (sessions keep it as their current
    state until the re-check succeeds).  Raises ``KeyError`` when the
    program has no function of that name — an edit can change a body or
    interface, not add or remove functions (submit a full ``/v1/check``
    for structural changes).
    """
    if not any(f.name == new_func.name for f in program.functions):
        raise KeyError(new_func.name)
    return ast.Program(
        functions=[
            new_func if f.name == new_func.name else f
            for f in program.functions
        ]
    )
