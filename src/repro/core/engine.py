"""The Pinpoint engine: demand-driven, compositional global value-flow
analysis (paper Section 3.3).

One bottom-up pass over the call graph per checker, over the checker's
demand set only (:func:`demand_set`): the functions that share a
call-graph ancestor with a function holding one of its sources.  For
each of them:

1. start value-flow searches at (a) every formal-parameter slot, (b)
   every local checker source, (c) every call-site receiver whose callee
   has a VF2 summary (the callee returns a source-born value), and (d)
   every call-site actual whose callee has a VF3 summary (the call makes
   the actual's value source-born, e.g. freed);
2. follow SEG copy edges forward; at call sites jump through callee VF1
   summaries; record VF1-VF4 summaries at interface endpoints;
3. a source-born value arriving at a sink (locally or via a callee VF4)
   is a bug *candidate*: its global path condition is assembled via
   Equations (1)-(3) with cloning-based context sensitivity, filtered by
   the linear-time solver, and finally decided by the SMT solver.
"""

from __future__ import annotations

import hashlib
import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.context import Context, ContextAllocator, clone_term, ctx_bvar, ctx_ivar
from repro.core.checkers.base import Checker, SinkSpec, SourceSpec
from repro.core.pipeline import PreparedFunction, PreparedModule, prepare_source
from repro.core.report import BugReport, CheckResult, EngineStats, Location
from repro.core.summaries import (
    FunctionSummaries,
    RVSummary,
    VFSummary,
    interface_params,
    receiver_for_slot,
    return_slots,
)
from repro.ir import cfg
from repro.ir.callgraph import CallGraph
from repro.lang import ast
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.obs.progress import get_progress
from repro.obs.trace import trace as obs_trace
from repro.robust.budget import ResourceBudget
from repro.robust.diagnostics import (
    REASON_BUDGET,
    REASON_DEADLINE,
    REASON_QUARANTINED,
    REASON_REDUCED_PRECISION,
    STAGE_CHECKER,
    STAGE_SEARCH,
    STAGE_SMT,
    DiagnosticLog,
)
from repro.robust.heap import hold_full_collections
from repro.robust.quarantine import FATAL, Quarantine
import repro.verify as verify_mod
from repro.seg.conditions import ConditionBuilder, Constraint, TRUE_CONSTRAINT
from repro.seg.graph import SEG, def_key, vertex_var
from repro.smt import terms as T
from repro.smt.linear_solver import LinearSolver
from repro.smt.solver import Result, SMTSolver
from repro.smt.terms import Term

log = get_logger("engine")

_CHECK_CACHE_HELP = {
    "hit": "Functions whose check-phase results were replayed from the"
    " session memo",
    "miss": "Functions whose check phase ran live and was recorded",
}


def _format_witness(model, limit: int = 4) -> str:
    """Render up to ``limit`` interesting literals of an SMT model.

    Literals over branch temporaries (``%t…``) or context clones
    (``x.0~3``) are noise for the reader; prefer atoms that only mention
    source-level variables of the reporting function.
    """
    if not model:
        return ""
    literals = []
    seen = set()
    for atom, value in model.items():
        if not atom.is_comparison():
            continue
        names = atom.variables()
        if not names:
            continue
        if any("~" in name or name.startswith("%") or "$" in name for name in names):
            continue
        literal = atom if value else T.not_(atom)
        if literal.ident in seen:
            continue
        seen.add(literal.ident)
        literals.append(str(literal))
        if len(literals) >= limit:
            break
    return " and ".join(literals)


@dataclass
class EngineConfig:
    """Analysis knobs.  Defaults follow the paper's evaluation setup."""

    max_call_depth: int = 6  # nested calling contexts (paper: six levels)
    use_linear_filter: bool = True  # ablation: skip the linear pre-filter
    use_smt: bool = True  # ablation: path-insensitive mode when False
    max_paths_per_source: int = 64  # demand-driven search budget
    # Self-verification mode: ""/off/fast/full ("" defers to the
    # REPRO_VERIFY environment variable at run time).
    verify: str = ""
    # Points-to precision tier prepare_program prepares every function
    # at: fi, or fs (adds the sparse flow-sensitive strong updates).
    pta_tier: str = "fi"

    def __post_init__(self) -> None:
        if self.verify not in ("", "off", "fast", "full"):
            raise ValueError(
                f"verify must be one of off|fast|full, got {self.verify!r}"
            )
        if self.pta_tier not in ("fi", "fs"):
            raise ValueError(
                f"pta_tier must be one of fi|fs, got {self.pta_tier!r}"
            )
        if self.max_call_depth < 1:
            raise ValueError(
                f"max_call_depth must be >= 1, got {self.max_call_depth} "
                "(a depth below 1 silently drops every calling context)"
            )
        if self.max_paths_per_source < 1:
            raise ValueError(
                f"max_paths_per_source must be >= 1, got {self.max_paths_per_source} "
                "(a budget below 1 silently disables every search)"
            )


# ----------------------------------------------------------------------
# Search bookkeeping
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _TraceNode:
    """Linked-list trace of the search; reconstructed into a path."""

    kind: str  # 'vertex' | 'vf1' | 'origin-vf2' | 'origin-vf3'
    payload: tuple
    prev: Optional["_TraceNode"]


@dataclass(frozen=True)
class _Origin:
    """Where the tracked value was born, for reporting."""

    function: str
    line: int
    variable: str
    instr_uid: int
    # Summary that carried the source into this function, if any.
    via_summary: Optional[VFSummary] = None
    via_call: Optional[cfg.Call] = None
    # The SSA variable in the *searching* function that first holds the
    # tracked value.  Checkers with null-is-inert semantics (free(null)
    # is a no-op) require this value to be non-null for a report.
    root_var: str = ""


class PinpointFunction:
    """Per-function analysis state: the SEG the prepare driver built and
    verified for the function, and a :class:`ConditionBuilder` over it."""

    def __init__(self, prepared: PreparedFunction, seg: SEG) -> None:
        self.prepared = prepared
        self.seg = seg
        # One builder per engine: its DD cache cuts loops where the first
        # lookup entered them, so a shared one would make conditions
        # depend on the order earlier runs asked in.
        self.conditions = ConditionBuilder(self.seg, prepared.function)
        # Statement uid -> (block label, index) for happens-after checks,
        # read here so a cold run builds it during engine set-up.
        self.position: Dict[int, Tuple[str, int]] = prepared.statement_index
        self._reach_cache: Dict[str, Set[str]] = {}

    def happens_after(self, first_uid: int, second_uid: int) -> bool:
        """May ``second`` execute after ``first``?  (CFG reachability;
        within one block, instruction order; strict for the same uid)."""
        if first_uid == second_uid:
            return False
        first = self.position.get(first_uid)
        second = self.position.get(second_uid)
        if first is None or second is None:
            return True  # be conservative
        if first[0] == second[0]:
            if second[1] > first[1]:
                return True
            # Same block, earlier index: only via a cycle through the block.
            return first[0] in self._reachable(first[0])
        return second[0] in self._reachable(first[0])

    def _reachable(self, label: str) -> Set[str]:
        cached = self._reach_cache.get(label)
        if cached is not None:
            return cached
        blocks = self.prepared.function.blocks
        seen: Set[str] = set()
        stack = list(blocks[label].succs)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(blocks[current].succs)
        self._reach_cache[label] = seen
        return seen


class Pinpoint:
    """Facade: prepare once, run any number of checkers.

    The prepare driver builds and verifies every function's SEG; a
    function it quarantined there has no SEG, so the engine skips it,
    though calls to it still count as calls to a defined function.  A
    checker run that crashes returns a degraded :class:`CheckResult`
    instead of raising.  An optional
    :class:`~repro.robust.budget.ResourceBudget` bounds wall clock and
    search effort; past it, candidates are decided at reduced precision
    rather than not at all.

    A ``memo`` (a session's, see
    :class:`~repro.core.incremental.IncrementalAnalyzer`) lets checker
    runs replay the record of every function whose prepared artifacts,
    by ``module.digests``, and whose callees' records are unchanged since
    it was stored."""

    @hold_full_collections()
    def __init__(
        self,
        module: PreparedModule,
        config: Optional[EngineConfig] = None,
        budget: Optional[ResourceBudget] = None,
        memo: Optional["CheckMemo"] = None,
    ) -> None:
        start = time.perf_counter()
        self.module = module
        self.config = config or EngineConfig()
        self.budget = budget or ResourceBudget()
        self.budget.start()
        self.diagnostics = module.diagnostics
        self.pta_tier = module.pta_tier
        self.memo = memo
        # The driver's verifier rejects, for --dump-on-verify-fail.
        self.verify_failures = module.verify_failures
        self.verify_mode = verify_mod.resolve_mode(self.config.verify)
        # Functions the driver quarantined at their SEG have none.
        self.functions: Dict[str, PinpointFunction] = {
            name: PinpointFunction(module[name], module.segs[name])
            for name in module.order
            if name in module.segs
        }
        # The function set is final here; every checker run reports these.
        self._seg_size = (
            sum(f.seg.vertex_count() for f in self.functions.values()),
            sum(f.seg.edge_count() for f in self.functions.values()),
        )
        self.update_totals = (
            sum(f.prepared.points_to.strong_updates for f in self.functions.values()),
            sum(f.prepared.points_to.weak_updates for f in self.functions.values()),
        )
        # Each function's processing rank (see _CheckerRun._ranks).
        self.ranks = {name: rank for rank, name in enumerate(module.order)}
        self._scan_keys: Optional[Dict[str, tuple]] = None
        # Set-up is shared by every checker run on this engine, so it is
        # published once here, in the `seg` phase the prepare driver
        # publishes SEG construction in.
        get_registry().counter(
            "engine.seconds", "Engine time by phase (seconds)"
        ).inc(time.perf_counter() - start, phase="seg")

    # ------------------------------------------------------------------
    @classmethod
    def from_source(
        cls,
        source: str,
        config: Optional[EngineConfig] = None,
        budget: Optional[ResourceBudget] = None,
        recover: bool = False,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
    ) -> "Pinpoint":
        """Parse, prepare and index a program.

        ``cache_dir`` persists per-function artifacts across runs, so a
        rerun after a crash recomputes only what the killed run had not
        stored; when it is unset, ``REPRO_CACHE_DIR`` applies.  Reports
        are byte-identical to an uncached, uninterrupted run.

        ``jobs`` is accepted and ignored: preparation runs in this
        process.  The keyword stays only while the repository
        benchmark's ``all-5k-jobs2`` workload passes it."""
        from repro.cache import open_store

        config = config or EngineConfig()
        return cls(
            prepare_source(
                source,
                budget=budget,
                recover=recover,
                verify=config.verify,
                store=open_store(cache_dir),
                pta_tier=config.pta_tier,
            ),
            config,
            budget,
        )

    @classmethod
    def from_program(
        cls,
        program: ast.Program,
        config: Optional[EngineConfig] = None,
        budget: Optional[ResourceBudget] = None,
    ) -> "Pinpoint":
        from repro.core.pipeline import prepare_module

        config = config or EngineConfig()
        return cls(
            prepare_module(
                program,
                budget=budget,
                verify=config.verify,
                pta_tier=config.pta_tier,
            ),
            config,
            budget,
        )

    # ------------------------------------------------------------------
    def seg_size(self) -> Tuple[int, int]:
        """Total SEG (vertices, edges) over the engine's functions."""
        return self._seg_size

    def scan_keys(self) -> Dict[str, tuple]:
        """The key under which a session stores each function's source
        scan: its prepare digest and its defined callees (a call to a
        defined function is never an intrinsic source).  Built once per
        engine, on the first read."""
        if self._scan_keys is None:
            module = self.module
            callees = module.callgraph.callees
            self._scan_keys = {
                name: (
                    digest,
                    frozenset(c for c in callees[name] if c in module.functions),
                )
                for name, digest in module.digests.items()
            }
        return self._scan_keys

    # ------------------------------------------------------------------
    @hold_full_collections()
    def check(self, checker: Checker) -> CheckResult:
        """Run one checker over the whole program.

        Never raises for analysis-internal failures: a crash anywhere in
        the run yields a CheckResult whose diagnostics name what was
        quarantined."""
        progress = get_progress()
        progress.set_stage("checker", checker=checker.name)
        with obs_trace("checker.run", unit=checker.name):
            run = _CheckerRun(self, checker)
            zone = Quarantine(run.diagnostics, STAGE_CHECKER, checker.name)
            with zone:
                result = run.execute()
                progress.checker_done(checker.name, len(result.reports))
                return result
            # The whole run crashed (diagnostic already recorded):
            # salvage whatever was found before the failure.
            run.stats.quarantined_units += 1
            result = run.finish()
            progress.checker_done(checker.name, len(result.reports))
            return result


class CheckMemo:
    """A session's :class:`CheckRecord` tables, per checker and function,
    owned by a long-lived
    :class:`~repro.core.incremental.IncrementalAnalyzer`.

    This is the check-phase half of warm re-checks: the memory tier
    makes re-*preparation* incremental, but a checker run still walks
    every demanded function.  With the memo, unchanged functions replay
    their records and only the edit-invalidated cone is searched for
    real.  The memo also keeps each function's source scan (see
    :meth:`Pinpoint.scan_keys`), which decides the demand set.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Dict[str, CheckRecord]] = {}
        self._scans: Dict[str, Dict[str, tuple]] = {}

    def table(self, checker: str) -> Dict[str, CheckRecord]:
        return self._tables.setdefault(checker, {})

    def scans(self, checker: str) -> Dict[str, tuple]:
        """Function -> (scan key, local sources) for ``checker``."""
        return self._scans.setdefault(checker, {})

    def prune(self, live: Set[str]) -> None:
        """Drop the records and scans of functions no longer in the
        program."""
        for table in (*self._tables.values(), *self._scans.values()):
            for name in [n for n in table if n not in live]:
                del table[name]


class _Attempts(DiagnosticLog):
    """A record's diagnostics, first attempt per key.  The run publishes
    each one when it merges the record, so this log publishes nothing."""

    def add(self, diag) -> None:
        key = (diag.stage, diag.unit, diag.reason, diag.line)
        if key not in self._seen:
            self._seen.add(key)
            self.entries.append(diag)


class _Home:
    """The checker run a record's lazy conditions build in.

    The run is held weakly: a strong reference from the run's own
    summaries would keep every finished run, and its engine, alive until
    a cycle collection.  Conditions hold this and not their record,
    which would close a cycle through the record's summaries."""

    __slots__ = ("run",)

    def __init__(self, run: "_CheckerRun") -> None:
        self.run = weakref.ref(run)


class CheckRecord:
    """One function's check-phase results: its summaries, the reports and
    diagnostics it attempted, and its stats counts.

    A record keeps the first attempt per key, even when an earlier
    function already produced the same key: a (source, sink) pair can be
    derived from more than one function, and a replay of this one must
    not depend on which of them came first.  A checker run merges every
    record it processes; a session stores it in its :class:`CheckMemo`
    under ``key`` and a later run replays it by merging it again.

    Its summary conditions stay lazy.  They build in the run ``home``
    names: the one that processed the function, re-pointed at each run
    that replays it."""

    __slots__ = ("key", "summaries", "reports", "diagnostics", "stats", "home")

    def __init__(self, name: str, key: Optional[str], home: _Home) -> None:
        self.key = key
        self.summaries = FunctionSummaries(name)
        self.reports: Dict[tuple, BugReport] = {}
        self.diagnostics = _Attempts()
        self.stats = EngineStats()
        self.home = home


class _LazyCondition:
    """A summary's condition, built on its first ``.term``, ``.params`` or
    ``.receivers`` read, like the :class:`Constraint` it stands for;
    afterwards only the result is kept.  Most recorded summaries are
    never spliced into a candidate, so most conditions are never built.

    ``kind`` is ``vf`` (the path condition of a searched trace) or ``rv``
    (``DD`` of a returned variable); the run ``home`` names builds it
    from ``args`` (see :meth:`_CheckerRun._build_condition`).  ``prev``
    is the recording function's previous unbuilt VF condition.  A
    function's VF conditions are built in record order, so each one
    draws the context numbers it would have drawn when it was recorded."""

    __slots__ = ("_built", "_home", "_kind", "_args", "_prev")

    def __init__(self, home: _Home, kind: str, args: tuple, prev=None) -> None:
        self._built: Optional[Constraint] = None
        self._home: Optional[_Home] = home
        self._kind = kind
        self._args = args
        self._prev: Optional[_LazyCondition] = prev

    def force(self) -> Constraint:
        if self._built is None:
            chain = []
            node: Optional[_LazyCondition] = self
            while node is not None and node._built is None:
                chain.append(node)
                node = node._prev
            for node in reversed(chain):
                if node._built is None:
                    run = node._home.run()
                    if run is None:
                        raise RuntimeError(
                            "summary condition read after its checker run ended"
                        )
                    node._built = run._build_condition(node._kind, *node._args)
                    node._home = node._args = node._prev = None
        return self._built

    @property
    def term(self) -> Term:
        return self.force().term

    @property
    def params(self):
        return self.force().params

    @property
    def receivers(self):
        return self.force().receivers


def demand_set(callgraph: CallGraph, holders: Set[str]) -> Set[str]:
    """The functions a checker run processes, given the functions
    ``holders`` that hold one of its local sources: U, every function
    from which a holder is reachable (holders included), and D, every
    function reachable from U by a call.

    Every report needs a source in its function's call-graph cone, so it
    is found in U; a function in U or D reads summaries only from its
    callees, which are in D.  So the set is closed under what its
    functions read, and a function outside it could report nothing.
    """
    demand = set(holders)
    for edges in (callgraph.callers, callgraph.callees):
        stack = list(demand)
        while stack:
            for name in edges[stack.pop()]:
                if name not in demand:
                    demand.add(name)
                    stack.append(name)
    return demand


class _CheckerRun:
    """One checker's bottom-up pass (summaries + bug search) over its
    demand set."""

    def __init__(self, engine: Pinpoint, checker: Checker) -> None:
        self.engine = engine
        self.checker = checker
        self.config = engine.config
        self.module = engine.module
        self.budget = engine.budget
        self.linear = LinearSolver()
        self.smt = SMTSolver()
        # Set per function by _process_function: its record, its
        # allocator and its newest unbuilt summary condition.
        self.record: Optional[CheckRecord] = None
        self.contexts: Optional[ContextAllocator] = None
        self._pending: Optional[_LazyCondition] = None
        # Summary conditions built so far, by kind, and session records
        # replayed (hit) or stored (miss); see finish().
        self._forced = {"vf": 0, "rv": 0}
        self._cache = {"hit": 0, "miss": 0}
        # A summary condition built later sees only the callee summaries
        # that existed when it was recorded: those of functions processed
        # no later than the recording one.
        self._ranks = engine.ranks
        self.summaries: Dict[str, FunctionSummaries] = {}
        self.stats = EngineStats()
        self.reports: Dict[tuple, BugReport] = {}
        self.absence_mode = getattr(checker, "absence_mode", False)
        # This run's own degradations; merged with the module-level log
        # (parse/prepare/seg events) into the CheckResult.
        self.diagnostics = DiagnosticLog()
        # Degradation ladder rung 2: once the search budget is
        # exhausted, candidates are still collected but decided
        # path-insensitively (no condition assembly, no solving).
        self.reduced_precision = False
        self._search_start = time.perf_counter()
        # Time spent deciding candidates (linear filter + SMT); finish()
        # publishes it as ``solving`` and the rest of the run as ``search``.
        self._solving_seconds = 0.0
        # The session's records for this checker, and the check keys of
        # the functions processed so far (see _memo_key).  Off whenever
        # results could be time-dependent: a limited budget may degrade
        # mid-run.
        self._memo: Optional[Dict[str, CheckRecord]] = None
        self._memo_keys: Dict[str, str] = {}
        # Each function's local sources, or the exception its scan
        # raised (see _demand), and how many functions the run skips.
        self._sources: Dict[str, object] = {}
        self._skipped = 0
        self._scans: Dict[str, tuple] = {}
        if engine.memo is not None and not self.budget.limited:
            self._memo = engine.memo.table(checker.name)
            self._scans = engine.memo.scans(checker.name)
            config = self.config
            self._memo_config = "|".join(
                (
                    checker.name,
                    str(config.max_call_depth),
                    str(config.use_linear_filter),
                    str(config.use_smt),
                    str(config.max_paths_per_source),
                    engine.verify_mode,
                    engine.pta_tier,
                    str(self.absence_mode),
                )
            )

    # ------------------------------------------------------------------
    def execute(self) -> CheckResult:
        self._search_start = time.perf_counter()
        self.budget.start()
        demand = self._demand()
        for name in self.module.order:
            if name not in demand:
                continue
            zone = Quarantine(self.diagnostics, STAGE_CHECKER, name)
            with zone:
                self._process_function(name)
            if zone.tripped:
                self.stats.quarantined_units += 1
                # It stored no record, so its callers store none either:
                # theirs would refer to its summaries.
                self._memo_keys.pop(name, None)
        return self.finish()

    def _demand(self) -> Set[str]:
        """Scan every function for its local sources and return the
        run's :func:`demand_set`.

        This is the one source scan per function: ``_process_prepared``
        reads its result.  A scan that raises is raised again there,
        inside the function's quarantine zone, so the failure yields the
        diagnostic it always did; meanwhile the function counts as a
        source holder.  A session reuses a function's stored scan while
        its :meth:`Pinpoint.scan_keys` entry is unchanged."""
        defined = self.module.functions
        keys = self.engine.scan_keys() if self._memo is not None else {}
        holders: Set[str] = set()
        for name, pf in self.engine.functions.items():
            key = keys.get(name)
            stored = self._scans.get(name)
            if stored is not None and stored[0] == key:
                found = stored[1]
            else:
                try:
                    found = self.checker.sources(pf.prepared, pf.seg)
                except FATAL:
                    raise
                except Exception as error:
                    self._sources[name] = error
                    holders.add(name)
                    continue
                # Intrinsic specs (free, fgetc, ...) only apply to
                # *external* callees; a defined function's behaviour
                # comes from its summaries, not from its name.
                if found:
                    call_uids = {
                        call.uid for call in pf.seg.call_sites if call.callee in defined
                    }
                    found = [spec for spec in found if spec.instr_uid not in call_uids]
                if key is not None:
                    self._scans[name] = (key, found)
            self._sources[name] = found
            if found:
                holders.add(name)
        demand = demand_set(self.module.callgraph, holders)
        self._skipped = sum(1 for name in self.engine.functions if name not in demand)
        return demand

    def finish(self) -> CheckResult:
        """Assemble the CheckResult from whatever has been computed so
        far (also used to salvage a crashed run)."""
        self.stats.functions = len(self.engine.functions)
        vertices, edges = self.engine.seg_size()
        self.stats.seg_vertices = vertices
        self.stats.seg_edges = edges
        self.stats.reported = len(self.reports)
        self.stats.pta_tier = self.engine.pta_tier
        self.stats.strong_updates, self.stats.weak_updates = self.engine.update_totals
        diagnostics = list(self.engine.diagnostics) + list(self.diagnostics)
        self.stats.quarantined_units += len(
            self.engine.diagnostics.quarantined_units()
        )
        self.stats.publish(self.checker.name)
        registry = get_registry()
        seconds = registry.counter("engine.seconds", "Engine time by phase (seconds)")
        # Disjoint phases: a run record's stages then add up to at most
        # its wall time.
        search = time.perf_counter() - self._search_start - self._solving_seconds
        seconds.inc(search, phase="search", checker=self.checker.name)
        seconds.inc(self._solving_seconds, phase="solving", checker=self.checker.name)
        # Registry counters, not EngineStats fields: a replayed record's
        # conditions are built by whichever later run reads them, so these
        # counts depend on the session's history, and `stats` must not.
        forced = registry.counter(
            "engine.summaries.forced",
            "Summary conditions built because something read them",
        )
        for kind, count in self._forced.items():
            forced.inc(count, checker=self.checker.name, kind=kind)
        registry.counter(
            "engine.demand.skipped",
            "Functions a checker run skipped: no call-graph ancestor"
            " shared with a source",
        ).inc(self._skipped, checker=self.checker.name)
        for outcome, count in self._cache.items():
            if count:  # only a session run has records to replay or store
                registry.counter(
                    f"engine.check_cache.{outcome}", _CHECK_CACHE_HELP[outcome]
                ).inc(count, checker=self.checker.name)
        log.info(
            "checker finished",
            checker=self.checker.name,
            reports=len(self.reports),
            candidates=self.stats.candidates,
            diagnostics=len(diagnostics),
        )
        return CheckResult(
            self.checker.name,
            list(self.reports.values()),
            self.stats,
            diagnostics=diagnostics,
        )

    # ------------------------------------------------------------------
    # One function: a record, processed or replayed, merged into the run
    # ------------------------------------------------------------------
    def _memo_key(self, name: str) -> Optional[str]:
        """The check key of ``name``, or None when it is not memoizable.

        A function's check-phase output is a pure function of

        - the checker + engine configuration,
        - its own prepared artifacts (the prepare digest), and
        - for each call site: whether the callee is defined, and — when
          the callee was processed earlier, so its summaries were
          visible — the callee's own check key (covering the summaries'
          content transitively).

        A callee processed earlier without a key (unmemoizable,
        quarantined at SEG, or crashed in this run) leaves this function
        without one too.  A defined callee processed *later* (a same-SCC
        member later in the rotation) contributed no summaries, only its
        "defined" bit, so an opaque marker suffices.
        """
        digest = self.module.digests.get(name)
        if digest is None:
            return None
        rank = self._ranks[name]
        parts = [self._memo_config, digest]
        for callee in sorted(self.module.callgraph.callees[name]):
            callee_rank = self._ranks.get(callee)
            if callee == name:
                # Self-recursive call: during its own processing a
                # function sees only its in-progress summaries.
                parts.append("self")
            elif callee_rank is None:
                parts.append(f"ext:{callee}")
            elif callee_rank > rank:
                parts.append(f"opaque:{callee}")
            elif callee in self._memo_keys:
                parts.append(self._memo_keys[callee])
            else:
                return None
        return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()

    def _process_function(self, name: str) -> None:
        """Process ``name`` into a record and merge it into the run, or
        merge the session's stored record of it when its key matches."""
        pf = self.engine.functions.get(name)
        if pf is None:
            return  # quarantined at SEG construction
        key = self._memo_key(name) if self._memo is not None else None
        if key is not None:
            self._memo_keys[name] = key
            record = self._memo.get(name)
            if record is not None and record.key == key:
                record.home.run = weakref.ref(self)
                self._cache["hit"] += 1
                self.summaries[name] = record.summaries
                self._merge(record)
                return
        record = self.record = CheckRecord(name, key, _Home(self))
        self.summaries[name] = record.summaries
        # Each function numbers its contexts with its own allocator, so
        # the idents its conditions allocate — and therefore the ``~N``
        # suffixes baked into its summarized conditions and report
        # condition strings — depend only on that function's own
        # artifacts and callee summaries, never on how much work
        # preceded it in the run.  (A lazy condition keeps this
        # allocator, and the function's conditions and candidates draw
        # from it in record order, whenever they are built.)  That
        # history-independence is what lets a session replay a
        # function's record byte-identically.  Suffix *chains* stay
        # unambiguous because clone_term renames every variable of the
        # cloned constraint, so nested clones accumulate ``~i~j`` paths
        # that are unique within the function even though idents
        # restart.
        self.contexts = ContextAllocator()
        self._pending = None
        with obs_trace("checker.fn", unit=name) as span:
            smt, linear = self.smt, self.linear
            before = (smt.queries, smt.deadline_hits, linear.queries)
            try:
                self._process_prepared(pf)
            finally:
                # Solver calls count per record, so a replayed record
                # brings them back like every other count.
                counts = record.stats
                counts.smt_queries = smt.queries - before[0]
                counts.smt_deadline_hits = smt.deadline_hits - before[1]
                counts.linear_queries = linear.queries - before[2]
                # A function that raises leaves its partial results too.
                self._merge(record)
            span.set(smt_queries=counts.smt_queries)
        if key is not None:
            self._memo[name] = record
            self._cache["miss"] += 1

    def _merge(self, record: CheckRecord) -> None:
        """Add one function's record to the run, which keeps the first
        report and diagnostic per key."""
        for key, report in record.reports.items():
            self.reports.setdefault(key, report)
        for diag in record.diagnostics:
            self.diagnostics.add(diag)
        # The counts processing one function makes; finish() sets the rest.
        totals, counts = self.stats, record.stats
        totals.summaries_rv += counts.summaries_rv
        totals.summaries_vf += counts.summaries_vf
        totals.candidates += counts.candidates
        totals.pruned_linear += counts.pruned_linear
        totals.pruned_smt += counts.pruned_smt
        totals.search_steps += counts.search_steps
        totals.summary_hits += counts.summary_hits
        totals.summary_misses += counts.summary_misses
        totals.smt_queries += counts.smt_queries
        totals.smt_deadline_hits += counts.smt_deadline_hits
        totals.linear_queries += counts.linear_queries
        totals.degraded_candidates += counts.degraded_candidates
        totals.quarantined_units += counts.quarantined_units

    def _build_condition(
        self, kind: str, name: str, arg, contexts: Optional[ContextAllocator] = None
    ) -> Constraint:
        """Build a lazy summary condition of function ``name``: ``DD(arg)``
        for an RV summary, the path condition of the trace ``arg`` for a
        VF summary."""
        pf = self.engine.functions[name]
        if kind == "rv":
            built = pf.conditions.dd(arg)
        else:
            built = self._summary_constraint(pf, arg, contexts)
        self._forced[kind] += 1
        return built

    def _process_prepared(self, pf: PinpointFunction) -> None:
        prepared = pf.prepared
        record = self.record
        summaries = record.summaries
        name = summaries.function
        stats = record.stats
        with obs_trace("summaries.rv", unit=name):
            self._build_rv_summaries(pf, summaries)
        lint_after = self.engine.verify_mode == verify_mod.MODE_FULL

        # Intrinsic sink specs only apply to external callees, like the
        # source specs _demand kept.
        defined = self.module.functions
        call_uids = {call.uid for call in pf.seg.call_sites if call.callee in defined}

        # Summary availability at this function's call sites (the
        # engine.summaries.{hit,miss} metric): a miss means the callee is
        # external or quarantined and the call is treated as opaque.
        for call in pf.seg.call_sites:
            if call.callee in self.summaries:
                stats.summary_hits += 1
            else:
                stats.summary_misses += 1

        sinks = {
            spec.vertex: spec
            for spec in self.checker.sinks(prepared, pf.seg)
            if spec.instr_uid not in call_uids
        }
        sources = self._sources[name]
        if isinstance(sources, Exception):
            raise sources

        # (a) parameter-slot searches -> VF1/VF3/VF4 summaries.
        params = interface_params(prepared.function)
        for slot, param in enumerate(params):
            self._search(
                pf,
                summaries,
                start_vertex=def_key(param),
                origin=None,
                param_slot=slot,
                after_uid=None,
                sinks=sinks,
                local_sources=sources,
            )

        # (b) local sources.  In absence mode (memory leak) the report
        # logic inverts: reaching a sink is GOOD, so only the dedicated
        # absence analysis runs.
        for spec in sources:
            if self.absence_mode:
                self._check_absence(pf, spec, sinks)
                continue
            origin = _Origin(
                name, spec.line, spec.value_var, spec.instr_uid,
                root_var=spec.value_var,
            )
            self._search(
                pf,
                summaries,
                start_vertex=def_key(spec.value_var),
                origin=origin,
                param_slot=None,
                after_uid=spec.instr_uid,
                sinks=sinks,
                local_sources=sources,
                origin_trace=_TraceNode("vertex", (name, spec.vertex), None),
                extra_starts=self._backward_closure(pf, spec.value_var),
            )

        # (c) receivers of calls whose callee returns a source-born value
        # (VF2), and (d) actuals whose callee sources them (VF3).
        for call in pf.seg.call_sites if not self.absence_mode else ():
            callee_summaries = self.summaries.get(call.callee)
            if callee_summaries is None:
                continue
            for vf2 in callee_summaries.vf2:
                receiver = receiver_for_slot(call, vf2.ret_slot or 0)
                if receiver is None:
                    continue
                origin = _Origin(
                    vf2.origin_function or vf2.function,
                    vf2.origin_line or vf2.source_line,
                    vf2.origin_var or vf2.source_var,
                    vf2.source_uid,
                    via_summary=vf2,
                    via_call=call,
                    root_var=receiver,
                )
                trace = _TraceNode("origin-vf2", (call, vf2), None)
                self._search(
                    pf,
                    summaries,
                    start_vertex=def_key(receiver),
                    origin=origin,
                    param_slot=None,
                    after_uid=call.uid,
                    sinks=sinks,
                    local_sources=sources,
                    origin_trace=trace,
                )
            for vf3 in callee_summaries.vf3:
                actual = self._actual_for_slot(call, vf3.param_slot or 0)
                if not isinstance(actual, cfg.Var):
                    continue
                origin = _Origin(
                    vf3.origin_function or vf3.function,
                    vf3.origin_line or vf3.sink_line,
                    vf3.origin_var or vf3.sink_var,
                    vf3.sink_uid,
                    via_summary=vf3,
                    via_call=call,
                    root_var=actual.name,
                )
                trace = _TraceNode("origin-vf3", (call, vf3), None)
                self._search(
                    pf,
                    summaries,
                    start_vertex=def_key(actual.name),
                    origin=origin,
                    param_slot=None,
                    after_uid=call.uid,
                    sinks=sinks,
                    local_sources=sources,
                    origin_trace=trace,
                    extra_starts=self._backward_closure(pf, actual.name),
                )

        stats.summaries_rv += len(summaries.rv)
        stats.summaries_vf += (
            len(summaries.vf1) + len(summaries.vf2) + len(summaries.vf3) + len(summaries.vf4)
        )
        if lint_after:
            with verify_mod.timed_verify("summary"), obs_trace(
                "verify.summary", unit=name
            ):
                lints = verify_mod.lint_summaries(summaries, pf)
            if lints:
                verify_mod.record_violations(lints, record.diagnostics)

    # ------------------------------------------------------------------
    # RV summaries
    # ------------------------------------------------------------------
    def _build_rv_summaries(self, pf: PinpointFunction, summaries: FunctionSummaries) -> None:
        function = pf.prepared.function
        for slot, value in enumerate(return_slots(function)):
            if value is None:
                continue
            if isinstance(value, cfg.Var):
                constraint = _LazyCondition(
                    self.record.home, "rv", (function.name, value.name)
                )
            else:
                constraint = TRUE_CONSTRAINT
            summaries.rv[slot] = RVSummary(function.name, slot, value, constraint)

    # ------------------------------------------------------------------
    # Value-flow search
    # ------------------------------------------------------------------
    def _backward_closure(self, pf: PinpointFunction, var: str) -> List[tuple]:
        """Def vertices whose value flows into ``var`` via copy edges —
        the upstream aliases of a source-born value (all of them dangle
        once the value is freed).

        The walk also crosses call junctions backward: a call receiver's
        value came from the actuals the callee's VF1 summaries connect it
        to (``q = id(p)`` makes ``p`` an upstream alias of ``q``).
        """
        start = def_key(var)
        closure = [start]
        seen = {start}
        stack = [start]
        while stack:
            vertex = stack.pop()
            for edge in pf.seg.copy_predecessors(vertex):
                src = edge.src
                if src in seen or src[0] != "def":
                    continue
                seen.add(src)
                closure.append(src)
                stack.append(src)
            # Receiver: map back through the callee's VF1 summaries.
            name = vertex[1] if vertex[0] == "def" else None
            if name is None:
                continue
            call = pf.seg.def_instr.get(name)
            if not isinstance(call, cfg.Call):
                continue
            callee_summaries = self.summaries.get(call.callee)
            if callee_summaries is None:
                continue
            slot = 0 if call.dest == name else None
            if slot is None and name in call.extra_receivers:
                slot = 1 + call.extra_receivers.index(name)
            if slot is None:
                continue
            for vf1 in callee_summaries.vf1:
                if vf1.ret_slot != slot or vf1.param_slot is None:
                    continue
                actual = self._actual_for_slot(call, vf1.param_slot)
                if isinstance(actual, cfg.Var):
                    actual_vertex = def_key(actual.name)
                    if actual_vertex not in seen:
                        seen.add(actual_vertex)
                        closure.append(actual_vertex)
                        stack.append(actual_vertex)
        return closure

    def _search(
        self,
        pf: PinpointFunction,
        summaries: FunctionSummaries,
        start_vertex,
        origin: Optional[_Origin],
        param_slot: Optional[int],
        after_uid: Optional[int],
        sinks: Dict[tuple, SinkSpec],
        local_sources: List[SourceSpec],
        origin_trace: Optional[_TraceNode] = None,
        extra_starts: Optional[List[tuple]] = None,
    ) -> None:
        """DFS over copy edges from ``start_vertex`` (plus any
        ``extra_starts``, e.g. the backward alias closure of a source).

        ``origin`` is set for source-born searches (bug reports possible);
        ``param_slot`` for interface searches (summaries recorded).
        """
        function_name = pf.prepared.function.name
        source_uids = {spec.instr_uid for spec in local_sources}
        source_by_vertex = {spec.vertex: spec for spec in local_sources}
        ret = pf.seg.return_instr
        ret_operands: Dict[tuple, int] = {}
        if ret is not None:
            for slot, operand in enumerate(return_slots(pf.prepared.function)):
                if isinstance(operand, cfg.Var):
                    ret_operands[("use", operand.name, ret.uid)] = slot
        call_by_uid = {call.uid: call for call in pf.seg.call_sites}

        root = origin_trace or _TraceNode("vertex", (function_name, start_vertex), None)
        stack: List[Tuple[tuple, _TraceNode, int]] = [(start_vertex, root, 0)]
        visited: Set[tuple] = {start_vertex}
        for extra in extra_starts or ():
            if extra not in visited:
                visited.add(extra)
                stack.append(
                    (extra, _TraceNode("vertex", (function_name, extra), root), 0)
                )
        endpoints = 0
        stats = self.record.stats

        while stack:
            vertex, trace, hops = stack.pop()
            stats.search_steps += 1
            if not self.budget.spend_steps(1) and not self.reduced_precision:
                # Rung 2 of the degradation ladder: keep walking the SEG
                # (finding candidates is cheap), but stop paying for
                # condition assembly and solving from here on.
                self.reduced_precision = True
                self.record.diagnostics.record(
                    STAGE_SEARCH,
                    function_name,
                    REASON_BUDGET,
                    detail=(
                        "search budget exhausted; remaining candidates "
                        "decided path-insensitively"
                    ),
                )
            if endpoints >= self.config.max_paths_per_source:
                break
            for edge in pf.seg.out_edges.get(vertex, ()):  # noqa: B909
                target = edge.dst
                if not edge.is_copy and not self.checker.through_ops:
                    continue
                if not edge.is_copy:
                    # Traverse operator vertices transparently (taint).
                    if target[0] == "op":
                        for onward in pf.seg.out_edges.get(target, ()):  # noqa: B909
                            if onward.dst not in visited and onward.dst[0] == "def":
                                visited.add(onward.dst)
                                stack.append(
                                    (
                                        onward.dst,
                                        _TraceNode(
                                            "vertex", (function_name, onward.dst), trace
                                        ),
                                        hops + 1,
                                    )
                                )
                    continue
                if target in visited:
                    continue
                visited.add(target)
                new_trace = _TraceNode("vertex", (function_name, target), trace)

                if target[0] == "def":
                    stack.append((target, new_trace, hops + 1))
                    continue

                # Use anchors: endpoints and call/return junctions.
                stmt_uid = target[2]

                # The happens-after filter applies to *endpoints* (sinks
                # and call descents), not to propagation: a copy made
                # before the free still aliases the dangling value.
                ordered = (
                    origin is None
                    or after_uid is None
                    or pf.happens_after(after_uid, stmt_uid)
                )

                sink = sinks.get(target)
                if sink is not None:
                    endpoints += 1
                    if origin is not None:
                        if ordered:
                            self._candidate_local(pf, origin, new_trace, sink)
                    elif param_slot is not None:
                        self._record_vf(
                            summaries, "vf4", pf, param_slot, new_trace, sink=sink
                        )

                source_here = source_by_vertex.get(target)
                if source_here is not None and param_slot is not None:
                    endpoints += 1
                    self._record_vf(
                        summaries, "vf3", pf, param_slot, new_trace, sink=source_here
                    )

                ret_slot = ret_operands.get(target)
                if ret_slot is not None:
                    endpoints += 1
                    if origin is not None:
                        self._record_vf2(summaries, pf, origin, new_trace, ret_slot)
                    elif param_slot is not None:
                        self._record_vf(
                            summaries, "vf1", pf, param_slot, new_trace, ret_slot=ret_slot
                        )

                call = call_by_uid.get(stmt_uid)
                if call is not None and call.callee in self.summaries:
                    arg_slot = self._arg_slot(call, target[1])
                    if arg_slot is not None:
                        self._through_call(
                            pf,
                            summaries,
                            call,
                            arg_slot,
                            origin if ordered else None,
                            param_slot,
                            new_trace,
                            stack,
                            visited,
                            hops,
                        )

    # ------------------------------------------------------------------
    def _arg_slot(self, call: cfg.Call, var_name: str) -> Optional[int]:
        for index, arg in enumerate(call.args):
            if isinstance(arg, cfg.Var) and arg.name == var_name:
                return index
        return None

    def _actual_for_slot(self, call: cfg.Call, slot: int) -> Optional[cfg.Operand]:
        if slot < len(call.args):
            return call.args[slot]
        return None

    def _through_call(
        self,
        pf: PinpointFunction,
        summaries: FunctionSummaries,
        call: cfg.Call,
        arg_slot: int,
        origin: Optional[_Origin],
        param_slot: Optional[int],
        trace: _TraceNode,
        stack,
        visited,
        hops: int,
    ) -> None:
        callee_summaries = self.summaries[call.callee]
        function_name = pf.prepared.function.name

        # VF4 in the callee: tracked value reaches a sink inside.
        for vf4 in callee_summaries.vf4_from(arg_slot):
            if origin is not None:
                self._candidate_via_callee(pf, origin, trace, call, vf4)
            elif param_slot is not None:
                self._record_vf(
                    summaries,
                    "vf4",
                    pf,
                    param_slot,
                    _TraceNode("vf1", (call, vf4), trace),
                    nested=vf4,
                )

        # VF3 in the callee, seen from a parameter search: the parameter's
        # value is sourced deeper down -> transitive VF3.
        if param_slot is not None:
            for vf3 in callee_summaries.vf3_from(arg_slot):
                self._record_vf(
                    summaries,
                    "vf3",
                    pf,
                    param_slot,
                    _TraceNode("vf1", (call, vf3), trace),
                    nested=vf3,
                )

        # VF1: value flows through the callee back to a receiver.
        for vf1 in callee_summaries.vf1_from(arg_slot):
            receiver = receiver_for_slot(call, vf1.ret_slot or 0)
            if receiver is None:
                continue
            receiver_vertex = def_key(receiver)
            if receiver_vertex in visited:
                continue
            visited.add(receiver_vertex)
            jump = _TraceNode("vf1", (call, vf1), trace)
            stack.append(
                (
                    receiver_vertex,
                    _TraceNode("vertex", (function_name, receiver_vertex), jump),
                    hops + 1,
                )
            )

    # ------------------------------------------------------------------
    # Summary recording
    # ------------------------------------------------------------------
    def _trace_vertices(self, trace: _TraceNode) -> List[tuple]:
        """Trace nodes oldest-first."""
        nodes = []
        node: Optional[_TraceNode] = trace
        while node is not None:
            nodes.append(node)
            node = node.prev
        nodes.reverse()
        return nodes

    def _assemble(
        self, pf: PinpointFunction, trace: _TraceNode, contexts: ContextAllocator
    ) -> Term:
        """Assemble the global condition of a trace (Eqs. 1-3), drawing
        its clone contexts from ``contexts``."""
        pieces: List[Term] = []
        receiver_queue: List[Tuple[str, str, Optional[Context]]] = []
        current_run: List[tuple] = []
        run_function = pf.prepared.function.name

        def flush_run():
            nonlocal current_run
            if not current_run:
                return
            constraint = pf.conditions.pc(current_run)
            pieces.append(constraint.term)
            for receiver in constraint.receivers:
                receiver_queue.append((run_function, receiver, None))
            current_run = []

        for node in self._trace_vertices(trace):
            if node.kind == "vertex":
                current_run.append(node.payload[1])
            else:  # a 'vf1' jump, or the 'origin-*' root of the trace
                flush_run()
                call, summary = node.payload
                self._splice_summary(pf, call, summary, pieces, receiver_queue, contexts)
        flush_run()

        # Resolve surfaced receivers (Eq. 2); root parameters stay free.
        return self._resolve(
            T.and_(*pieces), receiver_queue, contexts, self._ranks[run_function]
        )

    def _splice_summary(
        self,
        pf: PinpointFunction,
        call: cfg.Call,
        summary: VFSummary,
        pieces: List[Term],
        receiver_queue: List[Tuple[str, str, Optional[Context]]],
        contexts: ContextAllocator,
    ) -> None:
        """Clone a callee VF summary into a fresh context and add the
        junction equalities of Equation (3)."""
        context = contexts.new(summary.function, call, None)
        if context.depth > self.config.max_call_depth:
            return
        cloned = clone_term(summary.constraint.term, context)
        pieces.append(cloned)

        # The call statement itself must be reachable: its control
        # dependence in the caller joins the condition (crucial for
        # origin splices, whose trace has no caller-side vertex at the
        # call to anchor CD through the local PC).
        call_cd = pf.conditions.cd(call.uid)
        pieces.append(call_cd.term)
        for receiver in call_cd.receivers:
            receiver_queue.append((pf.prepared.function.name, receiver, None))

        callee_pf = self.engine.functions.get(summary.function)
        callee_fn = callee_pf.prepared.function if callee_pf else None

        # Bind the callee's parameter dependencies to this call's actuals.
        if callee_fn is not None:
            iface = interface_params(callee_fn)
            slot_of = {name: i for i, name in enumerate(iface)}
            bind_params = set(summary.constraint.params)
            if summary.param_slot is not None and summary.param_slot < len(iface):
                bind_params.add(iface[summary.param_slot])
            for param in bind_params:
                slot = slot_of.get(param)
                if slot is None or slot >= len(call.args):
                    continue
                actual = call.args[slot]
                renamed_param = ctx_ivar(param, context)
                if isinstance(actual, cfg.Var):
                    pieces.append(T.eq(renamed_param, T.int_var(actual.name)))
                    pieces.append(
                        T.iff(ctx_bvar(param, context), T.bool_var(actual.name))
                    )
                    caller_dd = pf.conditions.dd(actual.name)
                    pieces.append(caller_dd.term)
                    for r2 in caller_dd.receivers:
                        receiver_queue.append(
                            (pf.prepared.function.name, r2, None)
                        )
                else:
                    pieces.append(T.eq(renamed_param, T.const(actual.value)))

            # Return junction: callee's returned value == caller receiver.
            if summary.ret_slot is not None:
                slots = return_slots(callee_fn)
                if summary.ret_slot < len(slots):
                    value = slots[summary.ret_slot]
                    receiver = receiver_for_slot(call, summary.ret_slot)
                    if receiver is not None and value is not None:
                        if isinstance(value, cfg.Var):
                            pieces.append(
                                T.eq(ctx_ivar(value.name, context), T.int_var(receiver))
                            )
                            pieces.append(
                                T.iff(
                                    ctx_bvar(value.name, context), T.bool_var(receiver)
                                )
                            )
                        else:
                            pieces.append(
                                T.eq(T.int_var(receiver), T.const(value.value))
                            )
        # The summary's own receiver deps were resolved when it was
        # built; nothing further to enqueue for it.

    def _resolve(
        self,
        term: Term,
        receiver_queue: List[Tuple[str, str, Optional[Context]]],
        contexts: ContextAllocator,
        rank: int,
    ) -> Term:
        """Resolve receiver dependencies via RV summaries (Eq. 2).

        Root-context parameters stay free variables.  Receivers are
        expanded by cloning the callee's RV summary and binding its
        parameters to the call's actuals, recursively, bounded by the
        context depth limit.  Only the summaries of functions processed
        no later than the one of processing rank ``rank`` count: those
        are the summaries that existed when its condition was recorded.
        """
        pieces: List[Term] = [term]
        processed: Set[Tuple[str, str, Optional[Context]]] = set()
        queue = list(receiver_queue)
        while queue:
            func_name, receiver, context = queue.pop()
            key = (func_name, receiver, context)
            if key in processed:
                continue
            processed.add(key)
            pf = self.engine.functions.get(func_name)
            if pf is None:
                continue
            call = pf.seg.def_instr.get(receiver)
            if not isinstance(call, cfg.Call):
                continue
            callee_summaries = self.summaries.get(call.callee)
            callee_pf = self.engine.functions.get(call.callee)
            if (
                callee_summaries is None
                or callee_pf is None
                or self._ranks[call.callee] > rank
            ):
                continue
            slot = 0 if call.dest == receiver else None
            if slot is None:
                try:
                    slot = 1 + call.extra_receivers.index(receiver)
                except ValueError:
                    continue
            rv = callee_summaries.rv.get(slot)
            if rv is None:
                continue
            new_context = contexts.new(call.callee, call, context)
            if new_context.depth > self.config.max_call_depth:
                continue
            cloned = clone_term(rv.constraint.term, new_context)
            receiver_term = ctx_ivar(receiver, context)
            receiver_bool = ctx_bvar(receiver, context)
            if isinstance(rv.value, cfg.Var):
                pieces.append(T.eq(receiver_term, ctx_ivar(rv.value.name, new_context)))
                pieces.append(T.iff(receiver_bool, ctx_bvar(rv.value.name, new_context)))
            else:
                pieces.append(T.eq(receiver_term, T.const(rv.value.value)))
            pieces.append(cloned)
            # Bind the RV summary's parameters to this call's actuals.
            callee_fn = callee_pf.prepared.function
            iface = interface_params(callee_fn)
            slot_of = {name: i for i, name in enumerate(iface)}
            for param in rv.constraint.params:
                pslot = slot_of.get(param)
                if pslot is None or pslot >= len(call.args):
                    continue
                actual = call.args[pslot]
                renamed = ctx_ivar(param, new_context)
                if isinstance(actual, cfg.Var):
                    pieces.append(T.eq(renamed, ctx_ivar(actual.name, context)))
                    pieces.append(
                        T.iff(ctx_bvar(param, new_context), ctx_bvar(actual.name, context))
                    )
                    caller_dd = pf.conditions.dd(actual.name)
                    pieces.append(clone_term(caller_dd.term, context))
                    for r2 in caller_dd.receivers:
                        queue.append((func_name, r2, context))
                else:
                    pieces.append(T.eq(renamed, T.const(actual.value)))
        return T.and_(*pieces)

    # ------------------------------------------------------------------
    def _record_vf(
        self,
        summaries: FunctionSummaries,
        kind: str,
        pf: PinpointFunction,
        param_slot: int,
        trace: _TraceNode,
        sink: Optional[SinkSpec] = None,
        ret_slot: Optional[int] = None,
        nested: Optional[VFSummary] = None,
    ) -> None:
        self._record(
            summaries, kind, pf, trace,
            param_slot=param_slot,
            ret_slot=ret_slot,
            sink_line=sink.line if sink else (nested.sink_line if nested else 0),
            sink_var=sink.value_var if sink else (nested.sink_var if nested else ""),
            sink_uid=sink.instr_uid if sink else (nested.sink_uid if nested else 0),
            origin_function=nested.origin_function or nested.function if nested else "",
            origin_line=(nested.origin_line or nested.sink_line) if nested else 0,
            origin_var=(nested.origin_var or nested.sink_var) if nested else "",
        )

    def _record_vf2(
        self,
        summaries: FunctionSummaries,
        pf: PinpointFunction,
        origin: _Origin,
        trace: _TraceNode,
        ret_slot: int,
    ) -> None:
        self._record(
            summaries, "vf2", pf, trace,
            ret_slot=ret_slot,
            source_line=origin.line,
            source_var=origin.variable,
            source_uid=origin.instr_uid,
            origin_function=origin.function,
            origin_line=origin.line,
            origin_var=origin.variable,
        )

    def _record(
        self, summaries: FunctionSummaries, kind: str, pf: PinpointFunction,
        trace: _TraceNode, **anchors,
    ) -> None:
        """Append a ``kind`` summary of the searched path ``trace``.

        Its condition is built on first read.  Reduced precision is
        decided here, at record time: past the search budget the summary
        keeps its linking structure with a ``true`` condition (sound,
        path-insensitive)."""
        if self.reduced_precision:
            constraint = TRUE_CONSTRAINT
        else:
            constraint = self._pending = _LazyCondition(
                self.record.home,
                "vf",
                (pf.prepared.function.name, trace, self.contexts),
                self._pending,
            )
        path = tuple(
            node.payload[1]
            for node in self._trace_vertices(trace)
            if node.kind == "vertex"
        )
        getattr(summaries, kind).append(
            VFSummary(
                kind=kind,
                function=pf.prepared.function.name,
                path=path,
                constraint=constraint,
                **anchors,
            )
        )

    def _summary_constraint(
        self, pf: PinpointFunction, trace: _TraceNode, contexts: ContextAllocator
    ) -> Constraint:
        """PC of a summarized path: assembled like a candidate (nested
        summaries spliced, receivers resolved), parameters kept free."""
        term = self._assemble(pf, trace, contexts)
        # Recover the parameter set: free interface variables of this
        # function occurring in the term.
        iface = set(interface_params(pf.prepared.function))
        params = frozenset(name for name in term.variables() if name in iface)
        return Constraint(term, params=params)

    # ------------------------------------------------------------------
    # Candidates -> reports
    # ------------------------------------------------------------------
    def _nonnull_source_term(self, pf: PinpointFunction, origin: _Origin) -> Term:
        """For checkers where a null tracked value is inert (free(null)
        is a no-op): the tracked value must be non-null, together with
        its defining constraints (so an undefined/zero value rules the
        candidate out)."""
        if not getattr(self.checker, "null_inert", False) or not origin.root_var:
            return T.TRUE
        dd = pf.conditions.dd(origin.root_var)
        term = T.and_(
            dd.term, T.ne(T.int_var(origin.root_var), T.const(0))
        )
        if dd.receivers:
            name = pf.prepared.function.name
            term = self._resolve(
                term,
                [(name, r, None) for r in dd.receivers],
                self.contexts,
                self._ranks[name],
            )
        return term

    def _candidate_constraint(
        self, pf: PinpointFunction, origin: _Origin, trace: _TraceNode
    ) -> Constraint:
        """A candidate's global condition.

        The function's pending summary conditions are built first, in
        record order: the contexts this assembly allocates then get the
        same numbers as if every condition had been built when it was
        recorded."""
        if self.reduced_precision:
            return TRUE_CONSTRAINT
        if self._pending is not None:
            self._pending.force()
            self._pending = None
        term = self._assemble(pf, trace, self.contexts)
        return Constraint(T.and_(term, self._nonnull_source_term(pf, origin)))

    def _candidate_local(
        self, pf: PinpointFunction, origin: _Origin, trace: _TraceNode, sink: SinkSpec
    ) -> None:
        self.record.stats.candidates += 1
        constraint = self._candidate_constraint(pf, origin, trace)
        self._decide_and_report(pf, origin, trace, sink.line, sink.value_var, constraint)

    def _candidate_via_callee(
        self,
        pf: PinpointFunction,
        origin: _Origin,
        trace: _TraceNode,
        call: cfg.Call,
        vf4: VFSummary,
    ) -> None:
        self.record.stats.candidates += 1
        full_trace = _TraceNode("vf1", (call, vf4), trace)
        constraint = self._candidate_constraint(pf, origin, full_trace)
        sink_function = vf4.origin_function or vf4.function
        sink_line = vf4.origin_line or vf4.sink_line
        sink_var = vf4.origin_var or vf4.sink_var
        self._decide_and_report(
            pf, origin, full_trace, sink_line, sink_var, constraint,
            sink_function=sink_function,
        )

    def _checked_smt(self, term: Term, function_name: str, sink_line: int) -> Result:
        """One SMT query under the budget's per-query deadline, with the
        degradation ladder applied:

        - deadline exceeded → rung 1: fall back to the linear solver's
          verdict (prune if it proves UNSAT, otherwise UNKNOWN);
        - solver crash → quarantine the query, same linear fallback.
        """
        try:
            answer = self.smt.check(term, deadline=self.budget.smt_deadline())
        except (KeyboardInterrupt, SystemExit, MemoryError):
            raise
        except Exception as error:
            self.record.diagnostics.record(
                STAGE_SMT,
                function_name,
                REASON_QUARANTINED,
                detail=f"{type(error).__name__}: {error}",
                line=sink_line,
            )
            self.record.stats.quarantined_units += 1
            return self._linear_fallback(term)
        if answer is Result.UNKNOWN and self.smt.last_unknown_reason == "deadline":
            self.record.diagnostics.record(
                STAGE_SMT,
                function_name,
                REASON_DEADLINE,
                detail="SMT deadline exceeded; using linear solver's verdict",
                line=sink_line,
            )
            return self._linear_fallback(term)
        return answer

    def _linear_fallback(self, term: Term) -> Result:
        if self.linear.is_obviously_unsat(term):
            return Result.UNSAT
        return Result.UNKNOWN

    def _decide_and_report(
        self,
        pf: PinpointFunction,
        origin: _Origin,
        trace: _TraceNode,
        sink_line: int,
        sink_var: str,
        constraint: Constraint,
        sink_function: Optional[str] = None,
    ) -> None:
        start = time.perf_counter()
        term = constraint.term
        verdict = "sat"
        witness = ""
        function_name = pf.prepared.function.name
        record = self.record
        if self.reduced_precision:
            # Rung 2: budget exhausted — report the candidate without
            # solving.  "unknown" keeps it visible while flagging the
            # reduced confidence.
            verdict = "unknown"
            record.stats.degraded_candidates += 1
            record.diagnostics.record(
                STAGE_SEARCH,
                function_name,
                REASON_REDUCED_PRECISION,
                detail="candidate reported without path-condition solving",
                line=sink_line,
            )
        else:
            if self.config.use_linear_filter and self.linear.is_obviously_unsat(term):
                record.stats.pruned_linear += 1
                self._solving_seconds += time.perf_counter() - start
                return
            if self.config.use_smt:
                answer = self._checked_smt(term, function_name, sink_line)
                if answer is Result.UNSAT:
                    record.stats.pruned_smt += 1
                    self._solving_seconds += time.perf_counter() - start
                    return
                if answer is Result.UNKNOWN:
                    verdict = "unknown"
                else:
                    witness = _format_witness(self.smt.last_model)
        self._solving_seconds += time.perf_counter() - start

        path = []
        for node in self._trace_vertices(trace):
            if node.kind != "vertex":
                continue
            func, vertex = node.payload
            var = vertex_var(vertex)
            if var is None:
                continue
            engine_pf = self.engine.functions.get(func)
            line = 0
            if engine_pf is not None:
                instr = engine_pf.seg.def_instr.get(var)
                if vertex[0] == "use":
                    instr = engine_pf.seg.instr_by_uid.get(vertex[2], instr)
                if instr is not None:
                    line = instr.line
            path.append(Location(func, line, var))

        report = BugReport(
            checker=self.checker.name,
            source=Location(origin.function, origin.line, origin.variable),
            sink=Location(
                sink_function or pf.prepared.function.name, sink_line, sink_var
            ),
            path=tuple(path),
            condition=str(term) if len(str(term)) < 400 else "...",
            verdict=verdict,
            witness=witness,
        )
        record.reports.setdefault(report.key(), report)

    # ------------------------------------------------------------------
    # Absence mode (memory leak)
    # ------------------------------------------------------------------
    def _check_absence(
        self, pf: PinpointFunction, spec: SourceSpec, sinks: Dict[tuple, SinkSpec]
    ) -> None:
        """Leak detection: report a source whose value reaches neither a
        release sink nor an escape point."""
        function = pf.prepared.function
        ret = pf.seg.return_instr
        ret_uids = {ret.uid} if ret is not None else set()
        call_uids = {c.uid: c for c in pf.seg.call_sites}

        stack = [def_key(spec.value_var)]
        visited = {def_key(spec.value_var)}
        while stack:
            vertex = stack.pop()
            for edge in pf.seg.out_edges.get(vertex, ()):  # noqa: B909
                target = edge.dst
                if not edge.is_copy or target in visited:
                    continue
                visited.add(target)
                if target[0] == "def":
                    stack.append(target)
                    continue
                stmt_uid = target[2]
                if target in sinks:
                    return  # released
                if stmt_uid in ret_uids:
                    return  # escapes via return
                call = call_uids.get(stmt_uid)
                if call is not None:
                    callee_summaries = self.summaries.get(call.callee)
                    slot = self._arg_slot(call, target[1])
                    if callee_summaries is None:
                        return  # unknown callee: assume it takes ownership
                    if slot is not None and callee_summaries.vf4_from(slot):
                        # For this checker sinks are the releases, so a
                        # param-to-sink summary means the callee frees it.
                        return
                    if slot is not None and callee_summaries.vf1_from(slot):
                        # flows back; keep following via receiver
                        for vf1 in callee_summaries.vf1_from(slot):
                            receiver = receiver_for_slot(call, vf1.ret_slot or 0)
                            if receiver is not None:
                                rv = def_key(receiver)
                                if rv not in visited:
                                    visited.add(rv)
                                    stack.append(rv)
                        continue
                    continue
                instr = pf.seg.instr_by_uid.get(stmt_uid)
                if isinstance(instr, cfg.Store) and not instr.synthetic:
                    if isinstance(instr.value, cfg.Var) and instr.value.name == target[1]:
                        # Stored into memory; if that memory is
                        # caller-visible the value escapes.  Soundy: any
                        # store counts as a potential escape unless the
                        # target is a local allocation that itself leaks.
                        targets = pf.prepared.points_to.store_targets.get(stmt_uid, ())
                        from repro.pta.memory import AuxObject

                        if any(isinstance(obj, AuxObject) for obj, _ in targets):
                            return
                if isinstance(instr, cfg.Store) and instr.synthetic:
                    return  # written back through a connector: escapes
                if isinstance(instr, cfg.Ret):
                    return
        # Nothing released or escaped: leak.
        self.record.stats.candidates += 1
        report = BugReport(
            checker=self.checker.name,
            source=Location(function.name, spec.line, spec.value_var),
            sink=Location(function.name, spec.line, spec.value_var),
            path=(Location(function.name, spec.line, spec.value_var),),
            condition="true",
            verdict="sat",
        )
        self.record.reports.setdefault(report.key(), report)
