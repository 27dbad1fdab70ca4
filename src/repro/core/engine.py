"""The Pinpoint engine: demand-driven, compositional global value-flow
analysis (paper Section 3.3).

One bottom-up pass over the call graph per checker.  For each function:

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
from repro.ir.dominance import dominators
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
    STAGE_SEG,
    STAGE_SMT,
    DiagnosticLog,
)
from repro.robust.faults import fault_point
from repro.robust.quarantine import Quarantine
import repro.verify as verify_mod
from repro.seg.builder import build_seg
from repro.seg.conditions import ConditionBuilder, Constraint, TRUE_CONSTRAINT
from repro.seg.graph import SEG, def_key, vertex_var
from repro.smt import terms as T
from repro.smt.linear_solver import LinearSolver
from repro.smt.solver import Result, SMTSolver
from repro.smt.terms import Term

log = get_logger("engine")


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
    max_reports_per_function: int = 32
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
        if self.max_reports_per_function < 1:
            raise ValueError(
                f"max_reports_per_function must be >= 1, "
                f"got {self.max_reports_per_function}"
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
    """Per-function analysis state: SEG + condition builder + dominance."""

    def __init__(self, prepared: PreparedFunction, seg: Optional[SEG] = None) -> None:
        self.prepared = prepared
        # A prebuilt SEG (scheduler worker or artifact cache) is adopted
        # as-is; build_seg is deterministic, so both paths agree.
        self.seg: SEG = seg if seg is not None else build_seg(prepared)
        self.conditions = ConditionBuilder(self.seg, prepared.function)
        self.dom = dominators(prepared.function)
        # Statement uid -> (block label, index) for happens-after checks.
        self.position: Dict[int, Tuple[str, int]] = {}
        for label in prepared.function.block_order():
            block = prepared.function.blocks[label]
            for index, instr in enumerate(block.all_instrs()):
                self.position[instr.uid] = (label, index)
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

    A function whose SEG construction fails is quarantined (dropped with
    a diagnostic); a checker run that crashes returns a degraded
    :class:`CheckResult` instead of raising.  An optional
    :class:`~repro.robust.budget.ResourceBudget` bounds wall clock and
    search effort; past it, candidates are decided at reduced precision
    rather than not at all."""

    def __init__(
        self,
        module: PreparedModule,
        config: Optional[EngineConfig] = None,
        budget: Optional[ResourceBudget] = None,
    ) -> None:
        self.module = module
        self.config = config or EngineConfig()
        self.budget = budget or ResourceBudget()
        self.budget.start()
        self.diagnostics = module.diagnostics
        self.pta_tier = module.pta_tier
        # Session-level check memo (set by IncrementalAnalyzer): lets a
        # checker run replay per-function results for functions whose
        # prepared artifacts AND transitive callee check-results are
        # unchanged since the previous run.  ``prepare_digests`` maps
        # function name -> digest of its prepare cache key.
        self.check_memo: Optional["CheckMemo"] = None
        self.prepare_digests: Dict[str, str] = {}
        self.functions: Dict[str, PinpointFunction] = {}
        # Artifacts quarantined by the verifier — ('cfg', Function) from
        # the IR pass, ('seg', SEG) from here — for --dump-on-verify-fail.
        self.verify_failures: Dict[str, tuple] = dict(module.verify_failures)
        self.verify_mode = verify_mod.resolve_mode(self.config.verify)
        get_progress().set_stage("seg", functions=len(module.order))
        start = time.perf_counter()
        for name in module.order:
            zone = Quarantine(self.diagnostics, STAGE_SEG, name)
            with zone:
                # The fault point fires even with a prebuilt SEG so
                # injected `seg` faults behave identically under
                # --jobs N / --cache-dir.
                fault_point("seg", name)
                pf = PinpointFunction(module[name], seg=module.segs.get(name))
            if zone.tripped:
                continue
            if self.verify_mode != verify_mod.MODE_OFF:
                with verify_mod.timed_verify("seg"), obs_trace(
                    "verify.seg", unit=name
                ):
                    violations = verify_mod.verify_seg(pf.seg, module[name])
                if violations:
                    errors = verify_mod.record_violations(
                        violations, self.diagnostics
                    )
                    if errors:
                        self.verify_failures[name] = ("seg", pf.seg)
                        continue
            self.functions[name] = pf
        if self.verify_mode == verify_mod.MODE_FULL:
            with verify_mod.timed_verify("call"), obs_trace(
                "verify.call", unit="<module>"
            ):
                violations = verify_mod.verify_call_interfaces(module)
            if violations:
                errors = verify_mod.record_violations(violations, self.diagnostics)
                for violation in errors:
                    dropped = self.functions.pop(violation.unit, None)
                    if dropped is not None:
                        self.verify_failures.setdefault(
                            violation.unit, ("seg", dropped.seg)
                        )
        self.seg_seconds = time.perf_counter() - start
        # Prepare and SEG work is shared by every checker run on this
        # engine, so it is published once here, not per checker.
        seconds = get_registry().counter(
            "engine.seconds", "Engine time by phase (seconds)"
        )
        seconds.inc(module.seconds, phase="prepare")
        seconds.inc(self.seg_seconds, phase="seg")

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
        worker_timeout: float = 0.0,
    ) -> "Pinpoint":
        """Parse, prepare and index a program.

        ``jobs > 1`` prepares call-graph waves on a process pool;
        ``cache_dir`` persists per-function artifacts across runs, so a
        rerun after a crash recomputes only what the killed run had not
        stored.  When either is left unset, the ``REPRO_JOBS`` /
        ``REPRO_CACHE_DIR`` environment variables apply (an explicit
        ``jobs=1`` wins over the environment).  Reports are
        byte-identical to a serial, uncached, uninterrupted run."""
        from repro.cache import open_store
        from repro.sched import resolve_jobs

        config = config or EngineConfig()
        return cls(
            prepare_source(
                source,
                budget=budget,
                recover=recover,
                verify=config.verify,
                jobs=resolve_jobs(jobs),
                store=open_store(cache_dir),
                worker_timeout=worker_timeout,
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
        vertices = sum(f.seg.vertex_count() for f in self.functions.values())
        edges = sum(f.seg.edge_count() for f in self.functions.values())
        return vertices, edges

    # ------------------------------------------------------------------
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


@dataclass
class CheckMemoEntry:
    """One function's recorded check-phase results.

    Valid exactly while ``key`` matches: the key chains the function's
    prepare digest with the check keys of every callee whose summaries
    were visible during its processing, so any change in its own
    artifacts or anywhere below it in the call graph produces a
    different key and forces a live re-run.
    """

    key: str
    summaries: FunctionSummaries
    reports: List[BugReport]
    diagnostics: List  # Diagnostic attempts made while processing
    stats_delta: Dict[str, float]


class CheckMemo:
    """Per-checker tables of :class:`CheckMemoEntry`, owned by a
    long-lived :class:`~repro.core.incremental.IncrementalAnalyzer`.

    This is the check-phase half of warm re-checks: the prepare cache
    alone makes re-*preparation* incremental, but a checker run still
    walks every function.  With the memo, unchanged functions replay
    their summaries/reports/diagnostics in microseconds and only the
    edit-invalidated cone is searched for real — which is what takes a
    single-function edit re-check from "proportional to program size"
    to millisecond-class.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Dict[str, CheckMemoEntry]] = {}

    def table(self, checker: str) -> Dict[str, CheckMemoEntry]:
        return self._tables.setdefault(checker, {})

    def invalidate(self, name: Optional[str] = None) -> None:
        if name is None:
            self._tables.clear()
            return
        for table in self._tables.values():
            table.pop(name, None)

    def prune(self, live: Set[str]) -> None:
        """Drop entries for functions no longer in the program."""
        for table in self._tables.values():
            for name in [n for n in table if n not in live]:
                del table[name]

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())


class _CaptureLog(DiagnosticLog):
    """Tees diagnostics to the run log while keeping this function's own
    attempt list (pre-dedup) for the check memo.

    Recording *attempts* rather than "what the run log actually
    appended" matters: a diagnostic this function raises may have been
    deduplicated away because an earlier function already raised the
    same key — but on a later warm run where that earlier function was
    edited and no longer raises it, the replay must still surface this
    function's attempt, exactly as a cold run would.
    """

    def __init__(self, target: DiagnosticLog) -> None:
        super().__init__()
        self._target = target

    def add(self, diag) -> None:
        key = (diag.stage, diag.unit, diag.reason, diag.line)
        if key not in self._seen:
            self._seen.add(key)
            self.entries.append(diag)
        # Metrics and run-level dedup stay the target's business.
        self._target.add(diag)


class _TeeReports:
    """Stands in for the run's report dict while one function records.

    Inserts are forwarded to the real dict, but every distinct attempted
    key is also kept — even when run-level dedup makes the insert a
    no-op, because a (source, sink) pair can be derivable from more than
    one processing function and the replay of *this* function must not
    depend on which other function got there first (same rationale as
    :class:`_CaptureLog`).
    """

    def __init__(self, target: Dict[tuple, BugReport]) -> None:
        self._target = target
        self._seen: Set[tuple] = set()
        self.attempts: List[BugReport] = []

    def setdefault(self, key: tuple, report: BugReport) -> BugReport:
        if key not in self._seen:
            self._seen.add(key)
            self.attempts.append(report)
        return self._target.setdefault(key, report)


class _CheckerRun:
    """One checker's bottom-up pass (summaries + bug search)."""

    def __init__(self, engine: Pinpoint, checker: Checker) -> None:
        self.engine = engine
        self.checker = checker
        self.config = engine.config
        self.module = engine.module
        self.budget = engine.budget
        self.linear = LinearSolver()
        self.smt = SMTSolver()
        self.contexts = ContextAllocator()
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
        # Session check memo (only under an IncrementalAnalyzer).  Off
        # whenever results could be time-dependent: a limited budget may
        # degrade mid-run.
        self._memo_table: Optional[Dict[str, CheckMemoEntry]] = None
        if (
            engine.check_memo is not None
            and engine.prepare_digests
            and not self.budget.limited
        ):
            self._memo_table = engine.check_memo.table(checker.name)
        self._memo_keys: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def execute(self) -> CheckResult:
        self._search_start = time.perf_counter()
        self.budget.start()
        if self._memo_table is not None:
            self._compute_memo_keys()
        for name in self.module.order:
            zone = Quarantine(self.diagnostics, STAGE_CHECKER, name)
            with zone:
                self._process_function(name)
            if zone.tripped:
                self.stats.quarantined_units += 1
        return self.finish()

    def finish(self) -> CheckResult:
        """Assemble the CheckResult from whatever has been computed so
        far (also used to salvage a crashed run)."""
        self.stats.functions = len(self.engine.functions)
        vertices, edges = self.engine.seg_size()
        self.stats.seg_vertices = vertices
        self.stats.seg_edges = edges
        self.stats.seconds_prepare = self.module.seconds
        self.stats.seconds_seg = self.engine.seg_seconds
        self.stats.seconds_search = time.perf_counter() - self._search_start
        self.stats.smt_queries = self.smt.queries
        self.stats.smt_deadline_hits = self.smt.deadline_hits
        self.stats.linear_queries = self.linear.queries
        self.stats.reported = len(self.reports)
        self.stats.pta_tier = self.engine.pta_tier
        self.stats.strong_updates = sum(
            pf.prepared.points_to.strong_updates
            for pf in self.engine.functions.values()
        )
        self.stats.weak_updates = sum(
            pf.prepared.points_to.weak_updates
            for pf in self.engine.functions.values()
        )
        diagnostics = list(self.engine.diagnostics) + list(self.diagnostics)
        self.stats.quarantined_units += len(
            self.engine.diagnostics.quarantined_units()
        )
        self.stats.publish(self.checker.name)
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
    # Session check memo: key computation, replay, recording
    # ------------------------------------------------------------------
    def _compute_memo_keys(self) -> None:
        """Assign a check key to every memoizable function, in bottom-up
        order (so a caller's key can chain its callees' keys).

        A function's check-phase output is a pure function of

        - the checker + engine configuration,
        - its own prepared artifacts (the prepare digest), and
        - for each call site: whether the callee is defined, and — when
          the callee's summaries were visible during processing — the
          callee's own check key (covering the summaries' content
          transitively).

        A callee that was processed *before* this function but has no
        key (unmemoizable, or quarantined at SEG) makes this function
        unmemoizable too: its summaries-visibility can't be
        fingerprinted.  A defined callee processed *after* it (a
        same-SCC member later in the rotation) contributed no summaries,
        only its "defined" bit, so an opaque marker suffices.
        """
        config = self.config
        config_sig = "|".join(
            (
                self.checker.name,
                str(config.max_call_depth),
                str(config.use_linear_filter),
                str(config.use_smt),
                str(config.max_paths_per_source),
                str(config.max_reports_per_function),
                self.engine.verify_mode,
                self.engine.pta_tier,
                str(self.absence_mode),
            )
        )
        callgraph = self.module.callgraph
        callees_of = callgraph.callees if callgraph is not None else {}
        defined = self.module.functions
        processed: Set[str] = set()
        for name in self.module.order:
            digest = self.engine.prepare_digests.get(name)
            memoizable = digest is not None and name in self.engine.functions
            parts = [config_sig, str(digest)]
            if memoizable:
                for callee in sorted(callees_of.get(name, ())):
                    if callee == name:
                        # Self-recursive call: during its own processing a
                        # function sees only its in-progress summaries —
                        # no external dependency.
                        parts.append("self")
                    elif callee in processed:
                        callee_key = self._memo_keys.get(callee)
                        if callee_key is None:
                            memoizable = False
                            break
                        parts.append(callee_key)
                    elif callee in defined:
                        parts.append(f"opaque:{callee}")
                    else:
                        parts.append(f"ext:{callee}")
            processed.add(name)
            if memoizable:
                self._memo_keys[name] = hashlib.sha256(
                    "\x1f".join(parts).encode("utf-8")
                ).hexdigest()

    @staticmethod
    def _numeric_stats(stats: EngineStats) -> Dict[str, float]:
        # Timings stay out: a replay spends no time searching or solving.
        return {
            key: value
            for key, value in stats.as_dict().items()
            if isinstance(value, (int, float))
            and not isinstance(value, bool)
            and not key.startswith("seconds_")
        }

    def _replay(self, name: str, entry: CheckMemoEntry) -> None:
        self.summaries[name] = entry.summaries
        for report in entry.reports:
            self.reports.setdefault(report.key(), report)
        for diag in entry.diagnostics:
            self.diagnostics.add(diag)
        for field_name, delta in entry.stats_delta.items():
            setattr(
                self.stats, field_name, getattr(self.stats, field_name) + delta
            )
        get_registry().counter(
            "engine.check_cache.hit",
            "Functions whose check-phase results were replayed from the"
            " session memo",
        ).inc(checker=self.checker.name)

    def _process_recording(
        self, name: str, pf: PinpointFunction, key: str
    ) -> None:
        """Run the function live and record a memo entry on success."""
        stats_before = self._numeric_stats(self.stats)
        run_log = self.diagnostics
        run_reports = self.reports
        capture = _CaptureLog(run_log)
        tee = _TeeReports(run_reports)
        self.diagnostics = capture
        self.reports = tee  # type: ignore[assignment]
        try:
            self._process_prepared(name, pf)
        finally:
            self.diagnostics = run_log
            self.reports = run_reports
        stats_after = self._numeric_stats(self.stats)
        delta = {
            field_name: value - stats_before[field_name]
            for field_name, value in stats_after.items()
            if value != stats_before[field_name]
        }
        self._memo_table[name] = CheckMemoEntry(
            key=key,
            summaries=self.summaries[name],
            reports=list(tee.attempts),
            diagnostics=list(capture.entries),
            stats_delta=delta,
        )
        get_registry().counter(
            "engine.check_cache.miss",
            "Functions whose check phase ran live and was recorded",
        ).inc(checker=self.checker.name)

    # ------------------------------------------------------------------
    def _process_function(self, name: str) -> None:
        pf = self.engine.functions.get(name)
        if pf is None:
            return  # quarantined at SEG construction
        # Per-function ident numbering: see ContextAllocator.reset.
        self.contexts.reset()
        key = self._memo_keys.get(name)
        if key is not None:
            entry = self._memo_table.get(name)
            if entry is not None and entry.key == key:
                self._replay(name, entry)
                return
        with obs_trace("checker.fn", unit=name) as span:
            smt_before = self.smt.queries
            if key is None:
                self._process_prepared(name, pf)
            else:
                self._process_recording(name, pf, key)
            span.set(smt_queries=self.smt.queries - smt_before)

    def _process_prepared(self, name: str, pf: PinpointFunction) -> None:
        prepared = pf.prepared
        summaries = FunctionSummaries(name)
        self.summaries[name] = summaries
        with obs_trace("summaries.rv", unit=name):
            self._build_rv_summaries(pf, summaries)
        lint_after = self.engine.verify_mode == verify_mod.MODE_FULL

        # Intrinsic source/sink specs (free, fgetc, ...) only apply to
        # *external* callees; a defined function's behaviour comes from
        # its summaries, not from its name.
        defined = self.module.functions
        call_uids = {call.uid for call in pf.seg.call_sites if call.callee in defined}

        # Summary availability at this function's call sites (the
        # engine.summaries.{hit,miss} metric): a miss means the callee is
        # external or quarantined and the call is treated as opaque.
        for call in pf.seg.call_sites:
            if call.callee in self.summaries:
                self.stats.summary_hits += 1
            else:
                self.stats.summary_misses += 1

        sinks = {
            spec.vertex: spec
            for spec in self.checker.sinks(prepared, pf.seg)
            if spec.instr_uid not in call_uids
        }
        sources = [
            spec
            for spec in self.checker.sources(prepared, pf.seg)
            if spec.instr_uid not in call_uids
        ]

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

        self.stats.summaries_rv += len(summaries.rv)
        self.stats.summaries_vf += (
            len(summaries.vf1) + len(summaries.vf2) + len(summaries.vf3) + len(summaries.vf4)
        )
        if lint_after:
            with verify_mod.timed_verify("summary"), obs_trace(
                "verify.summary", unit=name
            ):
                lints = verify_mod.lint_summaries(summaries, pf)
            if lints:
                verify_mod.record_violations(lints, self.diagnostics)

    # ------------------------------------------------------------------
    # RV summaries
    # ------------------------------------------------------------------
    def _build_rv_summaries(self, pf: PinpointFunction, summaries: FunctionSummaries) -> None:
        function = pf.prepared.function
        for slot, value in enumerate(return_slots(function)):
            if value is None:
                continue
            if isinstance(value, cfg.Var):
                constraint = pf.conditions.dd(value.name)
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

        while stack:
            vertex, trace, hops = stack.pop()
            self.stats.search_steps += 1
            if not self.budget.spend_steps(1) and not self.reduced_precision:
                # Rung 2 of the degradation ladder: keep walking the SEG
                # (finding candidates is cheap), but stop paying for
                # condition assembly and solving from here on.
                self.reduced_precision = True
                self.diagnostics.record(
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

    def _local_path(self, trace: _TraceNode, function: str) -> List[tuple]:
        """The suffix of vertices within ``function`` (after the last
        junction), used for local PC computation."""
        path = []
        node: Optional[_TraceNode] = trace
        while node is not None and node.kind == "vertex":
            if node.payload[0] == function:
                path.append(node.payload[1])
            node = node.prev
        path.reverse()
        return path

    def _assemble(self, pf: PinpointFunction, trace: _TraceNode) -> Constraint:
        """Assemble the global constraint for a trace (Eqs. 1-3)."""
        nodes = self._trace_vertices(trace)
        pieces: List[Term] = []
        params: List[Tuple[str, str, Optional[Context]]] = []  # (func, param, ctx)
        all_params: Set[Tuple[str, Optional[Context]]] = set()
        receiver_queue: List[Tuple[str, str, Optional[Context]]] = []

        current_run: List[tuple] = []
        run_function = pf.prepared.function.name
        previous_vertex: Optional[tuple] = None

        def flush_run():
            nonlocal current_run
            if not current_run:
                return
            constraint = pf.conditions.pc(current_run)
            pieces.append(constraint.term)
            for param in constraint.params:
                all_params.add((param, None))
            for receiver in constraint.receivers:
                receiver_queue.append((run_function, receiver, None))
            current_run = []

        for node in nodes:
            if node.kind == "vertex":
                func, vertex = node.payload
                current_run.append(vertex)
                previous_vertex = vertex
            elif node.kind == "vf1":
                call, summary = node.payload
                flush_run()
                self._splice_summary(
                    pf, call, summary, pieces, all_params, receiver_queue,
                    link_entry=previous_vertex,
                )
            elif node.kind in ("origin-vf2", "origin-vf3"):
                call, summary = node.payload
                self._splice_summary(
                    pf, call, summary, pieces, all_params, receiver_queue,
                    link_entry=None,
                )

        flush_run()

        constraint = Constraint(T.and_(*pieces))
        term = constraint.term

        # Lazily bind surfaced parameters and resolve receivers (Eqs. 2/3).
        term = self._resolve(term, all_params, receiver_queue)
        return Constraint(term)

    def _splice_summary(
        self,
        pf: PinpointFunction,
        call: cfg.Call,
        summary: VFSummary,
        pieces: List[Term],
        all_params: Set[Tuple[str, Optional[Context]]],
        receiver_queue: List[Tuple[str, str, Optional[Context]]],
        link_entry: Optional[tuple],
    ) -> None:
        """Clone a callee VF summary into a fresh context and add the
        junction equalities of Equation (3)."""
        context = self.contexts.new(summary.function, call, None)
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
        for param in call_cd.params:
            all_params.add((param, None))
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
                    for p2 in caller_dd.params:
                        all_params.add((p2, None))
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
        # created; nothing further to enqueue for it.
        del link_entry

    def _resolve(
        self,
        term: Term,
        params: Set[Tuple[str, Optional[Context]]],
        receiver_queue: List[Tuple[str, str, Optional[Context]]],
    ) -> Term:
        """Resolve receiver dependencies via RV summaries (Eq. 2).

        Root-context parameters stay free variables.  Receivers are
        expanded by cloning the callee's RV summary and binding its
        parameters to the call's actuals, recursively, bounded by the
        context depth limit.
        """
        del params  # root parameters stay free
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
            if callee_summaries is None or callee_pf is None:
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
            new_context = self.contexts.new(call.callee, call, context)
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
        constraint = self._summary_constraint(pf, trace)
        function = pf.prepared.function
        path = tuple(
            node.payload[1]
            for node in self._trace_vertices(trace)
            if node.kind == "vertex"
        )
        summary = VFSummary(
            kind=kind,
            function=function.name,
            path=path,
            constraint=constraint,
            param_slot=param_slot,
            ret_slot=ret_slot,
            sink_line=sink.line if sink else (nested.sink_line if nested else 0),
            sink_var=sink.value_var if sink else (nested.sink_var if nested else ""),
            sink_uid=sink.instr_uid if sink else (nested.sink_uid if nested else 0),
            origin_function=nested.origin_function or nested.function if nested else "",
            origin_line=(nested.origin_line or nested.sink_line) if nested else 0,
            origin_var=(nested.origin_var or nested.sink_var) if nested else "",
        )
        getattr(summaries, kind).append(summary)

    def _record_vf2(
        self,
        summaries: FunctionSummaries,
        pf: PinpointFunction,
        origin: _Origin,
        trace: _TraceNode,
        ret_slot: int,
    ) -> None:
        constraint = self._summary_constraint(pf, trace)
        function = pf.prepared.function
        path = tuple(
            node.payload[1]
            for node in self._trace_vertices(trace)
            if node.kind == "vertex"
        )
        summaries.vf2.append(
            VFSummary(
                kind="vf2",
                function=function.name,
                path=path,
                constraint=constraint,
                ret_slot=ret_slot,
                source_line=origin.line,
                source_var=origin.variable,
                source_uid=origin.instr_uid,
                origin_function=origin.function,
                origin_line=origin.line,
                origin_var=origin.variable,
            )
        )

    def _summary_constraint(self, pf: PinpointFunction, trace: _TraceNode) -> Constraint:
        """PC of a summarized path: assembled like a candidate (nested
        summaries spliced, receivers resolved), parameters kept free."""
        if self.reduced_precision:
            # Budget exhausted: keep the summary's linking structure but
            # drop its constraint (sound, path-insensitive).
            return TRUE_CONSTRAINT
        constraint = self._assemble(pf, trace)
        # Recover the parameter set: free interface variables of this
        # function occurring in the term.
        function = pf.prepared.function
        iface = set(interface_params(function))
        used = constraint.term.variables()
        params = frozenset(name for name in used if name in iface)
        return Constraint(constraint.term, params=params)

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
            term = self._resolve(
                term,
                set(),
                [(pf.prepared.function.name, r, None) for r in dd.receivers],
            )
        return term

    def _candidate_local(
        self, pf: PinpointFunction, origin: _Origin, trace: _TraceNode, sink: SinkSpec
    ) -> None:
        self.stats.candidates += 1
        if self.reduced_precision:
            constraint = TRUE_CONSTRAINT
        else:
            constraint = self._assemble(pf, trace)
            constraint = Constraint(
                T.and_(constraint.term, self._nonnull_source_term(pf, origin))
            )
        self._decide_and_report(pf, origin, trace, sink.line, sink.value_var, constraint)

    def _candidate_via_callee(
        self,
        pf: PinpointFunction,
        origin: _Origin,
        trace: _TraceNode,
        call: cfg.Call,
        vf4: VFSummary,
    ) -> None:
        self.stats.candidates += 1
        full_trace = _TraceNode("vf1", (call, vf4), trace)
        if self.reduced_precision:
            constraint = TRUE_CONSTRAINT
        else:
            constraint = self._assemble(pf, full_trace)
            constraint = Constraint(
                T.and_(constraint.term, self._nonnull_source_term(pf, origin))
            )
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
            self.diagnostics.record(
                STAGE_SMT,
                function_name,
                REASON_QUARANTINED,
                detail=f"{type(error).__name__}: {error}",
                line=sink_line,
            )
            self.stats.quarantined_units += 1
            return self._linear_fallback(term)
        if answer is Result.UNKNOWN and self.smt.last_unknown_reason == "deadline":
            self.diagnostics.record(
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
        if self.reduced_precision:
            # Rung 2: budget exhausted — report the candidate without
            # solving.  "unknown" keeps it visible while flagging the
            # reduced confidence.
            verdict = "unknown"
            self.stats.degraded_candidates += 1
            self.diagnostics.record(
                STAGE_SEARCH,
                function_name,
                REASON_REDUCED_PRECISION,
                detail="candidate reported without path-condition solving",
                line=sink_line,
            )
        else:
            if self.config.use_linear_filter and self.linear.is_obviously_unsat(term):
                self.stats.pruned_linear += 1
                self.stats.seconds_solving += time.perf_counter() - start
                return
            if self.config.use_smt:
                answer = self._checked_smt(term, function_name, sink_line)
                if answer is Result.UNSAT:
                    self.stats.pruned_smt += 1
                    self.stats.seconds_solving += time.perf_counter() - start
                    return
                if answer is Result.UNKNOWN:
                    verdict = "unknown"
                else:
                    witness = _format_witness(self.smt.last_model)
        self.stats.seconds_solving += time.perf_counter() - start

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
        self.reports.setdefault(report.key(), report)

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
        self.stats.candidates += 1
        report = BugReport(
            checker=self.checker.name,
            source=Location(function.name, spec.line, spec.value_var),
            sink=Location(function.name, spec.line, spec.value_var),
            path=(Location(function.name, spec.line, spec.value_var),),
            condition="true",
            verdict="sat",
        )
        self.reports.setdefault(report.key(), report)
