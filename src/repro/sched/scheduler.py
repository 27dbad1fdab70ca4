"""The bottom-up prepare driver: the one loop every preparation path runs.

Pinpoint prepares each function once, bottom-up over the call graph,
against its callees' connector signatures, and builds its SEG before any
checker reads it (paper §3.1-3.2, the left half of Fig. 6).  What that
produces depends only on the function's AST and those signatures, so
``prepare_program`` is the only loop that does it, with or without a
store: :func:`repro.core.pipeline.prepare_source`/``prepare_module`` and
:meth:`repro.core.incremental.IncrementalAnalyzer.analyze_program` all
call it.  It walks ``CallGraph.bottom_up_order()`` — every callee
outside a function's SCC comes before the function — and for each
function

- looks it up in ``store`` by the content address of
  :mod:`repro.cache.keys` (a :class:`~repro.cache.store.SummaryStore`
  under ``--cache-dir``, or the incremental analyzer's
  :class:`~repro.cache.store.MemoryTier` in front of one);
- on a miss, prepares it with :func:`prepare_function`;
- runs the IR verifier (and, with ``pta_tier="fs"``, the pta audit)
  before its connector signature becomes visible to its callers, then
  builds its SEG (unless the store served one) and verifies that;
- writes a fresh, full-precision result that passed every check back
  to ``store`` at once, so a run killed part-way leaves every function
  it finished in the store.

One order serves preparation, budget, diagnostics and the module's
``functions``/``order``, so the engine's summary/checker pass sees the
same world in the same order whatever the store served.

Failure semantics: an exception while preparing a function becomes a
``prepare`` quarantine diagnostic, and the function publishes no
signature.  One while building its SEG becomes a ``seg`` diagnostic
after the signature is published, so no caller changes: the function
stays a defined callee, but without a SEG the checkers skip it and the
store does not keep it.

Resource budgets are cooperative (checked inside the analysis loops).
Store lookups still apply under a budget, but a budget-degraded artifact
is never written back: its content address names the full-precision
result.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.cache.keys import key_digest, prepare_cache_key
from repro.core.pipeline import (
    PreparedFunction,
    PreparedModule,
    prepare_function,
)
from repro.ir.callgraph import CallGraph
from repro.lang import ast
from repro.obs.log import get_logger
from repro.obs.metrics import get_registry
from repro.obs.progress import get_progress
from repro.obs.trace import trace
from repro.pta.intraproc import publish_results
from repro.robust.budget import ResourceBudget
from repro.robust.diagnostics import (
    REASON_BUDGET,
    REASON_QUARANTINED,
    STAGE_PREPARE,
    STAGE_PTA,
    STAGE_SEG,
    DiagnosticLog,
)
from repro.robust.faults import fault_point
from repro.robust.heap import hold_full_collections
from repro.robust.quarantine import FATAL, Quarantine
from repro.seg.builder import build_seg
import repro.verify as verify_mod

_log = get_logger("sched")


@hold_full_collections()
def prepare_program(
    program: ast.Program,
    *,
    budget: Optional[ResourceBudget] = None,
    diagnostics: Optional[DiagnosticLog] = None,
    verify: str = "",
    store=None,
    pta_tier: str = "fi",
) -> PreparedModule:
    """Prepare a parsed program bottom-up over its call graph.

    ``store`` is anything with :class:`~repro.cache.store.SummaryStore`'s
    ``get``/``put``; with one, the module also records each function's
    content address (``digests``) and which functions were served from
    it (``cached``).  ``verify`` (``off``/``fast``/``full``, defaulting to
    ``REPRO_VERIFY``) runs the IR and SEG verifiers on every function,
    and under ``full`` the call-interface check on the module; a
    violating function is quarantined like one whose preparation or SEG
    construction raised.  ``pta_tier`` (``fi``/``fs``) is the points-to
    tier every function is prepared at; with ``verify`` on, fs artifacts
    must also pass the pta rules or the function falls back to fi."""
    started = time.perf_counter()
    verify_mode = verify_mod.resolve_mode(verify)
    verifying = verify_mode != verify_mod.MODE_OFF
    prepared = PreparedModule()
    if diagnostics is not None:
        prepared.diagnostics = diagnostics
    log = prepared.diagnostics
    if budget is not None:
        budget.start()

    with trace("callgraph", unit="<module>"):
        callgraph = CallGraph(program)
    prepared.callgraph = callgraph
    prepared.pta_tier = pta_tier
    order = callgraph.bottom_up_order()
    ast_by_name = {f.name: f for f in program.functions}
    scc_of = callgraph.scc_of
    progress = get_progress()
    progress.set_stage("prepare", functions=len(order))
    progress.set_functions_total(len(order))

    signatures: Dict[str, Any] = {}
    digests = prepared.digests
    # SEG construction and verification, published as the `seg` phase.
    seg_seconds = 0.0
    for name in order:
        func_ast = ast_by_name[name]
        # Only this function's own callees: lookups and the cache key go
        # by callee name.
        usable = {
            callee: signatures[callee]
            for callee in callgraph.callees[name]
            if callee in signatures and scc_of[callee] != scc_of[name]
        }
        hit = None
        if store is not None:
            digests[name] = key_digest(
                prepare_cache_key(
                    func_ast, usable, callgraph.callees[name], pta_tier=pta_tier
                )
            )
            hit = store.get(digests[name])
        if hit is not None:
            # An entry written before SEGs were always stored may hold
            # None; the SEG step below builds it.
            _stored, result, seg = hit
        else:
            seg = None
            try:
                with trace("prepare.fn", unit=name):
                    fault_point("prepare", name)
                    result = prepare_function(
                        func_ast, usable, prepared.linear, budget=budget,
                        pta_tier=pta_tier,
                    )
            except FATAL:
                raise
            except Exception as error:
                log.record(
                    STAGE_PREPARE,
                    name,
                    REASON_QUARANTINED,
                    detail=f"{type(error).__name__}: {error}",
                    line=func_ast.line or getattr(error, "line", 0) or 0,
                )
                progress.function_done(quarantined=True)
                continue

        # A function must pass the IR verifier before its connector
        # signature becomes visible to its callers, and fs artifacts
        # must pass the pta rules or fall back to fi.
        if verifying:
            with verify_mod.timed_verify("ir"), trace("verify.ir", unit=name):
                violations = verify_mod.verify_function_ir(
                    result.function, result.control_deps, dom=result.gates.dom
                )
            if verify_mod.record_violations(violations, log):
                prepared.verify_failures[name] = ("cfg", result.function)
                progress.function_done(cached=hit is not None, quarantined=True)
                continue
            if pta_tier == "fs":
                kept = _audit_flow_tier(
                    result, func_ast, usable, prepared.linear, log
                )
                if kept is not result:
                    result, seg = kept, None
        signatures[name] = result.signature
        seg_started = time.perf_counter()
        seg = _checked_seg(name, result, seg, verifying, prepared)
        seg_seconds += time.perf_counter() - seg_started
        # The one write-back site.  A budget-degraded result or an fi
        # fallback must not land under the address of the
        # full-precision, requested-tier result.
        if (
            hit is None
            and seg is not None
            and store is not None
            and not result.points_to.degraded
            and result.pta_tier == pta_tier
        ):
            store.put(digests[name], name, result, seg)
        if result.points_to.degraded:
            log.record(
                STAGE_PTA,
                name,
                REASON_BUDGET,
                detail="points-to conditions degraded to TRUE",
                line=func_ast.line,
            )
        prepared.functions[name] = result
        prepared.order.append(name)
        if seg is not None:
            prepared.segs[name] = seg
        if hit is not None:
            prepared.cached.add(name)
        progress.function_done(cached=hit is not None, quarantined=seg is None)
    publish_results(result.points_to for result in prepared.functions.values())

    if verify_mode == verify_mod.MODE_FULL:
        seg_started = time.perf_counter()
        with verify_mod.timed_verify("call"), trace(
            "verify.call", unit="<module>"
        ):
            violations = verify_mod.verify_call_interfaces(prepared)
        # A caller whose call sites do not match its callees' interfaces
        # loses its SEG, so the checkers skip it.
        for violation in verify_mod.record_violations(violations, log):
            seg = prepared.segs.pop(violation.unit, None)
            if seg is not None:
                prepared.verify_failures.setdefault(violation.unit, ("seg", seg))
        seg_seconds += time.perf_counter() - seg_started

    # Shared by every checker run on the module: published once, here.
    # The phases are disjoint: `prepare` is the rest of the loop.
    seconds = get_registry().counter(
        "engine.seconds", "Engine time by phase (seconds)"
    )
    seconds.inc(time.perf_counter() - started - seg_seconds, phase="prepare")
    seconds.inc(seg_seconds, phase="seg")
    _log.info(
        "module prepared",
        functions=len(prepared.functions),
        quarantined=len(order) - len(prepared.segs),
        cached=len(prepared.cached),
    )
    return prepared


def _checked_seg(
    name: str, result: PreparedFunction, seg, verify: bool, prepared: PreparedModule
):
    """The function's SEG, built unless the store served one and, with
    ``verify``, verified; None once either step quarantined it.  The
    ``seg`` fault point fires for store hits too, so an injected fault
    quarantines a function whatever the store holds."""
    zone = Quarantine(prepared.diagnostics, STAGE_SEG, name)
    with zone:
        fault_point("seg", name)
        if seg is None:
            seg = build_seg(result)
    if zone.tripped:
        return None
    if verify:
        with verify_mod.timed_verify("seg"), trace("verify.seg", unit=name):
            violations = verify_mod.verify_seg(seg, result)
        if verify_mod.record_violations(violations, prepared.diagnostics):
            prepared.verify_failures[name] = ("seg", seg)
            return None
    return seg


def _audit_flow_tier(
    result: PreparedFunction,
    func_ast: ast.FuncDef,
    usable: Dict[str, Any],
    linear,
    log: DiagnosticLog,
) -> PreparedFunction:
    """Run the ``pta-strong-update-proof`` and ``pta-tier-subset`` rules
    on one function's fs artifacts, against an fi preparation of the
    same function, and record what they find.  Returns the artifacts the
    function keeps: on an error the fi ones, so the fs tier can lose
    precision back to fi but never coverage."""
    with verify_mod.timed_verify("pta"), trace(
        "verify.pta", unit=func_ast.name
    ):
        # budget=None: the reference must not depend on how much of a
        # cooperative budget the analysis itself has used up.
        fi_result = prepare_function(
            func_ast, usable, linear, budget=None, pta_tier="fi"
        )
        violations = verify_mod.verify_flow_tier(result, fi_result)
    if verify_mod.record_violations(violations, log):
        return fi_result
    return result
