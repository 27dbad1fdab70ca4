"""The bottom-up prepare driver: the one loop every preparation path runs.

Pinpoint prepares each function once, bottom-up over the call graph,
against its callees' connector signatures (paper §3.1-3.2, the left half
of Fig. 6).  What that produces depends only on the function's AST and
those signatures, so ``prepare_program`` is the only loop that does it:
:func:`repro.core.pipeline.prepare_source`/``prepare_module`` and
:meth:`repro.core.incremental.IncrementalAnalyzer.analyze_program` all
call it.  It walks ``CallGraph.bottom_up_order()`` — every callee
outside a function's SCC comes before the function — and for each
function

- looks it up in ``store`` by the content address of
  :mod:`repro.cache.keys` (a :class:`~repro.cache.store.SummaryStore`
  under ``--cache-dir``, or the incremental analyzer's
  :class:`~repro.cache.store.MemoryTier` in front of one);
- on a miss, prepares it with :func:`prepare_function` — connector
  transformation, intraprocedural points-to and, when there is a store
  to write it to, SEG construction;
- runs the IR verifier (and, with ``pta_tier="fs"``, the pta audit)
  before its connector signature becomes visible to its callers;
- writes a fresh, full-precision result back to ``store`` at once, so
  a run killed part-way leaves every function it finished in the store
  and a rerun with the same ``--cache-dir`` recomputes only the rest.

One order serves preparation, budget, diagnostics and the module's
``functions``/``order``, so the engine's summary/checker pass sees the
same world in the same order whatever the store served.

Failure semantics: a Python exception while preparing a function becomes
a ``prepare``-stage quarantine diagnostic.  SEG-construction failures
leave ``seg=None`` and the engine rebuilds under its own ``seg``
quarantine, so deterministic failures reproduce with identical
diagnostics.

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
    DiagnosticLog,
)
from repro.robust.faults import fault_point
from repro.robust.heap import hold_full_collections
from repro.robust.quarantine import FATAL

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
    ``REPRO_VERIFY``) runs the IR verifier on every prepared function; a
    violating function is quarantined like one whose preparation
    raised.  ``pta_tier`` (``fi``/``fs``) is the points-to tier every
    function is prepared at; with ``verify`` on, fs artifacts must also
    pass the pta rules or the function falls back to fi."""
    from repro.verify import (
        MODE_OFF,
        record_violations,
        resolve_mode,
        timed_verify,
    )
    from repro.verify.ir_verifier import verify_function_ir

    started = time.perf_counter()
    verify_mode = resolve_mode(verify)
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
            _stored, result, seg = hit
        else:
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
            seg = _build_seg(result) if store is not None else None

        # A function must pass the IR verifier before its connector
        # signature becomes visible to its callers, and fs artifacts
        # must pass the pta rules or fall back to fi.
        if verify_mode != MODE_OFF:
            with timed_verify("ir"), trace("verify.ir", unit=name):
                violations = verify_function_ir(
                    result.function, result.control_deps, dom=result.gates.dom
                )
            if record_violations(violations, log):
                prepared.verify_failures[name] = ("cfg", result.function)
                progress.function_done(cached=hit is not None, quarantined=True)
                continue
            if pta_tier == "fs":
                result, seg = _audit_flow_tier(
                    result, seg, func_ast, usable, prepared.linear, log
                )
        signatures[name] = result.signature
        # The one write-back site.  A budget-degraded result or an fi
        # fallback must not land under the address of the
        # full-precision, requested-tier result.
        if (
            hit is None
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
        progress.function_done(cached=hit is not None)
    publish_results(result.points_to for result in prepared.functions.values())

    # Shared by every checker run on the module: published once, here.
    get_registry().counter(
        "engine.seconds", "Engine time by phase (seconds)"
    ).inc(time.perf_counter() - started, phase="prepare")
    _log.info(
        "module prepared",
        functions=len(prepared.functions),
        quarantined=len(order) - len(prepared.functions),
        cached=len(prepared.cached),
    )
    return prepared


def _build_seg(result: PreparedFunction):
    """The function's SEG, built eagerly so the artifact can be stored
    whole; None when construction fails."""
    from repro.seg.builder import build_seg

    try:
        return build_seg(result)
    except FATAL:
        raise
    except Exception:
        # The engine rebuilds under its own `seg` quarantine, so a
        # deterministic failure reproduces with identical diagnostics.
        return None


def _audit_flow_tier(
    result: PreparedFunction,
    seg,
    func_ast: ast.FuncDef,
    usable: Dict[str, Any],
    linear,
    log: DiagnosticLog,
):
    """Run the ``pta-strong-update-proof`` and ``pta-tier-subset`` rules
    on one function's fs artifacts, against an fi preparation of the
    same function, and record what they find.  Returns the artifacts the
    function keeps: on an error the fi ones, so the fs tier can lose
    precision back to fi but never coverage."""
    from repro.verify import record_violations, timed_verify, verify_flow_tier

    with timed_verify("pta"), trace("verify.pta", unit=func_ast.name):
        # budget=None: the reference must not depend on how much of a
        # cooperative budget the analysis itself has used up.
        fi_result = prepare_function(
            func_ast, usable, linear, budget=None, pta_tier="fi"
        )
        violations = verify_flow_tier(result, fi_result)
    if record_violations(violations, log):
        return fi_result, None
    return result, seg
