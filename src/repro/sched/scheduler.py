"""The bottom-up prepare driver: the one loop every preparation path runs.

Pinpoint prepares each function once, bottom-up over the call graph,
against its callees' connector signatures (paper §3.1-3.2, the left half
of Fig. 6).  What that produces depends only on the function's AST and
those signatures, so ``prepare_program`` is the only loop that does it:
:func:`repro.core.pipeline.prepare_source`/``prepare_module`` and
:meth:`repro.core.incremental.IncrementalAnalyzer.analyze_program` all
call it.  Per call-graph wave it

- looks each function up in ``store`` by the content address of
  :mod:`repro.cache.keys` (a :class:`~repro.cache.store.SummaryStore`
  under ``--cache-dir``, or the incremental analyzer's
  :class:`~repro.cache.store.MemoryTier` in front of one);
- prepares the misses with :func:`_prepare_one` — per-function stage
  1-3 work: connector transformation, intraprocedural points-to, SEG
  construction;
- writes the fresh, full-precision results back to ``store`` at the
  wave barrier.

A run killed part-way leaves every wave it finished in the store, so
rerunning with the same ``--cache-dir`` recomputes only the rest.

Determinism is preserved by construction:

- wave order is used only for preparation; the merged module's
  ``functions``/``order`` follow the exact serial ``bottom_up_order``,
  so the engine's summary/checker pass sees the same world in the same
  order whatever the store served;
- diagnostics are buffered per function and replayed in serial order
  during final assembly, so the diagnostics list is the same for every
  store state;
- verification (and the admit/quarantine decision it implies) runs at
  the wave barrier because a rejected function must not publish its
  connector signature to later waves.  With verification on and
  ``pta_tier="fs"``, the same gate audits each function's fs artifacts
  against an fi preparation of it; one that fails keeps the fi
  artifacts.

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
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

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
from repro.sched.waves import scc_waves

_log = get_logger("sched")


@dataclass
class _Outcome:
    """Buffered per-function result, recorded into the module (and its
    diagnostics) only during the serial-order assembly pass."""

    kind: str  # "prepared" | "quarantined"
    result: Optional[PreparedFunction] = None
    seg: Any = None
    cached: bool = False
    detail: str = ""
    line: int = 0
    violations: List[Any] = field(default_factory=list)
    # pta-rule violations of fs artifacts; recorded, never quarantining.
    flow_violations: List[Any] = field(default_factory=list)
    admitted: bool = True


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
    """Prepare a parsed program bottom-up over its call-graph waves.

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
    registry = get_registry()
    prepared = PreparedModule()
    if diagnostics is not None:
        prepared.diagnostics = diagnostics
    if budget is not None:
        budget.start()

    with trace("callgraph", unit="<module>"):
        callgraph = CallGraph(program)
    prepared.callgraph = callgraph
    prepared.pta_tier = pta_tier
    serial_order = callgraph.bottom_up_order()
    ast_by_name = {f.name: f for f in program.functions}
    scc_of = callgraph.scc_of

    waves = scc_waves(callgraph)
    registry.gauge("sched.waves", "Call-graph waves of the last run").set(
        len(waves)
    )
    progress = get_progress()
    progress.set_stage("prepare", functions=len(serial_order), waves=len(waves))
    progress.set_functions_total(len(serial_order))

    signatures: Dict[str, Any] = {}
    outcomes: Dict[str, _Outcome] = {}
    digests = prepared.digests

    # The wave loop's wall feeds the attr.wave_seconds gauge below.
    total_wave_seconds = 0.0
    for wave_index, wave in enumerate(waves):
        names = [name for scc in wave for name in scc]
        wave_started = time.perf_counter()
        usable_of: Dict[str, Dict[str, Any]] = {}
        with trace("sched.wave", unit=str(wave_index)) as span:
            cached = 0
            for name in names:
                func_ast = ast_by_name[name]
                # Only this function's own callees: lookups and the
                # cache key go by callee name.
                usable = usable_of[name] = {
                    callee: signatures[callee]
                    for callee in callgraph.callees[name]
                    if callee in signatures and scc_of[callee] != scc_of[name]
                }
                if store is not None:
                    digests[name] = key_digest(
                        prepare_cache_key(
                            func_ast,
                            usable,
                            callgraph.callees[name],
                            pta_tier=pta_tier,
                        )
                    )
                    hit = store.get(digests[name])
                    if hit is not None:
                        _stored, result, seg = hit
                        outcomes[name] = _Outcome(
                            "prepared", result=result, seg=seg, cached=True
                        )
                        cached += 1
                        continue
                outcomes[name] = _prepare_one(
                    name, func_ast, usable, prepared.linear, budget,
                    pta_tier, with_seg=store is not None,
                )
            span.set(
                functions=len(names), cached=cached, prepared=len(names) - cached
            )

            # Wave-boundary admission gate: a function must pass the
            # IR verifier before its connector signature becomes
            # visible to later waves, and fs artifacts must pass the
            # pta rules or fall back to fi.  Diagnostics are
            # recorded later, in serial order, during assembly.
            for name in names:
                out = outcomes[name]
                if out.kind != "prepared":
                    continue
                if verify_mode != MODE_OFF:
                    result = out.result
                    with timed_verify("ir"), trace("verify.ir", unit=name):
                        out.violations = verify_function_ir(
                            result.function,
                            result.control_deps,
                            dom=result.gates.dom,
                        )
                    if _has_error(out.violations):
                        out.admitted = False
                        continue
                    if pta_tier == "fs":
                        _audit_flow_tier(
                            out, ast_by_name[name], usable_of[name],
                            prepared.linear,
                        )
                result = out.result
                signatures[name] = result.signature
                # The one write-back site.  A budget-degraded result
                # or an fi fallback must not land under the address
                # of the full-precision, requested-tier result.
                if (
                    store is not None
                    and not out.cached
                    and not result.points_to.degraded
                    and result.pta_tier == pta_tier
                ):
                    store.put(digests[name], name, result, out.seg)

        total_wave_seconds += time.perf_counter() - wave_started

        wave_outcomes = [outcomes[name] for name in names]
        progress.wave_progress(
            done=wave_index + 1,
            total=len(waves),
            prepared=sum(
                1
                for out in wave_outcomes
                if out.kind == "prepared" and out.admitted
            ),
            cached=sum(1 for out in wave_outcomes if out.cached),
            quarantined=sum(
                1
                for out in wave_outcomes
                if out.kind != "prepared" or not out.admitted
            ),
        )

    registry.gauge(
        "attr.wave_seconds", "Wall seconds spent inside the wave loop"
    ).set(round(total_wave_seconds, 6))

    # Serial-order assembly: identical functions/order/diagnostics for
    # every store state.
    log = prepared.diagnostics
    for name in serial_order:
        out = outcomes[name]
        func_ast = ast_by_name[name]
        if out.kind == "quarantined":
            log.record(
                STAGE_PREPARE,
                name,
                REASON_QUARANTINED,
                detail=out.detail,
                line=func_ast.line or out.line,
            )
            continue
        if out.violations:
            errors = record_violations(out.violations, log)
            if errors:
                prepared.verify_failures[name] = ("cfg", out.result.function)
                continue
        # On an error the gate already swapped in the fi artifacts.
        record_violations(out.flow_violations, log)
        if out.result.points_to.degraded:
            log.record(
                STAGE_PTA,
                name,
                REASON_BUDGET,
                detail="points-to conditions degraded to TRUE",
                line=func_ast.line,
            )
        prepared.functions[name] = out.result
        prepared.order.append(name)
        if out.seg is not None:
            prepared.segs[name] = out.seg
        if out.cached:
            prepared.cached.add(name)
    publish_results(result.points_to for result in prepared.functions.values())

    # Shared by every checker run on the module: published once, here.
    registry.counter("engine.seconds", "Engine time by phase (seconds)").inc(
        time.perf_counter() - started, phase="prepare"
    )
    _log.info(
        "module prepared",
        functions=len(prepared.functions),
        quarantined=len(serial_order) - len(prepared.functions),
        waves=len(waves),
        cached=len(prepared.cached),
    )
    return prepared


def _has_error(violations: List[Any]) -> bool:
    from repro.verify import SEVERITY_ERROR, severity_of

    return any(severity_of(v.rule) == SEVERITY_ERROR for v in violations)


def _audit_flow_tier(
    out: _Outcome, func_ast: ast.FuncDef, usable: Dict[str, Any], linear
) -> None:
    """Run the ``pta-strong-update-proof`` and ``pta-tier-subset`` rules
    on one function's fs artifacts, against an fi preparation of the
    same function.  On an error the function keeps the fi artifacts, so
    the fs tier can lose precision back to fi but never coverage."""
    from repro.verify import timed_verify, verify_flow_tier

    with timed_verify("pta"), trace("verify.pta", unit=func_ast.name):
        # budget=None: the reference must not depend on how much of a
        # cooperative budget the analysis itself has used up.
        fi_result = prepare_function(
            func_ast, usable, linear, budget=None, pta_tier="fi"
        )
        out.flow_violations = verify_flow_tier(out.result, fi_result)
    if _has_error(out.flow_violations):
        out.result, out.seg = fi_result, None


# ----------------------------------------------------------------------
def _prepare_one(
    name: str,
    func_ast: ast.FuncDef,
    usable: Dict[str, Any],
    linear,
    budget: Optional[ResourceBudget],
    pta_tier: str,
    with_seg: bool,
) -> _Outcome:
    """Prepare one function.  ``with_seg`` also builds its SEG eagerly
    so the artifact can be stored whole."""
    try:
        with trace("prepare.fn", unit=name):
            fault_point("prepare", name)
            result = prepare_function(
                func_ast, usable, linear, budget=budget, pta_tier=pta_tier
            )
    except FATAL:
        raise
    except Exception as error:
        return _Outcome(
            "quarantined",
            detail=f"{type(error).__name__}: {error}",
            line=getattr(error, "line", 0) or 0,
        )
    seg = None
    if with_seg:
        from repro.seg.builder import build_seg

        try:
            seg = build_seg(result)
        except FATAL:
            raise
        except Exception:
            # The engine rebuilds under its own `seg` quarantine, so a
            # deterministic failure reproduces with identical diagnostics.
            seg = None
    return _Outcome("prepared", result=result, seg=seg)
