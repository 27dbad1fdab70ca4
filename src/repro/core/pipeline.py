"""Per-function preparation pipeline (the left half of the paper's
Fig. 6 architecture).

Functions are processed bottom-up over the call graph so a caller is
transformed against its callees' already-computed connector signatures.
Each function is prepared in one pass over one CFG:

1. lower the AST to a CFG;
2. rewrite call sites against known callee signatures (Fig. 3(b));
3. convert to SSA and compute the phi gates;
4. run Mod/Ref (its own points-to analysis) on that SSA function to
   find the function's side effects;
5. edit its interface into the SSA function (Fig. 3(a)), registering
   its connector signature for upper-level callers;
6. run the quasi path-sensitive points-to analysis on the result,
   whose conditional data dependence feeds the SEG builder.

Calls to functions in the same call-graph SCC (recursion) are left
untransformed — the paper unrolls call-graph cycles once; such calls are
treated as opaque external calls.

This module holds the per-function unit of work (:func:`prepare_function`)
and the parse front end; the bottom-up loop over the call graph is
:func:`repro.sched.scheduler.prepare_program`, which every entry point
here calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Set, Tuple

from repro.ir import cfg
from repro.ir.callgraph import CallGraph
from repro.ir.controldep import control_dependence
from repro.ir.dominance import dominators
from repro.ir.gating import GateInfo
from repro.ir.ssa import to_ssa
from repro.lang import ast
from repro.lang.parser import parse_program, parse_program_tolerant
from repro.obs.progress import get_progress
from repro.obs.trace import trace
from repro.pta.intraproc import PointsToAnalysis, PointsToResult
from repro.robust.budget import ResourceBudget
from repro.robust.diagnostics import REASON_PARSE_ERROR, STAGE_PARSE, DiagnosticLog
from repro.robust.heap import hold_full_collections
from repro.smt.linear_solver import LinearSolver
from repro.transform.connectors import (
    ConnectorSignature,
    transform_call_sites,
    transform_function_interface,
)
from repro.transform.modref import ModRefSummary, compute_modref


@dataclass
class PreparedFunction:
    """Everything later stages need about one function."""

    name: str
    function: cfg.Function  # transformed, SSA
    points_to: PointsToResult
    gates: GateInfo
    control_deps: Dict[str, list]
    signature: ConnectorSignature
    modref: ModRefSummary
    # Precision tier this function was prepared under ("fi" or "fs"),
    # and — on the fs tier — the sparse must-alias pass's result
    # (repro.pta.flowsense.FlowSenseResult) whose proofs justified any
    # flow-sensitive strong updates.  The verifier audits points_to
    # against it.
    pta_tier: str = "fi"
    flow: Optional[object] = None

    @cached_property
    def statement_index(self) -> Dict[int, Tuple[str, int]]:
        """Statement uid -> (block label, index in the block) over the
        final CFG, for the engine's happens-after checks.  Built on first
        read: a session's memory tier hands the same prepared function
        to every warm run, so every engine over it shares one index."""
        function = self.function
        index: Dict[int, Tuple[str, int]] = {}
        for label in function.block_order():
            for position, instr in enumerate(function.blocks[label].all_instrs()):
                index[instr.uid] = (label, position)
        return index

    @property
    def alias_hazards(self) -> List[tuple]:
        """Call sites where two distinct actual arguments may point to
        the same object — violations of the paper's "distinct parameters
        do not alias" soundiness assumption (§4.2, improvable with
        partial transfer functions per Wilson & Lam), as ``(call uid,
        i, j, line)``.  Computed on demand: no stage of the analysis
        reads them, so they are neither stored nor reported."""
        return _find_alias_hazards(self.function, self.points_to)


@dataclass
class PreparedModule:
    functions: Dict[str, PreparedFunction] = field(default_factory=dict)
    callgraph: Optional[CallGraph] = None
    order: List[str] = field(default_factory=list)
    linear: LinearSolver = field(default_factory=LinearSolver)
    # Degradations and quarantines accumulated while building this
    # module (parse recovery, per-function preparation failures).  The
    # engine folds these into every CheckResult.
    diagnostics: DiagnosticLog = field(default_factory=DiagnosticLog)
    # Functions quarantined by the IR verifier, kept around (keyed by
    # name, valued ('cfg', Function)) so --dump-on-verify-fail can
    # render the offending artifact.
    verify_failures: Dict[str, tuple] = field(default_factory=dict)
    # SEGs built ahead of the engine (for the artifact store, or loaded
    # from it).  The engine consumes these
    # instead of rebuilding; absence just means "build it yourself".
    segs: Dict[str, object] = field(default_factory=dict)
    # Points-to precision tier every function was prepared at ("fi" or
    # "fs"); a function whose fs artifacts fail the pta verifier rules
    # keeps its fi artifacts (PreparedFunction.pta_tier).
    pta_tier: str = "fi"
    # Filled when preparation ran against an artifact store: each
    # function's content address (repro.cache.keys) and the functions
    # whose artifacts the store served instead of recomputing them.
    digests: Dict[str, str] = field(default_factory=dict)
    cached: Set[str] = field(default_factory=set)

    def __getitem__(self, name: str) -> PreparedFunction:
        return self.functions[name]

    def __contains__(self, name: str) -> bool:
        return name in self.functions

    def __iter__(self):
        return iter(self.functions.values())


def prepare_module(
    program: ast.Program,
    budget: Optional[ResourceBudget] = None,
    diagnostics: Optional[DiagnosticLog] = None,
    verify: str = "",
    pta_tier: str = "fi",
) -> PreparedModule:
    """Prepare a parsed program serially, without an artifact store.

    A function whose preparation raises is *quarantined*: it is dropped
    from the prepared module (recorded as a diagnostic) and its callers
    treat calls to it as opaque external calls — exactly the treatment
    same-SCC callees already get.  ``verify`` runs the IR verifier on
    each prepared function; a violating function is quarantined too.
    See :func:`repro.sched.scheduler.prepare_program`."""
    from repro.sched.scheduler import prepare_program

    return prepare_program(
        program,
        budget=budget,
        diagnostics=diagnostics,
        verify=verify,
        pta_tier=pta_tier,
    )


def prepare_function(
    func_ast: ast.FuncDef,
    usable_signatures: Dict[str, ConnectorSignature],
    linear: Optional[LinearSolver] = None,
    budget: Optional[ResourceBudget] = None,
    pta_tier: str = "fi",
) -> PreparedFunction:
    """Run all per-function preparation stages for one function, given
    its callees' connector signatures.  This is the unit of work the
    incremental analyzer caches.

    ``pta_tier="fs"`` additionally runs the sparse flow-sensitive
    must-alias pass (:mod:`repro.pta.flowsense`) on the SSA function and
    feeds its proofs to the local points-to analysis, enabling strong
    updates through must-alias singleton pointers."""
    from repro.ir.lower import lower_function

    linear = linear or LinearSolver()

    # Per-function uid scope: instruction uids (and the loop-gate
    # variable names and SEG vertex identities derived from them) must
    # not depend on which process, or in what order, prepared this
    # function — that is what makes cache-warmed and session runs
    # byte-identical to fresh ones.
    with cfg.scoped_uids():
        function = lower_function(func_ast)
        # Connectors and SSA add instructions and phis but never blocks
        # or edges, so one dominator tree serves every stage.
        dom = dominators(function)
        transform_call_sites(function, usable_signatures)
        # Unused phis stay until the interface edit: the version of a
        # parameter reaching the return may be one only an Aux return
        # load will use.
        to_ssa(function, dom, prune=False)
        # The edit adds no phi, so these gates serve both analyses (the
        # entries of phis it prunes are left unread).
        gates = GateInfo(function, dom)
        modref = compute_modref(function, linear=linear, gates=gates)
        signature = transform_function_interface(function, modref, dom)

        flow = None
        if pta_tier == "fs":
            from repro.pta.flowsense import FlowSensitivePTA

            with trace("pta.flowsense", unit=func_ast.name):
                flow = FlowSensitivePTA(function).run()
        analysis = PointsToAnalysis(
            function, gates=gates, linear=linear, budget=budget, flow=flow
        )
        points_to = analysis.run()
    return PreparedFunction(
        name=func_ast.name,
        function=function,
        points_to=points_to,
        gates=gates,
        control_deps=control_dependence(function),
        signature=signature,
        modref=modref,
        pta_tier=pta_tier,
        flow=flow,
    )


def _find_alias_hazards(function: cfg.Function, points_to: PointsToResult):
    """Call sites passing two possibly-aliasing actuals to distinct
    formal parameters — where the callee-side no-alias assumption may
    lose writes (paper §4.2)."""
    from repro.pta.memory import AllocObject

    def alloc_objects(var: cfg.Var):
        # Only allocation sites witness a real may-alias; the speculative
        # per-parameter aux object every formal carries does not.
        return {
            obj
            for obj, _ in points_to.pts(var.name)
            if isinstance(obj, AllocObject)
        }

    hazards = []
    for instr in function.all_instrs():
        if not isinstance(instr, cfg.Call) or instr.synthetic:
            continue
        pointer_args = [
            (index, arg, alloc_objects(arg))
            for index, arg in enumerate(instr.args)
            if isinstance(arg, cfg.Var)
        ]
        pointer_args = [entry for entry in pointer_args if entry[2]]
        for position, (i, lhs, lhs_objs) in enumerate(pointer_args):
            for j, rhs, rhs_objs in pointer_args[position + 1 :]:
                if lhs.name == rhs.name or lhs_objs & rhs_objs:
                    hazards.append((instr.uid, i, j, instr.line))
    return hazards


@hold_full_collections()
def prepare_source(
    source: str,
    budget: Optional[ResourceBudget] = None,
    diagnostics: Optional[DiagnosticLog] = None,
    recover: bool = False,
    verify: str = "",
    store=None,
    pta_tier: str = "fi",
) -> PreparedModule:
    """Parse and prepare a program given as source text.

    With ``recover=True`` the parser quarantines malformed functions
    (recorded as ``parse`` diagnostics) instead of failing the whole
    program; input in which *nothing* parses still raises.

    ``store`` (a :class:`repro.cache.SummaryStore`) persists/loads
    per-function artifacts; results are identical either way."""
    from repro.sched.scheduler import prepare_program

    if budget is not None:
        budget.start()
    get_progress().set_stage("parse")
    if not recover:
        with trace("parse", unit="<module>"):
            program = parse_program(source)
    else:
        if diagnostics is None:
            diagnostics = DiagnosticLog()
        with trace("parse", unit="<module>") as span:
            program, errors = parse_program_tolerant(source)
            span.set(functions=len(program.functions), parse_errors=len(errors))
        for error in errors:
            diagnostics.record(
                STAGE_PARSE,
                getattr(error, "unit", "") or "<module>",
                REASON_PARSE_ERROR,
                detail=error.message,
                line=error.line,
            )
    return prepare_program(
        program,
        budget=budget,
        diagnostics=diagnostics,
        verify=verify,
        store=store,
        pta_tier=pta_tier,
    )
