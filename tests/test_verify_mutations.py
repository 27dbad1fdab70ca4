"""Mutation tests for the self-verification layer.

For every verifier rule: start from a well-formed module, corrupt the
IR/SEG/signature/summary in exactly the way the rule exists to catch,
and assert that the rule — and *only* that rule — fires.  The baseline
test pins down the other half of the contract: on untouched artifacts
nothing fires at all.
"""

import pytest

from repro.core.engine import PinpointFunction
from repro.core.pipeline import prepare_source
from repro.core.summaries import FunctionSummaries, RVSummary, VFSummary
from repro.ir import cfg
from repro.seg.builder import build_seg
from repro.seg.conditions import TRUE_CONSTRAINT, Constraint
from repro.verify import (
    RULES,
    lint_summaries,
    verify_call_interfaces,
    verify_function_ir,
    verify_seg,
)

# A small module exercising every artifact the verifiers look at:
# a callee with memory side effects (Aux returns, connector-transformed
# call site in main) and a branch join (phi, gates, control deps).
SOURCE = """
fn callee(p) {
    *p = 1;
    free(p);
    return 0;
}

fn main(a) {
    if (a > 3) { x = 1; } else { x = 2; }
    q = malloc();
    r = callee(q);
    return x;
}
"""


def build():
    module = prepare_source(SOURCE)
    segs = {name: build_seg(module[name]) for name in module.order}
    return module, segs


def fired(module, segs):
    """Union of rule ids from all three verifiers over the whole module."""
    rules = set()
    for pf in module:
        for violation in verify_function_ir(
            pf.function, pf.control_deps, dom=pf.gates.dom
        ):
            rules.add(violation.rule)
    for name, seg in segs.items():
        for violation in verify_seg(seg, module[name]):
            rules.add(violation.rule)
    for violation in verify_call_interfaces(module):
        rules.add(violation.rule)
    return rules


def find_instr(function, kind, predicate=lambda i: True):
    for instr in function.all_instrs():
        if isinstance(instr, kind) and predicate(instr):
            return instr
    raise AssertionError(f"no {kind.__name__} in {function.name}")


# ----------------------------------------------------------------------
# Baseline: a well-formed module trips nothing.
# ----------------------------------------------------------------------
def test_well_formed_module_fires_no_rules():
    module, segs = build()
    assert fired(module, segs) == set()


def test_every_rule_is_registered():
    # Keep the rule table honest: each mutation below names a real rule.
    for rule_id in (
        "ir-entry",
        "ir-terminator",
        "ir-edge-symmetry",
        "ssa-single-def",
        "ssa-dominance",
        "phi-arity",
        "cd-branch",
        "seg-dangling-edge",
        "seg-index-symmetry",
        "seg-def-unresolved",
        "seg-use-anchor",
        "seg-gate-condition",
        "aux-pairing",
        "call-aux-pairing",
        "summary-interface",
        "summary-slot",
        "summary-coherence",
    ):
        assert rule_id in RULES


# ----------------------------------------------------------------------
# IR rules
# ----------------------------------------------------------------------
def test_mutation_ir_entry():
    module, segs = build()
    module["main"].function.entry = "nosuch"
    assert fired(module, segs) == {"ir-entry"}


def test_mutation_ir_terminator():
    module, segs = build()
    function = module["main"].function
    ret_block = next(
        block
        for block in function.blocks.values()
        if isinstance(block.terminator, cfg.Ret)
    )
    ret_block.terminator = None
    assert fired(module, segs) == {"ir-terminator"}


def test_mutation_ir_edge_symmetry():
    module, segs = build()
    function = module["main"].function
    function.blocks[function.entry].succs.append("ghost")
    assert fired(module, segs) == {"ir-edge-symmetry"}


def test_mutation_ssa_single_def():
    module, segs = build()
    function = module["main"].function
    assign = find_instr(function, cfg.Assign)
    for block in function.blocks.values():
        if assign in block.instrs:
            block.instrs.append(assign)
            break
    assert fired(module, segs) == {"ssa-single-def"}


def test_mutation_ssa_dominance():
    module, segs = build()
    function = module["main"].function

    def def_block(var):
        for label, block in function.blocks.items():
            for instr in block.all_instrs():
                if instr.defined_var() == var:
                    return label
        return None

    # The x-join phi: swap one operand for the variable defined in the
    # *other* arm, whose definition cannot dominate this predecessor.
    phi = find_instr(
        function,
        cfg.Phi,
        lambda i: len(i.incomings) == 2
        and all(isinstance(op, cfg.Var) for _, op in i.incomings)
        and len({def_block(op.name) for _, op in i.incomings}) == 2,
    )
    (pred_a, _op_a), (_pred_b, op_b) = phi.incomings
    phi.incomings[0] = (pred_a, op_b)
    assert fired(module, segs) == {"ssa-dominance"}


def test_mutation_phi_arity():
    module, segs = build()
    function = module["main"].function
    phi = find_instr(function, cfg.Phi)
    phi.incomings.append((function.entry, cfg.Const(0)))
    assert fired(module, segs) == {"phi-arity"}


def test_mutation_cd_branch():
    module, segs = build()
    prepared = module["main"]
    ret_label = next(
        label
        for label, block in prepared.function.blocks.items()
        if isinstance(block.terminator, cfg.Ret)
    )
    # Claim a block is control-dependent on the return block, which has
    # no Branch terminator.
    prepared.control_deps.setdefault(ret_label, []).append((ret_label, True))
    assert fired(module, segs) == {"cd-branch"}


# ----------------------------------------------------------------------
# SEG rules
# ----------------------------------------------------------------------
def test_mutation_seg_dangling_edge():
    module, segs = build()
    seg = segs["main"]
    edge = next(iter(edges[0] for edges in seg.out_edges.values() if edges))
    seg.vertices.discard(edge.src)
    assert fired(module, segs) == {"seg-dangling-edge"}


def test_mutation_seg_index_symmetry():
    module, segs = build()
    seg = segs["main"]
    dst, edges = next(
        (dst, edges) for dst, edges in seg.in_edges.items() if edges
    )
    edges.pop()
    assert fired(module, segs) == {"seg-index-symmetry"}


def test_mutation_seg_misfiled_edge():
    # Both indexes hold the edge, but the out-index files it under a key
    # that is not its source.
    module, segs = build()
    seg = segs["main"]
    (src, edges), (other, _) = list(seg.out_edges.items())[:2]
    edge = edges.pop()
    if not edges:
        del seg.out_edges[src]
    seg.out_edges[other].append(edge)
    assert fired(module, segs) == {"seg-index-symmetry"}


def test_mutation_seg_def_unresolved():
    module, segs = build()
    segs["main"].vertices.add(("def", "ghost.7"))
    assert fired(module, segs) == {"seg-def-unresolved"}


def test_mutation_seg_use_anchor():
    module, segs = build()
    segs["main"].vertices.add(("use", "ghost.7", 999999999))
    assert fired(module, segs) == {"seg-use-anchor"}


def test_mutation_seg_use_anchor_wrong_statement():
    # A real statement that does not read the variable.
    module, segs = build()
    seg = segs["main"]
    name, uid = next((k[1], k[2]) for k in seg.vertices if k[0] == "use")
    other = next(
        instr.uid
        for instr in seg.instr_by_uid.values()
        if name not in instr.used_vars()
    )
    seg.vertices.add(("use", name, other))
    assert fired(module, segs) == {"seg-use-anchor"}


def test_mutation_seg_gate_condition():
    module, segs = build()
    seg = segs["main"]
    uid = next(iter(seg.control), None)
    if uid is None:  # pragma: no cover - main always has gated statements
        uid = next(iter(seg.instr_by_uid))
    seg.control.setdefault(uid, []).append(("ghost.9", True))
    assert fired(module, segs) == {"seg-gate-condition"}


def test_mutation_aux_pairing():
    module, segs = build()
    # Corrupt the *signature* side of the Fig. 3 contract; the function
    # body stays intact, so only the pairing check can notice.
    module["callee"].signature.aux_params.append(("ghost", 1))
    assert fired(module, segs) == {"aux-pairing"}


def test_mutation_call_aux_pairing():
    module, segs = build()
    call = find_instr(
        module["main"].function, cfg.Call, lambda i: i.callee == "callee"
    )
    assert call.extra_receivers, "connector transform should add receivers"
    call.extra_receivers.append("ghost_recv.1")
    assert fired(module, segs) == {"call-aux-pairing"}


# ----------------------------------------------------------------------
# Summary lints
# ----------------------------------------------------------------------
def lint(summaries):
    module, segs = build()
    pf = PinpointFunction(module["callee"], segs["callee"])
    return {violation.rule for violation in lint_summaries(summaries, pf)}


def test_mutation_summary_interface():
    summaries = FunctionSummaries(function="callee")
    summaries.rv[0] = RVSummary(
        function="callee",
        slot=0,
        value=cfg.Const(0),
        constraint=Constraint(TRUE_CONSTRAINT.term, frozenset({"stranger.3"})),
    )
    assert lint(summaries) == {"summary-interface"}


def test_mutation_summary_slot():
    summaries = FunctionSummaries(function="callee")
    summaries.vf4.append(
        VFSummary(
            kind="vf4",
            function="callee",
            path=(),
            constraint=TRUE_CONSTRAINT,
            param_slot=99,
        )
    )
    assert lint(summaries) == {"summary-slot"}


def test_mutation_summary_coherence():
    summaries = FunctionSummaries(function="callee")
    summaries.vf1.append(
        VFSummary(
            kind="vf1",
            function="callee",
            path=(("def", "phantom.5"),),
            constraint=TRUE_CONSTRAINT,
            param_slot=0,
            ret_slot=0,
        )
    )
    assert lint(summaries) == {"summary-coherence"}
