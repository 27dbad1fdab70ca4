"""One-pass preparation equals the two-pass sequence it replaced.

``prepare_function`` lowers each function once: Mod/Ref runs on the
function's own SSA form, and Fig. 3(a) is an edit of that SSA form.  The
oracle below is the sequence it replaced, kept only here: a throwaway
lowering for Mod/Ref, then a second lowering whose interface is
transformed before SSA.  Both must agree on the connector signature, the
Mod/Ref sets, the SSA function, the gates and the points-to facts, up
to a one-to-one renaming of instruction uids (the throwaway copy no
longer draws any, so uid-derived names shift).
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List, Tuple

import pytest

from repro.core.pipeline import prepare_function
from repro.ir import cfg
from repro.ir.callgraph import CallGraph
from repro.ir.dominance import dominators
from repro.ir.gating import GateInfo
from repro.ir.lower import lower_function
from repro.ir.ssa import to_ssa
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.pta.intraproc import PointsToAnalysis
from repro.pta.memory import aux_param_name, aux_return_name
from repro.smt import terms as T
from repro.smt.linear_solver import LinearSolver
from repro.synth import juliet, precision
from repro.synth.generator import GeneratorConfig, generate_program
from repro.transform.connectors import ConnectorSignature, transform_call_sites
from repro.transform.modref import compute_modref

# ----------------------------------------------------------------------
# The two-pass oracle
# ----------------------------------------------------------------------
def _pre_ssa_interface(function: cfg.Function, summary) -> ConnectorSignature:
    """Fig. 3(a) on the pre-SSA CFG, as it was before the SSA edit."""
    signature = ConnectorSignature(function.name, list(function.params))
    signature.aux_params = summary.ordered_ref()
    signature.aux_returns = summary.ordered_mod()
    entry = function.blocks[function.entry]
    stores: List[cfg.Instr] = []
    for param, depth in signature.aux_params:
        name = aux_param_name(param, depth)
        function.aux_params.append(name)
        store = cfg.Store(cfg.Var(param), depth, cfg.Var(name))
        store.block = entry.label
        store.synthetic = True
        stores.append(store)
    entry.instrs[:0] = stores
    for block in function.blocks.values():
        terminator = block.terminator
        if not isinstance(terminator, cfg.Ret):
            continue
        for param, depth in signature.aux_returns:
            name = aux_return_name(param, depth)
            load = cfg.Load(name, cfg.Var(param), depth)
            load.block = block.label
            load.synthetic = True
            block.instrs.append(load)
            terminator.extra_values.append(cfg.Var(name))
    function.aux_returns = [aux_return_name(p, k) for p, k in signature.aux_returns]
    return signature


def _two_pass(func_ast: ast.FuncDef, usable, pta_tier: str = "fi"):
    linear = LinearSolver()
    with cfg.scoped_uids():
        scratch = lower_function(func_ast)
        dom = dominators(scratch)
        transform_call_sites(scratch, usable)
        to_ssa(scratch, dom)
        modref = compute_modref(scratch, linear=linear, gates=GateInfo(scratch, dom))

        function = lower_function(func_ast)
        transform_call_sites(function, usable)
        signature = _pre_ssa_interface(function, modref)
        to_ssa(function, dom)
        gates = GateInfo(function, dom)
        flow = None
        if pta_tier == "fs":
            from repro.pta.flowsense import FlowSensitivePTA

            flow = FlowSensitivePTA(function).run()
        points_to = PointsToAnalysis(
            function, gates=gates, linear=linear, flow=flow
        ).run()
    return function, signature, modref, gates, points_to


# ----------------------------------------------------------------------
# Comparison up to a uid renaming
# ----------------------------------------------------------------------
_UID_NAME = re.compile(r"(loop\.|[AC]\$|heap@|; site )(\d+)")


def _instrs(function: cfg.Function):
    for label in sorted(function.blocks):
        yield from function.blocks[label].all_instrs()


def _uid_renaming(old: cfg.Function, new: cfg.Function) -> Dict[int, int]:
    """The uid bijection pairing the two functions' instructions, which
    must match one for one in kind and position."""
    assert sorted(old.blocks) == sorted(new.blocks)
    old_instrs, new_instrs = list(_instrs(old)), list(_instrs(new))
    assert len(old_instrs) == len(new_instrs)
    mapping: Dict[int, int] = {}
    for a, b in zip(old_instrs, new_instrs):
        assert type(a) is type(b), (a, b)
        assert mapping.setdefault(a.uid, b.uid) == b.uid
    assert len(set(mapping.values())) == len(mapping)
    return mapping


class _Renamer:
    def __init__(self, mapping: Dict[int, int]) -> None:
        self.mapping = mapping
        self._terms: Dict[Tuple[int, bool], str] = {}

    def text(self, value: str, side_old: bool) -> str:
        if not side_old:
            return value
        return _UID_NAME.sub(
            lambda m: f"{m.group(1)}{self.mapping[int(m.group(2))]}", value
        )

    def term(self, term: T.Term, side_old: bool) -> str:
        """A digest of ``term`` that ignores the order of and/or operands
        (their sort order follows the variable names being renamed)."""
        key = (id(term), side_old)
        hit = self._terms.get(key)
        if hit is not None:
            return hit
        if term.kind in (T.KIND_BOOL_VAR, T.KIND_INT_VAR):
            text = f"{term.kind}:{self.text(str(term.value), side_old)}"
        elif not term.args:
            text = f"{term.kind}:{term.value}"
        else:
            parts = [self.term(arg, side_old) for arg in term.args]
            if term.kind in (T.KIND_AND, T.KIND_OR):
                parts.sort()
            text = f"{term.kind}({','.join(parts)})"
        digest = hashlib.sha1(text.encode()).hexdigest()
        self._terms[key] = digest
        return digest


def _pta_view(result, renamer: _Renamer, side_old: bool, uid):
    def entries(items):
        return [
            (renamer.text(repr(x), side_old), renamer.term(cond, side_old))
            for x, cond in items
        ]

    def by_uid(table):
        return {uid(key): entries(value) for key, value in table.items()}

    return {
        "points_to": {
            renamer.text(var, side_old): entries(facts)
            for var, facts in result.points_to.items()
        },
        "load_values": by_uid(result.load_values),
        "load_targets": by_uid(result.load_targets),
        "store_targets": by_uid(result.store_targets),
        "ref": result.ref,
        "mod": result.mod,
        "counts": (
            result.conditions_built,
            result.conditions_pruned,
            result.strong_updates,
            result.weak_updates,
            result.degraded,
            result.tier,
        ),
        "strong_uids": sorted(uid(u) for u in result.strong_uids),
    }


def assert_one_pass_equals_two_passes(
    func_ast: ast.FuncDef, usable, pta_tier: str = "fi"
):
    prepared = prepare_function(func_ast, usable, pta_tier=pta_tier)
    old_fn, old_sig, old_modref, old_gates, old_pta = _two_pass(
        func_ast, usable, pta_tier
    )
    new_fn = prepared.function

    # Connector signature and Mod/Ref sets: no uid in them.
    assert prepared.signature == old_sig
    assert (prepared.modref.ref, prepared.modref.mod) == (
        old_modref.ref,
        old_modref.mod,
    )

    # The SSA function, instruction by instruction.
    mapping = _uid_renaming(old_fn, new_fn)
    renamer = _Renamer(mapping)
    assert new_fn.params == old_fn.params
    assert new_fn.aux_params == old_fn.aux_params
    assert new_fn.aux_returns == old_fn.aux_returns
    for label in old_fn.blocks:
        old_block, new_block = old_fn.blocks[label], new_fn.blocks[label]
        assert (old_block.preds, old_block.succs) == (new_block.preds, new_block.succs)
        old_text = [renamer.text(repr(i), True) for i in old_block.all_instrs()]
        assert [repr(i) for i in new_block.all_instrs()] == old_text
        for a, b in zip(old_block.all_instrs(), new_block.all_instrs()):
            assert (a.synthetic, a.line, a.block) == (b.synthetic, b.line, b.block)

    # Gates of every phi, and the back edges.
    assert prepared.gates.back == old_gates.back
    for old_phi, new_phi in zip(_instrs(old_fn), _instrs(new_fn)):
        if not isinstance(old_phi, cfg.Phi):
            continue
        assert [renamer.term(g, False) for g in prepared.gates.gates[new_phi.uid]] == [
            renamer.term(g, True) for g in old_gates.gates[old_phi.uid]
        ]

    # Points-to facts, in order.
    assert _pta_view(prepared.points_to, renamer, False, lambda u: u) == _pta_view(
        old_pta, renamer, True, lambda u: mapping[u]
    )
    return prepared, mapping


def assert_program_one_pass_equals_two_passes(source: str, pta_tier: str = "fi"):
    """Bottom-up over the call graph, as the prepare driver goes."""
    program = parse_program(source)
    callgraph = CallGraph(program)
    ast_by_name = {f.name: f for f in program.functions}
    signatures: Dict[str, ConnectorSignature] = {}
    renamed = 0
    for name in callgraph.bottom_up_order():
        usable = {
            callee: signatures[callee]
            for callee in callgraph.callees[name]
            if callee in signatures
            and callgraph.scc_of[callee] != callgraph.scc_of[name]
        }
        prepared, mapping = assert_one_pass_equals_two_passes(
            ast_by_name[name], usable, pta_tier
        )
        signatures[name] = prepared.signature
        renamed += sum(1 for a, b in mapping.items() if a != b)
    return renamed


# ----------------------------------------------------------------------
# Subjects
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("lines", [300, 2000])
@pytest.mark.parametrize("taint", [0, 7])
def test_generated_programs(seed, lines, taint):
    source = generate_program(
        GeneratorConfig(seed=seed, target_lines=lines, taint_period=taint)
    ).source
    # The throwaway lowering drew uids first, so the renaming is not the
    # identity: the comparison above is not vacuous.
    assert assert_program_one_pass_equals_two_passes(source) > 0


def test_juliet_like_suite():
    source = juliet.suite_source(juliet.generate_juliet_suite())
    assert_program_one_pass_equals_two_passes(source)


@pytest.mark.parametrize("tier", ["fi", "fs"])
def test_precision_suite(tier):
    source = precision.suite_source(precision.generate_precision_suite())
    assert_program_one_pass_equals_two_passes(source, pta_tier=tier)


HAND_CASES = {
    # p is reassigned on one branch and *p is modified: the version of p
    # reaching the return is a phi only the Aux return load uses.
    "reassigned_param": """
        fn set(p, c) {
            *p = 1;
            if (c > 0) { p = malloc(); }
            return 0;
        }
        fn main(q, c) { set(q, c); x = *q; return x; }
    """,
    "memcpy_memset": """
        fn copy(dst, src) { memcpy(dst, src); return 0; }
        fn clear(dst) { memset(dst, 0); return 0; }
        fn main(a, b) { copy(a, b); clear(b); x = *a; return x; }
    """,
    "depth_two_chain": """
        fn deep(pp, v) { p = *pp; *p = v; return 0; }
        fn mid(pp, v) { deep(pp, v); q = *pp; y = *q; return y; }
        fn main(pp, v) { r = mid(pp, v); return r; }
    """,
    "same_scc": """
        fn ping(p, n) { if (n > 0) { pong(p, n - 1); } *p = n; return 0; }
        fn pong(p, n) { if (n > 0) { ping(p, n - 1); } x = *p; return x; }
        fn main(p) { ping(p, 3); return 0; }
    """,
    "loop_header_phi": """
        fn walk(p, n) {
            while (n > 0) {
                if (n > 5) { p = malloc(); }
                *p = n;
                n = n - 1;
            }
            return 0;
        }
        fn main(p) { walk(p, 9); y = *p; return y; }
    """,
    "falls_off_end": """
        fn touch(p, c) { if (c > 0) { *p = 2; } }
        fn main(p, c) { touch(p, c); z = *p; free(z); }
    """,
}


@pytest.mark.parametrize("name", sorted(HAND_CASES))
def test_hand_cases(name):
    assert_program_one_pass_equals_two_passes(HAND_CASES[name])
