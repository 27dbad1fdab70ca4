"""Unit tests for Mod/Ref and the connector transformation (Fig. 3)."""

import pytest

from repro.core.pipeline import prepare_source
from repro.ir import cfg
from repro.ir.lower import lower_function
from repro.ir.ssa import base_name, to_ssa
from repro.lang.parser import parse_function, parse_program
from repro.transform.connectors import (
    transform_call_sites,
    transform_function_interface,
)
from repro.transform.modref import compute_modref


# The paper's motivating example (Fig. 1), in our surface syntax.
FIG1 = """
fn foo(a) {
    ptr = malloc();
    *ptr = a;
    if (t1 > 0) {
        bar(ptr);
    } else {
        qux(ptr);
    }
    f = *ptr;
    if (t2 > 0) { print(*f); }
    return 0;
}

fn bar(q) {
    c = malloc();
    t3 = *q;
    if (t3 != 0) {
        *q = c;
        free(c);
    } else {
        if (t4 > 0) { *q = b; }
    }
    return 0;
}

fn qux(r) {
    if (t5 > 0) { *r = d; } else { *r = e; }
    return 0;
}
"""


def modref_of(source: str):
    scratch = to_ssa(lower_function(parse_function(source)))
    return compute_modref(scratch)


def test_modref_pure_function():
    summary = modref_of("fn f(a) { return a; }")
    assert summary.is_pure()


def test_modref_ref_only():
    summary = modref_of("fn f(q) { x = *q; return x; }")
    assert ("q", 1) in summary.ref
    assert not summary.mod


def test_modref_mod_strongly_updated():
    # *r is written on every path: the initial value never survives, so
    # no aux formal parameter is needed (the paper's qux has only Z).
    summary = modref_of(
        "fn qux(r, d, e) { if (t5 > 0) { *r = d; } else { *r = e; } return 0; }"
    )
    assert ("r", 1) in summary.mod
    assert ("r", 1) not in summary.ref


def test_modref_mod_with_surviving_initial():
    # *q written only under a condition: on the other path the incoming
    # value survives to the return, so both X (ref) and Y (mod) exist —
    # the paper's bar.
    summary = modref_of(
        "fn bar(q, b) { t3 = *q; if (t3 != 0) { *q = b; } return 0; }"
    )
    assert ("q", 1) in summary.mod
    assert ("q", 1) in summary.ref


def test_modref_mod_only_conditional_no_load():
    summary = modref_of("fn f(q, v) { if (c > 0) { *q = v; } return 0; }")
    assert ("q", 1) in summary.mod
    assert ("q", 1) in summary.ref  # initial value survives when !c


def test_modref_depth_closure():
    summary = modref_of("fn f(q, v) { p = *q; *p = v; return 0; }")
    assert ("q", 1) in summary.ref
    assert ("q", 2) in summary.mod


def test_interface_transform_adds_connectors():
    func = to_ssa(
        lower_function(
            parse_function(
                "fn bar(q, b) { t3 = *q; if (t3 != 0) { *q = b; } return 0; }"
            )
        ),
        prune=False,
    )
    # Mod/Ref runs on the same SSA function the interface edit changes.
    summary = compute_modref(func)
    signature = transform_function_interface(func, summary)
    assert signature.params == ["q", "b"]
    assert ("q", 1) in signature.aux_params
    assert ("q", 1) in signature.aux_returns
    # Entry block starts with the store *(q.0, 1) <- F$q$1.0.
    entry = func.blocks[func.entry]
    first = entry.instrs[0]
    assert isinstance(first, cfg.Store)
    assert first.pointer.name == "q.0"
    assert first.value.name == "F$q$1.0"
    assert func.aux_params == ["F$q$1.0"]
    # The return carries the aux return value, loaded through q.0.
    rets = func.return_instrs()
    assert rets and rets[0].extra_values
    assert rets[0].extra_values[0].name == "R$q$1.0"
    assert func.aux_returns == ["R$q$1"]
    exit_load = func.blocks[rets[0].block].instrs[-1]
    assert isinstance(exit_load, cfg.Load)
    assert exit_load.pointer.name == "q.0"


def test_interface_transform_loads_through_the_reaching_phi():
    # q is reassigned on one branch: the Aux return load reads *q through
    # the join's phi of q, which nothing else uses.
    func = to_ssa(
        lower_function(
            parse_function(
                "fn f(q, c) { *q = 1; if (c > 0) { q = malloc(); } return 0; }"
            )
        ),
        prune=False,
    )
    signature = transform_function_interface(func, compute_modref(func))
    assert ("q", 1) in signature.aux_returns
    (ret,) = func.return_instrs()
    exit_load = func.blocks[ret.block].instrs[-1]
    assert isinstance(exit_load, cfg.Load) and exit_load.dest == "R$q$1.0"
    phis = {phi.dest: phi for block in func.blocks.values() for phi in block.phis}
    assert exit_load.pointer.name in phis
    assert base_name(exit_load.pointer.name) == "q"
    # Phis nothing uses, even after the edit, are pruned by it.
    used = {var for instr in func.all_instrs() for var in instr.used_vars()}
    assert set(phis) <= used


def test_interface_transform_requires_ssa():
    func = lower_function(parse_function("fn f(q) { *q = 1; return 0; }"))
    with pytest.raises(ValueError):
        transform_function_interface(func, modref_of("fn f(q) { *q = 1; return 0; }"))


def test_call_site_transform():
    program = parse_program(
        """
        fn caller(p, v) { callee(p, v); x = *p; return x; }
        fn callee(q, v) { *q = v; t = *q; return t; }
        """
    )
    callee = to_ssa(lower_function(program.function("callee")), prune=False)
    signature = transform_function_interface(callee, compute_modref(callee))
    caller = lower_function(program.function("caller"))
    transform_call_sites(caller, {"callee": signature})
    instrs = list(caller.all_instrs())
    calls = [i for i in instrs if isinstance(i, cfg.Call)]
    assert len(calls) == 1
    call = calls[0]
    # Extra argument A loaded from *p before the call.
    assert len(call.args) == 2 + len(signature.aux_params)
    loads_before = [
        i for i in instrs if isinstance(i, cfg.Load) and i.dest.startswith("A$")
    ]
    assert len(loads_before) == len(signature.aux_params)
    # Receiver C stored back into *p after the call.
    assert len(call.extra_receivers) == len(signature.aux_returns)
    stores_after = [
        i
        for i in instrs
        if isinstance(i, cfg.Store)
        and isinstance(i.value, cfg.Var)
        and i.value.name.startswith("C$")
    ]
    assert len(stores_after) == len(signature.aux_returns)


def test_pipeline_fig1_example():
    """End-to-end preparation of the paper's Fig. 1 program."""
    prepared = prepare_source(FIG1)
    assert set(prepared.functions) == {"foo", "bar", "qux"}
    # Bottom-up order: callees before foo.
    assert prepared.order.index("bar") < prepared.order.index("foo")
    assert prepared.order.index("qux") < prepared.order.index("foo")

    bar = prepared["bar"]
    # bar reads *q (the t3 = *q load) and writes it: both connectors.
    assert ("q", 1) in bar.signature.aux_params  # X in Fig. 2
    assert ("q", 1) in bar.signature.aux_returns  # Y in Fig. 2

    qux = prepared["qux"]
    # qux strongly updates *r on all paths: only the aux return Z.
    assert ("r", 1) in qux.signature.aux_returns
    assert ("r", 1) not in qux.signature.aux_params

    foo = prepared["foo"]
    # foo's f = *ptr must see the values stored back from bar and qux
    # (the L and M connectors), under complementary branch conditions.
    f_loads = [
        i
        for i in foo.function.all_instrs()
        if isinstance(i, cfg.Load) and base_name(i.dest) == "f"
    ]
    assert len(f_loads) == 1
    values = foo.points_to.load_values[f_loads[0].uid]
    names = {base_name(v.name) for v, _ in values if isinstance(v, cfg.Var)}
    # Receivers of bar's Y and qux's Z aux returns.
    assert any(n.startswith("C$") for n in names), names
    assert len(values) >= 2
    # foo itself is connector-free at its own interface (a is not deref'd
    # ... except through ptr, which is local memory).
    assert foo.signature.aux_params == []


def test_pipeline_recursive_program_no_crash():
    prepared = prepare_source(
        """
        fn f(n) { if (n > 0) { r = f(n - 1); return r; } return 0; }
        """
    )
    assert "f" in prepared


def test_pipeline_mutual_recursion_no_crash():
    prepared = prepare_source(
        """
        fn even(n) { if (n == 0) { return 1; } r = odd(n - 1); return r; }
        fn odd(n) { if (n == 0) { return 0; } r = even(n - 1); return r; }
        """
    )
    assert set(prepared.functions) == {"even", "odd"}
