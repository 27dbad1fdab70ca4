"""Property-based tests (hypothesis) for core data structures and
invariants."""

import functools

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.smt import terms as T
from repro.smt.linear_solver import LinearSolver
from repro.smt.simplify import simplify
from repro.smt.solver import Result, SMTSolver


# ----------------------------------------------------------------------
# Term strategies
# ----------------------------------------------------------------------
_names = st.sampled_from(["a", "b", "c", "d", "e"])
_int_names = st.sampled_from(["x", "y", "z"])


@st.composite
def bool_terms(draw, depth=3):
    if depth == 0:
        choice = draw(st.integers(0, 3))
        if choice == 0:
            return T.bool_var(draw(_names))
        if choice == 1:
            return T.TRUE if draw(st.booleans()) else T.FALSE
        lhs = T.int_var(draw(_int_names))
        rhs_choice = draw(st.integers(0, 1))
        rhs = (
            T.const(draw(st.integers(-5, 5)))
            if rhs_choice
            else T.int_var(draw(_int_names))
        )
        op = draw(st.sampled_from([T.eq, T.ne, T.lt, T.le, T.gt, T.ge]))
        return op(lhs, rhs)
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return T.not_(draw(bool_terms(depth=depth - 1)))
    if choice == 1:
        return T.and_(
            draw(bool_terms(depth=depth - 1)), draw(bool_terms(depth=depth - 1))
        )
    if choice == 2:
        return T.or_(
            draw(bool_terms(depth=depth - 1)), draw(bool_terms(depth=depth - 1))
        )
    return draw(bool_terms(depth=0))


# ----------------------------------------------------------------------
# Hash-consing invariants
# ----------------------------------------------------------------------
@given(bool_terms())
@settings(max_examples=200, deadline=None)
def test_terms_hash_consed(term):
    """Rebuilding the same structure yields the identical object."""
    rebuilt = _rebuild(term)
    assert rebuilt is term


def _rebuild(term):
    if not term.args:
        return term
    args = tuple(_rebuild(a) for a in term.args)
    return T.FACTORY._rebuild(term.kind, args)


@given(bool_terms())
@settings(max_examples=200, deadline=None)
def test_double_negation_is_identity(term):
    assert T.not_(T.not_(term)) is term


@given(bool_terms(), bool_terms())
@settings(max_examples=200, deadline=None)
def test_and_or_commutative(a, b):
    assert T.and_(a, b) is T.and_(b, a)
    assert T.or_(a, b) is T.or_(b, a)


@given(bool_terms(), bool_terms(), bool_terms())
@settings(max_examples=100, deadline=None)
def test_and_associative(a, b, c):
    assert T.and_(T.and_(a, b), c) is T.and_(a, T.and_(b, c))


@given(bool_terms(depth=0))
@settings(max_examples=200, deadline=None)
def test_atom_contradiction_always_false(term):
    """Syntactic complement detection is guaranteed at the atom level
    (conjunction flattening can hide deeper pairs — those are caught by
    the solvers, see test_smt_excluded_middle)."""
    assert T.and_(term, T.not_(term)) is T.FALSE
    assert T.or_(term, T.not_(term)) is T.TRUE


# ----------------------------------------------------------------------
# Evaluation-based semantics oracle
# ----------------------------------------------------------------------
def _evaluate(term, bool_env, int_env):
    kind = term.kind
    if term is T.TRUE:
        return True
    if term is T.FALSE:
        return False
    if kind == "bvar":
        return bool_env[term.value]
    if kind == "ivar":
        return int_env[term.value]
    if kind == "const":
        return term.value
    if kind == "not":
        return not _evaluate(term.args[0], bool_env, int_env)
    if kind == "and":
        return all(_evaluate(a, bool_env, int_env) for a in term.args)
    if kind == "or":
        return any(_evaluate(a, bool_env, int_env) for a in term.args)
    lhs = _evaluate(term.args[0], bool_env, int_env)
    rhs = _evaluate(term.args[1], bool_env, int_env) if len(term.args) > 1 else None
    return {
        "eq": lambda: lhs == rhs,
        "ne": lambda: lhs != rhs,
        "lt": lambda: lhs < rhs,
        "le": lambda: lhs <= rhs,
        "gt": lambda: lhs > rhs,
        "ge": lambda: lhs >= rhs,
        "add": lambda: lhs + rhs,
        "sub": lambda: lhs - rhs,
        "mul": lambda: lhs * rhs,
        "neg": lambda: -lhs,
    }[kind]()


_envs = st.fixed_dictionaries(
    {
        "bools": st.fixed_dictionaries(
            {name: st.booleans() for name in ["a", "b", "c", "d", "e"]}
        ),
        "ints": st.fixed_dictionaries(
            {name: st.integers(-5, 5) for name in ["x", "y", "z"]}
        ),
    }
)


@given(bool_terms(), _envs)
@settings(max_examples=200, deadline=None)
def test_simplify_preserves_semantics(term, envs):
    simple = simplify(term)
    original = _evaluate(term, envs["bools"], envs["ints"])
    simplified = _evaluate(simple, envs["bools"], envs["ints"])
    assert original == simplified


@given(bool_terms(), _envs)
@settings(max_examples=150, deadline=None)
def test_smt_sat_respects_witness(term, envs):
    """If a concrete environment satisfies the term, the solver must not
    answer UNSAT (soundness of the UNSAT answer)."""
    if _evaluate(term, envs["bools"], envs["ints"]):
        assert SMTSolver().check(term) is not Result.UNSAT


@given(bool_terms())
@settings(max_examples=75, deadline=None)
def test_smt_excluded_middle(term):
    """term | !term is always satisfiable; term & !term never."""
    solver = SMTSolver()
    assert solver.check(T.or_(term, T.not_(term))) is Result.SAT
    assert solver.check(T.and_(term, T.not_(term))) is Result.UNSAT


@given(bool_terms(), _envs)
@settings(max_examples=150, deadline=None)
def test_linear_solver_never_flags_satisfiable(term, envs):
    """The linear filter must never flag a condition some environment
    satisfies (it only catches genuine contradictions)."""
    if _evaluate(term, envs["bools"], envs["ints"]):
        assert not LinearSolver().is_obviously_unsat(term)


@given(bool_terms())
@settings(max_examples=100, deadline=None)
def test_linear_solver_agrees_with_smt(term):
    """Anything the linear solver flags, the SMT solver refutes too."""
    if LinearSolver().is_obviously_unsat(term):
        assert SMTSolver().check(term) is Result.UNSAT


# ----------------------------------------------------------------------
# Renaming invariants
# ----------------------------------------------------------------------
@given(bool_terms())
@settings(max_examples=150, deadline=None)
def test_rename_roundtrip(term):
    mapping = {name: name + "~1" for name in term.variables()}
    inverse = {v: k for k, v in mapping.items()}
    renamed = T.FACTORY.rename(term, mapping)
    assert T.FACTORY.rename(renamed, inverse) is term


@given(bool_terms())
@settings(max_examples=150, deadline=None)
def test_rename_variables_disjoint(term):
    mapping = {name: name + "~ctx" for name in term.variables()}
    renamed = T.FACTORY.rename(term, mapping)
    if mapping:
        assert not (renamed.variables() & term.variables())


# ----------------------------------------------------------------------
# Exactness of the check-phase memos
# ----------------------------------------------------------------------
def _uncached_variables(term):
    if term.kind in (T.KIND_BOOL_VAR, T.KIND_INT_VAR):
        return {term.value}
    return set().union(*(_uncached_variables(a) for a in term.args))


@given(bool_terms(), st.integers(1, 4), st.integers(1, 4))
@settings(max_examples=150, deadline=None)
def test_clone_term_matches_reference_rename(term, first, second):
    """The per-suffix clone memo returns what renaming every variable
    returns, for clones of clones too, and a repeat builds nothing."""
    from repro.core.context import Context, clone_term

    outer = Context(first, "f", None, None)
    inner = Context(second, "g", None, outer)
    once = clone_term(term, outer)
    assert once is T.FACTORY.rename(
        term, {v: v + outer.suffix() for v in term.variables()}
    )
    twice = clone_term(once, inner)
    assert twice is T.FACTORY.rename(
        once, {v: v + inner.suffix() for v in once.variables()}
    )
    size = T.FACTORY.size()
    assert clone_term(term, outer) is once
    assert clone_term(once, inner) is twice
    assert T.FACTORY.size() == size


_LEAF_SHAPES = st.one_of(
    st.tuples(st.just("var"), _names),
    st.tuples(
        st.just("cmp"),
        st.sampled_from(["eq", "ne", "lt", "le", "gt", "ge"]),
        _int_names,
        st.integers(-2, 2),
    ),
)
_SHAPES = st.recursive(
    _LEAF_SHAPES,
    lambda inner: st.one_of(
        st.tuples(st.just("not"), inner),
        st.tuples(
            st.sampled_from(["and", "or"]), st.lists(inner, min_size=1, max_size=3)
        ),
    ),
    max_leaves=10,
)


def _build(factory, shape):
    """A term of ``factory`` from a shape drawn from ``_SHAPES``."""
    tag = shape[0]
    if tag == "var":
        return factory.bool_var(shape[1])
    if tag == "cmp":
        _, op, name, value = shape
        return getattr(factory, op)(factory.int_var(name), factory.const(value))
    if tag == "not":
        return factory.not_(_build(factory, shape[1]))
    parts = [_build(factory, s) for s in shape[1]]
    return factory.and_(*parts) if tag == "and" else factory.or_(*parts)


def _reference_junction(factory, kind, parts):
    """Reference ``and_``/``or_``: the complement test negates every
    flattened part with ``not_``, building each negation it asks for."""
    if kind == T.KIND_AND:
        absorbing, unit = factory.false, factory.true
    else:
        absorbing, unit = factory.true, factory.false
    flat, seen = [], set()
    for part in T._flatten(parts, kind):
        if part is absorbing:
            return absorbing
        if part is unit or part._id in seen:
            continue
        if factory.not_(part)._id in seen:
            return absorbing
        seen.add(part._id)
        flat.append(part)
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=lambda t: t._skey)
    return factory._mk(kind, tuple(flat), None)


@given(
    st.lists(_SHAPES, min_size=1, max_size=5),
    st.sampled_from([T.KIND_AND, T.KIND_OR]),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_junctions_match_negate_every_part_reference(
    shapes, kind, add_complement, reference_first
):
    """The allocation-free complement test decides exactly as negating
    every part would, whether or not the negations exist yet."""
    factory = T.TermFactory()
    parts = [_build(factory, shape) for shape in shapes]
    if add_complement:
        parts.append(factory.not_(parts[0]))
    fast = factory.and_ if kind == T.KIND_AND else factory.or_
    if reference_first:
        expected = _reference_junction(factory, kind, parts)
        assert fast(*parts) is expected
    else:
        got = fast(*parts)
        assert got is _reference_junction(factory, kind, parts)


@given(st.lists(bool_terms(), max_size=4))
@settings(max_examples=150, deadline=None)
def test_and_memo_matches_factory(parts):
    """The module-level ``and_`` memo returns what the factory builds."""
    assert T.and_(*parts) is T.FACTORY.and_(*parts)
    assert T.and_(*parts) is T.and_(*parts)


@given(bool_terms())
@settings(max_examples=150, deadline=None)
def test_variables_memo_matches_uncached_walk(term):
    names = term.variables()
    assert names == _uncached_variables(term)
    assert term.variables() is names


def test_variables_memo_keys_terms_not_ids():
    """Terms of separate factories share ids; the memo must tell them apart."""
    fresh = T.TermFactory()
    term = fresh.bool_var("only_in_fresh_factory")
    clash = next(t for t in T.FACTORY._table.values() if t._id == term._id)
    clash.variables()
    assert term.variables() == {"only_in_fresh_factory"}


_PC_PROGRAM = """
fn helper(p, c) {
    if (c > 0) { x = *p; } else { x = 0; }
    return x;
}
fn main(a, b) {
    p = malloc();
    q = p;
    if (a > 3) { *q = b; } else { free(p); }
    t = a + b;
    if (t != 0) { r = helper(q, t); } else { r = 1; }
    s = r;
    return s;
}
"""
@functools.lru_cache(maxsize=None)
def _pc_engine():
    from repro import Pinpoint

    return Pinpoint.from_source(_PC_PROGRAM)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_pc_memo_is_exact(data):
    """A repeat ``pc(path)`` is the first call's object, and equals what
    a fresh builder computes (the program has no loops, so DD/CD do not
    depend on the order they were first asked in)."""
    from repro.seg.conditions import ConditionBuilder

    engine = _pc_engine()
    pf = engine.functions[data.draw(st.sampled_from(sorted(engine.functions)))]
    vertices = sorted(pf.seg.in_edges, key=repr)
    path = data.draw(st.lists(st.sampled_from(vertices), max_size=6))
    first = pf.conditions.pc(path)
    assert pf.conditions.pc(list(path)) is first
    assert ConditionBuilder(pf.seg, pf.prepared.function).pc(path) == first
