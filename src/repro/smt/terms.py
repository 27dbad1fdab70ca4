"""Hash-consed symbolic terms.

Terms form the constraint language used everywhere in the reproduction:
edge labels in the symbolic expression graph (SEG), path conditions, the
DD/CD constraints of Section 3.2.2, and the inputs to both the linear
contradiction solver and the SMT solver.

Terms are immutable and hash-consed through a module-level
:class:`TermFactory`, so structural equality is pointer equality and the
same sub-term is never stored twice.  This mirrors the "compact encoding"
role the SEG plays in the paper: a condition such as ``¬θ3 ∧ θ4`` is a
single shared DAG node.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Iterable, Optional, Tuple

# Term kinds.  Leaf kinds carry a payload in ``value``; interior kinds
# carry children in ``args``.
KIND_TRUE = "true"
KIND_FALSE = "false"
KIND_BOOL_VAR = "bvar"  # boolean program variable / branch condition
KIND_INT_VAR = "ivar"  # integer or pointer-valued program variable
KIND_CONST = "const"  # integer constant

KIND_NOT = "not"
KIND_AND = "and"
KIND_OR = "or"

KIND_EQ = "eq"
KIND_NE = "ne"
KIND_LT = "lt"
KIND_LE = "le"
KIND_GT = "gt"
KIND_GE = "ge"

KIND_ADD = "add"
KIND_SUB = "sub"
KIND_MUL = "mul"
KIND_NEG = "neg"

_COMPARISONS = frozenset({KIND_EQ, KIND_NE, KIND_LT, KIND_LE, KIND_GT, KIND_GE})
_ARITH = frozenset({KIND_ADD, KIND_SUB, KIND_MUL, KIND_NEG})
_LOGIC = frozenset({KIND_NOT, KIND_AND, KIND_OR})

_NEGATED_COMPARISON = {
    KIND_EQ: KIND_NE,
    KIND_NE: KIND_EQ,
    KIND_LT: KIND_GE,
    KIND_LE: KIND_GT,
    KIND_GT: KIND_LE,
    KIND_GE: KIND_LT,
}

_COMPARISON_SYMBOL = {
    KIND_EQ: "==",
    KIND_NE: "!=",
    KIND_LT: "<",
    KIND_LE: "<=",
    KIND_GT: ">",
    KIND_GE: ">=",
}

_ARITH_SYMBOL = {KIND_ADD: "+", KIND_SUB: "-", KIND_MUL: "*"}


class Term:
    """An immutable, hash-consed symbolic term.

    Do not construct directly; use the factory helpers (:func:`bool_var`,
    :func:`and_`, :func:`eq`, ...) or :class:`TermFactory` methods.
    """

    __slots__ = ("kind", "args", "value", "_id", "_hash", "_skey", "_variables")

    def __init__(
        self,
        kind: str,
        args: Tuple["Term", ...],
        value: object,
        ident: int,
    ) -> None:
        self.kind = kind
        self.args = args
        self.value = value
        self._id = ident
        self._hash = hash((kind, tuple(a._id for a in args), value))
        # Structural (Merkle) key: identical for structurally equal
        # terms in *any* process, unlike ``_id`` (allocation order) and
        # ``hash()`` (PYTHONHASHSEED).  Canonical argument ordering
        # sorts by this key so conditions built in scheduler workers
        # or loaded from the artifact cache collapse to the exact terms
        # a serial run builds — a requirement for byte-identical
        # reports under --jobs N / --cache-dir.
        digest = hashlib.sha1(f"{kind}\x00{value!r}\x00".encode("utf-8"))
        for arg in args:
            digest.update(arg._skey)
        self._skey = digest.digest()
        # variables() memo: on the term itself, so terms of separate
        # factories (whose ids overlap) can never share an entry.
        self._variables: Optional[frozenset] = None

    # Hash-consing makes identity comparison the correct equality.
    def __eq__(self, other: object) -> bool:
        return self is other

    def __ne__(self, other: object) -> bool:
        return self is not other

    def __hash__(self) -> int:
        return self._hash

    @property
    def ident(self) -> int:
        """A dense unique id, stable within one factory."""
        return self._id

    def is_boolean(self) -> bool:
        """Whether this term is boolean-typed (usable as a condition)."""
        return self.kind in _LOGIC or self.kind in _COMPARISONS or self.kind in (
            KIND_TRUE,
            KIND_FALSE,
            KIND_BOOL_VAR,
        )

    def is_atom(self) -> bool:
        """A boolean leaf from the SAT solver's point of view."""
        return self.kind in _COMPARISONS or self.kind == KIND_BOOL_VAR

    def is_comparison(self) -> bool:
        return self.kind in _COMPARISONS

    def is_arith(self) -> bool:
        return self.kind in _ARITH

    def is_const(self) -> bool:
        return self.kind == KIND_CONST

    def variables(self) -> frozenset:
        """All variable names occurring in this term, walked once per term."""
        if self._variables is None:
            self._variables = _walk_variables(self)
        return self._variables

    def __reduce__(self):
        # Pickle by *structure* and re-intern through the module-level
        # factory on load.  Without this, terms crossing a process or
        # disk boundary (scheduler workers, the artifact cache) would
        # materialize as fresh objects outside the factory table —
        # breaking identity equality against locally built terms and
        # colliding on ``_id`` — exactly the bugs hash-consing exists to
        # prevent.  Pickle memoization keeps the DAG shared: each
        # sub-term is reduced once, bottom-up.
        return (_reintern, (self.kind, self.args, self.value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Term({self})"

    def __str__(self) -> str:
        return _format(self)


def _walk_variables(term: Term) -> frozenset:
    names = set()
    stack = [term]
    seen = set()
    while stack:
        term = stack.pop()
        if term._id in seen:
            continue
        seen.add(term._id)
        if term.kind in (KIND_BOOL_VAR, KIND_INT_VAR):
            names.add(term.value)
        stack.extend(term.args)
    return frozenset(names)


def _reintern(kind: str, args: Tuple["Term", ...], value: object) -> "Term":
    """Unpickle hook: rebuild a term inside this process's factory."""
    return FACTORY._mk(kind, args, value)


def _format(term: Term) -> str:
    kind = term.kind
    if kind == KIND_TRUE:
        return "true"
    if kind == KIND_FALSE:
        return "false"
    if kind in (KIND_BOOL_VAR, KIND_INT_VAR):
        return str(term.value)
    if kind == KIND_CONST:
        return str(term.value)
    if kind == KIND_NOT:
        return f"!({_format(term.args[0])})"
    if kind == KIND_AND:
        return "(" + " & ".join(_format(a) for a in term.args) + ")"
    if kind == KIND_OR:
        return "(" + " | ".join(_format(a) for a in term.args) + ")"
    if kind in _COMPARISONS:
        sym = _COMPARISON_SYMBOL[kind]
        return f"({_format(term.args[0])} {sym} {_format(term.args[1])})"
    if kind == KIND_NEG:
        return f"-({_format(term.args[0])})"
    if kind in _ARITH:
        sym = _ARITH_SYMBOL[kind]
        return f"({_format(term.args[0])} {sym} {_format(term.args[1])})"
    raise AssertionError(f"unknown term kind {kind}")


class TermFactory:
    """Builds and hash-conses :class:`Term` objects.

    A single module-level factory (:data:`FACTORY`) backs the convenience
    functions; separate factories may be created for isolation in tests.
    """

    def __init__(self) -> None:
        self._table: dict = {}
        # Atomic id source: ``next()`` on a C-level count is safe under
        # concurrent callers, unlike ``self._next_id += 1``.
        self._ids = itertools.count()
        # Negation memo (negation is an involution, so cache both ways).
        # Without this, the De Morgan rewrite re-negates whole subtrees
        # at every construction level — exponential on deep nestings.
        self._neg_memo: dict = {}
        # ``and_`` memo of the module-level helper, keyed by the argument
        # tuple, and one rename cache per context suffix (see
        # :meth:`add_suffix`).  Both live as long as ``_table``.
        self._and_memo: dict = {}
        self._suffix_memo: dict = {}
        self.true = self._mk(KIND_TRUE, (), None)
        self.false = self._mk(KIND_FALSE, (), None)

    def _mk(self, kind: str, args: Tuple[Term, ...], value: object) -> Term:
        # Interning must stay correct when analyses run on concurrent
        # threads (the repro.service daemon dispatches jobs to a worker
        # pool in-process): ``setdefault`` is a single atomic dict op,
        # so two racing constructions of the same key both get the one
        # canonical Term, and the losing candidate is discarded.  Ids
        # stay unique via the atomic counter; canonical ordering never
        # depends on them (structural ``_skey`` ordering, PR 4).
        key = (kind, tuple(a._id for a in args), value)
        term = self._table.get(key)
        if term is None:
            candidate = Term(kind, args, value, next(self._ids))
            term = self._table.setdefault(key, candidate)
        return term

    # ------------------------------------------------------------------
    # Leaves
    # ------------------------------------------------------------------
    def bool_var(self, name: str) -> Term:
        return self._mk(KIND_BOOL_VAR, (), name)

    def int_var(self, name: str) -> Term:
        return self._mk(KIND_INT_VAR, (), name)

    def const(self, value: int) -> Term:
        return self._mk(KIND_CONST, (), int(value))

    # ------------------------------------------------------------------
    # Boolean structure (with light local simplification)
    # ------------------------------------------------------------------
    def not_(self, a: Term) -> Term:
        if a is self.true:
            return self.false
        if a is self.false:
            return self.true
        if a.kind == KIND_NOT:
            return a.args[0]
        if a.kind in _NEGATED_COMPARISON:
            return self._mk(_NEGATED_COMPARISON[a.kind], a.args, None)
        cached = self._neg_memo.get(a._id)
        if cached is not None:
            return cached
        # De Morgan: keep terms in negation normal form so the linear
        # solver's P/N sets see through negated conjunctions/disjunctions.
        if a.kind == KIND_AND:
            result = self.or_(*(self.not_(part) for part in a.args))
        elif a.kind == KIND_OR:
            result = self.and_(*(self.not_(part) for part in a.args))
        else:
            result = self._mk(KIND_NOT, (a,), None)
        self._neg_memo[a._id] = result
        self._neg_memo[result._id] = a
        return result

    def _built_negation(self, a: Term) -> Optional[Term]:
        """``not_(a)`` for a part that is not AND/OR, if that term exists.

        A complement test only asks whether ``not_(a)`` is among the
        parts already seen, which all exist; a negation that was never
        built cannot be one of them, so it is looked up, not created."""
        if a.kind == KIND_NOT:
            return a.args[0]
        negated = _NEGATED_COMPARISON.get(a.kind)
        if negated is not None:
            return self._table.get((negated, tuple(x._id for x in a.args), None))
        return self._table.get((KIND_NOT, (a._id,), None))

    def and_(self, *parts: Term) -> Term:
        flat = []
        seen = set()
        for part in _flatten(parts, KIND_AND):
            if part is self.false:
                return self.false
            if part is self.true or part._id in seen:
                continue
            # The negation of an OR part is an AND of two or more parts,
            # and a flattened conjunction holds no AND: no complement.
            if part.kind != KIND_OR:
                negation = self._built_negation(part)
                if negation is not None and negation._id in seen:
                    return self.false
            seen.add(part._id)
            flat.append(part)
        if not flat:
            return self.true
        if len(flat) == 1:
            return flat[0]
        flat.sort(key=lambda t: t._skey)
        return self._mk(KIND_AND, tuple(flat), None)

    def or_(self, *parts: Term) -> Term:
        flat = []
        seen = set()
        for part in _flatten(parts, KIND_OR):
            if part is self.true:
                return self.true
            if part is self.false or part._id in seen:
                continue
            # Dual of the test in and_: an AND part's negation is an OR.
            if part.kind != KIND_AND:
                negation = self._built_negation(part)
                if negation is not None and negation._id in seen:
                    return self.true
            seen.add(part._id)
            flat.append(part)
        if not flat:
            return self.false
        if len(flat) == 1:
            return flat[0]
        flat.sort(key=lambda t: t._skey)
        return self._mk(KIND_OR, tuple(flat), None)

    def implies(self, a: Term, b: Term) -> Term:
        return self.or_(self.not_(a), b)

    def iff(self, a: Term, b: Term) -> Term:
        return self.and_(self.implies(a, b), self.implies(b, a))

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------
    def _cmp(self, kind: str, a: Term, b: Term) -> Term:
        if a.is_const() and b.is_const():
            lhs, rhs = a.value, b.value
            result = {
                KIND_EQ: lhs == rhs,
                KIND_NE: lhs != rhs,
                KIND_LT: lhs < rhs,
                KIND_LE: lhs <= rhs,
                KIND_GT: lhs > rhs,
                KIND_GE: lhs >= rhs,
            }[kind]
            return self.true if result else self.false
        if a is b:
            if kind in (KIND_EQ, KIND_LE, KIND_GE):
                return self.true
            if kind in (KIND_NE, KIND_LT, KIND_GT):
                return self.false
        # Canonical operand order for symmetric comparisons (by the
        # process-independent structural key; see Term._skey).
        if kind in (KIND_EQ, KIND_NE) and a._skey > b._skey:
            a, b = b, a
        return self._mk(kind, (a, b), None)

    def eq(self, a: Term, b: Term) -> Term:
        # An equation between two boolean-typed terms is boolean structure
        # (an iff), not a theory atom; rewrite eagerly so the SAT encoding
        # sees through e.g. ``f == (e != 0)``.
        if a.is_boolean() or b.is_boolean():
            return self.iff(self._as_bool(a), self._as_bool(b))
        return self._cmp(KIND_EQ, a, b)

    def ne(self, a: Term, b: Term) -> Term:
        if a.is_boolean() or b.is_boolean():
            return self.not_(self.iff(self._as_bool(a), self._as_bool(b)))
        return self._cmp(KIND_NE, a, b)

    def _as_bool(self, a: Term) -> Term:
        """Coerce a term used in boolean position to a boolean term."""
        if a.is_boolean():
            return a
        if a.is_const():
            return self.false if a.value == 0 else self.true
        # A non-boolean variable or arithmetic term in boolean position
        # means "is non-zero".
        return self._cmp(KIND_NE, a, self.const(0))

    def lt(self, a: Term, b: Term) -> Term:
        return self._cmp(KIND_LT, a, b)

    def le(self, a: Term, b: Term) -> Term:
        return self._cmp(KIND_LE, a, b)

    def gt(self, a: Term, b: Term) -> Term:
        return self._cmp(KIND_GT, a, b)

    def ge(self, a: Term, b: Term) -> Term:
        return self._cmp(KIND_GE, a, b)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def add(self, a: Term, b: Term) -> Term:
        if a.is_const() and b.is_const():
            return self.const(a.value + b.value)
        if a.is_const() and a.value == 0:
            return b
        if b.is_const() and b.value == 0:
            return a
        return self._mk(KIND_ADD, (a, b), None)

    def sub(self, a: Term, b: Term) -> Term:
        if a.is_const() and b.is_const():
            return self.const(a.value - b.value)
        if b.is_const() and b.value == 0:
            return a
        if a is b:
            return self.const(0)
        return self._mk(KIND_SUB, (a, b), None)

    def mul(self, a: Term, b: Term) -> Term:
        if a.is_const() and b.is_const():
            return self.const(a.value * b.value)
        if a.is_const() and a.value == 1:
            return b
        if b.is_const() and b.value == 1:
            return a
        if (a.is_const() and a.value == 0) or (b.is_const() and b.value == 0):
            return self.const(0)
        return self._mk(KIND_MUL, (a, b), None)

    def neg(self, a: Term) -> Term:
        if a.is_const():
            return self.const(-a.value)
        if a.kind == KIND_NEG:
            return a.args[0]
        return self._mk(KIND_NEG, (a,), None)

    def size(self) -> int:
        """Number of distinct terms created so far."""
        return len(self._table)

    # ------------------------------------------------------------------
    # Substitution / renaming (used for context-sensitive cloning)
    # ------------------------------------------------------------------
    def rename(self, term: Term, mapping: dict, cache: Optional[dict] = None) -> Term:
        """Rename variables per ``mapping`` (old name -> new name).

        Used by the engine's cloning-based context sensitivity: a callee's
        summarized constraint is cloned per call site by renaming all its
        variables with a context suffix (Section 3.3.1(2)).
        """
        if cache is None:
            cache = {}
        return self._rename(term, mapping, cache)

    def add_suffix(self, term: Term, suffix: str) -> Term:
        """Rename every variable of ``term`` to ``name + suffix``.

        ``rename`` with a mapping over all of ``term``'s variables does
        the same.  Because every variable is renamed, a subterm's clone
        does not depend on the term around it, so one table per suffix
        caches the clones of every term and subterm for the factory's
        lifetime."""
        entry = self._suffix_memo.get(suffix)
        if entry is None:
            entry = self._suffix_memo.setdefault(suffix, (_AppendSuffix(suffix), {}))
        return self._rename(term, *entry)

    def _rename(self, term: Term, mapping: dict, cache: dict) -> Term:
        hit = cache.get(term._id)
        if hit is not None:
            return hit
        if term.kind in (KIND_BOOL_VAR, KIND_INT_VAR):
            new_name = mapping.get(term.value)
            result = term if new_name is None else self._mk(term.kind, (), new_name)
        elif not term.args:
            result = term
        else:
            new_args = tuple(self._rename(a, mapping, cache) for a in term.args)
            if all(n is o for n, o in zip(new_args, term.args)):
                result = term
            else:
                result = self._rebuild(term.kind, new_args)
        cache[term._id] = result
        return result

    def substitute(self, term: Term, mapping: dict, cache: Optional[dict] = None) -> Term:
        """Replace variables per ``mapping`` (name -> replacement Term)."""
        if cache is None:
            cache = {}
        return self._substitute(term, mapping, cache)

    def _substitute(self, term: Term, mapping: dict, cache: dict) -> Term:
        hit = cache.get(term._id)
        if hit is not None:
            return hit
        if term.kind in (KIND_BOOL_VAR, KIND_INT_VAR):
            result = mapping.get(term.value, term)
        elif not term.args:
            result = term
        else:
            new_args = tuple(self._substitute(a, mapping, cache) for a in term.args)
            if all(n is o for n, o in zip(new_args, term.args)):
                result = term
            else:
                result = self._rebuild(term.kind, new_args)
        cache[term._id] = result
        return result

    def _rebuild(self, kind: str, args: Tuple[Term, ...]) -> Term:
        if kind == KIND_NOT:
            return self.not_(args[0])
        if kind == KIND_AND:
            return self.and_(*args)
        if kind == KIND_OR:
            return self.or_(*args)
        if kind == KIND_EQ:
            return self.eq(args[0], args[1])
        if kind == KIND_NE:
            return self.ne(args[0], args[1])
        if kind == KIND_LT:
            return self.lt(args[0], args[1])
        if kind == KIND_LE:
            return self.le(args[0], args[1])
        if kind == KIND_GT:
            return self.gt(args[0], args[1])
        if kind == KIND_GE:
            return self.ge(args[0], args[1])
        if kind == KIND_ADD:
            return self.add(args[0], args[1])
        if kind == KIND_SUB:
            return self.sub(args[0], args[1])
        if kind == KIND_MUL:
            return self.mul(args[0], args[1])
        if kind == KIND_NEG:
            return self.neg(args[0])
        return self._mk(kind, args, None)


class _AppendSuffix:
    """A rename mapping (``_rename`` only calls ``get``) that maps every
    name to ``name + suffix``."""

    __slots__ = ("suffix",)

    def __init__(self, suffix: str) -> None:
        self.suffix = suffix

    def get(self, name: str) -> str:
        return name + self.suffix


def _flatten(parts: Iterable[Term], kind: str):
    for part in parts:
        if part.kind == kind:
            yield from part.args
        else:
            yield part


# A single shared factory backs the module-level helpers.  All analyses in
# the package use this factory so terms are shared across phases.
FACTORY = TermFactory()

TRUE = FACTORY.true
FALSE = FACTORY.false


def bool_var(name: str) -> Term:
    return FACTORY.bool_var(name)


def int_var(name: str) -> Term:
    return FACTORY.int_var(name)


def const(value: int) -> Term:
    return FACTORY.const(value)


def not_(a: Term) -> Term:
    return FACTORY.not_(a)


def and_(*parts: Term) -> Term:
    # The analyses rebuild the same conjunctions once per checker, and
    # ``and_`` is a pure function of its argument tuple.
    memo = FACTORY._and_memo
    term = memo.get(parts)
    if term is None:
        term = memo.setdefault(parts, FACTORY.and_(*parts))
    return term


def or_(*parts: Term) -> Term:
    return FACTORY.or_(*parts)


def implies(a: Term, b: Term) -> Term:
    return FACTORY.implies(a, b)


def iff(a: Term, b: Term) -> Term:
    return FACTORY.iff(a, b)


def eq(a: Term, b: Term) -> Term:
    return FACTORY.eq(a, b)


def ne(a: Term, b: Term) -> Term:
    return FACTORY.ne(a, b)


def lt(a: Term, b: Term) -> Term:
    return FACTORY.lt(a, b)


def le(a: Term, b: Term) -> Term:
    return FACTORY.le(a, b)


def gt(a: Term, b: Term) -> Term:
    return FACTORY.gt(a, b)


def ge(a: Term, b: Term) -> Term:
    return FACTORY.ge(a, b)


def add(a: Term, b: Term) -> Term:
    return FACTORY.add(a, b)


def sub(a: Term, b: Term) -> Term:
    return FACTORY.sub(a, b)


def mul(a: Term, b: Term) -> Term:
    return FACTORY.mul(a, b)


def neg(a: Term) -> Term:
    return FACTORY.neg(a)
