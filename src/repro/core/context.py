"""Cloning-based context sensitivity (paper Section 3.3.1(2)).

When a callee's summarized constraint is used at a call site, every
variable in it is renamed with a per-context suffix (``x.2`` becomes
``x.2~7``), so two call sites of the same function get independent
constraint copies — the cloning-based approach of Whaley & Lam / Lattner
et al. that the paper follows.

A :class:`Context` remembers which call site created it and in which
parent context, so formal parameters surfacing later inside the cloned
constraint can still be bound to the right actuals (the lazy part of
Equations (2) and (3)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.ir import cfg
from repro.smt import terms as T
from repro.smt.terms import Term


@dataclass(frozen=True)
class Context:
    """One clone of a function's constraints.

    ``None`` plays the role of the root context (the function the
    value-flow search started in), whose variables are never renamed.
    """

    ident: int
    function: str
    call: Optional[cfg.Call]  # the call site that created this clone
    parent: Optional["Context"]  # context the call site lives in

    @property
    def depth(self) -> int:
        depth = 0
        node: Optional[Context] = self
        while node is not None:
            depth += 1
            node = node.parent
        return depth

    def suffix(self) -> str:
        return f"~{self.ident}"


class ContextAllocator:
    """Allocates fresh contexts, numbered from 1.  A checker run creates
    one per function it processes (see ``_CheckerRun._process_function``
    in :mod:`repro.core.engine`)."""

    def __init__(self) -> None:
        self._counter = itertools.count(1)

    def new(
        self,
        function: str,
        call: Optional[cfg.Call],
        parent: Optional[Context],
    ) -> Context:
        return Context(next(self._counter), function, call, parent)


def rename_var(name: str, context: Optional[Context]) -> str:
    return name if context is None else name + context.suffix()


def clone_term(term: Term, context: Optional[Context]) -> Term:
    """Rename every variable in ``term`` into ``context``.

    Every checker clones the same summaries into the same suffixes, so
    the clones are memoized per suffix by :meth:`TermFactory.add_suffix`."""
    if context is None:
        return term
    return T.FACTORY.add_suffix(term, context.suffix())


def ctx_ivar(name: str, context: Optional[Context]) -> Term:
    return T.int_var(rename_var(name, context))


def ctx_bvar(name: str, context: Optional[Context]) -> Term:
    return T.bool_var(rename_var(name, context))
