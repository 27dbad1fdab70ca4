"""The SMT solver facade: DPLL(T) over the CDCL core.

This is the reproduction's stand-in for Z3 (Section 4 of the paper uses
Z3).  It decides the boolean combination of equality/order atoms produced
as path conditions:

1. the term is Tseitin-encoded into CNF, with each theory atom mapped to
   one SAT variable;
2. the CDCL core (:mod:`repro.smt.sat`) enumerates boolean models;
3. each full model's asserted atoms are checked by the theory solver
   (:mod:`repro.smt.theory`); inconsistent models are blocked with a
   conflict clause and the loop continues (lazy DPLL(T)).
"""

from __future__ import annotations

import enum
import itertools
import time
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import get_registry
from repro.obs.trace import trace
from repro.robust.faults import fault_point
from repro.smt import terms as T
from repro.smt.sat import SatSolver, neg_lit, pos_lit
from repro.smt.terms import Term
from repro.smt.theory import TheorySolver


class Result(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class SMTSolver:
    """Decides satisfiability of boolean-structured terms."""

    def __init__(
        self,
        max_theory_rounds: int = 2000,
        deadline_seconds: Optional[float] = None,
    ) -> None:
        self._theory = TheorySolver()
        self._max_theory_rounds = max_theory_rounds
        # Default per-query wall-clock ceiling; ``check`` may override
        # per call with an absolute deadline.
        self.deadline_seconds = deadline_seconds
        self.queries = 0
        self.sat_answers = 0
        self.unsat_answers = 0
        self.deadline_hits = 0
        # Why the last answer was UNKNOWN: "deadline", "conflicts"
        # (SAT-core conflict budget), or "rounds" (theory round cap).
        self.last_unknown_reason: Optional[str] = None
        # After a SAT answer: the satisfying assignment of the theory
        # atoms, as {atom Term: bool}.  Used to attach a witness ("this
        # path is feasible when c > 0") to bug reports.
        self.last_model: Optional[Dict[Term, bool]] = None

    def check(self, condition: Term, deadline: Optional[float] = None) -> Result:
        """Check satisfiability of a single condition term.

        ``deadline`` is an absolute ``time.monotonic()`` timestamp; past
        it the solver gives up with UNKNOWN (recorded in
        ``last_unknown_reason``) instead of running on."""
        fault_point("smt")
        self.queries += 1
        self.last_model = None
        self.last_unknown_reason = None
        if deadline is None and self.deadline_seconds is not None:
            deadline = time.monotonic() + self.deadline_seconds
        registry = get_registry()
        start = time.perf_counter()
        with trace("smt.check") as span:
            result = self._check(condition, deadline)
            span.set(result=result.value)
        elapsed = time.perf_counter() - start
        registry.counter("smt.queries", "SMT queries issued").inc(
            result=result.value
        )
        registry.histogram(
            "smt.solve_seconds", "Per-query SMT solving latency"
        ).observe(elapsed)
        if result is Result.SAT:
            self.sat_answers += 1
        elif result is Result.UNSAT:
            self.unsat_answers += 1
        else:
            registry.counter(
                "smt.unknowns", "UNKNOWN answers by reason"
            ).inc(reason=self.last_unknown_reason or "other")
        return result

    def is_satisfiable(self, condition: Term) -> bool:
        """Convenience wrapper treating UNKNOWN as satisfiable (soundy)."""
        return self.check(condition) is not Result.UNSAT

    # ------------------------------------------------------------------
    def _check(self, condition: Term, deadline: Optional[float] = None) -> Result:
        if condition is T.TRUE:
            return Result.SAT
        if condition is T.FALSE:
            return Result.UNSAT
        sat = SatSolver()
        encoder = _Encoder(sat)
        root = encoder.encode(condition)
        sat.add_clause([root])
        for _ in range(self._max_theory_rounds):
            if deadline is not None and time.monotonic() >= deadline:
                return self._give_up("deadline")
            answer = sat.solve(max_conflicts=200000, deadline=deadline)
            if answer is None:
                if deadline is not None and time.monotonic() >= deadline:
                    return self._give_up("deadline")
                self.last_unknown_reason = "conflicts"
                return Result.UNKNOWN
            if answer is False:
                return Result.UNSAT
            assignment = sat.model()
            atoms: List[Tuple[Term, bool]] = []
            blocking: List[int] = []
            for atom, var in encoder.atom_vars.items():
                value = assignment[var]
                if value == 1:
                    atoms.append((atom, True))
                    blocking.append(neg_lit(var))
                elif value == 0:
                    atoms.append((atom, False))
                    blocking.append(pos_lit(var))
            conflict = self._theory.check(atoms)
            if conflict is None:
                self.last_model = dict(atoms)
                return Result.SAT
            # Block this theory-inconsistent boolean model.
            if not blocking:
                return Result.UNSAT
            if not sat.add_clause(blocking):
                return Result.UNSAT
        self.last_unknown_reason = "rounds"
        return Result.UNKNOWN

    def _give_up(self, reason: str) -> Result:
        self.last_unknown_reason = reason
        if reason == "deadline":
            self.deadline_hits += 1
        return Result.UNKNOWN


class _Encoder:
    """Tseitin encoder from terms to CNF over a :class:`SatSolver`."""

    def __init__(self, sat: SatSolver) -> None:
        self._sat = sat
        self._cache: Dict[int, int] = {}  # term id -> literal
        self.atom_vars: Dict[Term, int] = {}  # theory atom -> SAT var

    def encode(self, term: Term) -> int:
        """Return a literal equisatisfiably representing ``term``."""
        hit = self._cache.get(term.ident)
        if hit is not None:
            return hit
        lit = self._encode(term)
        self._cache[term.ident] = lit
        return lit

    def _encode(self, term: Term) -> int:
        sat = self._sat
        kind = term.kind
        if term is T.TRUE:
            var = sat.new_var()
            sat.add_clause([pos_lit(var)])
            return pos_lit(var)
        if term is T.FALSE:
            var = sat.new_var()
            sat.add_clause([neg_lit(var)])
            return pos_lit(var)
        if term.is_atom():
            var = self.atom_vars.get(term)
            if var is None:
                var = sat.new_var()
                self.atom_vars[term] = var
            return pos_lit(var)
        if kind == T.KIND_NOT:
            return self.encode(term.args[0]) ^ 1
        if kind in (T.KIND_AND, T.KIND_OR):
            child_lits = [self.encode(a) for a in term.args]
            gate = sat.new_var()
            gate_pos = pos_lit(gate)
            if kind == T.KIND_AND:
                # gate -> child_i ; (and children) -> gate
                for lit in child_lits:
                    sat.add_clause([gate_pos ^ 1, lit])
                sat.add_clause([gate_pos] + [lit ^ 1 for lit in child_lits])
            else:
                # child_i -> gate ; gate -> (or children)
                for lit in child_lits:
                    sat.add_clause([gate_pos, lit ^ 1])
                sat.add_clause([gate_pos ^ 1] + child_lits)
            return gate_pos
        # A non-boolean term in boolean position: interpret as != 0.
        return self.encode(T.FACTORY.ne(term, T.FACTORY.const(0)))

