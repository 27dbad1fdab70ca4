"""Verifier for the fs precision tier (``--pta=fs``).

Two invariants tie the sparse flow-sensitive pass to the local analysis
it refines:

- ``pta-strong-update-proof`` — a flow-sensitive strong update is an
  *erasure* of heap facts, so every one must be justified: the store's
  uid names a :class:`~repro.pta.flowsense.MustAliasProof`, the proof's
  object is the store's only resolved target, and that object is
  singular (an allocation site outside every CFG cycle, or an aux
  object — one concrete cell either way).  An unjustified strong update
  would silently drop a reachable value flow: unsound, not imprecise.

- ``pta-tier-subset`` — the fs tier is the fi computation plus kills,
  nothing else, so on the same function the fs points-to sets and
  load-value sets must be subsets of the fi ones.  A fact present under
  fs but absent under fi means the tiers diverged somewhere other than
  strong updates (a bug in proof plumbing, uid scoping, or caching).

Both checks are skipped when either side ran degraded (a budget that
collapses conditions to TRUE merges value sets unpredictably), matching
the rest of the verifier's "only judge full-precision artifacts" policy.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.pta.memory import AllocObject, AuxObject
from repro.verify.violation import Violation


def _lines_by_uid(function) -> Dict[int, int]:
    return {instr.uid: instr.line for instr in function.all_instrs()}


def verify_flow_tier(fs_prepared, fi_prepared) -> List[Violation]:
    """Check the fs-tier invariants of one fs-prepared function against
    its fi-tier preparation; both must come from the same AST."""
    violations: List[Violation] = []
    fs_pta = fs_prepared.points_to
    fi_pta = fi_prepared.points_to
    name = fs_prepared.name
    flow = fs_prepared.flow
    lines = _lines_by_uid(fs_prepared.function)

    # ---------------------------------------------- strong-update proofs
    cyclic = set(flow.cyclic_alloc_sites) if flow is not None else set()
    for uid in fs_pta.strong_uids:
        line = lines.get(uid, 0)
        proof = flow.proofs.get(uid) if flow is not None else None
        if proof is None:
            violations.append(
                Violation(
                    "pta-strong-update-proof",
                    name,
                    f"store uid {uid} was strong-updated without a "
                    "must-alias proof",
                    line=line,
                )
            )
            continue
        targets = {obj for obj, _ in fs_pta.store_targets.get(uid, ())}
        if targets != {proof.obj}:
            violations.append(
                Violation(
                    "pta-strong-update-proof",
                    name,
                    f"store uid {uid}: proof names {proof.obj!r} but the "
                    f"resolved targets are {sorted(map(repr, targets))}",
                    line=line,
                )
            )
        if isinstance(proof.obj, AllocObject):
            if proof.obj.site in cyclic:
                violations.append(
                    Violation(
                        "pta-strong-update-proof",
                        name,
                        f"store uid {uid}: {proof.obj!r} is allocated on "
                        "a CFG cycle (one abstract object, many cells) — "
                        "not singular",
                        line=line,
                    )
                )
        elif not isinstance(proof.obj, AuxObject):
            violations.append(
                Violation(
                    "pta-strong-update-proof",
                    name,
                    f"store uid {uid}: {proof.obj!r} is neither an "
                    "allocation site nor an aux object",
                    line=line,
                )
            )

    # ---------------------------------------------- fs ⊆ fi subset
    if fs_pta.degraded or fi_pta.degraded:
        return violations  # degraded conditions make set comparison moot
    for var, fs_entries in fs_pta.points_to.items():
        fs_objs: Set = {obj for obj, _ in fs_entries}
        fi_objs: Set = {obj for obj, _ in fi_pta.points_to.get(var, ())}
        extra = fs_objs - fi_objs
        if extra:
            violations.append(
                Violation(
                    "pta-tier-subset",
                    name,
                    f"points-to of {var!r} gained {sorted(map(repr, extra))} "
                    "under fs (the precise tier may only remove facts)",
                )
            )
    for uid, fs_values in fs_pta.load_values.items():
        fs_set = {repr(value) for value, _ in fs_values}
        fi_set = {repr(value) for value, _ in fi_pta.load_values.get(uid, ())}
        extra = fs_set - fi_set
        if extra:
            violations.append(
                Violation(
                    "pta-tier-subset",
                    name,
                    f"load uid {uid} gained values {sorted(extra)} under fs",
                    line=lines.get(uid, 0),
                )
            )
    return violations
