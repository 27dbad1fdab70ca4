"""Function summaries (paper Section 3.3.2).

Two summary families, generated bottom-up so callers can reuse them:

- **RV summaries** describe the value range of each return slot (the
  original return value plus each Aux return value):
  ``(slot value, DD(value)^P, params P)``.

- **VF summaries** describe checker-relevant value-flow paths through a
  function, with their path condition ``PC(π)^P`` and the parameter set
  ``P`` the condition still depends on:

  - VF1: formal parameter (slot) → return value (slot);
  - VF2: source statement → return value (slot);
  - VF3: formal parameter (slot) → source statement (the parameter's
    value becomes e.g. freed);
  - VF4: formal parameter (slot) → sink statement.

A summary's ``constraint`` may be built on its first read: the engine
records it as an object with the same ``term``/``params``/``receivers``
interface as :class:`~repro.seg.conditions.Constraint` (see
``_LazyCondition`` in :mod:`repro.core.engine`).

Interface slots: parameter slot ``i`` is the i-th entry of
``function.params + function.aux_params`` (matching the transformed call
argument order); return slot ``0`` is the original return value and slot
``1 + j`` is the j-th Aux return value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir import cfg
from repro.seg.conditions import Constraint
from repro.seg.graph import VertexKey


@dataclass(frozen=True)
class RVSummary:
    function: str
    slot: int
    value: cfg.Operand  # the returned operand (Var or Const)
    constraint: Constraint  # DD(value) with receivers resolved

    @property
    def params(self):
        return self.constraint.params


@dataclass(frozen=True)
class VFSummary:
    kind: str  # 'vf1' | 'vf2' | 'vf3' | 'vf4'
    function: str
    path: Tuple[VertexKey, ...]
    constraint: Constraint  # PC(path), receivers resolved, params kept
    param_slot: Optional[int] = None  # vf1/vf3/vf4 start
    ret_slot: Optional[int] = None  # vf1/vf2 end
    # Source/sink anchoring for reporting (function, line, variable, uid).
    source_line: int = 0
    source_var: str = ""
    source_uid: int = 0
    sink_line: int = 0
    sink_var: str = ""
    sink_uid: int = 0
    # Nested origin: when the real source/sink lives in a deeper callee,
    # these record the original location for the report.
    origin_function: str = ""
    origin_line: int = 0
    origin_var: str = ""


@dataclass
class FunctionSummaries:
    """All summaries of one function for one checker run."""

    function: str
    rv: Dict[int, RVSummary] = field(default_factory=dict)
    vf1: List[VFSummary] = field(default_factory=list)
    vf2: List[VFSummary] = field(default_factory=list)
    vf3: List[VFSummary] = field(default_factory=list)
    vf4: List[VFSummary] = field(default_factory=list)

    def vf1_from(self, param_slot: int) -> List[VFSummary]:
        return [s for s in self.vf1 if s.param_slot == param_slot]

    def vf3_from(self, param_slot: int) -> List[VFSummary]:
        return [s for s in self.vf3 if s.param_slot == param_slot]

    def vf4_from(self, param_slot: int) -> List[VFSummary]:
        return [s for s in self.vf4 if s.param_slot == param_slot]

    def count(self) -> int:
        return (
            len(self.rv)
            + len(self.vf1)
            + len(self.vf2)
            + len(self.vf3)
            + len(self.vf4)
        )


def interface_params(function: cfg.Function) -> List[str]:
    """SSA names of all formal parameters in call-argument order."""
    return list(function.params) + list(function.aux_params)


def return_slots(function: cfg.Function) -> List[Optional[cfg.Operand]]:
    """Returned operands by slot (None when the function never returns)."""
    rets = function.return_instrs()
    if not rets:
        return []
    ret = rets[0]
    slots: List[Optional[cfg.Operand]] = [ret.value]
    slots.extend(ret.extra_values)
    return slots


def receiver_for_slot(call: cfg.Call, slot: int) -> Optional[str]:
    """The caller-side receiver variable of a callee return slot."""
    if slot == 0:
        return call.dest
    index = slot - 1
    if index < len(call.extra_receivers):
        return call.extra_receivers[index]
    return None
