"""Points-to analyses.

Two analyses live here, corresponding to the two designs the paper
contrasts:

- :mod:`repro.pta.intraproc` — Pinpoint's *local, quasi path-sensitive*
  points-to analysis (Section 3.1.1): per-function, flow-sensitive,
  condition-tracking, pruned by the linear-time contradiction solver,
  with non-local memory modeled through aux objects behind parameters.
- :mod:`repro.pta.andersen` — a whole-program, flow- and
  context-insensitive inclusion-based (Andersen) analysis: the substrate
  of the "layered" SVF baseline whose imprecision causes the paper's
  "pointer trap".
- :mod:`repro.pta.flowsense` — the sparse flow-sensitive must-alias pass
  of the opt-in ``--pta=fs`` precision tier: it proves strong updates
  the quasi path-sensitive analysis cannot justify syntactically.
"""

from repro.pta.memory import AllocObject, AuxObject, MemObject, MustAlias
from repro.pta.intraproc import PointsToAnalysis, PointsToResult
from repro.pta.andersen import AndersenAnalysis
from repro.pta.flowsense import (
    FlowSenseResult,
    FlowSensitivePTA,
    MustAliasProof,
)

__all__ = [
    "AllocObject",
    "AndersenAnalysis",
    "AuxObject",
    "FlowSenseResult",
    "FlowSensitivePTA",
    "MemObject",
    "MustAlias",
    "MustAliasProof",
    "PointsToAnalysis",
    "PointsToResult",
]
