"""Cache keys: the AST-fingerprint x callee-interface-fingerprint scheme.

This is the single source of truth for the fingerprinting the in-memory
:class:`~repro.core.incremental.IncrementalAnalyzer` and the on-disk
:class:`~repro.cache.store.SummaryStore` share.  A function's prepared
artifacts are valid exactly when

- its own AST is structurally unchanged (whitespace/comments excluded:
  the fingerprint hashes the pretty-printed body), and
- every callee it actually calls presents the same *connector
  signature* (params + Aux params + Aux returns, the Fig. 3 interface).

A body-only edit in a callee changes neither input, so callers stay
valid; an interface-affecting edit (new Mod/Ref behaviour surfacing as
Aux params/returns) changes the callee's signature fingerprint and
invalidates callers transitively as each caller's own signature shifts.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Tuple

from repro.lang import ast
from repro.lang.pretty import pretty_function
from repro.transform.connectors import ConnectorSignature

#: Bump whenever a pickled artifact shape changes: IR instruction
#: fields or uid numbering, SSA naming, SEG vertex scheme,
#: PointsToResult or PreparedFunction layout, or connector signature
#: fields.  Old version directories are pruned the first time a
#: newer-schema store opens the same cache dir.
SCHEMA_VERSION = 4


def signature_fingerprint(signature: ConnectorSignature) -> Tuple:
    """Stable tuple describing a callee's interface (Fig. 3)."""
    return (
        tuple(signature.params),
        tuple(signature.aux_params),
        tuple(signature.aux_returns),
    )


def ast_fingerprint(func_ast: ast.FuncDef) -> str:
    """Structural hash of one function's AST.

    The pretty-printed body is the hash input, so whitespace and comment
    edits do not invalidate the cache.  Computed once per definition
    object and kept in ``func_ast.derived`` (definitions are values, see
    :mod:`repro.lang.ast`)."""
    fingerprint = func_ast.derived.get("fingerprint")
    if fingerprint is None:
        text = pretty_function(func_ast)
        fingerprint = hashlib.sha256(text.encode("utf-8")).hexdigest()
        func_ast.derived["fingerprint"] = fingerprint
    return fingerprint


def prepare_cache_key(
    func_ast: ast.FuncDef,
    usable_signatures: Dict[str, ConnectorSignature],
    own_callees: Iterable[str],
    pta_tier: str = "fi",
) -> Tuple:
    """The full validity key for one function's prepared artifacts.

    Only the signatures of functions this one actually calls
    participate; unrelated edits elsewhere in the program must not
    invalidate it.  Same-SCC callees are already absent from
    ``usable_signatures`` (recursion is unrolled once, so those calls
    are opaque and contribute nothing to the artifacts).

    The precision tier is part of the key: fi- and fs-prepared artifacts
    of the same function differ (strong updates change the heap states),
    so they must never collide under one content address.
    """
    callees = set(own_callees)
    return (
        ast_fingerprint(func_ast),
        tuple(
            sorted(
                (callee, signature_fingerprint(sig))
                for callee, sig in usable_signatures.items()
                if callee in callees
            )
        ),
        ("pta", pta_tier),
    )


def key_digest(key: Tuple) -> str:
    """Content address of a cache key (sha256 hex of its repr).

    ``repr`` over the key tuple is stable: every component is a string
    or a nested tuple of strings, with deterministic ordering imposed by
    :func:`prepare_cache_key`."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
