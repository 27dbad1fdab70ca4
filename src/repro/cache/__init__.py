"""repro.cache — persistent, content-addressed artifact store.

Pinpoint's bottom-up phase computes, per function, artifacts that depend
only on (a) the function's own AST and (b) the connector signatures of
its non-recursive callees (see ``core/incremental.py``).  That makes the
stage 1-3 outputs — the transformed SSA function, its points-to result,
its connector signature, and its SEG — *cacheable across processes*:
the key is a pure function of the inputs, so a second CLI run on an
unchanged program can skip nearly all preparation work.

Layout on disk (see ``docs/prepare-and-store.md``)::

    <cache-dir>/
      v<SCHEMA_VERSION>/          one directory per schema version
        ab/                       first two hex digits of the key
          ab12...ef.pkl           pickled (PreparedFunction, SEG | None)

Versioned invalidation: :data:`SCHEMA_VERSION` must be bumped whenever
the pickled shapes change (IR instruction fields, SEG vertex scheme,
PointsToResult layout, connector signature fields).  Stale version
directories are pruned the first time a store is opened by a newer
schema, and every unreadable/corrupt entry is evicted on read instead
of crashing the run.

:class:`~repro.cache.store.MemoryTier` puts a live-object tier with the
same keys in front of a store for long-lived incremental sessions.

Metrics (merged into the ``repro.obs`` registry): ``cache.hits``,
``cache.misses``, ``cache.writes``, ``cache.evictions``.
"""

from repro.cache.keys import (
    SCHEMA_VERSION,
    ast_fingerprint,
    key_digest,
    prepare_cache_key,
    signature_fingerprint,
)
from repro.cache.store import (
    CACHE_DIR_ENV,
    MemoryTier,
    SummaryStore,
    open_store,
    resolve_cache_dir,
)

__all__ = [
    "SCHEMA_VERSION",
    "CACHE_DIR_ENV",
    "MemoryTier",
    "SummaryStore",
    "ast_fingerprint",
    "key_digest",
    "open_store",
    "prepare_cache_key",
    "resolve_cache_dir",
    "signature_fingerprint",
]
