"""On-disk artifact store: pickled prepared functions + SEGs.

One :class:`SummaryStore` wraps one cache directory.  Entries are
content-addressed by the :mod:`repro.cache.keys` digest and live under a
schema-version directory, so a schema bump never deserializes stale
shapes — the old version's entries are pruned wholesale on first open.

Robustness discipline: the store must never take down an analysis run.
Every filesystem or unpickling error on the read path degrades to a
miss (evicting the offending entry when possible); errors on the write
path are swallowed after cleaning up the temp file.  Writes are atomic
(``os.replace`` of a same-directory temp file), so concurrent runs
sharing a cache dir see either the old entry or the new one, never a
torn pickle.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from typing import Any, Dict, List, Optional, Tuple

from repro.cache.keys import SCHEMA_VERSION
from repro.obs.metrics import get_registry
from repro.robust.faults import disk_full_point
from repro.robust.retry import RetryPolicy, with_retries

#: Environment fallback for ``--cache-dir``.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_ENTRY_SUFFIX = ".pkl"


def resolve_cache_dir(explicit: Optional[str] = None) -> str:
    """CLI flag > ``REPRO_CACHE_DIR`` env var > '' (caching off)."""
    if explicit:
        return explicit
    return os.environ.get(CACHE_DIR_ENV, "").strip()


def open_store(cache_dir: Optional[str]) -> Optional["SummaryStore"]:
    """A :class:`SummaryStore` for ``cache_dir``, or None when unset."""
    resolved = resolve_cache_dir(cache_dir)
    if not resolved:
        return None
    return SummaryStore(resolved)


class SummaryStore:
    """Persistent map: key digest -> pickled per-function artifacts.

    The payload is ``(name, PreparedFunction, SEG)`` (older entries may
    hold None for the SEG) pickled as one object so cross-references
    between the SSA function and the SEG survive the round trip via the
    pickle memo.
    """

    def __init__(self, root: str, version: int = SCHEMA_VERSION) -> None:
        self.root = root
        self.version = version
        self._dir = os.path.join(root, f"v{version}")
        os.makedirs(self._dir, exist_ok=True)
        self.pruned_versions = self._prune_stale_versions()

    # ------------------------------------------------------------------
    def _path(self, digest: str) -> str:
        return os.path.join(self._dir, digest[:2], digest + _ENTRY_SUFFIX)

    def _counter(self, name: str, help: str):
        return get_registry().counter(name, help)

    # ------------------------------------------------------------------
    def get(self, digest: str) -> Optional[Tuple[str, Any, Any]]:
        """Load one entry; a miss for any reason (absent, corrupt,
        unreadable, wrong shape) — corrupt entries are evicted."""
        path = self._path(digest)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            self._counter("cache.misses", "Artifact-store lookups that missed").inc()
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError, MemoryError, ValueError, TypeError):
            self._evict(path)
            self._counter("cache.misses", "Artifact-store lookups that missed").inc()
            return None
        if not (isinstance(payload, tuple) and len(payload) == 3):
            self._evict(path)
            self._counter("cache.misses", "Artifact-store lookups that missed").inc()
            return None
        self._counter("cache.hits", "Artifact-store lookups that hit").inc()
        return payload

    def put(self, digest: str, name: str, prepared: Any, seg: Any) -> bool:
        """Atomically persist one entry; False (and no trace) on error.

        Transient filesystem errors (``ENOSPC``, an NFS hiccup) retry
        under the unified :mod:`repro.robust.retry` backoff before the
        store gives up; deterministic failures (an unpicklable payload)
        fail immediately — retrying them would only burn the budget."""
        try:
            payload = pickle.dumps(
                (name, prepared, seg), protocol=pickle.HIGHEST_PROTOCOL
            )
        except (
            pickle.PicklingError,
            RecursionError,
            # pickle raises these (not PicklingError) for unpicklable
            # payloads like closures or objects with broken __reduce__.
            AttributeError,
            TypeError,
        ):
            return False
        try:
            with_retries(
                lambda: self._put_once(digest, payload),
                unit=digest[:12],
                site="cache",
                policy=RetryPolicy(),
            )
        except OSError:
            return False
        self._counter("cache.writes", "Artifact-store entries written").inc()
        return True

    def _put_once(self, digest: str, payload: bytes) -> None:
        path = self._path(digest)
        directory = os.path.dirname(path)
        tmp_path = ""
        try:
            disk_full_point(digest[:12])
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                prefix=".tmp-", suffix=_ENTRY_SUFFIX, dir=directory
            )
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_path, path)
        except OSError:
            if tmp_path:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
            raise

    # ------------------------------------------------------------------
    def _evict(self, path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass
        self._counter(
            "cache.evictions", "Corrupt/stale artifact-store entries removed"
        ).inc()

    def _prune_stale_versions(self) -> int:
        """Remove version directories other than this schema's."""
        pruned = 0
        try:
            siblings = os.listdir(self.root)
        except OSError:
            return 0
        for entry in siblings:
            if entry == f"v{self.version}" or not entry.startswith("v"):
                continue
            if not entry[1:].isdigit():
                continue
            full = os.path.join(self.root, entry)
            pruned += self._remove_tree(full)
        if pruned:
            self._counter(
                "cache.evictions", "Corrupt/stale artifact-store entries removed"
            ).inc(pruned)
        return pruned

    def _remove_tree(self, top: str) -> int:
        removed = 0
        for dirpath, dirnames, filenames in os.walk(top, topdown=False):
            for filename in filenames:
                try:
                    os.unlink(os.path.join(dirpath, filename))
                    if filename.endswith(_ENTRY_SUFFIX):
                        removed += 1
                except OSError:
                    pass
            for dirname in dirnames:
                try:
                    os.rmdir(os.path.join(dirpath, dirname))
                except OSError:
                    pass
        try:
            os.rmdir(top)
        except OSError:
            pass
        return removed

    # ------------------------------------------------------------------
    def entries(self) -> List[str]:
        """Digests stored under the current schema version."""
        found = []
        for dirpath, _dirnames, filenames in os.walk(self._dir):
            for filename in filenames:
                if filename.endswith(_ENTRY_SUFFIX) and not filename.startswith("."):
                    found.append(filename[: -len(_ENTRY_SUFFIX)])
        return sorted(found)

    def clear(self) -> int:
        """Remove every entry of every version; returns entries removed."""
        removed = 0
        try:
            siblings = os.listdir(self.root)
        except OSError:
            return 0
        for entry in siblings:
            if entry.startswith("v") and entry[1:].isdigit():
                removed += self._remove_tree(os.path.join(self.root, entry))
        os.makedirs(self._dir, exist_ok=True)
        return removed

    def stats(self) -> Dict[str, Any]:
        """On-disk figures for ``repro cache stats`` (not per-run
        hit/miss counters — those live in the metrics registry)."""
        entries = self.entries()
        total_bytes = 0
        for digest in entries:
            try:
                total_bytes += os.path.getsize(self._path(digest))
            except OSError:
                pass
        return {
            "root": self.root,
            "schema_version": self.version,
            "entries": len(entries),
            "bytes": total_bytes,
            "pruned_stale_versions": self.pruned_versions,
        }


class MemoryTier:
    """In-process artifact tier in front of an optional :class:`SummaryStore`.

    Same ``get``/``put`` surface and the same digests as the disk store,
    but entries stay live objects — never pickled — and a lookup that
    misses here falls through to ``backing``.  :meth:`end_run` keeps only
    the entries the run just finished touched, so the tier holds at most
    one program version (what a long-lived
    :class:`~repro.core.incremental.IncrementalAnalyzer` needs for its
    next edit)."""

    def __init__(self, backing: Optional[SummaryStore] = None) -> None:
        self.backing = backing
        self._entries: Dict[str, Tuple[str, Any, Any]] = {}
        self._touched: Dict[str, Tuple[str, Any, Any]] = {}

    def get(self, digest: str) -> Optional[Tuple[str, Any, Any]]:
        entry = self._entries.get(digest)
        if entry is None and self.backing is not None:
            entry = self.backing.get(digest)
        if entry is not None:
            self._touched[digest] = entry
        return entry

    def put(self, digest: str, name: str, prepared: Any, seg: Any) -> None:
        self._touched[digest] = (name, prepared, seg)
        if self.backing is not None:
            self.backing.put(digest, name, prepared, seg)

    def end_run(self) -> None:
        """Drop every entry the last run did not touch."""
        self._entries, self._touched = self._touched, {}

    def __len__(self) -> int:
        return len(self._entries)
