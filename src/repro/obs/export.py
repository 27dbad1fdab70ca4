"""Atomic file export for observability artifacts.

Every artifact the instrumentation layer writes — ``--metrics-out``
scrape files, ``--trace`` Chrome JSON, run-history indexes, the
``BENCH_pinpoint.json`` trajectory — goes through :func:`atomic_write`:
the payload lands in a same-directory temp file first and is moved into
place with ``os.replace``, so a concurrent reader (a Prometheus scraper,
a dashboard tailing the history dir, a parallel CI job) sees either the
old file or the new one, never a torn write.  Parent directories are
created on demand, matching :mod:`repro.cache.store` semantics.
"""

from __future__ import annotations

import os
import tempfile


def ensure_parent_dir(path: str) -> None:
    """Create the directory that will hold ``path``, if any."""
    directory = os.path.dirname(os.path.abspath(path))
    if directory:
        os.makedirs(directory, exist_ok=True)


def append_line(path: str, line: str, fsync: bool = False) -> None:
    """Append one line to ``path`` with a single ``os.write``.

    The companion of :func:`atomic_write` for append-only logs (history
    ``runs.jsonl``): a whole-file rewrite per record
    would be quadratic, so appends go through one ``write(2)`` on an
    ``O_APPEND`` descriptor instead.  A crash (SIGKILL, OOM-kill) can
    tear at most the final line — page-cache writes survive process
    death — and every reader of these files skips an unparsable tail.
    ``fsync=True`` additionally flushes to stable storage for callers
    that must survive power loss, at real latency cost.
    """
    ensure_parent_dir(path)
    data = line.encode("utf-8")
    if not data.endswith(b"\n"):
        data += b"\n"
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, data)
        if fsync:
            os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temp file lives in the destination directory so the final rename
    never crosses a filesystem boundary.  On any error the temp file is
    removed and the original file (if one existed) is left untouched.
    """
    ensure_parent_dir(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=".tmp-", suffix=os.path.basename(path), dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
