"""The collector policy of an analysis: full collections held off.

An analysis keeps almost everything it builds until it ends: ASTs,
prepared functions, SEGs and summaries.  CPython's generation-2 (full)
collections walk the whole tracked heap, so during an analysis each one
re-walks a heap that only grows and frees almost nothing; from 20k
lines up they took about half the wall time.
:func:`hold_full_collections` raises only the third collection threshold
for the extent of an analysis, to :data:`HELD_THRESHOLD` generation-1
collections, far more than a one-shot run makes.  Generations 0 and 1
keep the caller's thresholds and still free short-lived cycles;
``gc.disable()`` would leave those to pile up and grow the heap.

Every analysis entry point enters the scope: ``prepare_source``,
``prepare_program``, ``IncrementalAnalyzer.analyze``,
``Pinpoint.__init__``, ``Pinpoint.check``, the ``check`` and ``profile``
commands (output included) and each daemon job.  The scope is
re-entrant and shared by every thread: the outermost entry saves
``gc.get_threshold()`` and the outermost exit, exceptions included,
restores it.  It never
enables, disables or freezes the collector, so a long-lived process (a
session, the daemon) is left between analyses as its owner set it up.

The held collection is deferred, not dropped: once the thresholds are
restored, CPython's next automatic collection runs it, in the caller's
code.  A one-shot command's process ends with its analysis, so it never
pays it.  Where analyses overlap without pause (a busy daemon's
workers), the scope may never be left; the finite threshold bounds the
deferral there, and past it CPython's own rule for full collections
applies again.

The collector's settings belong to the whole process, so this module's
state is process-wide too.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

#: The third threshold while held, in generation-1 collections since
#: the last full one (at the default thresholds, one per about 7,700
#: net allocations).  ``check --all`` makes 39 of them at 5k lines and
#: 646 at 80k.  A daemon whose jobs overlap without pause gets a full
#: collection again after about 77 million net allocations.
HELD_THRESHOLD = 10_000

_lock = threading.Lock()
_depth = 0
_saved: Optional[Tuple[int, int, int]] = None


@contextmanager
def hold_full_collections() -> Iterator[None]:
    """Hold automatic full collections off for the extent of the block
    (also usable as a decorator)."""
    global _depth, _saved
    with _lock:
        if _depth == 0:
            _saved = gc.get_threshold()
            gc.set_threshold(_saved[0], _saved[1], HELD_THRESHOLD)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                gc.set_threshold(*_saved)
                _saved = None
