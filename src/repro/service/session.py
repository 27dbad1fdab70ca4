"""Warm in-process session store for the analysis daemon.

A **session** is the daemon-resident analysis state for one program: the
parsed AST of its last accepted version plus an
:class:`~repro.core.incremental.IncrementalAnalyzer` holding every
prepared per-function artifact (transformed SSA, points-to results,
SEG, connector signature).  Artifacts are keyed by the existing
AST x callee-interface fingerprints (:mod:`repro.cache.keys`), so a
re-check after an edit re-prepares exactly the functions the edit
invalidated; everything else is served from memory.  When the daemon
runs with ``--cache-dir``, the analyzer falls through to the on-disk
:class:`~repro.cache.SummaryStore` on an in-memory miss, so even a
freshly created session warm-starts from artifacts a previous process
(or a ``repro cache warm``) persisted.

Sessions are single-writer: each carries a lock the worker holds for
the duration of one job, so two jobs naming the same session serialize
while jobs on different sessions run concurrently.  The cache is LRU:
past ``max_sessions``, the least recently used *idle* session is
evicted (a locked session is never evicted mid-job).

Metric: ``service.sessions`` gauge (resident sessions).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.core.engine import EngineConfig
from repro.core.incremental import IncrementalAnalyzer
from repro.lang import ast
from repro.lang.parser import ParseError, parse_program
from repro.lang.pretty import pretty_program
from repro.obs.history import fingerprint_text
from repro.obs.metrics import get_registry


class Session:
    """One program's warm analysis state inside the daemon."""

    def __init__(self, name: str, config: EngineConfig, store=None) -> None:
        self.name = name
        self.lock = threading.Lock()
        self.analyzer = IncrementalAnalyzer(config, store=store)
        self.program: Optional[ast.Program] = None
        self.fingerprint = ""
        self.checks = 0
        self.last_used = time.monotonic()

    @property
    def warm(self) -> bool:
        return self.analyzer.warm and self.program is not None

    def adopt(self, program: ast.Program) -> None:
        """Record ``program`` as the session's current version.

        Called only after a successful analysis, so a failed request
        (parse error, crash) leaves the session at its last good state."""
        self.program = program
        self.fingerprint = fingerprint_text(pretty_program(program))
        self.checks += 1

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "warm": self.warm,
            "functions": len(self.program.functions) if self.program else 0,
            "cached_functions": self.analyzer.cached_functions,
            "fingerprint": self.fingerprint,
            "checks": self.checks,
        }


class SessionCache:
    """Thread-safe LRU map of session name -> :class:`Session`."""

    def __init__(
        self, config: EngineConfig, store=None, max_sessions: int = 32
    ) -> None:
        if max_sessions < 1:
            raise ValueError(f"max_sessions must be >= 1, got {max_sessions}")
        self.config = config
        self.store = store
        self.max_sessions = max_sessions
        self._lock = threading.Lock()
        self._sessions: Dict[str, Session] = {}

    def acquire(self, name: str) -> Session:
        """The named session, created on first use.  The caller must
        take ``session.lock`` before analyzing with it."""
        with self._lock:
            session = self._sessions.get(name)
            if session is None:
                session = Session(name, self.config, store=self.store)
                self._sessions[name] = session
                self._evict_locked()
            session.last_used = time.monotonic()
            self._publish_locked()
            return session

    def peek(self, name: str) -> Optional[Session]:
        """The named session if resident (no creation, no LRU touch)."""
        with self._lock:
            return self._sessions.get(name)

    def snapshot(self) -> list:
        with self._lock:
            ordered = sorted(
                self._sessions.values(), key=lambda s: -s.last_used
            )
            return [session.as_dict() for session in ordered]

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # ------------------------------------------------------------------
    def _evict_locked(self) -> None:
        while len(self._sessions) > self.max_sessions:
            idle = [
                (session.last_used, name)
                for name, session in self._sessions.items()
                if not session.lock.locked()
            ]
            if not idle:
                return  # every session mid-job; retry on the next acquire
            _, victim = min(idle)
            del self._sessions[victim]

    def _publish_locked(self) -> None:
        get_registry().gauge(
            "service.sessions", "Warm analysis sessions resident in the daemon"
        ).set(len(self._sessions))


def parse_single_function(text: str, program: ast.Program) -> ast.FuncDef:
    """Parse the text of exactly one function definition (the ``/v1/edit``
    payload) that replaces a definition of ``program``.  Raises
    :class:`ParseError` on malformed input and ``ValueError`` when the
    text holds zero or several functions.

    The text's lines are numbered so that its ``fn`` keyword lands on
    the line of the definition it replaces, so the edited function's
    reports name the lines a one-shot check of the spliced program
    names."""

    def parse(first_line: int) -> ast.FuncDef:
        functions = parse_program(text, first_line).functions
        if len(functions) != 1:
            raise ValueError(
                f"edit payload must contain exactly one function, "
                f"got {len(functions)}"
            )
        return functions[0]

    func = parse(1)
    old = next((f for f in program.functions if f.name == func.name), None)
    if old is not None and old.line != func.line:
        func = parse(old.line - func.line + 1)
    return func
