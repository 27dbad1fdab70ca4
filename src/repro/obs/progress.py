"""Live run-progress state for the analysis monitor.

A process-global :class:`ProgressTracker` receives coarse progress
signals from the pipeline — stage transitions (parse → prepare →
checker), per-function counts from ``prepare_program``, checker
completions — and turns them into

- a point-in-time :meth:`~ProgressTracker.snapshot` (the monitor's
  ``/status`` endpoint), and
- a bounded, sequence-numbered event log (the ``/events`` SSE stream).

Overhead discipline mirrors :mod:`repro.obs.trace`: the tracker is
**disabled by default**, and every mutating method starts with one
truth test on ``enabled`` — instrumented call sites on hot paths stay
hot when no monitor is attached (guarded by
``tests/test_performance_guards.py``).  The tracker is thread-safe; a
condition variable lets SSE streamers block until the next event.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

#: Ring-buffer size of the event log.  Old events fall off; ``/events``
#: consumers see the dropped count via the sequence-number gap.
MAX_EVENTS = 1024


class ProgressTracker:
    """Thread-safe collector of run-progress events."""

    def __init__(self, clock=time.time) -> None:
        self.enabled = False
        self.clock = clock
        self._lock = threading.Lock()
        self._event_ready = threading.Condition(self._lock)
        self._events: List[Dict[str, Any]] = []
        self._seq = 0
        self.reset()

    def reset(self) -> None:
        self.command = ""
        self.label = ""
        self.stage = "idle"
        self.stage_info: Dict[str, Any] = {}
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.exit_code: Optional[int] = None
        self.functions_total = 0
        self.functions_prepared = 0
        self.functions_cached = 0
        self.functions_quarantined = 0
        self.checkers_done: List[str] = []

    # ------------------------------------------------------------------
    def _emit(self, kind: str, **payload) -> None:
        """Append one event (caller must NOT hold the lock)."""
        with self._event_ready:
            self._seq += 1
            event = {"seq": self._seq, "ts": round(self.clock(), 3), "kind": kind}
            event.update(payload)
            self._events.append(event)
            if len(self._events) > MAX_EVENTS:
                del self._events[: len(self._events) - MAX_EVENTS]
            self._event_ready.notify_all()

    # ------------------------------------------------------------------
    # Producer API (pipeline, scheduler, engine, CLI)
    # ------------------------------------------------------------------
    def begin_run(self, command: str, label: str = "") -> None:
        if not self.enabled:
            return
        with self._lock:
            self.reset()
            self.command = command
            self.label = label
            self.stage = "starting"
            self.started_at = self.clock()
        self._emit("run.start", command=command, label=label)

    def set_stage(self, stage: str, **info) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.stage = stage
            self.stage_info = dict(info)
        self._emit("stage", stage=stage, **info)

    def set_functions_total(self, total: int) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.functions_total = int(total)

    def function_done(self, cached: bool = False, quarantined: bool = False) -> None:
        """``prepare_program`` finished one function: admitted
        (prepared) or ``quarantined``, and served from the store when
        ``cached``.  Counts only, no event: the event ring holds
        ``MAX_EVENTS`` entries and a large subject has ten times as many
        functions."""
        if not self.enabled:
            return
        with self._lock:
            if quarantined:
                self.functions_quarantined += 1
            else:
                self.functions_prepared += 1
            if cached:
                self.functions_cached += 1

    def checker_done(self, name: str, reports: int) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.checkers_done.append(name)
        self._emit("checker", checker=name, reports=reports)

    def heartbeat(self, **info) -> None:
        if not self.enabled:
            return
        self._emit("heartbeat", **info)

    def finish(self, exit_code: int) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.finished_at = self.clock()
            self.exit_code = exit_code
            self.stage = "done"
        self._emit("run.finish", exit_code=exit_code)

    # ------------------------------------------------------------------
    # Consumer API (the monitor endpoints)
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The ``/status`` document.  Degradation figures come from the
        process metrics registry so a degraded (exit-3) run is visible
        live, not only after the CLI computed its exit code."""
        from repro.obs.metrics import get_registry

        with self._lock:
            now = self.clock()
            data: Dict[str, Any] = {
                "command": self.command,
                "label": self.label,
                "stage": self.stage,
                "stage_info": dict(self.stage_info),
                "running": self.started_at is not None and self.finished_at is None,
                "elapsed_seconds": round(
                    ((self.finished_at or now) - self.started_at), 3
                )
                if self.started_at is not None
                else 0.0,
                "functions": {
                    "total": self.functions_total,
                    "prepared": self.functions_prepared,
                    "cached": self.functions_cached,
                    "quarantined": self.functions_quarantined,
                },
                "checkers_done": list(self.checkers_done),
                "exit_code": self.exit_code,
                "events": self._seq,
            }
        registry = get_registry()
        degradations = registry.get("robust.degradations")
        total = degradations.total() if degradations is not None else 0
        data["degraded"] = bool(total) or (
            self.exit_code is not None and self.exit_code in (3, 4)
        )
        data["degradations"] = int(total)
        return data

    def events_after(self, seq: int, limit: int = 0) -> List[Dict[str, Any]]:
        """Buffered events with sequence number > ``seq``."""
        with self._lock:
            events = [e for e in self._events if e["seq"] > seq]
        return events[:limit] if limit else events

    def wait_for_event(self, seq: int, timeout: float) -> bool:
        """Block until an event with sequence > ``seq`` exists (or the
        timeout passes); True iff one is available."""
        with self._event_ready:
            if self._seq > seq:
                return True
            self._event_ready.wait(timeout)
            return self._seq > seq


# ----------------------------------------------------------------------
# Global tracker
# ----------------------------------------------------------------------
_PROGRESS = ProgressTracker()


def get_progress() -> ProgressTracker:
    return _PROGRESS


def set_progress(tracker: ProgressTracker) -> ProgressTracker:
    """Swap the process-global tracker (fresh one per CLI run/test)."""
    global _PROGRESS
    _PROGRESS = tracker
    return tracker
