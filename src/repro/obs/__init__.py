"""repro.obs — the unified instrumentation layer.

One package threads observability through the whole pipeline (parser →
lowering/SSA → points-to → SEG build → summaries/engine → checkers →
SMT):

- **span tracing** (:mod:`repro.obs.trace`): ``with trace("seg.build",
  unit=fn): ...`` — hierarchical, thread-safe, near-zero overhead while
  disabled, exported as Chrome ``trace_event`` JSON (``--trace``);
- **metrics registry** (:mod:`repro.obs.metrics`): counters, gauges and
  fixed-bucket histograms incremented at their source sites and exported
  as JSON or Prometheus text (``--metrics-out``);
- **structured logging** (:mod:`repro.obs.log`): ``--log-level`` /
  ``--log-json`` over stdlib logging;
- **measurement** (:mod:`repro.obs.measure`): the benchmarks'
  nesting-safe tracemalloc meter, and the resident-set high-water mark
  CLI run records carry;
- **profiling** (:mod:`repro.obs.profiling` + :mod:`repro.obs.attr`):
  the one ``repro profile`` report — the wave loop's measured wall and
  per-pass / per-function tables (``--json`` for the machine twin);
- **run history** (:mod:`repro.obs.history`): schema-versioned run
  records in an append-only store (``--history-dir`` /
  ``$REPRO_HISTORY_DIR``) with rolling-baseline regression detection
  (``repro history trend --check``);
- **live monitor** (:mod:`repro.obs.progress` +
  :mod:`repro.obs.monitor`): progress events from stage/wave boundaries
  served over HTTP (``/healthz`` ``/metrics`` ``/status`` ``/events``)
  by ``repro check --monitor-port`` (``--linger`` keeps serving after
  the run);
- **atomic exports** (:mod:`repro.obs.export`): temp-file+rename writes
  shared by every artifact above.

Everything takes an injectable clock (:mod:`repro.obs.clock`) so tests
and golden files are deterministic.  See ``docs/observability.md`` for
naming conventions and wiring recipes.
"""

import importlib

from repro.obs.clock import DEFAULT_CLOCK, ManualClock
from repro.obs.export import atomic_write, ensure_parent_dir
from repro.obs.log import StructuredLogger, configure as configure_logging, get_logger
from repro.obs.measure import Measurement, measure, peak_rss_mb, time_only
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
    SIZE_BUCKETS,
    SUMMARY_QUANTILES,
    get_registry,
    set_registry,
)
from repro.obs.progress import ProgressTracker, get_progress, set_progress
from repro.obs.trace import (
    Span,
    Tracer,
    enable_tracing,
    get_tracer,
    set_tracer,
    trace,
    traced,
)

# No analysis needs the reporting side (profile tables, run history, the
# HTTP monitor), so ``import repro`` does not load it: these names import
# their module on first access (PEP 562).
_LAZY = {
    "cost_breakdown": "repro.obs.attr",
    "render_profile": "repro.obs.attr",
    "HistoryStore": "repro.obs.history",
    "TrendReport": "repro.obs.history",
    "TrendThresholds": "repro.obs.history",
    "collect_run_record": "repro.obs.history",
    "compute_trend": "repro.obs.history",
    "write_bench_file": "repro.obs.history",
    "MonitorServer": "repro.obs.monitor",
    "get_active_monitor": "repro.obs.monitor",
    "pass_table": "repro.obs.profiling",
    "unit_table": "repro.obs.profiling",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "cost_breakdown",
    "render_profile",
    "DEFAULT_CLOCK",
    "ManualClock",
    "StructuredLogger",
    "configure_logging",
    "get_logger",
    "Measurement",
    "measure",
    "peak_rss_mb",
    "time_only",
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "SUMMARY_QUANTILES",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "atomic_write",
    "ensure_parent_dir",
    "HistoryStore",
    "TrendReport",
    "TrendThresholds",
    "collect_run_record",
    "compute_trend",
    "write_bench_file",
    "MonitorServer",
    "get_active_monitor",
    "ProgressTracker",
    "get_progress",
    "set_progress",
    "pass_table",
    "unit_table",
    "Span",
    "Tracer",
    "enable_tracing",
    "get_tracer",
    "set_tracer",
    "trace",
    "traced",
]
