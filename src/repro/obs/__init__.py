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
  the one ``repro profile`` report — per-pass / per-function tables
  and the wave loop's measured wall, worker compute, utilization and
  outcome decoding (``--json`` for the machine twin);
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

from repro.obs.attr import cost_breakdown, render_profile
from repro.obs.clock import DEFAULT_CLOCK, ManualClock
from repro.obs.export import atomic_write, ensure_parent_dir
from repro.obs.history import (
    HistoryStore,
    TrendReport,
    TrendThresholds,
    collect_run_record,
    compute_trend,
    write_bench_file,
)
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
from repro.obs.monitor import MonitorServer, get_active_monitor
from repro.obs.profiling import pass_table, unit_table
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
