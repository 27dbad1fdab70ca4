"""Run-history telemetry store and perf-regression detection.

Every ``repro check`` / ``selfcheck`` / bench run can persist a compact,
schema-versioned **run record** — source fingerprint, config, wall
time, per-stage timings, peak RSS, cache traffic and I/O retries,
degradation diagnostics, a findings digest, and key histogram
quantiles — into an append-only store under ``--history-dir`` /
``$REPRO_HISTORY_DIR``:

``runs.jsonl``
    One JSON object per line, append-only; the full record.
``index.json``
    A small atomic-rewritten summary (one entry per run) so ``repro
    history list``/``trend`` never parse the whole log.

On top of the store, :func:`compute_trend` answers the question CI
actually asks: *did this run regress against its own history?*  The
baseline is the **median of the prior N runs with the same source
fingerprint, command and schema** — medians shrug off one noisy run,
and the fingerprint guard keeps a changed benchmark from masquerading
as a slowdown.  Wall-time and memory regress only past a ratio threshold
*and* an absolute floor (a 2ms run doubling to 4ms is noise, not news);
finding counts regress on any drift from the baseline median, since
findings are deterministic.

:func:`write_bench_file` renders the same store as a repo-root
``BENCH_pinpoint.json`` trajectory for dashboards.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.export import append_line, atomic_write, ensure_parent_dir
from repro.obs.metrics import Counter, Histogram, MetricsRegistry

#: Bump when a record field changes meaning; readers skip newer schemas
#: and trend baselines only compare records of one schema.  2:
#: ``wall_seconds`` is plain clock time and ``peak_mb`` the resident-set
#: high-water mark (1 measured both under tracemalloc).
SCHEMA_VERSION = 2

#: Environment fallback for ``--history-dir``.
HISTORY_DIR_ENV = "REPRO_HISTORY_DIR"

RUNS_FILE = "runs.jsonl"
INDEX_FILE = "index.json"

#: Histograms summarized (p50/p95/p99) into every run record.  The
#: daemon's request-latency histogram rides along so ``repro daemon`` /
#: ``repro loadgen`` runs carry their service quantiles into history,
#: where the trend gate below can watch them.
RECORD_HISTOGRAMS = ("smt.solve_seconds", "service.request_seconds")

#: The record-quantile key the service-latency trend gate watches.
SERVICE_HISTOGRAM = "service.request_seconds"

#: Default regression thresholds (see :class:`TrendThresholds`).
DEFAULT_WALL_RATIO = 1.50
DEFAULT_MEM_RATIO = 1.50
DEFAULT_WALL_FLOOR_SECONDS = 0.05
DEFAULT_MEM_FLOOR_MB = 8.0
DEFAULT_SERVICE_P95_RATIO = 1.50
DEFAULT_SERVICE_P95_FLOOR_SECONDS = 0.010
DEFAULT_BASELINE_RUNS = 5
DEFAULT_MIN_RUNS = 1


# ----------------------------------------------------------------------
# Fingerprinting
# ----------------------------------------------------------------------
def fingerprint_paths(paths: Sequence[str]) -> str:
    """Content hash of the analyzed sources (order-independent).

    Trend baselines are only comparable between runs over identical
    input, so the fingerprint hashes file *contents*, not paths or
    mtimes.  Unreadable files hash their path plus the error, keeping
    the fingerprint total rather than raising mid-record."""
    digests = []
    for path in paths:
        h = hashlib.sha256()
        try:
            with open(path, "rb") as handle:
                for chunk in iter(lambda: handle.read(65536), b""):
                    h.update(chunk)
        except OSError as error:
            h.update(f"{path}:{type(error).__name__}".encode("utf-8"))
        digests.append(h.hexdigest())
    outer = hashlib.sha256()
    for digest in sorted(digests):
        outer.update(digest.encode("ascii"))
    return outer.hexdigest()[:16]


def fingerprint_text(text: str) -> str:
    """Fingerprint for in-memory sources (selfcheck, tests)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def findings_digest(keys: Sequence[Sequence[Any]]) -> str:
    """Order-independent digest over report dedup keys, so two runs
    finding the same bugs match even if checker order changes."""
    h = hashlib.sha256()
    for key in sorted(str(k) for k in keys):
        h.update(key.encode("utf-8"))
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# Record collection
# ----------------------------------------------------------------------
def _counter_total(registry: MetricsRegistry, name: str, **labels) -> float:
    metric = registry.get(name)
    if not isinstance(metric, Counter):
        return 0.0
    if labels:
        return sum(
            value
            for sample_labels, value in metric.items()
            if all(sample_labels.get(k) == v for k, v in labels.items())
        )
    return metric.total()


def collect_run_record(
    registry: MetricsRegistry,
    *,
    command: str,
    label: str,
    fingerprint: str,
    config: Optional[Dict[str, Any]] = None,
    wall_seconds: float = 0.0,
    peak_mb: float = 0.0,
    exit_code: int = 0,
    findings: int = 0,
    findings_by_checker: Optional[Dict[str, int]] = None,
    digest: str = "",
    diagnostics: Optional[Sequence[Dict[str, Any]]] = None,
    profile: Optional[Dict[str, Any]] = None,
    clock=time.time,
) -> Dict[str, Any]:
    """Assemble one run record from the metrics registry plus the
    run-level figures only the CLI knows (wall time, exit code, ...)."""
    # Imported here: repro.robust imports this package's metrics module.
    from repro.robust.diagnostics import REASON_PARSE_ERROR, REASON_QUARANTINED

    stages: Dict[str, float] = {}
    engine_seconds = registry.get("engine.seconds")
    if isinstance(engine_seconds, Counter):
        for labels, value in engine_seconds.items():
            phase = labels.get("phase", "")
            if phase:
                stages[phase] = round(stages.get(phase, 0.0) + value, 6)

    quantiles: Dict[str, Dict[str, float]] = {}
    for name in RECORD_HISTOGRAMS:
        metric = registry.get(name)
        if isinstance(metric, Histogram) and metric.total_count():
            quantiles[name] = {
                key: round(value, 6)
                for key, value in metric.merged_quantiles().items()
            }

    ts = clock()
    record: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "ts": round(ts, 3),
        "ts_iso": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(ts)),
        "command": command,
        "label": label,
        "fingerprint": fingerprint,
        "config": dict(config or {}),
        "exit_code": exit_code,
        "wall_seconds": round(wall_seconds, 6),
        "peak_mb": round(peak_mb, 3),
        "stages": stages,
        "cache": {
            "hits": int(_counter_total(registry, "cache.hits")),
            "misses": int(_counter_total(registry, "cache.misses")),
            "writes": int(_counter_total(registry, "cache.writes")),
        },
        "sched": {
            # How hard did the cache I/O retry policy have to work?
            "retries": int(_counter_total(registry, "sched.retries")),
        },
        "robust": {
            "degradations": int(_counter_total(registry, "robust.degradations")),
            # Once per analysis: checker runs share the module's log.
            "quarantined": int(
                sum(
                    _counter_total(registry, "robust.degradations", reason=reason)
                    for reason in (REASON_QUARANTINED, REASON_PARSE_ERROR)
                )
            ),
            "diagnostics": [dict(d) for d in (diagnostics or [])][:50],
        },
        "findings": {
            "total": int(findings),
            "by_checker": dict(findings_by_checker or {}),
            "digest": digest,
        },
        "pta": {
            # Tier from the run config (the CLI records the tier the
            # engine prepared at); counters from the per-function analyses.
            "tier": str((config or {}).get("pta", "") or "fi"),
            "strong_updates": int(
                _counter_total(registry, "pta.strong_updates")
            ),
            "weak_updates": int(_counter_total(registry, "pta.weak_updates")),
        },
        "quantiles": quantiles,
    }
    if profile:
        record["profile"] = profile
    return record


def _index_entry(run_id: str, record: Dict[str, Any]) -> Dict[str, Any]:
    return {
        "run_id": run_id,
        "ts": record.get("ts", 0.0),
        "ts_iso": record.get("ts_iso", ""),
        "command": record.get("command", ""),
        "label": record.get("label", ""),
        "fingerprint": record.get("fingerprint", ""),
        "exit_code": record.get("exit_code", 0),
        "wall_seconds": record.get("wall_seconds", 0.0),
        "peak_mb": record.get("peak_mb", 0.0),
        "findings": record.get("findings", {}).get("total", 0),
        "degradations": record.get("robust", {}).get("degradations", 0),
    }


class HistoryStore:
    """The on-disk run-history store (one directory)."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.runs_path = os.path.join(directory, RUNS_FILE)
        self.index_path = os.path.join(directory, INDEX_FILE)

    # -- writing -------------------------------------------------------
    def append(self, record: Dict[str, Any]) -> str:
        """Append one record; returns its assigned ``run_id``.

        The JSONL append is a single ``write(2)`` on an ``O_APPEND``
        descriptor (:func:`repro.obs.export.append_line`), which is what
        makes *concurrent* appenders safe: POSIX appends each record's
        one write at the current end of file, so parallel CI jobs or a
        daemon recording next to a one-shot run can share a history dir
        without ever interleaving bytes mid-line.  The index is
        rewritten atomically afterwards, so a crash between the two at
        worst loses the index entry — :meth:`reindex` rebuilds it."""
        index = self.index()
        run_id = f"r{len(index) + 1:05d}"
        record = dict(record)
        record["run_id"] = run_id
        ensure_parent_dir(self.runs_path)
        append_line(self.runs_path, json.dumps(record, sort_keys=True))
        index.append(_index_entry(run_id, record))
        atomic_write(
            self.index_path,
            json.dumps({"schema": SCHEMA_VERSION, "runs": index}, indent=2) + "\n",
        )
        return run_id

    def reindex(self) -> int:
        """Rebuild ``index.json`` from the JSONL log; returns run count."""
        records = self.records()
        index = [_index_entry(r.get("run_id", f"r{i + 1:05d}"), r)
                 for i, r in enumerate(records)]
        atomic_write(
            self.index_path,
            json.dumps({"schema": SCHEMA_VERSION, "runs": index}, indent=2) + "\n",
        )
        return len(index)

    # -- reading -------------------------------------------------------
    def index(self) -> List[Dict[str, Any]]:
        try:
            with open(self.index_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return []
        if not isinstance(data, dict) or data.get("schema", 0) > SCHEMA_VERSION:
            return []
        runs = data.get("runs", [])
        return runs if isinstance(runs, list) else []

    def records(self) -> List[Dict[str, Any]]:
        """Every full record, oldest first (tolerates torn final line)."""
        records: List[Dict[str, Any]] = []
        try:
            with open(self.runs_path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue  # torn tail from a crashed append
                    if isinstance(record, dict) and record.get(
                        "schema", 0
                    ) <= SCHEMA_VERSION:
                        records.append(record)
        except OSError:
            return []
        return records

    def get(self, run_id: str) -> Optional[Dict[str, Any]]:
        for record in self.records():
            if record.get("run_id") == run_id:
                return record
        return None

    def latest(self) -> Optional[Dict[str, Any]]:
        records = self.records()
        return records[-1] if records else None


def resolve_history_dir(explicit: Optional[str] = None) -> Optional[str]:
    """``--history-dir`` flag, else ``$REPRO_HISTORY_DIR``, else None
    (history recording off)."""
    if explicit:
        return explicit
    return os.environ.get(HISTORY_DIR_ENV) or None


# ----------------------------------------------------------------------
# Trend / regression detection
# ----------------------------------------------------------------------
@dataclass
class TrendThresholds:
    """When is "slower than baseline" a regression?

    A metric regresses only when it exceeds baseline × ``*_ratio`` AND
    the absolute increase clears the floor — tiny runs jitter by whole
    multiples, so a pure ratio test would cry wolf constantly."""

    wall_ratio: float = DEFAULT_WALL_RATIO
    mem_ratio: float = DEFAULT_MEM_RATIO
    wall_floor_seconds: float = DEFAULT_WALL_FLOOR_SECONDS
    mem_floor_mb: float = DEFAULT_MEM_FLOOR_MB
    # Service request-latency gate (daemon / loadgen runs): the p95 of
    # ``service.request_seconds`` regresses under the same ratio+floor
    # rule as wall time.  Runs without the histogram are unaffected.
    service_p95_ratio: float = DEFAULT_SERVICE_P95_RATIO
    service_p95_floor_seconds: float = DEFAULT_SERVICE_P95_FLOOR_SECONDS
    baseline_runs: int = DEFAULT_BASELINE_RUNS
    min_runs: int = DEFAULT_MIN_RUNS


@dataclass
class TrendReport:
    """Outcome of one regression check."""

    ok: bool
    reason: str
    latest: Optional[Dict[str, Any]] = None
    baseline: Dict[str, Any] = field(default_factory=dict)
    baseline_count: int = 0
    regressions: List[Dict[str, Any]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "reason": self.reason,
            "latest_run_id": (self.latest or {}).get("run_id"),
            "baseline": self.baseline,
            "baseline_count": self.baseline_count,
            "regressions": self.regressions,
        }


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    middle = n // 2
    if n % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def compute_trend(
    records: Sequence[Dict[str, Any]],
    thresholds: Optional[TrendThresholds] = None,
) -> TrendReport:
    """Compare the latest record against the rolling baseline.

    Baseline = median of up to ``baseline_runs`` *prior* runs sharing
    the latest run's source fingerprint, command and record schema (a
    schema bump changes what the figures measure).  Fewer than
    ``min_runs`` comparable prior runs → ``ok`` (a first run has nothing
    to regress against; failing it would make every fresh checkout red).
    """
    thresholds = thresholds or TrendThresholds()
    if not records:
        return TrendReport(ok=True, reason="no runs recorded")
    latest = records[-1]
    prior = [
        r
        for r in records[:-1]
        if r.get("fingerprint") == latest.get("fingerprint")
        and r.get("command") == latest.get("command")
        and r.get("schema") == latest.get("schema")
    ][-thresholds.baseline_runs:]
    if len(prior) < thresholds.min_runs:
        return TrendReport(
            ok=True,
            reason=(
                f"insufficient history ({len(prior)} comparable prior runs, "
                f"need {thresholds.min_runs})"
            ),
            latest=latest,
            baseline_count=len(prior),
        )

    baseline = {
        "wall_seconds": round(_median([r.get("wall_seconds", 0.0) for r in prior]), 6),
        "peak_mb": round(_median([r.get("peak_mb", 0.0) for r in prior]), 3),
        "findings": int(
            _median([r.get("findings", {}).get("total", 0) for r in prior])
        ),
    }
    regressions: List[Dict[str, Any]] = []

    wall = latest.get("wall_seconds", 0.0)
    base_wall = baseline["wall_seconds"]
    if (
        wall > base_wall * thresholds.wall_ratio
        and wall - base_wall > thresholds.wall_floor_seconds
    ):
        regressions.append(
            {
                "metric": "wall_seconds",
                "latest": wall,
                "baseline": base_wall,
                "ratio": round(wall / base_wall, 3) if base_wall else None,
                "threshold_ratio": thresholds.wall_ratio,
            }
        )

    peak = latest.get("peak_mb", 0.0)
    base_peak = baseline["peak_mb"]
    if (
        peak > base_peak * thresholds.mem_ratio
        and peak - base_peak > thresholds.mem_floor_mb
    ):
        regressions.append(
            {
                "metric": "peak_mb",
                "latest": peak,
                "baseline": base_peak,
                "ratio": round(peak / base_peak, 3) if base_peak else None,
                "threshold_ratio": thresholds.mem_ratio,
            }
        )

    def _service_p95(record: Dict[str, Any]) -> Optional[float]:
        value = (
            record.get("quantiles", {}).get(SERVICE_HISTOGRAM, {}).get("p95")
        )
        return float(value) if isinstance(value, (int, float)) else None

    latest_p95 = _service_p95(latest)
    prior_p95 = [v for v in (_service_p95(r) for r in prior) if v is not None]
    if latest_p95 is not None and prior_p95:
        base_p95 = round(_median(prior_p95), 6)
        baseline["service_p95_seconds"] = base_p95
        if (
            latest_p95 > base_p95 * thresholds.service_p95_ratio
            and latest_p95 - base_p95 > thresholds.service_p95_floor_seconds
        ):
            regressions.append(
                {
                    "metric": "service_p95_seconds",
                    "latest": latest_p95,
                    "baseline": base_p95,
                    "ratio": round(latest_p95 / base_p95, 3) if base_p95 else None,
                    "threshold_ratio": thresholds.service_p95_ratio,
                }
            )

    found = latest.get("findings", {}).get("total", 0)
    if found != baseline["findings"]:
        regressions.append(
            {
                "metric": "findings",
                "latest": found,
                "baseline": baseline["findings"],
            }
        )

    if regressions:
        names = ", ".join(r["metric"] for r in regressions)
        return TrendReport(
            ok=False,
            reason=f"regression in {names} vs median of {len(prior)} prior runs",
            latest=latest,
            baseline=baseline,
            baseline_count=len(prior),
            regressions=regressions,
        )
    return TrendReport(
        ok=True,
        reason=f"within thresholds vs median of {len(prior)} prior runs",
        latest=latest,
        baseline=baseline,
        baseline_count=len(prior),
    )


# ----------------------------------------------------------------------
# Trajectory file
# ----------------------------------------------------------------------
BENCH_FILE = "BENCH_pinpoint.json"


def write_bench_file(
    path: str,
    records: Sequence[Dict[str, Any]],
    trend: Optional[TrendReport] = None,
) -> Dict[str, Any]:
    """Render the history as the ``BENCH_pinpoint.json`` trajectory —
    one point per run, newest last, plus the latest trend verdict."""
    points = [
        {
            "run_id": r.get("run_id", ""),
            "ts": r.get("ts", 0.0),
            "ts_iso": r.get("ts_iso", ""),
            "command": r.get("command", ""),
            "label": r.get("label", ""),
            "fingerprint": r.get("fingerprint", ""),
            "wall_seconds": r.get("wall_seconds", 0.0),
            "peak_mb": r.get("peak_mb", 0.0),
            "findings": r.get("findings", {}).get("total", 0),
            "exit_code": r.get("exit_code", 0),
        }
        for r in records
    ]
    document = {
        "benchmark": "pinpoint",
        "schema": SCHEMA_VERSION,
        "runs": points,
    }
    if trend is not None:
        document["trend"] = trend.as_dict()
    atomic_write(path, json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document
