"""Cross-process cost attribution: the ``repro profile`` document.

Worker spans re-parent under the ``sched.wave`` span that dispatched
them (trace-context propagation), and the scheduler meters its own
``sched.dispatch.*`` overhead, so one run's span tree and registry
answer the questions the paper's evaluation (Figs. 7-10) and the
parallelism work ask of a slow run:

- **passes and functions** — per-pass and per-function self time with
  SMT-query attribution (:mod:`repro.obs.profiling`);
- **critical path** — the longest parent→child chain through the wave
  barriers; the run cannot finish faster than this chain no matter how
  many workers are added;
- **per-wave stragglers** — the one task each barrier waits on, with
  the barrier waste (wave wall minus straggler) made explicit;
- **compute vs. dispatch overhead** — a two-way split of scheduler
  wall, denominated against the run's clock time (no tracemalloc, so
  a profiled run costs what a plain one does) so the shares sum to
  1.0 and can be regression-gated in run history.

:func:`cost_breakdown` builds the machine-readable document (``repro
profile --json``, also attached to run records, where ``repro history
diff`` compares two of them); :func:`render_profile` prints it as the
ranked tables of ``repro profile``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiling import pass_table, unit_table
from repro.obs.trace import Span, Tracer

#: Document schema tag, bumped on incompatible shape changes.
SCHEMA = "repro.profile/1"

#: Parent-side ``sched.dispatch.*`` seconds, in display order: wall
#: time of the run, summed into ``overhead.total_seconds``.
DISPATCH_SECONDS = (
    "sched.dispatch.serialize_seconds",
    "sched.dispatch.decode_seconds",
)
#: Worker-side ``sched.dispatch.*`` seconds, each summed over every
#: task.  Tasks on N workers overlap one another and the parent, so
#: these sums are not wall time; ``task_sums`` reports them apart, with
#: the task count and the per-task mean.
TASK_SECONDS = (
    "sched.dispatch.deserialize_seconds",
    "sched.dispatch.queue_seconds",
    "sched.dispatch.warmup_seconds",
)
DISPATCH_BYTES = (
    "sched.dispatch.serialize_bytes",
    "sched.dispatch.result_bytes",
)


def _counter_total(registry: MetricsRegistry, name: str) -> float:
    metric = registry.get(name)
    if isinstance(metric, Counter):
        return metric.total()
    return 0.0


def _gauge_value(registry: MetricsRegistry, name: str) -> float:
    metric = registry.get(name)
    if isinstance(metric, Gauge):
        return metric.value()
    return 0.0


# ----------------------------------------------------------------------
# Critical path
# ----------------------------------------------------------------------
def critical_path(spans: Sequence[Span]) -> List[Span]:
    """Longest-duration root→leaf chain through the span tree.

    Starts at the heaviest root span and descends into the heaviest
    child at every level.  With worker spans re-parented under their
    waves, the chain naturally reads *run → wave → straggler task →
    hottest pass inside it* — the sequence of regions that bound the
    run's wall time.
    """
    if not spans:
        return []
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    roots = children.get(None, [])
    if not roots:
        return []
    chain: List[Span] = []
    node = max(roots, key=lambda s: s.duration)
    while node is not None:
        chain.append(node)
        kids = children.get(node.uid)
        node = max(kids, key=lambda s: s.duration) if kids else None
    return chain


def _wave_rows(spans: Sequence[Span]) -> List[Dict[str, Any]]:
    """One row per ``sched.wave`` span: wall, tasks, straggler, waste."""
    rows: List[Dict[str, Any]] = []
    for span in spans:
        if span.name != "sched.wave":
            continue
        straggler_seconds = float(span.args.get("straggler_seconds", 0.0) or 0.0)
        rows.append(
            {
                "index": int(span.unit) if span.unit.isdigit() else span.unit,
                "seconds": round(span.duration, 6),
                "functions": int(span.args.get("functions", 0) or 0),
                "dispatched": int(span.args.get("dispatched", 0) or 0),
                "cached": int(span.args.get("cached", 0) or 0),
                "straggler": str(span.args.get("straggler", "") or ""),
                "straggler_seconds": round(straggler_seconds, 6),
                "barrier_waste_seconds": round(
                    max(0.0, span.duration - straggler_seconds), 6
                ),
            }
        )
    rows.sort(key=lambda row: row["seconds"], reverse=True)
    return rows


# ----------------------------------------------------------------------
# The breakdown document
# ----------------------------------------------------------------------
def cost_breakdown(
    tracer: Tracer,
    registry: MetricsRegistry,
    wall_seconds: float = 0.0,
    peak_mb: Optional[float] = None,
    source_label: str = "",
    top: int = 10,
) -> Dict[str, Any]:
    """Assemble the ``repro profile`` document from one run's observability.

    ``wall_seconds`` is the run's clock time and ``peak_mb`` its
    resident-set high-water mark (:func:`repro.obs.measure.peak_rss_mb`;
    left out of the document when None).  The compute/dispatch split is
    denominated against the largest wall figure we have (measured wall,
    traced root time, or wave-loop wall), so the two shares always sum
    to 1.0 — "overhead" is a measured share of real time, not an
    unexplained remainder.
    """
    spans = list(tracer.spans)
    traced_seconds = sum(s.duration for s in spans if s.parent is None)

    wave_seconds = _gauge_value(registry, "attr.wave_seconds")
    work_seconds = _gauge_value(registry, "attr.work_seconds")
    critical_seconds = _gauge_value(registry, "attr.critical_path_seconds")

    chain = critical_path(spans)
    if not critical_seconds and chain:
        # Serial / untraced-scheduler fallback: the heaviest chain's
        # root bounds the run just as the wave stragglers would.
        critical_seconds = chain[0].duration

    denominator = max(wall_seconds, traced_seconds, wave_seconds) or 1.0
    dispatch_wall = max(0.0, wave_seconds - critical_seconds)
    compute_wall = max(0.0, denominator - dispatch_wall)
    shares = {
        "compute": round(compute_wall / denominator, 4),
        "dispatch_overhead": round(dispatch_wall / denominator, 4),
    }

    overhead: Dict[str, Any] = {}
    overhead_total = 0.0
    for name in DISPATCH_SECONDS:
        value = _counter_total(registry, name)
        overhead[name.rsplit(".", 1)[-1]] = round(value, 6)
        overhead_total += value
    for name in DISPATCH_BYTES:
        overhead[name.rsplit(".", 1)[-1]] = int(_counter_total(registry, name))
    overhead["barrier_waste_seconds"] = round(dispatch_wall, 6)
    overhead["total_seconds"] = round(overhead_total, 6)

    tasks = int(_counter_total(registry, "sched.tasks"))
    summed = {
        name.rsplit(".", 1)[-1]: _counter_total(registry, name) for name in TASK_SECONDS
    }
    task_sums = {
        "tasks": tasks,
        "summed": {key: round(value, 6) for key, value in summed.items()},
        "mean": {key: round(value / max(tasks, 1), 6) for key, value in summed.items()},
    }

    jobs = int(_gauge_value(registry, "sched.jobs") or 1)
    parallel = {
        "jobs": jobs,
        "wave_seconds": round(wave_seconds, 6),
        "work_seconds": round(work_seconds, 6),
        "critical_path_seconds": round(critical_seconds, 6),
        "utilization": round(_gauge_value(registry, "attr.utilization"), 4),
        "overhead_ratio": round(_gauge_value(registry, "attr.overhead_ratio"), 4),
        # Brent bound: with infinite workers the wave plan still costs
        # the critical path, so work/critical caps achievable speedup.
        "speedup_bound": round(work_seconds / critical_seconds, 2)
        if critical_seconds > 0
        else 0.0,
    }

    # Wave/dispatch spans carry bookkeeping units (wave indices), not
    # functions — keep them out of the per-function ranking.
    unit_spans = [
        s
        for s in spans
        if s.name != "sched.wave" and not s.name.startswith("sched.dispatch")
    ]
    units = unit_table(unit_spans)
    functions = [
        {
            "unit": row.unit,
            "self_seconds": round(row.self_seconds, 6),
            "smt_queries": row.smt_queries,
            "hottest_pass": row.hottest_pass,
        }
        for row in units[:top]
    ]

    smt: Dict[str, Any] = {}
    smt_queries = registry.get("smt.queries")
    if isinstance(smt_queries, Counter) and smt_queries.total():
        smt["queries"] = int(smt_queries.total())
    smt_hist = registry.get("smt.solve_seconds")
    if isinstance(smt_hist, Histogram) and smt_hist.total_count():
        smt["solve_seconds"] = {
            key: round(value, 6)
            for key, value in smt_hist.merged_quantiles().items()
        }
    smt_units = [row for row in units if row.smt_queries]
    smt_units.sort(key=lambda row: row.smt_queries, reverse=True)
    if smt_units:
        smt["top_units"] = [
            {
                "unit": row.unit,
                "smt_queries": row.smt_queries,
                "self_seconds": round(row.self_seconds, 6),
            }
            for row in smt_units[:top]
        ]

    document: Dict[str, Any] = {
        "schema": SCHEMA,
        "label": source_label,
        "trace_id": tracer.trace_id if tracer.enabled else "",
        "spans": len(spans),
        "wall_seconds": round(wall_seconds, 6),
        "traced_seconds": round(traced_seconds, 6),
        "accounted_seconds": round(denominator, 6),
        "shares": shares,
        "overhead": overhead,
        "task_sums": task_sums,
        "parallel": parallel,
        "critical_path": [
            {
                "name": span.name,
                "unit": span.unit,
                "seconds": round(span.duration, 6),
            }
            for span in chain
        ],
        "critical_path_seconds": round(critical_seconds, 6),
        "waves": _wave_rows(spans),
        "functions": functions,
        "passes": [
            {
                "name": row.name,
                "calls": row.count,
                "total_seconds": round(row.total_seconds, 6),
                "self_seconds": round(row.self_seconds, 6),
            }
            for row in pass_table(spans)[:top]
        ],
    }
    if peak_mb is not None:
        document["peak_mb"] = round(peak_mb, 3)
    if smt:
        document["smt"] = smt
    return document


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.2f}ms"


def _table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
        )
    return "\n".join(lines)


def render_profile(document: Dict[str, Any], top: int = 10) -> str:
    """Human-readable ``repro profile`` report for a :func:`cost_breakdown`
    document: passes and functions first, then where the wall time went."""
    label = document.get("label", "")
    title = f"repro profile — {label}" if label else "repro profile"
    lines: List[str] = [title, "=" * len(title)]

    shares = document.get("shares", {})
    parallel = document.get("parallel", {})
    smt = document.get("smt", {})
    traced = document.get("traced_seconds", 0.0)
    bits = [
        f"{document.get('spans', 0)} spans",
        f"{_fmt_seconds(traced)} traced",
        f"{_fmt_seconds(document.get('wall_seconds', 0.0))} wall",
    ]
    if "peak_mb" in document:
        bits.append(f"{document['peak_mb']:.1f} MB peak")
    bits.append(f"{100 * shares.get('compute', 0.0):.1f}% compute")
    bits.append(f"{100 * shares.get('dispatch_overhead', 0.0):.1f}% dispatch overhead")
    if parallel.get("jobs", 1) > 1:
        bits.append(f"jobs={parallel['jobs']}")
        bits.append(f"utilization {100 * parallel.get('utilization', 0.0):.1f}%")
    if smt.get("queries"):
        bits.append(f"{smt['queries']} SMT queries")
    lines.append(", ".join(bits))
    lines.append("")

    lines.append(f"hottest passes (top {top}, by self time)")
    lines.append(
        _table(
            ["pass", "calls", "total", "self", "%run"],
            [
                [
                    row["name"],
                    str(row["calls"]),
                    _fmt_seconds(row["total_seconds"]),
                    _fmt_seconds(row["self_seconds"]),
                    f"{100 * row['self_seconds'] / (traced or 1.0):.1f}%",
                ]
                for row in document.get("passes", [])[:top]
            ],
        )
    )
    lines.append("")

    lines.append(f"hottest functions (top {top}, by self time)")
    lines.append(
        _table(
            ["function", "self", "smt queries", "hottest pass"],
            [
                [
                    row["unit"],
                    _fmt_seconds(row["self_seconds"]),
                    str(row["smt_queries"]),
                    row["hottest_pass"],
                ]
                for row in document.get("functions", [])[:top]
            ],
        )
    )
    lines.append("")

    chain = document.get("critical_path", [])
    if chain:
        lines.append("critical path (heaviest chain through the wave barriers)")
        lines.append(
            _table(
                ["depth", "span", "unit", "seconds"],
                [
                    [
                        str(depth),
                        entry["name"],
                        entry.get("unit", ""),
                        _fmt_seconds(entry["seconds"]),
                    ]
                    for depth, entry in enumerate(chain)
                ],
            )
        )
        lines.append("")

    waves = document.get("waves", [])
    if waves:
        lines.append(f"slowest waves (top {top}, by wall)")
        lines.append(
            _table(
                ["wave", "wall", "tasks", "straggler", "straggler t", "barrier waste"],
                [
                    [
                        str(row["index"]),
                        _fmt_seconds(row["seconds"]),
                        str(row["dispatched"]),
                        row["straggler"] or "-",
                        _fmt_seconds(row["straggler_seconds"]),
                        _fmt_seconds(row["barrier_waste_seconds"]),
                    ]
                    for row in waves[:top]
                ],
            )
        )
        lines.append("")

    overhead = document.get("overhead", {})
    if overhead:
        lines.append("dispatch overhead breakdown")
        rows = []
        for key in ("serialize_seconds", "decode_seconds", "barrier_waste_seconds"):
            if key in overhead:
                rows.append([key.replace("_", " "), _fmt_seconds(overhead[key])])
        for key in ("serialize_bytes", "result_bytes"):
            if key in overhead:
                rows.append([key.replace("_", " "), f"{overhead[key]} B"])
        lines.append(_table(["segment", "cost"], rows))
        lines.append("")

    task_sums = document.get("task_sums", {})
    if task_sums.get("tasks"):
        lines.append(
            f"worker time summed over {task_sums['tasks']} tasks (not wall time)"
        )
        rows = [
            [
                key.replace("_", " "),
                _fmt_seconds(value),
                _fmt_seconds(task_sums["mean"][key]),
            ]
            for key, value in task_sums["summed"].items()
        ]
        lines.append(_table(["segment", "summed", "mean per task"], rows))
        lines.append("")

    if smt.get("top_units"):
        lines.append(f"hottest SMT consumers (top {top}, by query count)")
        lines.append(
            _table(
                ["function", "queries", "self"],
                [
                    [
                        row["unit"],
                        str(row["smt_queries"]),
                        _fmt_seconds(row["self_seconds"]),
                    ]
                    for row in smt["top_units"][:top]
                ],
            )
        )
        quantiles = smt.get("solve_seconds", {})
        if quantiles:
            lines.append(
                "SMT solve quantiles: "
                + ", ".join(
                    f"{key} {_fmt_seconds(value)}"
                    for key, value in quantiles.items()
                )
            )
        lines.append("")

    if parallel.get("jobs", 1) > 1:
        bound = parallel.get("speedup_bound", 0.0)
        lines.append(
            f"parallel efficiency: {100 * parallel.get('utilization', 0.0):.1f}% "
            f"of {parallel['jobs']} workers busy; "
            f"overhead ratio {parallel.get('overhead_ratio', 0.0):.2f}; "
            f"speedup bound {bound:.2f}x (work / critical path)"
        )
    return "\n".join(lines).rstrip()
