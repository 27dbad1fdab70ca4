"""Cost attribution: the ``repro profile`` document.

One run's span tree and registry answer the questions the paper's
evaluation (Figs. 7-10) and the parallelism work ask of a slow run:

- **passes and functions** — per-pass and per-function self time with
  SMT-query attribution (:mod:`repro.obs.profiling`);
- **the wave loop** — what the prepare scheduler measured: its wall,
  the summed per-function compute, their ratio against ``jobs``
  workers (utilization), and the parent's decoding of worker outcomes.
  Worker spans re-parent under the ``sched.wave`` span that forked
  them, so ``--trace`` shows every wave and every worker's share.

Every figure is measured, none modelled, and a profiled run is timed by
the clock (no tracemalloc), so it costs what a plain one does.

:func:`cost_breakdown` builds the machine-readable document (``repro
profile --json``, also attached to run records, where ``repro history
diff`` compares two of them); :func:`render_profile` prints it as the
ranked tables of ``repro profile``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiling import pass_table, unit_table
from repro.obs.trace import Tracer

#: Document schema tag, bumped on incompatible shape changes.
SCHEMA = "repro.profile/3"


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
    left out of the document when None).  The ``parallel`` block is the
    scheduler's ``attr.*`` gauges and ``sched.dispatch.*`` counters as
    measured: ``work_seconds`` is worker compute, which overlaps itself
    and the parent, and ``decode_seconds`` is the parent's wall time
    spent unpickling worker outcomes.
    """
    spans = list(tracer.spans)
    traced_seconds = sum(s.duration for s in spans if s.parent is None)

    parallel = {
        "jobs": int(_gauge_value(registry, "sched.jobs") or 1),
        "wave_seconds": round(_gauge_value(registry, "attr.wave_seconds"), 6),
        "work_seconds": round(_gauge_value(registry, "attr.work_seconds"), 6),
        "utilization": round(_gauge_value(registry, "attr.utilization"), 4),
        "decode_seconds": round(
            _counter_total(registry, "sched.dispatch.decode_seconds"), 6
        ),
        "result_bytes": int(
            _counter_total(registry, "sched.dispatch.result_bytes")
        ),
    }

    # Wave spans carry bookkeeping units (wave indices), not functions —
    # keep them out of the per-function ranking.
    units = unit_table([s for s in spans if s.name != "sched.wave"])
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
        "parallel": parallel,
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
    document: the summary and wave-loop lines, then the pass, function
    and SMT tables."""
    label = document.get("label", "")
    title = f"repro profile — {label}" if label else "repro profile"
    lines: List[str] = [title, "=" * len(title)]

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
    if smt.get("queries"):
        bits.append(f"{smt['queries']} SMT queries")
    lines.append(", ".join(bits))
    if parallel.get("wave_seconds"):
        jobs = parallel.get("jobs", 1)
        lines.append(
            f"wave loop: {_fmt_seconds(parallel['wave_seconds'])} wall, "
            f"{_fmt_seconds(parallel.get('work_seconds', 0.0))} worker compute, "
            f"{100 * parallel.get('utilization', 0.0):.1f}% utilization of "
            f"{jobs} worker{'s' if jobs != 1 else ''}, "
            f"{_fmt_seconds(parallel.get('decode_seconds', 0.0))} decoding "
            f"{parallel.get('result_bytes', 0)} B of outcomes"
        )
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

    return "\n".join(lines).rstrip()
