"""Extension bench — incremental re-analysis.

Not a paper table: the paper's deployment context (commercial tools run
per-commit) motivates function-level incrementality, which Pinpoint's
compositional design makes natural.  Measured: cold analysis vs
re-analysis after (a) no edit, (b) a body-only edit, (c) an
interface-changing edit, on a mid-size subject.
"""

from __future__ import annotations

import pytest

from conftest import subject_program
from repro.bench.tables import render_table
from repro.core.incremental import IncrementalAnalyzer
from repro.obs.measure import time_only


def _edit_body(source: str) -> str:
    # Append a new leaf function: exactly one function to (re)analyze.
    return source + "\nfn appended_probe(a) { return a * 3 + 1; }\n"


def test_incremental_reanalysis(record_result):
    program = subject_program("vim")
    analyzer = IncrementalAnalyzer()

    _, cold = time_only(lambda: analyzer.analyze(program.source))
    cold_stats = analyzer.last_stats

    _, noop = time_only(lambda: analyzer.analyze(program.source))
    noop_stats = analyzer.last_stats

    _, edited = time_only(lambda: analyzer.analyze(_edit_body(program.source)))
    edited_stats = analyzer.last_stats

    rows = [
        ("cold", f"{cold:.2f}", cold_stats.analyzed, cold_stats.reused),
        ("no edit", f"{noop:.2f}", noop_stats.analyzed, noop_stats.reused),
        ("one new function", f"{edited:.2f}", edited_stats.analyzed, edited_stats.reused),
    ]
    table = render_table(["run", "time (s)", "functions analyzed", "reused"], rows)
    table += f"\n\nre-analysis speedup after a local edit: {cold / max(edited, 1e-9):.1f}x"
    record_result(table, "incremental")

    assert noop_stats.analyzed == 0
    assert edited_stats.analyzed == 1
    assert noop < cold
    assert edited < cold


@pytest.mark.benchmark(group="incremental")
def test_incremental_noop_benchmark(benchmark):
    program = subject_program("git")
    analyzer = IncrementalAnalyzer()
    analyzer.analyze(program.source)
    benchmark(lambda: analyzer.analyze(program.source))


@pytest.mark.benchmark(group="incremental")
def test_cold_analysis_benchmark(benchmark):
    program = subject_program("git")

    def cold():
        return IncrementalAnalyzer().analyze(program.source)

    benchmark(cold)


def test_disk_cache_cold_vs_warm(record_result, results_dir, tmp_path):
    """Persistent artifact store: a warm run must skip ~all preparation."""
    import json

    from repro.cache.store import SummaryStore
    from repro.core.pipeline import prepare_source
    from repro.obs.metrics import MetricsRegistry, get_registry, set_registry

    program = subject_program("vim")
    store = SummaryStore(str(tmp_path / "cache"))

    def run():
        set_registry(MetricsRegistry())
        _, seconds = time_only(lambda: prepare_source(program.source, store=store))
        registry = get_registry()
        return {
            "seconds": seconds,
            "hits": registry.counter("cache.hits").total(),
            "misses": registry.counter("cache.misses").total(),
        }

    cold = run()
    warm = run()
    lookups = warm["hits"] + warm["misses"]
    hit_rate = warm["hits"] / max(lookups, 1)

    payload = {
        "subject": "vim",
        "cold": cold,
        "warm": warm,
        "warm_hit_rate": hit_rate,
        "speedup": cold["seconds"] / max(warm["seconds"], 1e-9),
    }
    (results_dir / "cache_cold_vs_warm.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    rows = [
        ("cold", f"{cold['seconds']:.2f}", int(cold["hits"]), int(cold["misses"])),
        ("warm", f"{warm['seconds']:.2f}", int(warm["hits"]), int(warm["misses"])),
    ]
    table = render_table(["run", "time (s)", "cache hits", "cache misses"], rows)
    table += f"\n\nwarm hit rate: {hit_rate:.0%}, speedup: {payload['speedup']:.1f}x"
    record_result(table, "cache_cold_vs_warm")

    assert cold["hits"] == 0
    assert hit_rate >= 0.9
    assert warm["seconds"] < cold["seconds"]


def test_parallel_scaling_serial_vs_jobs(record_result, results_dir):
    """Wave-scheduler scaling: wall-clock of --jobs 1 vs --jobs 4.

    Synthetic subjects at bench scale are small, so this measures
    overhead + scaling shape rather than big speedups; the JSON artifact
    keeps the curve comparable across revisions.
    """
    import json

    from repro.core.pipeline import prepare_source
    from repro.obs.metrics import MetricsRegistry, set_registry

    program = subject_program("git")
    series = []
    for jobs in (1, 2, 4):
        # Fresh registry per point so the sched.dispatch.* counters
        # attribute result decoding to exactly this run.
        registry = set_registry(MetricsRegistry())
        _, seconds = time_only(lambda: prepare_source(program.source, jobs=jobs))
        point = {"jobs": jobs, "seconds": seconds}
        for counter in ("decode_seconds", "result_bytes"):
            metric = registry.get(f"sched.dispatch.{counter}")
            value = metric.total() if metric is not None else 0.0
            point[counter] = int(value) if counter.endswith("bytes") else value
        series.append(point)
    set_registry(MetricsRegistry())

    serial = series[0]["seconds"]
    for point in series:
        point["speedup"] = serial / max(point["seconds"], 1e-9)

    (results_dir / "parallel_scaling.json").write_text(
        json.dumps({"subject": "git", "series": series}, indent=2) + "\n"
    )
    rows = [
        (
            str(p["jobs"]),
            f"{p['seconds']:.2f}",
            f"{p['speedup']:.2f}x",
            f"{p['decode_seconds'] * 1e3:.1f}",
            f"{p['result_bytes'] / 1024:.0f}",
        )
        for p in series
    ]
    record_result(
        render_table(
            ["jobs", "time (s)", "speedup", "decode (ms)", "results (KiB)"],
            rows,
        ),
        "parallel_scaling",
    )

    assert all(p["seconds"] > 0 for p in series)
    # Parallel points shipped outcomes back; the serial point shipped none.
    assert series[0]["result_bytes"] == 0
    assert all(p["result_bytes"] > 0 for p in series[1:])
