"""Cost attribution: critical path, the profile document, and the
cross-process span tree a ``--jobs 2`` run actually assembles.

The acceptance contract of the attribution layer:

- every worker task span in a merged trace parents under the wave span
  that dispatched it (trace-context propagation survives the process
  boundary);
- the compute/dispatch-overhead shares sum to 1.0 and are denominated
  against real wall time (consistent within 10%);
- the split lands in run history and ``history diff`` surfaces it.
"""

import json

from repro import Pinpoint, UseAfterFreeChecker
from repro.obs.attr import (
    cost_breakdown,
    critical_path,
    render_profile,
)
from repro.obs.clock import ManualClock
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.trace import Tracer, get_tracer, set_tracer

import pytest

PROGRAM = """
fn helper(p) { x = *p; return x; }
fn touch(p) { *p = 7; return 0; }
fn chain(p) { t = touch(p); h = helper(p); return t + h; }
fn main() {
    p = malloc();
    free(p);
    y = chain(p);
    return y;
}
"""


@pytest.fixture(autouse=True)
def _clean_obs_state():
    old_tracer = get_tracer()
    old_registry = get_registry()
    set_registry(MetricsRegistry())
    yield
    set_tracer(old_tracer)
    set_registry(old_registry)


def make_tracer(tick=1.0):
    return Tracer(clock=ManualClock(tick=tick), enabled=True)


# ----------------------------------------------------------------------
# Critical path over synthetic trees
# ----------------------------------------------------------------------
def test_critical_path_descends_heaviest_chain():
    tracer = make_tracer()
    with tracer.span("run"):
        with tracer.span("light"):
            pass
        with tracer.span("heavy"):
            with tracer.span("leaf"):
                pass
            with tracer.span("leaf2"):
                pass
    chain = critical_path(tracer.spans)
    assert [s.name for s in chain][:2] == ["run", "heavy"]
    # Each link is a real parent edge.
    for parent, child in zip(chain, chain[1:]):
        assert child.parent == parent.uid
        assert child.duration <= parent.duration


def test_critical_path_empty_and_single():
    assert critical_path([]) == []
    tracer = make_tracer()
    with tracer.span("only"):
        pass
    assert [s.name for s in critical_path(tracer.spans)] == ["only"]


# ----------------------------------------------------------------------
# The breakdown document (synthetic run)
# ----------------------------------------------------------------------
def _synthetic_run():
    """A hand-built two-wave parallel run: tracer + registry + wall."""
    tracer = make_tracer(tick=0.5)
    with tracer.span("sched.wave", unit="0") as w0:
        w0.set(functions=2, dispatched=2, cached=0,
               straggler="helper", straggler_seconds=0.4)
    with tracer.span("sched.wave", unit="1") as w1:
        w1.set(functions=1, dispatched=1, cached=0,
               straggler="main", straggler_seconds=0.3)
    registry = MetricsRegistry()
    registry.gauge("sched.jobs", "j").set(2)
    registry.gauge("attr.wave_seconds", "w").set(1.0)
    registry.gauge("attr.work_seconds", "w").set(1.4)
    registry.gauge("attr.critical_path_seconds", "c").set(0.7)
    registry.gauge("attr.utilization", "u").set(0.7)
    registry.gauge("attr.overhead_ratio", "o").set(0.3)
    registry.counter("sched.dispatch.serialize_seconds", "s").inc(0.02)
    registry.counter("sched.dispatch.serialize_bytes", "b").inc(2048)
    registry.counter("sched.dispatch.result_bytes", "b").inc(4096)
    return tracer, registry, 1.2


def test_cost_breakdown_shares_sum_to_one():
    tracer, registry, wall = _synthetic_run()
    doc = cost_breakdown(tracer, registry, wall, 10.0, source_label="synth")
    shares = doc["shares"]
    assert abs(shares["compute"] + shares["dispatch_overhead"] - 1.0) < 1e-6
    assert 0.0 <= shares["dispatch_overhead"] <= 1.0
    # Denominator is the largest wall figure available (measured 1.2s).
    assert doc["accounted_seconds"] == pytest.approx(1.2)
    assert doc["peak_mb"] == 10.0
    # dispatch wall = wave 1.0 - critical 0.7 = 0.3 -> share 0.25.
    assert shares["dispatch_overhead"] == pytest.approx(0.25)


def test_cost_breakdown_parallel_and_waves():
    tracer, registry, wall = _synthetic_run()
    doc = cost_breakdown(tracer, registry, wall)
    assert "peak_mb" not in doc
    parallel = doc["parallel"]
    assert parallel["jobs"] == 2
    assert parallel["speedup_bound"] == pytest.approx(1.4 / 0.7, abs=0.01)
    waves = doc["waves"]
    assert len(waves) == 2
    # Sorted by wall, heaviest first; barrier waste = wall - straggler.
    assert waves[0]["seconds"] >= waves[1]["seconds"]
    for row in waves:
        assert row["barrier_waste_seconds"] == pytest.approx(
            max(0.0, row["seconds"] - row["straggler_seconds"]), abs=1e-6
        )
    assert doc["overhead"]["serialize_bytes"] == 2048
    assert doc["overhead"]["result_bytes"] == 4096


def test_cost_breakdown_serial_fallback_uses_chain_root():
    """No attr gauges (serial, no scheduler): the heaviest root bounds
    the run and the dispatch share collapses to zero."""
    tracer = make_tracer()
    with tracer.span("prepare.fn", unit="f"):
        pass
    doc = cost_breakdown(tracer, MetricsRegistry())
    assert doc["shares"]["dispatch_overhead"] == 0.0
    assert doc["shares"]["compute"] == 1.0
    assert doc["critical_path_seconds"] > 0


def test_task_seconds_are_kept_out_of_wall_overhead():
    """Worker-side seconds are summed over tasks that overlap each other
    and the parent; they must not add into the wall-clock overhead."""
    tracer, registry, wall = _synthetic_run()
    registry.counter("sched.dispatch.decode_seconds", "d").inc(0.01)
    registry.counter("sched.tasks", "t").inc(4)
    registry.counter("sched.dispatch.queue_seconds", "q").inc(10.0)
    registry.counter("sched.dispatch.deserialize_seconds", "d").inc(2.0)
    registry.counter("sched.dispatch.warmup_seconds", "w").inc(0.4)
    doc = cost_breakdown(tracer, registry, wall)
    overhead = doc["overhead"]
    assert overhead["total_seconds"] == pytest.approx(0.03)
    task_keys = {"queue_seconds", "deserialize_seconds", "warmup_seconds"}
    assert not task_keys & set(overhead)
    sums = doc["task_sums"]
    assert sums["tasks"] == 4
    assert sums["summed"] == pytest.approx(
        {"deserialize_seconds": 2.0, "queue_seconds": 10.0, "warmup_seconds": 0.4}
    )
    assert sums["mean"] == pytest.approx(
        {"deserialize_seconds": 0.5, "queue_seconds": 2.5, "warmup_seconds": 0.1}
    )
    text = render_profile(doc)
    wall_table, _, task_table = text.partition("summed over 4 tasks (not wall time)")
    assert task_table, text
    assert "queue seconds" not in wall_table.split("dispatch overhead breakdown")[1]
    assert "queue seconds" in task_table and "mean per task" in task_table


def test_render_profile_mentions_key_sections():
    tracer, registry, wall = _synthetic_run()
    doc = cost_breakdown(tracer, registry, wall, 10.0, source_label="synth")
    text = render_profile(doc)
    assert "repro profile — synth" in text
    assert "critical path" in text
    # One report: the pass table first, then where the wall time went.
    assert text.index("hottest passes") < text.index("critical path")
    assert "dispatch overhead breakdown" in text
    assert "parallel efficiency" in text
    assert "speedup bound" in text


# ----------------------------------------------------------------------
# End to end: a real --jobs 2 run
# ----------------------------------------------------------------------
def _parallel_traced_run():
    tracer = set_tracer(Tracer(enabled=True))
    engine = Pinpoint.from_source(PROGRAM, jobs=2)
    engine.check(UseAfterFreeChecker())
    return tracer, get_registry()


def test_worker_spans_parent_under_wave_spans():
    tracer, _registry = _parallel_traced_run()
    spans = list(tracer.spans)
    waves = {s.uid: s for s in spans if s.name == "sched.wave"}
    workers = [s for s in spans if s.name == "sched.worker"]
    assert waves and workers
    for worker in workers:
        # Every absorbed worker task hangs off the wave that dispatched
        # it — and the wave index matches the payload's wave_index.
        assert worker.parent in waves, worker
        assert worker.args.get("trace_id") == tracer.trace_id
    # The merged Chrome trace carries the same tree.
    doc = tracer.to_chrome_trace()
    names = [e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"]
    assert names.count("sched.worker") == len(workers)


def test_why_slow_split_consistent_with_wall():
    tracer, registry = _parallel_traced_run()
    import time

    # Re-time a fresh run under the same tracer so the wall time and
    # the spans describe the same work envelope.
    tracer.clear()
    set_registry(MetricsRegistry())
    started = time.perf_counter()
    engine = Pinpoint.from_source(PROGRAM, jobs=2)
    engine.check(UseAfterFreeChecker())
    wall = time.perf_counter() - started
    doc = cost_breakdown(tracer, get_registry(), wall, source_label="test")
    shares = doc["shares"]
    total = shares["compute"] + shares["dispatch_overhead"]
    assert total <= 1.0 + 1e-6
    # Consistency with wall time: the accounted denominator is within
    # 10% of (>=) the measured wall, and the shares explain all of it.
    assert doc["accounted_seconds"] >= wall * 0.999
    assert total == pytest.approx(1.0, abs=0.1)
    assert doc["parallel"]["jobs"] == 2
    assert doc["critical_path"], "critical path must be non-empty"
    assert doc["overhead"]["serialize_bytes"] > 0
    assert json.loads(json.dumps(doc)) == doc  # JSON-safe document


def test_attr_gauges_present_without_tracing():
    set_tracer(Tracer(enabled=False))
    set_registry(MetricsRegistry())
    engine = Pinpoint.from_source(PROGRAM, jobs=2)
    engine.check(UseAfterFreeChecker())
    registry = get_registry()
    for name in (
        "attr.wave_seconds",
        "attr.work_seconds",
        "attr.critical_path_seconds",
        "attr.utilization",
        "attr.overhead_ratio",
    ):
        assert registry.get(name) is not None, name
    assert registry.get("sched.dispatch.serialize_bytes").total() > 0
