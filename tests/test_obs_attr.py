"""Cost attribution: the profile document, and the cross-process span
tree a ``--jobs 2`` run actually assembles.

The acceptance contract of the attribution layer:

- every worker span in a merged trace parents under the wave span that
  forked it (trace-context propagation survives the process boundary);
- the document's ``parallel`` block is what the scheduler measured,
  and its figures add up: worker compute is at most ``jobs`` times the
  wave-loop wall, so utilization lies in (0, 1] without a clamp, and
  the wave loop fits inside the run's wall time.
"""

import json

from repro import Pinpoint, UseAfterFreeChecker
from repro.obs.attr import cost_breakdown, render_profile
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
# The breakdown document (synthetic run)
# ----------------------------------------------------------------------
def _synthetic_run():
    """A hand-built two-wave parallel run: tracer + registry + wall."""
    tracer = make_tracer(tick=0.5)
    with tracer.span("sched.wave", unit="0") as w0:
        w0.set(functions=2, dispatched=2, cached=0)
    with tracer.span("sched.wave", unit="1") as w1:
        w1.set(functions=1, dispatched=1, cached=0)
    registry = MetricsRegistry()
    registry.gauge("sched.jobs", "j").set(2)
    registry.gauge("attr.wave_seconds", "w").set(1.0)
    registry.gauge("attr.work_seconds", "w").set(1.4)
    registry.gauge("attr.utilization", "u").set(0.7)
    registry.counter("sched.dispatch.decode_seconds", "d").inc(0.02)
    registry.counter("sched.dispatch.result_bytes", "b").inc(4096)
    return tracer, registry, 1.2


#: Sections and ``parallel`` fields of ``repro.profile/2`` that modelled
#: one task per worker; a document must carry none of them.
REMOVED_SECTIONS = (
    "accounted_seconds", "shares", "overhead", "critical_path",
    "critical_path_seconds", "waves",
)
REMOVED_PARALLEL = ("critical_path_seconds", "overhead_ratio", "speedup_bound")


def test_cost_breakdown_parallel_and_waves():
    """The ``parallel`` block is read from the registry as measured; the
    waves stay spans in the trace, not a document section."""
    tracer, registry, wall = _synthetic_run()
    doc = cost_breakdown(tracer, registry, wall, 10.0, source_label="synth")
    assert doc["schema"] == "repro.profile/3"
    assert doc["peak_mb"] == 10.0
    assert doc["parallel"] == {
        "jobs": 2,
        "wave_seconds": 1.0,
        "work_seconds": 1.4,
        "utilization": 0.7,
        "decode_seconds": 0.02,
        "result_bytes": 4096,
    }
    assert not set(REMOVED_SECTIONS) & set(doc)
    assert "peak_mb" not in cost_breakdown(tracer, registry, wall)


def test_task_seconds_are_kept_out_of_wall_overhead():
    """Worker-side seconds are summed over functions that overlap each
    other and the parent: they are reported as ``work_seconds``, apart
    from ``decode_seconds``, the parent's own wall time spent reading
    outcomes back."""
    tracer, registry, wall = _synthetic_run()
    registry.counter("sched.tasks", "t").inc(4)
    doc = cost_breakdown(tracer, registry, wall)
    assert doc["parallel"]["work_seconds"] == pytest.approx(1.4)
    assert doc["parallel"]["decode_seconds"] == pytest.approx(0.02)
    assert "task_sums" not in doc and "overhead" not in doc


def test_render_profile_mentions_key_sections():
    tracer, registry, wall = _synthetic_run()
    doc = cost_breakdown(tracer, registry, wall, 10.0, source_label="synth")
    text = render_profile(doc)
    assert "repro profile — synth" in text
    # One wave-loop line under the summary, before the tables.
    assert (
        "wave loop: 1.00s wall, 1.40s worker compute, 70.0% utilization of "
        "2 workers, 20.00ms decoding 4096 B of outcomes"
    ) in text.splitlines()
    assert text.index("wave loop:") < text.index("hottest passes")
    assert "hottest functions" in text
    for gone in ("critical path", "slowest waves", "dispatch overhead",
                 "parallel efficiency", "speedup bound"):
        assert gone not in text
    # No wave loop ran (no scheduler gauges): no wave-loop line.
    assert "wave loop:" not in render_profile(
        cost_breakdown(make_tracer(), MetricsRegistry())
    )


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
    """A real ``--jobs 2`` run: the wave loop fits inside the run's wall
    time and the document is JSON-safe."""
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
    parallel = doc["parallel"]
    assert parallel["jobs"] == 2
    assert 0 < parallel["wave_seconds"] <= wall
    assert 0 < parallel["decode_seconds"] <= parallel["wave_seconds"]
    assert parallel["result_bytes"] > 0
    assert not set(REMOVED_SECTIONS) & set(doc)
    assert not set(REMOVED_PARALLEL) & set(parallel)
    assert json.loads(json.dumps(doc)) == doc  # JSON-safe document


@pytest.mark.parametrize("jobs", [1, 2])
def test_attr_gauges_present_without_tracing(jobs):
    set_tracer(Tracer(enabled=False))
    set_registry(MetricsRegistry())
    engine = Pinpoint.from_source(PROGRAM, jobs=jobs)
    engine.check(UseAfterFreeChecker())
    registry = get_registry()
    wave = registry.get("attr.wave_seconds").value()
    work = registry.get("attr.work_seconds").value()
    utilization = registry.get("attr.utilization").value()
    # At most `jobs` functions are prepared at once; the gauges are
    # rounded to 6 places, hence the tolerance.
    assert 0 < work <= jobs * wave + 1e-6
    assert 0 < utilization <= 1
    for gone in ("attr.critical_path_seconds", "attr.overhead_ratio"):
        assert registry.get(gone) is None, gone
    if jobs > 1:
        assert registry.get("sched.dispatch.result_bytes").total() > 0
