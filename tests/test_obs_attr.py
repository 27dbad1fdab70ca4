"""Cost attribution: the profile document.

The acceptance contract of the attribution layer: the document's
``parallel`` block is what ``prepare_program`` measured, the wave loop's
wall, and that wall fits inside the run's wall time.
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
    """A hand-built two-wave run: tracer + registry + wall."""
    tracer = make_tracer(tick=0.5)
    with tracer.span("sched.wave", unit="0") as w0:
        w0.set(functions=2, prepared=2, cached=0)
    with tracer.span("sched.wave", unit="1") as w1:
        w1.set(functions=1, prepared=1, cached=0)
    registry = MetricsRegistry()
    registry.gauge("attr.wave_seconds", "w").set(1.0)
    return tracer, registry, 1.2


#: Sections of ``repro.profile/2`` that modelled one task per worker,
#: and ``parallel`` fields of ``repro.profile/2`` and ``/3`` that
#: described forked workers; a document must carry none of them.
REMOVED_SECTIONS = (
    "accounted_seconds", "shares", "overhead", "critical_path",
    "critical_path_seconds", "waves", "task_sums",
)
REMOVED_PARALLEL = (
    "critical_path_seconds", "overhead_ratio", "speedup_bound", "jobs",
    "work_seconds", "utilization", "decode_seconds", "result_bytes",
)


def test_cost_breakdown_parallel_and_waves():
    """The ``parallel`` block is read from the registry as measured; the
    waves stay spans in the trace, not a document section."""
    tracer, registry, wall = _synthetic_run()
    doc = cost_breakdown(tracer, registry, wall, 10.0, source_label="synth")
    assert doc["schema"] == "repro.profile/4"
    assert doc["peak_mb"] == 10.0
    assert doc["parallel"] == {"wave_seconds": 1.0}
    assert not set(REMOVED_SECTIONS) & set(doc)
    assert "peak_mb" not in cost_breakdown(tracer, registry, wall)


def test_render_profile_mentions_key_sections():
    tracer, registry, wall = _synthetic_run()
    doc = cost_breakdown(tracer, registry, wall, 10.0, source_label="synth")
    text = render_profile(doc)
    assert "repro profile — synth" in text
    # One wave-loop line under the summary, before the tables.
    assert "wave loop: 1.00s wall" in text.splitlines()
    assert text.index("wave loop:") < text.index("hottest passes")
    assert "hottest functions" in text
    for gone in ("critical path", "slowest waves", "dispatch overhead",
                 "parallel efficiency", "speedup bound", "utilization",
                 "worker"):
        assert gone not in text
    # No wave loop ran (no scheduler gauges): no wave-loop line.
    assert "wave loop:" not in render_profile(
        cost_breakdown(make_tracer(), MetricsRegistry())
    )


# ----------------------------------------------------------------------
# End to end: a real run
# ----------------------------------------------------------------------
def test_why_slow_split_consistent_with_wall():
    """A real run: the wave loop fits inside the run's wall time and the
    document is JSON-safe."""
    import time

    tracer = set_tracer(Tracer(enabled=True))
    started = time.perf_counter()
    engine = Pinpoint.from_source(PROGRAM)
    engine.check(UseAfterFreeChecker())
    wall = time.perf_counter() - started
    doc = cost_breakdown(tracer, get_registry(), wall, source_label="test")
    parallel = doc["parallel"]
    assert 0 < parallel["wave_seconds"] <= wall
    assert not set(REMOVED_SECTIONS) & set(doc)
    assert not set(REMOVED_PARALLEL) & set(parallel)
    assert json.loads(json.dumps(doc)) == doc  # JSON-safe document


@pytest.mark.parametrize("jobs", [1, 2])
def test_attr_gauges_present_without_tracing(jobs):
    # ``from_source`` accepts and ignores ``jobs``: both values run the
    # one in-process wave loop, and neither brings back a worker gauge.
    set_tracer(Tracer(enabled=False))
    set_registry(MetricsRegistry())
    engine = Pinpoint.from_source(PROGRAM, jobs=jobs)
    engine.check(UseAfterFreeChecker())
    registry = get_registry()
    assert registry.get("attr.wave_seconds").value() > 0
    for gone in (
        "attr.critical_path_seconds", "attr.overhead_ratio",
        "attr.work_seconds", "attr.utilization", "sched.jobs",
        "sched.tasks", "sched.dispatch.result_bytes",
    ):
        assert registry.get(gone) is None, gone
