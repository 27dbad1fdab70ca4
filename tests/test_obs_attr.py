"""Cost attribution: the profile document.

The acceptance contract of the attribution layer: every figure in the
``repro.profile/5`` document is measured from the run's spans and
registry, and the document carries no block ``prepare_program`` no
longer has (the forked workers' figures, the call-graph waves).
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
    """A hand-built run of two prepared functions: tracer + registry +
    wall."""
    tracer = make_tracer(tick=0.5)
    with tracer.span("prepare.fn", unit="leaf"):
        pass
    with tracer.span("prepare.fn", unit="main"):
        pass
    return tracer, MetricsRegistry(), 1.2


#: Sections of ``repro.profile/2`` that modelled one task per worker,
#: and the ``parallel`` block of ``/2`` to ``/4`` (worker figures, then
#: the wave loop's wall); a document must carry none of them.
REMOVED_SECTIONS = (
    "accounted_seconds", "shares", "overhead", "critical_path",
    "critical_path_seconds", "waves", "task_sums", "parallel",
)


def test_cost_breakdown_parallel_and_waves():
    """Neither a ``parallel`` block nor the waves: the document holds
    what the spans and the registry measured."""
    tracer, registry, wall = _synthetic_run()
    doc = cost_breakdown(tracer, registry, wall, 10.0, source_label="synth")
    assert doc["schema"] == "repro.profile/5"
    assert doc["peak_mb"] == 10.0
    assert not set(REMOVED_SECTIONS) & set(doc)
    assert [row["unit"] for row in doc["functions"]] == ["leaf", "main"]
    assert "peak_mb" not in cost_breakdown(tracer, registry, wall)


def test_render_profile_mentions_key_sections():
    tracer, registry, wall = _synthetic_run()
    doc = cost_breakdown(tracer, registry, wall, 10.0, source_label="synth")
    text = render_profile(doc)
    assert "repro profile — synth" in text
    # The summary line, then the tables.
    assert text.splitlines()[2].startswith("2 spans, ")
    assert text.index("hottest passes") < text.index("hottest functions")
    for gone in ("critical path", "slowest waves", "dispatch overhead",
                 "parallel efficiency", "speedup bound", "utilization",
                 "worker", "wave loop"):
        assert gone not in text


# ----------------------------------------------------------------------
# End to end: a real run
# ----------------------------------------------------------------------
def test_why_slow_split_consistent_with_wall():
    """A real run: the traced time fits inside the run's wall time,
    every function shows up with its prepare time, and the document is
    JSON-safe."""
    import time

    tracer = set_tracer(Tracer(enabled=True))
    started = time.perf_counter()
    engine = Pinpoint.from_source(PROGRAM)
    engine.check(UseAfterFreeChecker())
    wall = time.perf_counter() - started
    doc = cost_breakdown(tracer, get_registry(), wall, source_label="test")
    assert 0 < doc["traced_seconds"] <= wall
    assert {row["unit"] for row in doc["functions"]} >= {
        "helper", "touch", "chain", "main",
    }
    assert "prepare.fn" in {row["name"] for row in doc["passes"]}
    assert not set(REMOVED_SECTIONS) & set(doc)
    assert json.loads(json.dumps(doc)) == doc  # JSON-safe document


@pytest.mark.parametrize("jobs", [1, 2])
def test_attr_gauges_present_without_tracing(jobs):
    # ``from_source`` accepts and ignores ``jobs``: both values run the
    # one in-process prepare loop, and neither brings back a worker or
    # wave gauge.
    set_tracer(Tracer(enabled=False))
    set_registry(MetricsRegistry())
    engine = Pinpoint.from_source(PROGRAM, jobs=jobs)
    engine.check(UseAfterFreeChecker())
    registry = get_registry()
    assert registry.counter("engine.seconds").value(phase="prepare") > 0
    for gone in (
        "attr.critical_path_seconds", "attr.overhead_ratio",
        "attr.work_seconds", "attr.utilization", "sched.jobs",
        "sched.tasks", "sched.dispatch.result_bytes", "sched.waves",
        "attr.wave_seconds",
    ):
        assert registry.get(gone) is None, gone
