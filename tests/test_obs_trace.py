"""Span tracing: nesting, determinism, no-op discipline, Chrome export."""

import json
import threading

from repro.obs.clock import ManualClock
from repro.obs.profiling import pass_table, self_times, unit_table
from repro.obs.trace import (
    NULL_SPAN,
    Tracer,
    get_tracer,
    set_tracer,
    trace,
    traced,
)


def make_tracer(tick=1.0):
    return Tracer(clock=ManualClock(tick=tick), enabled=True)


# ----------------------------------------------------------------------
# Nesting and ordering
# ----------------------------------------------------------------------
def test_nested_spans_link_to_parent():
    tracer = make_tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    # Spans land in completion order: inner closes first.
    inner, outer = tracer.spans
    assert inner.name == "inner" and outer.name == "outer"
    assert inner.parent == outer.uid
    assert outer.parent is None
    assert outer.uid < inner.uid  # uids allocated at entry


def test_sibling_spans_share_parent():
    tracer = make_tracer()
    with tracer.span("outer"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    a, b, outer = tracer.spans
    assert a.parent == outer.uid and b.parent == outer.uid
    assert a.end <= b.start  # ordered by the clock


def test_manual_clock_durations_are_deterministic():
    tracer = make_tracer(tick=1.0)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans
    # clock reads: outer start=0, inner start=1, inner end=2, outer end=3
    assert inner.start == 1.0 and inner.duration == 1.0
    assert outer.start == 0.0 and outer.duration == 3.0


def test_self_time_subtracts_direct_children():
    tracer = make_tracer(tick=1.0)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    inner, outer = tracer.spans
    selfs = self_times(tracer.spans)
    assert selfs[inner.uid] == inner.duration
    assert selfs[outer.uid] == outer.duration - inner.duration


def test_span_records_unit_args_and_error():
    tracer = make_tracer()
    with tracer.span("pass", unit="fn", custom=7) as span:
        span.set(extra="x")
    recorded = tracer.spans[0]
    assert recorded.unit == "fn"
    assert recorded.args == {"custom": 7, "extra": "x"}

    try:
        with tracer.span("boom"):
            raise RuntimeError("no")
    except RuntimeError:
        pass
    assert tracer.spans[-1].args["error"] == "RuntimeError"


def test_spans_from_threads_do_not_cross_link():
    tracer = make_tracer()
    done = threading.Event()

    def worker():
        with tracer.span("worker"):
            done.wait(1)

    with tracer.span("main"):
        t = threading.Thread(target=worker)
        t.start()
        done.set()
        t.join()
    worker_span = next(s for s in tracer.spans if s.name == "worker")
    # The worker thread has its own stack: no parent from the main thread.
    assert worker_span.parent is None


# ----------------------------------------------------------------------
# Disabled discipline
# ----------------------------------------------------------------------
def test_disabled_tracer_returns_shared_null_span():
    tracer = Tracer(enabled=False)
    handle = tracer.span("anything")
    assert handle is NULL_SPAN
    with handle as span:
        span.set(ignored=1)
    assert tracer.spans == []


def test_global_trace_respects_enablement():
    old = get_tracer()
    try:
        tracer = set_tracer(Tracer(clock=ManualClock(tick=1.0)))
        assert trace("x") is NULL_SPAN
        tracer.enabled = True
        with trace("x"):
            pass
        assert [s.name for s in tracer.spans] == ["x"]
    finally:
        set_tracer(old)


def test_traced_decorator_checks_enablement_per_call():
    old = get_tracer()
    try:
        tracer = set_tracer(Tracer(clock=ManualClock(tick=1.0)))

        @traced("deco.pass", unit="u")
        def work():
            return 5

        assert work() == 5
        assert tracer.spans == []  # disabled at call time
        tracer.enabled = True
        assert work() == 5
        assert tracer.spans[0].name == "deco.pass"
        assert tracer.spans[0].unit == "u"
    finally:
        set_tracer(old)


# ----------------------------------------------------------------------
# Chrome export (golden)
# ----------------------------------------------------------------------
def test_chrome_trace_structure_and_golden():
    tracer = make_tracer(tick=0.5)
    with tracer.span("parse", unit="<module>"):
        with tracer.span("seg.build", unit="main"):
            pass
    doc = tracer.to_chrome_trace()
    assert doc["displayTimeUnit"] == "ms"
    meta, *events = doc["traceEvents"]
    assert meta["ph"] == "M" and meta["args"]["name"] == "repro"
    # Events are sorted by start time, not completion order.
    assert [e["name"] for e in events] == ["parse", "seg.build"]
    parse, seg = events
    # Deterministic clock -> byte-stable golden values (microseconds).
    assert parse["ts"] == 0.0 and parse["dur"] == 1_500_000.0
    assert seg["ts"] == 500_000.0 and seg["dur"] == 500_000.0
    assert seg["cat"] == "seg"
    assert seg["args"]["unit"] == "main"
    assert all(e["ph"] == "X" and e["pid"] == 1 for e in events)
    # Round-trips through JSON.
    assert json.loads(tracer.to_chrome_json()) == doc


def test_write_chrome_trace_is_valid_json(tmp_path):
    tracer = make_tracer()
    with tracer.span("a"):
        pass
    target = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(target))
    doc = json.loads(target.read_text())
    assert {e["name"] for e in doc["traceEvents"]} >= {"a"}


def test_summary_digest():
    tracer = make_tracer()
    for _ in range(3):
        with tracer.span("smt.check"):
            pass
    digest = tracer.summary()
    assert digest["spans"] == 3
    assert digest["passes"]["smt.check"]["count"] == 3
    assert digest["passes"]["smt.check"]["seconds"] > 0


def test_clear_resets_spans():
    tracer = make_tracer()
    with tracer.span("a"):
        pass
    tracer.clear()
    assert tracer.spans == []


# ----------------------------------------------------------------------
# Profiling aggregation
# ----------------------------------------------------------------------
def test_pass_table_aggregates_by_name():
    tracer = make_tracer(tick=1.0)
    for unit in ("f", "g"):
        with tracer.span("seg.build", unit=unit):
            pass
    rows = pass_table(tracer.spans)
    assert len(rows) == 1
    assert rows[0].name == "seg.build"
    assert rows[0].count == 2
    assert rows[0].total_seconds == 2.0


def test_unit_table_charges_nested_passes_once():
    tracer = make_tracer(tick=1.0)
    with tracer.span("prepare.fn", unit="f"):
        with tracer.span("pta.run", unit="f"):
            pass
    with tracer.span("checker.fn", unit="f") as span:
        span.set(smt_queries=4)
    rows = unit_table(tracer.spans)
    assert len(rows) == 1
    row = rows[0]
    total = sum(s.duration for s in tracer.spans if s.parent is None)
    # Self times over all of f's spans add up to exactly the traced time.
    assert row.self_seconds == total
    assert row.smt_queries == 4
    assert set(row.passes) == {"prepare.fn", "pta.run", "checker.fn"}


def test_tracer_trace_id_is_stable_and_overridable():
    tracer = make_tracer()
    minted = tracer.trace_id
    assert len(minted) == 16
    assert tracer.trace_id == minted  # lazy mint, then stable
    seeded = Tracer(enabled=True, trace_id="cafe0123cafe0123")
    assert seeded.trace_id == "cafe0123cafe0123"
