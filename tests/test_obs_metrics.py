"""Metrics registry: counters/gauges/histograms and both export formats."""

import json
import math
import re

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    sanitize_metric_name,
    set_registry,
)


# ----------------------------------------------------------------------
# Counters and gauges
# ----------------------------------------------------------------------
def test_counter_inc_and_labels():
    c = Counter("smt.queries")
    c.inc()
    c.inc(2, result="sat")
    assert c.value() == 1
    assert c.value(result="sat") == 2
    assert c.total() == 3


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter("x").inc(-1)


def test_gauge_set_inc_dec():
    g = Gauge("depth")
    g.set(5)
    g.inc()
    g.dec(2)
    assert g.value() == 4


# ----------------------------------------------------------------------
# Histogram bucket edges
# ----------------------------------------------------------------------
def test_histogram_bucket_edges_are_le_inclusive():
    h = Histogram("lat", buckets=(1.0, 2.0, 5.0))
    for value in (0.5, 1.0, 1.5, 2.0, 7.0):
        h.observe(value)
    dump = h.as_dict()
    counts = {b["le"]: b["count"] for b in dump["buckets"]}
    # Non-cumulative per-bucket counts: a value equal to a bound lands
    # in that bound's bucket (le semantics), 7.0 in +Inf.
    assert counts[1.0] == 2  # 0.5, 1.0
    assert counts[2.0] == 2  # 1.5, 2.0
    assert counts[5.0] == 0
    assert counts[math.inf] == 1
    assert dump["count"] == 5
    assert dump["sum"] == pytest.approx(12.0)


def test_histogram_prometheus_buckets_are_cumulative():
    registry = MetricsRegistry()
    h = registry.histogram("lat", buckets=(1.0, 2.0))
    for value in (0.5, 1.5, 9.0):
        h.observe(value)
    text = registry.to_prometheus()
    assert 'repro_lat_bucket{le="1"} 1' in text
    assert 'repro_lat_bucket{le="2"} 2' in text
    assert 'repro_lat_bucket{le="+Inf"} 3' in text
    assert "repro_lat_count 3" in text
    assert "repro_lat_sum 11" in text


def test_histogram_validates_buckets():
    with pytest.raises(ValueError):
        Histogram("h", buckets=())
    with pytest.raises(ValueError):
        Histogram("h", buckets=(1.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("h", buckets=(1.0, math.inf))


def test_histogram_quantile_interpolates():
    h = Histogram("lat", buckets=(1.0, 2.0, 4.0))
    for _ in range(10):
        h.observe(1.5)  # all in the (1, 2] bucket
    q = h.quantile(0.5)
    assert 1.0 <= q <= 2.0
    assert h.quantile(0.0) == 0.0 or h.quantile(0.0) <= q
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_histogram_quantile_empty():
    assert Histogram("lat", buckets=(1.0,)).quantile(0.9) == 0.0


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
def test_registry_registration_is_idempotent():
    registry = MetricsRegistry()
    a = registry.counter("smt.queries", "help")
    b = registry.counter("smt.queries")
    assert a is b
    assert len(registry) == 1


def test_registry_rejects_kind_conflict():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")


def test_empty_registry_is_falsy_but_usable():
    # MetricsRegistry defines __len__, so an empty one is falsy; code
    # must never select it with ``registry or get_registry()``.
    registry = MetricsRegistry()
    assert not registry
    registry.counter("a").inc()
    assert registry


def test_global_registry_swap():
    old = get_registry()
    try:
        fresh = set_registry(MetricsRegistry())
        assert get_registry() is fresh
    finally:
        set_registry(old)


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
def test_prometheus_name_sanitization():
    assert sanitize_metric_name("smt.queries") == "smt_queries"
    assert sanitize_metric_name("engine.summaries.hit") == "engine_summaries_hit"
    assert sanitize_metric_name("0bad") == "_0bad"


def test_prometheus_counter_gets_total_suffix_and_help():
    registry = MetricsRegistry()
    registry.counter("smt.queries", "SMT queries issued").inc(3)
    text = registry.to_prometheus()
    assert "# HELP repro_smt_queries_total SMT queries issued" in text
    assert "# TYPE repro_smt_queries_total counter" in text
    assert "repro_smt_queries_total 3" in text


def test_prometheus_label_escaping():
    registry = MetricsRegistry()
    registry.counter("errs").inc(reason='back\\slash "quote"\nnewline')
    text = registry.to_prometheus()
    assert (
        'repro_errs_total{reason="back\\\\slash \\"quote\\"\\nnewline"} 1'
        in text
    )


def test_prometheus_help_escaping():
    registry = MetricsRegistry()
    registry.counter("x", "line1\nline2 \\ slash").inc()
    help_line = next(
        line for line in registry.to_prometheus().splitlines()
        if line.startswith("# HELP")
    )
    assert "\n" not in help_line
    assert "line1\\nline2 \\\\ slash" in help_line


def test_prometheus_output_shape():
    registry = MetricsRegistry()
    registry.counter("a", "ha").inc(labels_are="fine")
    registry.gauge("b").set(2.5)
    registry.histogram("c", buckets=(1.0,)).observe(0.5)
    text = registry.to_prometheus()
    sample = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+\-]+$|^\# (HELP|TYPE) .+$"
    )
    for line in text.strip().splitlines():
        assert sample.match(line), line
    assert text.endswith("\n")


# ----------------------------------------------------------------------
# JSON export
# ----------------------------------------------------------------------
def test_as_dict_round_trips_through_json():
    registry = MetricsRegistry()
    registry.counter("plain").inc(2)
    registry.counter("labeled").inc(checker="uaf")
    registry.gauge("g").set(1.5)
    registry.histogram("h", buckets=(1.0,)).observe(0.2)
    dump = registry.as_dict()
    assert dump["plain"] == {"type": "counter", "value": 2}
    assert dump["labeled"]["values"][0]["labels"] == {"checker": "uaf"}
    assert dump["h"]["count"] == 1
    # Everything except the histogram's inf bound must be JSON-safe.
    text = json.dumps(dump)
    assert "plain" in text


def test_write_json_vs_prom(tmp_path):
    registry = MetricsRegistry()
    registry.counter("a").inc()
    json_path = tmp_path / "m.json"
    prom_path = tmp_path / "m.prom"
    registry.write(str(json_path))
    registry.write(str(prom_path))
    assert json.loads(json_path.read_text())["a"]["value"] == 1
    assert "repro_a_total 1" in prom_path.read_text()
