"""Unit tests for the benchmark harness utilities."""

import math

import pytest

from repro.bench.fitting import fit_linear, fit_power
from repro.bench.tables import render_table
from repro.obs.measure import measure, time_only


# ----------------------------------------------------------------------
# Fitting
# ----------------------------------------------------------------------
def test_fit_linear_exact():
    xs = [1, 2, 3, 4]
    ys = [3, 5, 7, 9]  # y = 2x + 1
    fit = fit_linear(xs, ys)
    a, b = fit.coefficients
    assert a == pytest.approx(2.0)
    assert b == pytest.approx(1.0)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.predict(10) == pytest.approx(21.0)


def test_fit_linear_noisy():
    xs = list(range(20))
    ys = [2 * x + 1 + ((-1) ** x) * 0.5 for x in xs]
    fit = fit_linear(xs, ys)
    assert fit.r_squared > 0.99
    assert fit.coefficients[0] == pytest.approx(2.0, abs=0.05)


def test_fit_linear_requires_points():
    with pytest.raises(ValueError):
        fit_linear([1], [2])


def test_fit_power_exact_quadratic():
    xs = [1, 2, 4, 8, 16]
    ys = [3 * x**2 for x in xs]
    fit = fit_power(xs, ys)
    a, k = fit.coefficients
    assert k == pytest.approx(2.0, abs=0.01)
    assert a == pytest.approx(3.0, rel=0.01)
    assert fit.r_squared == pytest.approx(1.0, abs=0.01)


def test_fit_power_linear_data():
    xs = [10, 20, 40, 80]
    ys = [5 * x for x in xs]
    fit = fit_power(xs, ys)
    assert fit.coefficients[1] == pytest.approx(1.0, abs=0.01)


def test_fit_power_filters_nonpositive():
    fit = fit_power([0, 1, 2, 4], [0, 2, 4, 8])
    assert fit.coefficients[1] == pytest.approx(1.0, abs=0.01)


def test_fit_power_requires_positive_points():
    with pytest.raises(ValueError):
        fit_power([0, 0], [1, 2])


def test_describe_strings():
    lin = fit_linear([1, 2], [2, 4])
    pow_ = fit_power([1, 2], [2, 4])
    assert "R^2" in lin.describe()
    assert "^" in pow_.describe()


def test_fit_result_predict_unknown_model():
    from repro.bench.fitting import FitResult

    with pytest.raises(ValueError):
        FitResult("cubic", (1.0,), 1.0).predict(2)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_measure_returns_result_and_metrics():
    result, m = measure(lambda: sum(range(10000)))
    assert result == sum(range(10000))
    assert m.seconds >= 0
    assert m.peak_bytes >= 0
    assert m.peak_mb == m.peak_bytes / (1024 * 1024)


def test_measure_tracks_allocation():
    _, small = measure(lambda: [0] * 10)
    _, big = measure(lambda: [0] * 1_000_000)
    assert big.peak_bytes > small.peak_bytes


def test_time_only():
    result, seconds = time_only(lambda: 42)
    assert result == 42
    assert seconds >= 0


def test_measure_nested_inner_does_not_stomp_outer():
    # Regression: an inner measure() used to call tracemalloc.reset_peak()
    # and stop tracing, so the outer frame lost its watermark (and often
    # crashed on stop).  Each frame must now see at least its own
    # allocations, and the outer frame must include the inner ones.
    inner_holder = {}

    def inner_work():
        return [0] * 500_000

    def outer_work():
        before = [0] * 200_000
        result, m = measure(inner_work)
        inner_holder["m"] = m
        return before, result

    (_, _), outer = measure(outer_work)
    inner = inner_holder["m"]
    assert inner.peak_bytes > 0
    # The outer measurement spans the inner allocation plus its own.
    assert outer.peak_bytes >= inner.peak_bytes


def test_measure_nested_leaves_tracemalloc_state():
    import tracemalloc

    assert not tracemalloc.is_tracing()
    measure(lambda: measure(lambda: [0] * 1000))
    # The owner (outermost) frame stops tracing on exit.
    assert not tracemalloc.is_tracing()


def test_measure_inside_preexisting_tracemalloc():
    # If the caller already runs tracemalloc, measure() must not stop it.
    import tracemalloc

    tracemalloc.start()
    try:
        _, m = measure(lambda: [0] * 100_000)
        assert m.peak_bytes > 0
        assert tracemalloc.is_tracing()
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def test_render_table_alignment():
    text = render_table(["name", "count"], [("alpha", 1), ("b", 22)])
    lines = text.splitlines()
    assert len(lines) == 4  # header, rule, 2 rows
    assert lines[0].startswith("name")
    # Right-aligned numeric column.
    assert lines[2].endswith("1")
    assert lines[3].endswith("22")


def test_render_table_wide_cells():
    text = render_table(["x"], [("a-very-long-cell",)])
    header, rule, row = text.splitlines()
    assert len(rule) >= len("a-very-long-cell")


def test_render_table_empty_rows():
    text = render_table(["a", "b"], [])
    assert len(text.splitlines()) == 2
