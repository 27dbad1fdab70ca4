"""Metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` per process (swap it per run/test with
:func:`set_registry`).  Instruments register themselves by dotted name —
``smt.queries``, ``seg.nodes``, ``robust.degradations`` — and are
incremented at the *source site* (the SMT solver counts its own queries,
the SEG builder its own nodes), so every consumer (``--stats``, the JSON
payload, SARIF invocation properties, Prometheus scrape files, the
profiler) reads the same numbers instead of keeping private copies.

Exports:

- :meth:`MetricsRegistry.as_dict` — JSON-friendly nested dict;
- :meth:`MetricsRegistry.to_prometheus` — the Prometheus text exposition
  format (``# HELP``/``# TYPE`` + samples, label values escaped per the
  spec: ``\\``, ``"`` and newlines).

Histograms use *fixed* upper-bound buckets chosen at registration
(cumulative, ``le``-inclusive like Prometheus), so exposition is cheap
and deterministic; quantiles are estimated by linear interpolation
within the winning bucket.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

LabelSet = Tuple[Tuple[str, str], ...]

#: Default latency buckets (seconds): micro to tens-of-seconds, log-ish.
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Default size buckets (counts of things: nodes, facts, ...).
SIZE_BUCKETS = (1, 5, 10, 50, 100, 500, 1000, 5000, 10000, 50000, 100000)

#: The quantiles run records and ``--stats`` summarize histograms at.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def _quantile_key(q: float) -> str:
    """0.5 -> 'p50', 0.95 -> 'p95', 0.99 -> 'p99'."""
    return "p" + format(q * 100, "g")


def _labelset(labels: Dict[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def sanitize_metric_name(name: str) -> str:
    """Dotted internal name -> Prometheus-legal name (``smt.queries`` ->
    ``smt_queries``)."""
    out = []
    for ch in name:
        out.append(ch if (ch.isalnum() or ch in "_:") else "_")
    text = "".join(out)
    if not text or not (text[0].isalpha() or text[0] in "_:"):
        text = "_" + text
    return text


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _render_labels(labels: LabelSet, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(labels) + list(extra)
    if not pairs:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(value)}"' for key, value in pairs
    )
    return "{" + body + "}"


class Metric:
    """Base: a named family of samples keyed by label set."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help

    # Subclasses: samples() -> iterable of (suffix, labelset, extra, value)
    def samples(self) -> Iterable[Tuple[str, LabelSet, Sequence[Tuple[str, str]], float]]:
        raise NotImplementedError

    def as_dict(self) -> dict:
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing count (events, items produced)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelSet, float] = {}

    def inc(self, amount: float = 1, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _labelset(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels) -> float:
        return self._values.get(_labelset(labels), 0)

    def total(self) -> float:
        return sum(self._values.values())

    def items(self) -> List[Tuple[Dict[str, str], float]]:
        """``(labels, value)`` pairs, sorted by label set."""
        return [
            (dict(labels), value) for labels, value in sorted(self._values.items())
        ]

    def samples(self):
        for labels, value in sorted(self._values.items()):
            yield "", labels, (), value

    def as_dict(self) -> dict:
        if list(self._values) == [()]:
            return {"type": self.kind, "value": self._values[()]}
        return {
            "type": self.kind,
            "values": [
                {"labels": dict(labels), "value": value}
                for labels, value in sorted(self._values.items())
            ],
        }


class Gauge(Metric):
    """A value that goes up and down (current sizes, last-run figures)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: Dict[LabelSet, float] = {}

    def set(self, value: float, **labels) -> None:
        self._values[_labelset(labels)] = value

    def inc(self, amount: float = 1, **labels) -> None:
        key = _labelset(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def dec(self, amount: float = 1, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        return self._values.get(_labelset(labels), 0)

    def items(self) -> List[Tuple[Dict[str, str], float]]:
        """``(labels, value)`` pairs, sorted by label set."""
        return [
            (dict(labels), value) for labels, value in sorted(self._values.items())
        ]

    def samples(self):
        for labels, value in sorted(self._values.items()):
            yield "", labels, (), value

    def as_dict(self) -> dict:
        if list(self._values) == [()]:
            return {"type": self.kind, "value": self._values[()]}
        return {
            "type": self.kind,
            "values": [
                {"labels": dict(labels), "value": value}
                for labels, value in sorted(self._values.items())
            ],
        }


class _HistogramState:
    __slots__ = ("bucket_counts", "count", "sum")

    def __init__(self, n_buckets: int) -> None:
        self.bucket_counts = [0] * n_buckets  # non-cumulative, per bucket
        self.count = 0
        self.sum = 0.0


class Histogram(Metric):
    """Fixed-bucket distribution (latencies, sizes).

    ``buckets`` are finite upper bounds, strictly increasing; an implicit
    ``+Inf`` bucket catches the rest.  An observation equal to a bound
    lands in that bound's bucket (``le`` semantics).
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = LATENCY_BUCKETS) -> None:
        super().__init__(name, help)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"histogram {name} buckets must strictly increase")
        if any(math.isinf(b) for b in bounds):
            raise ValueError(f"histogram {name}: +Inf bucket is implicit")
        self.buckets = bounds
        self._states: Dict[LabelSet, _HistogramState] = {}

    def _state(self, labels: Dict[str, str]) -> _HistogramState:
        key = _labelset(labels)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = _HistogramState(len(self.buckets) + 1)
        return state

    def observe(self, value: float, **labels) -> None:
        state = self._state(labels)
        state.count += 1
        state.sum += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                state.bucket_counts[index] += 1
                return
        state.bucket_counts[-1] += 1

    def count(self, **labels) -> int:
        state = self._states.get(_labelset(labels))
        return state.count if state else 0

    def sum(self, **labels) -> float:
        state = self._states.get(_labelset(labels))
        return state.sum if state else 0.0

    def quantile(self, q: float, **labels) -> float:
        """Estimated q-quantile (0..1) by interpolating in the winning
        bucket; the +Inf bucket reports the last finite bound."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        state = self._states.get(_labelset(labels))
        if state is None:
            return 0.0
        return self._quantile_of(state, q)

    def _quantile_of(self, state: "_HistogramState", q: float) -> float:
        if state.count == 0:
            return 0.0
        rank = q * state.count
        cumulative = 0
        lower = 0.0
        for index, bound in enumerate(self.buckets):
            in_bucket = state.bucket_counts[index]
            if cumulative + in_bucket >= rank and in_bucket > 0:
                fraction = (rank - cumulative) / in_bucket
                return lower + (bound - lower) * min(max(fraction, 0.0), 1.0)
            cumulative += in_bucket
            lower = bound
        return self.buckets[-1]

    def quantiles(
        self, qs: Sequence[float] = SUMMARY_QUANTILES, **labels
    ) -> Dict[str, float]:
        """p50/p95/p99-style summary of one label set: ``{"p50": ...,
        "p95": ..., "p99": ...}`` (keys derived from ``qs``)."""
        return {
            _quantile_key(q): self.quantile(q, **labels) for q in qs
        }

    def merged_quantiles(
        self, qs: Sequence[float] = SUMMARY_QUANTILES
    ) -> Dict[str, float]:
        """Summary quantiles over *all* label sets folded together —
        what a run record wants from a labeled latency histogram."""
        merged = _HistogramState(len(self.buckets) + 1)
        for state in self._states.values():
            merged.count += state.count
            merged.sum += state.sum
            for index, count in enumerate(state.bucket_counts):
                merged.bucket_counts[index] += count
        return {_quantile_key(q): self._quantile_of(merged, q) for q in qs}

    def total_count(self) -> int:
        """Observations across every label set."""
        return sum(state.count for state in self._states.values())

    def samples(self):
        for labels, state in sorted(self._states.items()):
            cumulative = 0
            for index, bound in enumerate(self.buckets):
                cumulative += state.bucket_counts[index]
                yield "_bucket", labels, (("le", _format_value(bound)),), cumulative
            yield "_bucket", labels, (("le", "+Inf"),), state.count
            yield "_sum", labels, (), state.sum
            yield "_count", labels, (), state.count

    def as_dict(self) -> dict:
        def one(state: _HistogramState) -> dict:
            return {
                "count": state.count,
                "sum": state.sum,
                "buckets": [
                    {"le": bound, "count": count}
                    for bound, count in zip(
                        list(self.buckets) + [math.inf], state.bucket_counts
                    )
                ],
            }

        if list(self._states) == [()]:
            return {"type": self.kind, **one(self._states[()])}
        return {
            "type": self.kind,
            "values": [
                {"labels": dict(labels), **one(state)}
                for labels, state in sorted(self._states.items())
            ],
        }


class MetricsRegistry:
    """Holds every metric of a run; the single source for all exports."""

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._metrics: Dict[str, Metric] = {}

    # ------------------------------------------------------------------
    def _register(self, name: str, factory, kind) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(name, lambda: Counter(name, help), Counter)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(name, lambda: Gauge(name, help), Gauge)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = LATENCY_BUCKETS) -> Histogram:
        return self._register(
            name, lambda: Histogram(name, help, buckets), Histogram
        )

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        return {
            name: metric.as_dict()
            for name, metric in sorted(self._metrics.items())
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition format, one family per metric."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            prom = f"{self.namespace}_{sanitize_metric_name(name)}"
            if isinstance(metric, Counter):
                prom += "_total"
            if metric.help:
                lines.append(f"# HELP {prom} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {prom} {metric.kind}")
            for suffix, labels, extra, value in metric.samples():
                lines.append(
                    f"{prom}{suffix}{_render_labels(labels, extra)} "
                    f"{_format_value(float(value))}"
                )
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path: str) -> None:
        """Write metrics to ``path``: JSON when it ends in ``.json``,
        Prometheus text format otherwise.

        The write is atomic (temp file + rename, parent directories
        created on demand), so a scraper polling the path never reads a
        torn file."""
        import json

        from repro.obs.export import atomic_write

        if path.endswith(".json"):
            atomic_write(path, json.dumps(self.as_dict(), indent=2) + "\n")
        else:
            atomic_write(path, self.to_prometheus())


# ----------------------------------------------------------------------
# Global registry
# ----------------------------------------------------------------------
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry (fresh one per CLI run/test)."""
    global _REGISTRY
    _REGISTRY = registry
    return registry
