"""Process-local counters, gauges and histograms: the metrics half of
:mod:`repro.obs`.

One :class:`MetricsRegistry` holds every metric of the process; the default
:data:`REGISTRY` is what the library's instrumented paths and the service's
``GET /metrics`` endpoint share.  Metrics follow Prometheus conventions —
snake-case names with a ``repro_`` prefix, ``_total`` suffix on counters,
base units (seconds, bytes) — and render to the text exposition format via
:func:`repro.obs.export.render_prometheus`.

Recording is cheap and thread-safe (one registry lock around a dict update);
a disabled registry (``REGISTRY.disable()``) makes every ``inc``/``set``/
``observe`` an immediate no-op, so instrumentation can stay unconditional in
hot paths.  Updating a metric **never** touches any random state — enabling
or disabling metrics cannot change published bytes.
"""

from __future__ import annotations

import re
import threading
from collections.abc import Iterator
from typing import Any

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds-scale work, chunk kernels included).
DEFAULT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class MetricError(ValueError):
    """Invalid metric or label name, or conflicting re-registration."""


def _label_key(
    labelnames: tuple[str, ...], labels: dict[str, Any], metric: str
) -> tuple[str, ...]:
    if set(labels) != set(labelnames):
        raise MetricError(
            f"metric {metric!r} takes labels {sorted(labelnames)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class Metric:
    """Base class: a named family of samples keyed by label values."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: tuple[str, ...]) -> None:
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r} on metric {name!r}")
        self._registry = registry
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._values: dict[tuple[str, ...], Any] = {}

    def samples(self) -> Iterator[tuple[dict[str, str], Any]]:
        """Yield ``(labels, value)`` pairs in first-seen order."""
        with self._registry._lock:
            items = list(self._values.items())
        for key, value in items:
            yield dict(zip(self.labelnames, key, strict=True)), value

    def clear(self) -> None:
        """Drop every sample (used by tests and registry reset)."""
        with self._registry._lock:
            self._values.clear()


class Counter(Metric):
    """A monotonically increasing count (``*_total`` by convention)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease")
        key = _label_key(self.labelnames, labels, self.name)
        with self._registry._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        """Current value for one label combination (0.0 when never incremented)."""
        key = _label_key(self.labelnames, labels, self.name)
        with self._registry._lock:
            return float(self._values.get(key, 0.0))


class Gauge(Metric):
    """A value that can go up and down (or an info-style constant 1)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(self.labelnames, labels, self.name)
        with self._registry._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(self.labelnames, labels, self.name)
        with self._registry._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        """Current value for one label combination (0.0 when never set)."""
        key = _label_key(self.labelnames, labels, self.name)
        with self._registry._lock:
            return float(self._values.get(key, 0.0))


class HistogramValue:
    """Cumulative bucket counts plus sum/count for one label combination."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * len(buckets)  # cumulative at render time, raw here
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                break
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[int]:
        """Counts per bucket as Prometheus wants them: cumulative, ``le``-keyed."""
        out, running = [], 0
        for n in self.counts:
            running += n
            out.append(running)
        return out


class Histogram(Metric):
    """Distribution of observations over fixed buckets (e.g. chunk seconds)."""

    kind = "histogram"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str,
                 labelnames: tuple[str, ...], buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        super().__init__(registry, name, help, labelnames)
        if not buckets or list(buckets) != sorted(buckets):
            raise MetricError(f"histogram {name!r} buckets must be sorted and non-empty")
        self.buckets = tuple(float(b) for b in buckets)

    def observe(self, value: float, **labels: Any) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(self.labelnames, labels, self.name)
        with self._registry._lock:
            holder = self._values.get(key)
            if holder is None:
                holder = self._values[key] = HistogramValue(self.buckets)
            holder.observe(float(value))


class MetricsRegistry:
    """All metrics of one process, in registration order.

    ``counter``/``gauge``/``histogram`` are get-or-create: calling twice with
    the same name returns the same object (and raises :class:`MetricError`
    when the second call asks for a different kind or label set), so modules
    can declare their metrics independently without import-order coupling.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.RLock()
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(self, cls, name: str, help: str,
                       labelnames: tuple[str, ...], **kwargs: Any) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                    raise MetricError(
                        f"metric {name!r} already registered as {existing.kind} "
                        f"with labels {existing.labelnames}"
                    )
                return existing
            metric = cls(self, name, help, tuple(labelnames), **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str, labelnames: tuple[str, ...] = ()) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str, labelnames: tuple[str, ...] = (),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create a :class:`Histogram`."""
        return self._get_or_create(Histogram, name, help, labelnames, buckets=buckets)

    def metrics(self) -> list[Metric]:
        """Every registered metric, in registration order."""
        with self._lock:
            return list(self._metrics.values())

    def enable(self) -> None:
        """Turn recording on (the default)."""
        self.enabled = True

    def disable(self) -> None:
        """Make every update a no-op (cheap kill switch for hot paths)."""
        self.enabled = False

    def reset(self) -> None:
        """Clear every metric's samples (declarations stay registered)."""
        for metric in self.metrics():
            metric.clear()


#: The process-wide default registry: what the instrumented library paths
#: update and what the service's ``GET /metrics`` endpoint renders.
REGISTRY = MetricsRegistry()

# ---------------------------------------------------------------------- #
# The standard instrument set (declared once; modules import these).
# ---------------------------------------------------------------------- #

#: Rows published, by strategy, across the pipeline and streaming paths.
ROWS_PUBLISHED = REGISTRY.counter(
    "repro_rows_published_total",
    "Rows published across all entry points (pipeline, stream, service).",
    labelnames=("strategy",),
)

#: Completed publishing runs, by execution path and strategy.
PUBLISH_RUNS = REGISTRY.counter(
    "repro_publish_runs_total",
    "Completed publishing runs by path (pipeline or stream) and strategy.",
    labelnames=("path", "strategy"),
)

#: Work chunks executed by the shared scheduler, by backend (serial or thread).
CHUNKS_TOTAL = REGISTRY.counter(
    "repro_chunks_total",
    "Work chunks executed by the chunk scheduler, by backend (serial or thread).",
    labelnames=("backend",),
)

#: Per-task wall-clock seconds (recorded when a tracer is active, since
#: durations are timed worker-side by the traced kernel wrapper).
CHUNK_SECONDS = REGISTRY.histogram(
    "repro_chunk_seconds",
    "Wall-clock seconds per scheduler task: one chunk, or a run of chunks "
    "on the group path (recorded while tracing).",
    labelnames=("backend",),
)

#: Published-row throughput of the most recent streaming enforce stage.
STREAM_ROWS_PER_SECOND = REGISTRY.gauge(
    "repro_stream_rows_per_second",
    "Published-row throughput of the most recent streaming enforce stage.",
)

#: Personal groups receiving appended rows, per delta-publish, by strategy.
DELTA_GROUPS_TOUCHED = REGISTRY.counter(
    "repro_delta_groups_touched_total",
    "Personal groups receiving appended rows across delta-publish runs.",
    labelnames=("strategy",),
)

#: Rows appended through the incremental delta-publish path, by strategy.
DELTA_ROWS_APPENDED = REGISTRY.counter(
    "repro_delta_rows_appended_total",
    "Rows appended through the incremental delta-publish path.",
    labelnames=("strategy",),
)

#: Storage-connector operations (get/put/delete/...), by backend and op.
STORE_OPS = REGISTRY.counter(
    "repro_store_ops_total",
    "Storage-connector operations by backend (sqlite, memory, json) and op.",
    labelnames=("backend", "op"),
)

#: Committed storage transactions, by backend and read/write mode.
STORE_TXNS = REGISTRY.counter(
    "repro_store_txns_total",
    "Committed storage transactions by backend and mode (write=true/false).",
    labelnames=("backend", "write"),
)

#: Wall-clock seconds per request served by the serving front end, by
#: top-level endpoint (``audit``, ``publish``, ``datasets``, ...).
SERVE_REQUEST_SECONDS = REGISTRY.histogram(
    "repro_serve_request_seconds",
    "Wall-clock seconds per request served by the serving front end.",
    labelnames=("endpoint",),
)

#: Requests currently waiting in the serving front end's bounded job queue.
SERVE_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_serve_queue_depth",
    "Requests currently waiting in the serving front end's bounded queue.",
)

#: Requests rejected with 429 because the bounded job queue was full.
SERVE_QUEUE_REJECTIONS = REGISTRY.counter(
    "repro_serve_queue_rejections_total",
    "Requests rejected with 429 because the bounded job queue was full.",
)

#: Requests answered 500 because a handler raised an unexpected exception.
SERVE_ERRORS = REGISTRY.counter(
    "repro_serve_errors_total",
    "Requests answered 500 because a handler raised an unexpected exception.",
)

#: Response-cache lookups by result (``hit`` or ``miss``).
SERVE_CACHE_HITS = REGISTRY.counter(
    "repro_serve_cache_hits_total",
    "Response-cache lookups by the serving front end, by result (hit/miss).",
    labelnames=("result",),
)

#: Response-cache entries dropped because their dataset changed.
SERVE_CACHE_INVALIDATIONS = REGISTRY.counter(
    "repro_serve_cache_invalidations_total",
    "Response-cache entries invalidated by dataset re-registers and appends.",
)

#: Peak traced allocation of the most recent ``track_memory`` streaming run.
TRACEMALLOC_PEAK = REGISTRY.gauge(
    "repro_tracemalloc_peak_bytes",
    "Peak tracemalloc allocation of the most recent track_memory stream run.",
)

#: Info-style gauge carrying the run environment as labels (value always 1);
#: populated by :func:`repro.obs.environment.record_build_info`.
BUILD_INFO = REGISTRY.gauge(
    "repro_build_info",
    "Run environment as labels (python, numpy, platform, repro_version, cpu_count).",
    labelnames=("python", "numpy", "platform", "repro_version", "cpu_count"),
)
