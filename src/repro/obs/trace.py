"""Hierarchical spans: the tracing half of :mod:`repro.obs`.

A *span* is one timed region of a run — the whole publish, one pipeline
stage, one work chunk — with a name, a monotonic start/duration, structured
attributes and a parent, forming the ``publish → stage → chunk`` tree that
``docs/observability.md`` documents.

The API is built so instrumented code never branches on whether tracing is
on:

* :func:`span` always returns a context manager that measures wall-clock
  time (two ``perf_counter`` calls); when a :class:`Tracer` is active the
  closed span is also recorded on it.  Stage timings everywhere in the
  codebase are *derived from these spans*, so enabling tracing changes what
  is recorded, never what is measured — and never the published bytes.
* Spans executed inside pool workers cannot reach the parent's tracer;
  workers time themselves and the scheduler merges the finished records in
  chunk order through :meth:`Tracer.record` (see
  :mod:`repro.parallel.scheduler`), which keeps traces deterministic modulo
  the timing values themselves.

Activate a tracer with ``with Tracer() as tracer: ...`` and export it with
:mod:`repro.obs.export`.  Activation uses a :mod:`contextvars` variable, so
concurrent threads (e.g. the service's request handlers) can trace
independent runs without seeing each other's current span.
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from types import TracebackType
from typing import Any

#: The active tracer (``None`` means tracing is off — the default).
_ACTIVE_TRACER: ContextVar["Tracer | None"] = ContextVar("repro_obs_tracer", default=None)

#: The id of the innermost open span in this context (parent of new spans).
_CURRENT_SPAN: ContextVar[int | None] = ContextVar("repro_obs_span", default=None)


def current_tracer() -> "Tracer | None":
    """The tracer activated in this context, or ``None`` when tracing is off."""
    return _ACTIVE_TRACER.get()


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: the unit a trace is made of.

    ``start`` is seconds since the owning tracer's epoch (its creation
    instant); ``duration`` is wall-clock seconds.  ``parent_id`` is ``None``
    for root spans.  ``attributes`` are JSON-compatible key/values
    (strategy, seed, first_chunk, backend, rows, ...).
    """

    span_id: int
    parent_id: int | None
    name: str
    start: float
    duration: float
    attributes: dict[str, Any] = field(default_factory=dict)


class Span:
    """An open span: a reusable timing context that records itself on exit.

    Always measures (``duration`` and ``elapsed()`` are valid with tracing
    off); only *records* when a tracer was active at creation.  Use
    :meth:`set` to attach attributes any time before the block exits.
    """

    __slots__ = (
        "name", "attributes", "duration",
        "_tracer", "_span_id", "_parent_id", "_start_perf", "_start_offset", "_token",
    )

    def __init__(self, name: str, tracer: "Tracer | None", attributes: dict[str, Any]) -> None:
        self.name = name
        self.attributes = attributes
        self.duration = 0.0
        self._tracer = tracer
        self._span_id: int | None = None
        self._parent_id: int | None = None
        self._start_perf = 0.0
        self._start_offset = 0.0
        self._token = None

    def set(self, **attributes: Any) -> "Span":
        """Merge attributes into the span; chainable."""
        self.attributes.update(attributes)
        return self

    def elapsed(self) -> float:
        """Seconds since the span was entered (valid while still open)."""
        return time.perf_counter() - self._start_perf

    def __enter__(self) -> "Span":
        self._start_perf = time.perf_counter()
        if self._tracer is not None:
            self._parent_id = _CURRENT_SPAN.get()
            self._span_id = self._tracer._next_span_id()
            self._start_offset = self._start_perf - self._tracer.epoch_perf
            self._token = _CURRENT_SPAN.set(self._span_id)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.duration = time.perf_counter() - self._start_perf
        if self._tracer is not None:
            _CURRENT_SPAN.reset(self._token)
            if exc_type is not None:
                self.attributes.setdefault("error", exc_type.__name__)
            self._tracer._append(
                SpanRecord(
                    span_id=self._span_id,
                    parent_id=self._parent_id,
                    name=self.name,
                    start=self._start_offset,
                    duration=self.duration,
                    attributes=dict(self.attributes),
                )
            )


def span(name: str, **attributes: Any) -> Span:
    """A timing context for one region of a run — the one instrumentation call.

    >>> with span("enforce", strategy="sps") as sp:
    ...     _ = sum(range(10))
    >>> sp.duration >= 0.0
    True

    With no active :class:`Tracer` the span still measures (so stage
    timings stay span-derived either way) but records nothing.
    """
    return Span(name, _ACTIVE_TRACER.get(), dict(attributes))


class Tracer:
    """Collects the span records of one traced run.

    Activate with a ``with`` block; everything executed inside (including
    other threads *started inside*, which inherit the context) records its
    spans here::

        with Tracer() as tracer:
            repro.publish(table, strategy="sps", rng=7)
        export.write_trace(tracer, "trace.jsonl")

    Parameters
    ----------
    live:
        Optional text stream; every finished span is also written to it
        immediately as one logfmt line (see
        :func:`repro.obs.export.logfmt`) — ``tail``-able progress for long
        runs.
    """

    def __init__(self, live: Any | None = None) -> None:
        #: Unix time of the tracer's creation (trace epoch, for headers).
        self.epoch_unix = time.time()
        #: ``perf_counter`` instant all span ``start`` offsets are relative to.
        self.epoch_perf = time.perf_counter()
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._ids = iter(range(1, 2**63)).__next__
        self._live = live
        self._token = None

    # -- collection ---------------------------------------------------- #
    def _next_span_id(self) -> int:
        with self._lock:
            return self._ids()

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)
        if self._live is not None:
            from repro.obs.export import logfmt_span

            self._live.write(logfmt_span(record) + "\n")

    def record(
        self,
        name: str,
        duration: float,
        *,
        start: float | None = None,
        attributes: dict[str, Any] | None = None,
        parent: int | None = None,
    ) -> SpanRecord:
        """Record an externally-timed span (e.g. timed inside a pool worker).

        ``parent`` defaults to the caller's current open span, so chunk
        records merged by the scheduler land under the enforce stage that
        consumed them.  Returns the appended :class:`SpanRecord`.
        """
        # Worker-side durations live in a different clock domain than this
        # tracer's epoch, so a derived start can underflow slightly — clamp.
        offset = self.elapsed() - duration if start is None else float(start)
        record = SpanRecord(
            span_id=self._next_span_id(),
            parent_id=_CURRENT_SPAN.get() if parent is None else parent,
            name=name,
            start=max(0.0, offset),
            duration=float(duration),
            attributes=dict(attributes or {}),
        )
        self._append(record)
        return record

    def elapsed(self) -> float:
        """Seconds since the tracer's epoch."""
        return time.perf_counter() - self.epoch_perf

    @property
    def spans(self) -> tuple[SpanRecord, ...]:
        """Every span recorded so far, in completion order."""
        with self._lock:
            return tuple(self._records)

    def span(self, name: str, **attributes: Any) -> Span:
        """Like the module-level :func:`span` but bound to this tracer
        whether or not it is the active one."""
        return Span(name, self, dict(attributes))

    # -- activation ----------------------------------------------------- #
    def __enter__(self) -> "Tracer":
        self._token = _ACTIVE_TRACER.set(self)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        _ACTIVE_TRACER.reset(self._token)
        self._token = None
