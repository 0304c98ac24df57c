"""The bounded worker-pool dispatcher behind the serving front end.

A :class:`BoundedDispatcher` runs request handlers on a fixed pool of
worker threads fed by a bounded :class:`queue.Queue`.  When the queue is
full, :meth:`submit` raises :class:`QueueFullError` *immediately* instead
of blocking — the front end turns that into ``429 Too Many Requests`` with
a ``Retry-After`` header, so overload sheds load at the door rather than
piling up one thread per request.

Two gauges/counters feed the ``/metrics`` endpoint:
``repro_serve_queue_depth`` tracks requests waiting for a worker and
``repro_serve_queue_rejections_total`` counts requests turned away.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Any, Callable

from repro.obs.metrics import SERVE_QUEUE_DEPTH, SERVE_QUEUE_REJECTIONS

#: Default number of worker threads.
DEFAULT_WORKERS = 4
#: Default bound on queued (not yet running) requests.
DEFAULT_QUEUE_LIMIT = 64
#: Default ``Retry-After`` hint (seconds) sent with 429 responses.
DEFAULT_RETRY_AFTER = 1


class QueueFullError(RuntimeError):
    """The bounded job queue is full; the caller should shed the request."""

    def __init__(self, limit: int, retry_after: int) -> None:
        self.limit = limit
        self.retry_after = retry_after
        super().__init__(
            f"job queue is full ({limit} requests waiting); retry in {retry_after}s"
        )


class BoundedDispatcher:
    """A fixed worker pool with a bounded queue and fail-fast admission."""

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        retry_after: int = DEFAULT_RETRY_AFTER,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        self.workers = workers
        self.queue_limit = queue_limit
        self.retry_after = retry_after
        self._queue: queue.Queue[tuple[Callable[[], Any], Future[Any]] | None] = (
            queue.Queue(maxsize=queue_limit)
        )
        self._threads: list[threading.Thread] = []
        self._started = False
        self._closed = False
        self.rejections = 0
        self.dispatched = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "BoundedDispatcher":
        """Spin up the worker threads (idempotent)."""
        if self._started:
            return self
        self._started = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker,
                name=f"repro-serve-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def shutdown(self) -> None:
        """Stop accepting work and join the workers (idempotent).

        Already-queued requests are drained and answered before the workers
        exit — shedding happens at admission, never after acceptance.
        """
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join()
        self._threads.clear()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, fn: Callable[[], Any]) -> Future[Any]:
        """Queue ``fn`` for a worker; the Future resolves with its outcome.

        Raises :class:`QueueFullError` without blocking when the queue is at
        its bound (or the dispatcher is shut down).
        """
        future: Future[Any] = Future()
        if self._closed:
            raise QueueFullError(self.queue_limit, self.retry_after)
        try:
            self._queue.put_nowait((fn, future))
        except queue.Full:
            self.rejections += 1
            SERVE_QUEUE_REJECTIONS.inc()
            raise QueueFullError(self.queue_limit, self.retry_after) from None
        SERVE_QUEUE_DEPTH.set(self._queue.qsize())
        return future

    def _worker(self) -> None:
        while True:
            item = self._queue.get()
            SERVE_QUEUE_DEPTH.set(self._queue.qsize())
            if item is None:
                return
            fn, future = item
            if not future.set_running_or_notify_cancel():
                continue
            try:
                result = fn()
            except BaseException as exc:
                future.set_exception(exc)
            else:
                self.dispatched += 1
                future.set_result(result)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def depth(self) -> int:
        """Requests currently waiting for a worker."""
        return self._queue.qsize()

    def stats_payload(self) -> dict[str, Any]:
        """Counters for ``/stats`` and the bench suite."""
        return {
            "workers": self.workers,
            "queue_limit": self.queue_limit,
            "depth": self.depth,
            "dispatched": self.dispatched,
            "rejections": self.rejections,
        }
