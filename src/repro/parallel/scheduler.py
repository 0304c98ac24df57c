"""The multi-worker chunk scheduler shared by the stream, pipeline and service engines.

Determinism is structural, not scheduled: chunks and each chunk's seed are
fixed before any work starts, workers may finish in any order, and the
caller takes results from a FIFO of futures, oldest first, so it sees them in
chunk order.  For a fixed seed the published table, the CSV bytes and the RNG
stream consumption are byte-identical at any ``workers`` count.

``workers <= 1`` (or at most one task) runs inline in the caller's thread;
``workers=N`` runs a ``ThreadPoolExecutor`` of ``N`` threads.  Threads share
the caller's memory: kernels are called as they are, and chunks and blocks
are never copied between workers and the caller.

A task is one chunk, or on the group path (:func:`iter_run_results`) a run
of up to :data:`RUN_CHUNKS` consecutive chunks, each with its own spawned
generator built inside the task.  Like ``workers``, the run length is
execution-only: the bytes depend on the seed and ``chunk_size`` alone.  A
run bound for a CSV file is also rendered by its task, so the caller only
writes bytes.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, islice
from typing import TYPE_CHECKING, Any, TypeVar

import numpy as np

from repro.obs.metrics import CHUNK_SECONDS, CHUNKS_TOTAL
from repro.obs.trace import Tracer, current_tracer
from repro.pipeline.execution import DEFAULT_CHUNK_SIZE, chunk_items, chunk_rng, chunk_rngs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataset.groups import GroupCounts
    from repro.dataset.loaders import CsvCodec
    from repro.parallel.kernels import RunResult, StrategyKernel

T = TypeVar("T")
R = TypeVar("R")

#: Most chunks one group-path task publishes in one kernel call: enough to
#: spread a kernel call's fixed cost (~20 small array operations) over many
#: chunks, few enough that a census-size table still makes a dozen tasks.
RUN_CHUNKS = 16


@dataclass
class _TimedResult:
    """A chunk result plus the span data its worker timed around it."""

    value: Any
    duration: float
    pid: int
    thread: str


class _TimedKernel:
    """Wrap a chunk kernel so the *worker* times each call and reports who ran it.

    The worker records its own wall-clock duration and identity; the caller
    merges the finished records into the active tracer **in chunk order**
    (the order it takes results in), keeping traces deterministic modulo the
    timing values.
    """

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[..., Any]) -> None:
        self._fn = fn

    def __call__(self, *args: Any) -> _TimedResult:
        start = time.perf_counter()
        value = self._fn(*args)
        return _TimedResult(
            value=value,
            duration=time.perf_counter() - start,
            pid=os.getpid(),
            thread=threading.current_thread().name,
        )


def _emit_task(
    tracer: Tracer | None,
    item: Any,
    first_chunk: int,
    n_chunks: int,
    backend: str,
    workers: int,
) -> Any:
    """Unwrap one (possibly timed) task result; record its span and metrics."""
    CHUNKS_TOTAL.inc(n_chunks, backend=backend)
    if tracer is None:
        return item
    tracer.record(
        "chunk",
        item.duration,
        attributes={
            "kind": "chunk",
            "first_chunk": first_chunk,
            "n_chunks": n_chunks,
            "backend": backend,
            "workers": workers,
            "worker_pid": item.pid,
            "worker_thread": item.thread,
        },
    )
    CHUNK_SECONDS.observe(item.duration, backend=backend)
    return item.value


def iter_ordered_map(
    fn: Callable[..., R],
    payloads: Iterable[tuple[Any, ...]],
    *,
    workers: int = 1,
    n_tasks: int | None = None,
    task_chunks: Sequence[tuple[int, int]] | None = None,
    max_inflight: int | None = None,
    record: bool = True,
) -> Iterator[R]:
    """Apply ``fn(*payload)`` to every payload; yield results **in payload order**.

    The parallel primitive everything else builds on.  ``payloads`` may be a
    lazy iterator: at most ``2 * workers + 2`` tasks (``workers + 1`` runs
    of chunks, or ``max_inflight`` tasks when given) are submitted and not
    yet yielded at once, so a bounded-memory producer (e.g. the streaming
    engine's row spool) stays bounded through the pool.  It runs inline when
    ``workers <= 1`` or there is at most one task (``n_tasks``, or else the
    payloads are peeked), on ``workers`` threads otherwise.  ``task_chunks``
    gives each task's ``(first_chunk, n_chunks)`` (task ``i`` is chunk ``i``
    by default; it also sets ``n_tasks``): the chunk counter counts chunks
    and each task's span names them.  With ``record=False`` the tasks are
    not chunks of a publish, and neither a span nor a chunk count is
    recorded for them.  A worker exception propagates to the caller when its
    task's turn comes, after every earlier result; the pool is shut down
    (pending work cancelled) on any failure or early consumer exit.
    """
    # With a tracer active, each task is timed inside its worker and the
    # finished span records are merged here in task order (deterministic
    # trace structure at any worker count — only the timing values move).
    tracer = current_tracer() if record else None
    exec_fn: Callable[..., Any] = _TimedKernel(fn) if tracer is not None else fn
    if task_chunks is not None:
        n_tasks = len(task_chunks)
    iterator = iter(payloads)
    if n_tasks is None and workers > 1:
        head = list(islice(iterator, 2))
        n_tasks = None if len(head) > 1 else len(head)
        iterator = chain(head, iterator)

    def emit(item: Any, index: int, backend: str) -> Any:
        if not record:
            return item
        first, n = (index, 1) if task_chunks is None else task_chunks[index]
        return _emit_task(tracer, item, first, n, backend, workers)

    if workers <= 1 or (n_tasks is not None and n_tasks <= 1):
        for index, payload in enumerate(iterator):
            yield emit(exec_fn(*payload), index, "serial")
        return

    if max_inflight is None:
        # A run task's result is a whole run's block: keep every worker busy
        # plus one result ready, not a second round of runs.
        max_inflight = 2 * workers + 2 if task_chunks is None else workers + 1
    executor = ThreadPoolExecutor(max_workers=workers)
    futures: deque[Future[Any]] = deque()
    try:
        index = 0
        while True:
            # Backpressure: a finished task waits its turn in the FIFO and
            # still counts, so lazy producers stay bounded.
            for payload in islice(iterator, max_inflight - len(futures)):
                futures.append(executor.submit(exec_fn, *payload))
            if not futures:
                return
            yield emit(futures.popleft().result(), index, "thread")
            index += 1
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


def iter_run_results(
    groups: "GroupCounts",
    kernel: "StrategyKernel",
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    workers: int = 1,
    chunks: Iterable[int] | None = None,
    codec: "CsvCodec | None" = None,
    crc32: bool = False,
) -> Iterator["RunResult"]:
    """Yield ``kernel.run(...)`` over runs of seeded chunks, in chunk order.

    ``chunks`` are the increasing indices of the chunks to publish (every
    chunk by default).  Consecutive indices form runs of at most
    :data:`RUN_CHUNKS`, so each task makes one kernel call over its run,
    with chunk ``c`` drawing from ``chunk_rng(seed, c)``, built inside the
    task.  The bytes are those of one call per chunk at any run length and
    worker count.  Given the output's ``codec``, each task also renders its
    run's chunks to CSV (:meth:`RunResult.rendered`, with their CRC32s when
    ``crc32``), so rendering runs on the pool beside the kernels.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if chunks is None:
        chunks = range(-(-len(groups) // chunk_size))
    runs: list[tuple[int, int]] = []
    for index in chunks:
        if runs:
            first, n = runs[-1]
            if first + n == index and n < RUN_CHUNKS:
                runs[-1] = (first, n + 1)
                continue
        runs.append((index, 1))

    def run_task(first: int, n: int) -> "RunResult":
        run = groups[first * chunk_size : (first + n) * chunk_size]
        bounds = np.append(np.arange(0, len(run), chunk_size), len(run))
        result = kernel.run(run, [chunk_rng(seed, first + c) for c in range(n)], bounds)
        return result if codec is None else result.rendered(codec, crc32)

    yield from iter_ordered_map(run_task, runs, workers=workers, task_chunks=runs)


def run_chunks(
    items: Sequence[T],
    chunk_fn: Callable[[Sequence[T], np.random.Generator], R],
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
) -> list[R]:
    """Apply ``chunk_fn(chunk, rng)`` to every seeded chunk; results in chunk order.

    The chunking and per-chunk seeding are exactly
    :func:`repro.pipeline.execution.run_chunks_serial`'s — same chunks, same
    spawned generators — with the ``workers`` knob added, so for a fixed
    ``(seed, chunk_size)`` the results are byte-identical at any worker
    count:

    >>> run_chunks([1, 2, 3], lambda chunk, rng: sum(chunk), seed=0, chunk_size=2)
    [3, 3]
    """
    chunks = chunk_items(items, chunk_size)
    rngs = chunk_rngs(seed, len(chunks))
    return list(
        iter_ordered_map(
            chunk_fn, zip(chunks, rngs, strict=True), workers=workers, n_tasks=len(chunks)
        )
    )
