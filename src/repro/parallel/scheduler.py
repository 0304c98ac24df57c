"""The multi-worker chunk scheduler shared by the stream, pipeline and service engines.

Determinism is structural, not scheduled: chunks and their seeded generators
are fixed before any work starts, workers may finish in any order, and
results are re-sequenced into chunk order before the caller sees them
(buffered out-of-order completions, bounded by submission backpressure).
For a fixed seed the published table, the CSV bytes and the RNG stream
consumption are byte-identical at any ``workers`` count.

``workers <= 1`` (or at most one task) runs inline in the caller's thread;
``workers=N`` runs a ``ThreadPoolExecutor`` of ``N`` threads.  Threads share
the caller's memory: kernels are called as they are, and chunks and blocks
are never copied between workers and the caller.

A task is one chunk, or on the group path (:func:`iter_run_results`) a run
of up to :data:`RUN_CHUNKS` consecutive chunks, each with its own spawned
generator.  Like ``workers``, the run length is
execution-only: the bytes depend on the seed and ``chunk_size`` alone.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, TypeVar

import numpy as np

from repro.obs.metrics import CHUNK_SECONDS, CHUNKS_TOTAL
from repro.obs.trace import Tracer, current_tracer
from repro.parallel.ordered import OrderedEmitter
from repro.pipeline.execution import DEFAULT_CHUNK_SIZE, chunk_items, chunk_rngs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dataset.groups import GroupCounts
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
    (the ordered emitter's order), keeping traces deterministic modulo the
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
    task_chunks: Sequence[int] | None = None,
) -> Iterator[R]:
    """Apply ``fn(*payload)`` to every payload; yield results **in payload order**.

    The parallel primitive everything else builds on.  ``payloads`` may be a
    lazy iterator: at most ``~2 * workers`` tasks (``workers + 1`` runs of
    chunks) are in flight or buffered at once, so a bounded-memory producer
    (e.g. the streaming engine's row spool) stays bounded through the pool.  It runs inline when
    ``workers <= 1`` or ``n_tasks <= 1``, on ``workers`` threads otherwise.
    ``task_chunks`` gives how many chunks each task covers (one each by
    default; it also sets ``n_tasks``): the chunk counter counts chunks and
    each task's span names its ``first_chunk`` and ``n_chunks``.  Worker
    exceptions propagate to the caller on the task that raised; the pool is
    shut down (pending work cancelled) on any failure or early consumer
    exit.
    """
    # With a tracer active, each task is timed inside its worker and the
    # finished span records are merged here in task order (deterministic
    # trace structure at any worker count — only the timing values move).
    tracer = current_tracer()
    exec_fn: Callable[..., Any] = _TimedKernel(fn) if tracer is not None else fn
    if task_chunks is not None:
        n_tasks = len(task_chunks)
    first_chunk = 0

    def emit(item: Any, index: int, backend: str) -> Any:
        nonlocal first_chunk
        n_chunks = 1 if task_chunks is None else task_chunks[index]
        first_chunk += n_chunks
        return _emit_task(tracer, item, first_chunk - n_chunks, n_chunks, backend, workers)

    if workers <= 1 or (n_tasks is not None and n_tasks <= 1):
        for index, payload in enumerate(payloads):
            yield emit(exec_fn(*payload), index, "serial")
        return

    executor = ThreadPoolExecutor(max_workers=workers)
    # A run task's result is a whole run's block: keep every worker busy
    # plus one result ready, not a second round of runs.
    max_inflight = 2 * workers + 2 if task_chunks is None else workers + 1
    iterator = iter(payloads)
    try:
        futures: dict[Any, int] = {}
        ready: deque[Any] = deque()
        emitter: OrderedEmitter[Any] = OrderedEmitter(ready.append)
        next_submit = 0
        emitted = 0
        exhausted = False
        while True:
            # Backpressure: in-flight plus buffered (out-of-order or not yet
            # yielded) never exceeds max_inflight, so lazy producers stay
            # bounded.
            while (
                not exhausted
                and len(futures) + emitter.buffered + len(ready) < max_inflight
            ):
                try:
                    payload = next(iterator)
                except StopIteration:
                    exhausted = True
                    break
                futures[executor.submit(exec_fn, *payload)] = next_submit
                next_submit += 1
            if not futures:
                break
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                emitter.push(futures.pop(future), future.result())
            while ready:
                yield emit(ready.popleft(), emitted, "thread")
                emitted += 1
        emitter.close()  # every submitted chunk was flushed, in order
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


def iter_chunk_results(
    items: Sequence[T],
    chunk_fn: Callable[[Sequence[T], np.random.Generator], R],
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    workers: int = 1,
) -> Iterator[R]:
    """Yield ``chunk_fn(chunk, rng)`` for every seeded chunk, in chunk order.

    The chunking and per-chunk seeding are exactly
    :func:`repro.pipeline.execution.run_chunks_serial`'s — same chunks, same
    spawned generators — so for a fixed ``(seed, chunk_size)`` the results
    are byte-identical at any worker count.
    """
    chunks = chunk_items(items, chunk_size)
    rngs = chunk_rngs(seed, len(chunks))
    yield from iter_ordered_map(
        chunk_fn,
        zip(chunks, rngs, strict=True),
        workers=workers,
        n_tasks=len(chunks),
    )


def iter_run_results(
    groups: "GroupCounts",
    kernel: "StrategyKernel",
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    *,
    workers: int = 1,
) -> Iterator["RunResult"]:
    """Yield ``kernel.run(...)`` over runs of seeded chunks, in chunk order.

    The chunks and their spawned generators are exactly
    :func:`iter_chunk_results`'s; consecutive chunks are handed out
    :data:`RUN_CHUNKS` at a time, so each task makes one kernel call over
    its run, with chunk ``c`` of the run drawing from its own generator.
    The bytes are those of one call per chunk at any run length and worker
    count.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    n_chunks = -(-len(groups) // chunk_size)
    rngs = chunk_rngs(seed, n_chunks)
    firsts = range(0, n_chunks, RUN_CHUNKS)

    def payloads() -> Iterator[tuple[Any, ...]]:
        for first in firsts:
            run = groups[first * chunk_size : (first + RUN_CHUNKS) * chunk_size]
            bounds = np.append(np.arange(0, len(run), chunk_size), len(run))
            yield run, rngs[first : first + RUN_CHUNKS], bounds

    yield from iter_ordered_map(
        kernel.run,
        payloads(),
        workers=workers,
        task_chunks=[min(RUN_CHUNKS, n_chunks - first) for first in firsts],
    )


def run_chunks(
    items: Sequence[T],
    chunk_fn: Callable[[Sequence[T], np.random.Generator], R],
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
) -> list[R]:
    """Like :func:`iter_chunk_results` but collected into a list.

    The list counterpart of :func:`repro.pipeline.execution.run_chunks_serial`
    with the ``workers`` knob added:

    >>> run_chunks([1, 2, 3], lambda chunk, rng: sum(chunk), seed=0, chunk_size=2)
    [3, 3]
    """
    return list(iter_chunk_results(items, chunk_fn, seed, chunk_size, workers=workers))
