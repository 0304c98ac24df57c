"""The multi-worker chunk scheduler shared by the stream, pipeline and service engines.

Determinism is structural, not scheduled: chunks and their seeded generators
are fixed before any work starts, workers may finish in any order, and
results are re-sequenced into chunk order before the caller sees them
(buffered out-of-order completions, bounded by submission backpressure).
For a fixed seed the published table, the CSV bytes and the RNG stream
consumption are byte-identical at any ``workers`` count and on any backend.

The process backend ships the kernel object to each worker **once** (via the
pool initializer) and per-chunk payloads after that; kernels must therefore
be picklable — :mod:`repro.parallel.kernels` provides the standard ones.
``backend="auto"`` probes picklability and quietly falls back to threads for
kernels that cannot cross a process boundary (e.g. locally-defined test
strategies).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from concurrent.futures import FIRST_COMPLETED, Executor, ProcessPoolExecutor, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, TypeVar

import numpy as np

from repro.obs.metrics import CHUNK_SECONDS, CHUNKS_TOTAL
from repro.obs.trace import Tracer, current_tracer
from repro.parallel.ordered import OrderedEmitter
from repro.pipeline.execution import DEFAULT_CHUNK_SIZE, chunk_items, chunk_rngs

T = TypeVar("T")
R = TypeVar("R")

#: Every selectable execution backend.
PARALLEL_BACKENDS = ("auto", "serial", "thread", "process")

#: The default backend: process when the kernel pickles, thread otherwise.
DEFAULT_BACKEND = "auto"

#: Under ``auto``, jobs with fewer chunks than this stay on threads: a
#: process pool costs worker start-up (and, under forkserver, a re-import of
#: numpy per worker) that a few-chunk job can never amortise.  Explicit
#: ``backend="process"`` bypasses the floor.
AUTO_MIN_PROCESS_TASKS = 4

# The kernel shipped to this worker process by the pool initializer.
_WORKER_KERNEL: Any = None


def _init_worker(kernel_bytes: bytes) -> None:
    global _WORKER_KERNEL
    _WORKER_KERNEL = pickle.loads(kernel_bytes)


def _call_worker(args: tuple[Any, ...]) -> Any:
    return _WORKER_KERNEL(*args)


@dataclass
class _TimedResult:
    """A chunk result plus the span data its worker timed around it."""

    value: Any
    duration: float
    pid: int
    thread: str


class _TimedKernel:
    """Wrap a chunk kernel so the *worker* times each call and reports who ran it.

    Spans cannot cross a process boundary live, so the worker records its
    own wall-clock duration and identity; the parent merges the finished
    records into the active tracer **in chunk order** (the ordered emitter's
    order), keeping traces deterministic modulo the timing values.  Pickles
    iff the wrapped kernel pickles, so backend resolution is unchanged.
    """

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable[..., Any]) -> None:
        self._fn = fn

    def __getstate__(self) -> Callable[..., Any]:
        return self._fn

    def __setstate__(self, fn: Callable[..., Any]) -> None:
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


def _emit_chunk(
    tracer: Tracer | None, item: Any, index: int, backend: str, workers: int
) -> Any:
    """Unwrap one (possibly timed) chunk result; record its span and metrics."""
    CHUNKS_TOTAL.inc(backend=backend)
    if tracer is None:
        return item
    tracer.record(
        "chunk",
        item.duration,
        attributes={
            "kind": "chunk",
            "chunk_id": index,
            "backend": backend,
            "workers": workers,
            "worker_pid": item.pid,
            "worker_thread": item.thread,
        },
    )
    CHUNK_SECONDS.observe(item.duration, backend=backend)
    return item.value


def _mp_context() -> multiprocessing.context.BaseContext:
    """Pick the start method: ``fork`` when single-threaded, else ``forkserver``.

    Fork keeps worker start-up in the low milliseconds — no re-import of
    numpy per job — and makes strategies registered at runtime visible to
    workers even before pickling.  But forking a *multithreaded* process
    (e.g. a publish request handled on a serving worker thread) can
    deadlock the child on a lock some other thread held at fork time, so
    with threads active we switch to ``forkserver`` (children fork from a
    clean single-threaded server process; slower first start, never
    lock-unsafe).  Platforms without fork fall back to the interpreter
    default; kernels are shipped by pickle either way, so the published
    bytes are identical on every method.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    if "forkserver" in methods:
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context()


def resolve_backend(
    backend: str,
    workers: int,
    n_tasks: int | None,
    fn: Callable[..., Any],
) -> tuple[str, bytes | None]:
    """Resolve a requested backend to a concrete one (plus the pickled kernel).

    ``serial`` whenever one worker (or at most one task) makes fan-out
    pointless; ``auto`` probes ``pickle.dumps(fn)`` and picks ``process``
    when it succeeds **and** the job is big enough to amortise pool start-up
    (at least :data:`AUTO_MIN_PROCESS_TASKS` chunks), ``thread`` otherwise.
    An explicit ``process`` with an unpicklable kernel is an error rather
    than a silent degradation.
    """
    if backend not in PARALLEL_BACKENDS:
        raise ValueError(
            f"unknown parallel backend {backend!r}; choose one of {PARALLEL_BACKENDS}"
        )
    if workers <= 1 or backend == "serial" or (n_tasks is not None and n_tasks <= 1):
        return "serial", None
    if backend == "thread":
        return "thread", None
    if backend == "auto" and n_tasks is not None and n_tasks < AUTO_MIN_PROCESS_TASKS:
        return "thread", None
    try:
        payload = pickle.dumps(fn)
    except Exception as exc:
        if backend == "process":
            raise ValueError(
                f"backend='process' requires a picklable kernel, but pickling "
                f"{fn!r} failed: {exc}; use backend='thread' or a module-level kernel"
            ) from exc
        return "thread", None
    return "process", payload


def iter_ordered_map(
    fn: Callable[..., R],
    payloads: Iterable[tuple[Any, ...]],
    *,
    workers: int = 1,
    backend: str = DEFAULT_BACKEND,
    n_tasks: int | None = None,
) -> Iterator[R]:
    """Apply ``fn(*payload)`` to every payload; yield results **in payload order**.

    The parallel primitive everything else builds on.  ``payloads`` may be a
    lazy iterator: at most ``~2 * workers`` tasks are in flight or buffered
    at once, so a bounded-memory producer (e.g. the streaming engine's row
    spool) stays bounded through the pool.  Worker exceptions propagate to
    the caller on the chunk that raised; the pool is shut down (pending work
    cancelled) on any failure or early consumer exit.
    """
    # With a tracer active, each chunk is timed inside its worker and the
    # finished span records are merged here in chunk order (deterministic
    # trace structure at any worker count — only the timing values move).
    tracer = current_tracer()
    exec_fn: Callable[..., Any] = _TimedKernel(fn) if tracer is not None else fn
    resolved, kernel_bytes = resolve_backend(backend, workers, n_tasks, exec_fn)
    if resolved == "serial":
        for index, payload in enumerate(payloads):
            yield _emit_chunk(tracer, exec_fn(*payload), index, "serial", workers)
        return

    executor: Executor
    if resolved == "process":
        executor = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=_mp_context(),
            initializer=_init_worker,
            initargs=(kernel_bytes,),
        )
        submit = lambda args: executor.submit(_call_worker, args)  # noqa: E731
    else:
        executor = ThreadPoolExecutor(max_workers=workers)
        submit = lambda args: executor.submit(exec_fn, *args)  # noqa: E731

    max_inflight = 2 * workers + 2
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
                futures[submit(payload)] = next_submit
                next_submit += 1
            if not futures:
                break
            done, _ = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                emitter.push(futures.pop(future), future.result())
            while ready:
                yield _emit_chunk(tracer, ready.popleft(), emitted, resolved, workers)
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
    backend: str = DEFAULT_BACKEND,
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
        backend=backend,
        n_tasks=len(chunks),
    )


def run_chunks(
    items: Sequence[T],
    chunk_fn: Callable[[Sequence[T], np.random.Generator], R],
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
    backend: str = DEFAULT_BACKEND,
) -> list[R]:
    """Like :func:`iter_chunk_results` but collected into a list.

    The list counterpart of :func:`repro.pipeline.execution.run_chunks_serial`
    with the worker knobs added:

    >>> run_chunks([1, 2, 3], lambda chunk, rng: sum(chunk), seed=0, chunk_size=2)
    [3, 3]
    """
    return list(
        iter_chunk_results(
            items, chunk_fn, seed, chunk_size, workers=workers, backend=backend
        )
    )
