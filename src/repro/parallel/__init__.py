"""Shared deterministic multi-worker execution for the publishing engines.

This package is the one place chunked work is fanned out — the streaming
engine (:mod:`repro.stream`), the in-memory pipeline (:mod:`repro.pipeline`)
and the service (:mod:`repro.service`) all execute their per-chunk kernels
through the scheduler here, so they share a single determinism contract:

    *the published bytes depend only on the seed and the chunk size, never on
    the worker count, the execution backend or the completion order.*

That holds because the work is split and seeded **before** anything runs
(:func:`repro.pipeline.execution.chunk_items` /
:func:`~repro.pipeline.execution.chunk_rngs`) and because completions are
re-ordered back into chunk order by :class:`OrderedEmitter` before any
consumer sees them — an out-of-order worker finish is buffered, never
flushed early.

Three backends:

``serial``
    Inline execution in the caller's thread — the reference every other
    backend is tested against, and what ``workers <= 1`` resolves to.
``thread``
    A ``ThreadPoolExecutor`` — cheap to start, shares memory, but the GIL
    throttles the numpy-light per-group paths; kept for tiny jobs and for
    kernels that cannot be pickled.
``process``
    A ``ProcessPoolExecutor`` with picklable kernel objects
    (:class:`StrategyKernel` and friends) shipped to each worker once and
    per-chunk payloads carrying pre-seeded RNG states — true multi-core
    scaling for CPU-bound kernels.

``backend="auto"`` (the default everywhere) picks ``process`` when the
kernel proves picklable and the job is big enough to matter, falling back to
``thread`` otherwise.
"""

from repro.parallel.kernels import (
    EncodedBlock,
    MissingChunkPublisher,
    StrategyKernel,
    UniformRowKernel,
    remap_columns,
)
from repro.parallel.ordered import OrderedEmitter
from repro.parallel.scheduler import (
    DEFAULT_BACKEND,
    PARALLEL_BACKENDS,
    iter_chunk_results,
    iter_ordered_map,
    resolve_backend,
    run_chunks,
)

__all__ = [
    "DEFAULT_BACKEND",
    "EncodedBlock",
    "MissingChunkPublisher",
    "OrderedEmitter",
    "PARALLEL_BACKENDS",
    "StrategyKernel",
    "UniformRowKernel",
    "iter_chunk_results",
    "iter_ordered_map",
    "remap_columns",
    "resolve_backend",
    "run_chunks",
]
