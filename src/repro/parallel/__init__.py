"""Shared deterministic multi-worker execution for the publishing engines.

This package is the one place chunked work is fanned out — the streaming
engine (:mod:`repro.stream`), the in-memory pipeline (:mod:`repro.pipeline`)
and the service (:mod:`repro.service`) all execute their per-chunk kernels
through the scheduler here, so they share a single determinism contract:

    *the published bytes depend only on the seed and the chunk size, never on
    the worker count or the completion order.*

That holds because the work is split and seeded **before** anything runs
(:func:`repro.pipeline.execution.chunk_items` /
:func:`~repro.pipeline.execution.chunk_rngs`), because a group-path task
(:func:`iter_run_results`) hands a run of consecutive chunks to one kernel
call with each chunk's own generator, and because completions are
re-ordered back into chunk order by :class:`OrderedEmitter` before any
consumer sees them — an out-of-order worker finish is buffered, never
flushed early.

``workers <= 1`` (or a single task) runs inline in the caller's thread;
``workers=N`` runs the tasks on a ``ThreadPoolExecutor`` of ``N`` threads.
Task spans and the ``repro_chunks_total`` counter label the two as
``backend="serial"`` and ``backend="thread"``.
"""

from repro.parallel.kernels import (
    EncodedBlock,
    MissingChunkPublisher,
    RunResult,
    StrategyKernel,
    UniformRowKernel,
    remap_columns,
)
from repro.parallel.ordered import OrderedEmitter
from repro.parallel.scheduler import (
    iter_chunk_results,
    iter_ordered_map,
    iter_run_results,
    run_chunks,
)

__all__ = [
    "EncodedBlock",
    "MissingChunkPublisher",
    "OrderedEmitter",
    "RunResult",
    "StrategyKernel",
    "UniformRowKernel",
    "iter_chunk_results",
    "iter_ordered_map",
    "iter_run_results",
    "remap_columns",
    "run_chunks",
]
