"""Shared deterministic multi-worker execution for the publishing engines.

This package is the one place chunked work is fanned out — the streaming
engine (:mod:`repro.stream`), the in-memory pipeline (:mod:`repro.pipeline`)
and the service (:mod:`repro.service`) all execute their per-chunk kernels
through the scheduler here, so they share a single determinism contract:

    *the published bytes depend only on the seed and the chunk size, never on
    the worker count or the completion order.*

That holds because the work is split **before** anything runs and chunk
``c`` always draws from the same generator
(:func:`repro.pipeline.execution.chunk_rng`, a function of the seed and ``c``
alone, wherever it is built), because a group-path task
(:func:`iter_run_results`) hands a run of consecutive chunks to one kernel
call with each chunk's own generator, and because the caller takes results
from a FIFO of futures, oldest first — a task that finishes early waits its
turn behind the head, never reaching a consumer early.

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
from repro.parallel.scheduler import (
    iter_ordered_map,
    iter_run_results,
    run_chunks,
)

__all__ = [
    "EncodedBlock",
    "MissingChunkPublisher",
    "RunResult",
    "StrategyKernel",
    "UniformRowKernel",
    "iter_ordered_map",
    "iter_run_results",
    "remap_columns",
    "run_chunks",
]
