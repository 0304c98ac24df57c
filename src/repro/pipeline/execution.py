"""Deterministic chunked execution shared by the library and the service.

The pipeline's reproducibility contract is: *the published table depends only
on the seed and the chunk size, never on how the chunks are executed*.  That
holds because

1. the group list is split into fixed-size chunks **before** any work runs;
2. each chunk gets its own child generator derived from
   ``numpy.random.SeedSequence(seed).spawn(n_chunks)`` (the spawn tree is a
   pure function of the root seed);
3. chunk outputs are concatenated in chunk order, whatever order the chunks
   were actually processed in.

Every publish path drives its chunks through the shared scheduler
(:mod:`repro.parallel`), which keeps exactly this chunking and seeding at any
worker count; :func:`run_chunks_serial` is the inline reference it is tested
against.  That is why a publish produces byte-identical output for the same
seed at any worker count.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence
from typing import TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

#: Default number of personal groups per work chunk.
DEFAULT_CHUNK_SIZE = 256

#: Default number of CSV records per ingestion chunk of the streaming engine
#: (:mod:`repro.stream`); bounds peak memory of an out-of-core publish.
DEFAULT_CHUNK_ROWS = 32_768


def chunk_items(items: Sequence[T], chunk_size: int) -> list[Sequence[T]]:
    """Split ``items`` into consecutive chunks of at most ``chunk_size``.

    >>> chunk_items([1, 2, 3, 4, 5], 2)
    [[1, 2], [3, 4], [5]]
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    return [items[start : start + chunk_size] for start in range(0, len(items), chunk_size)]


def chunk_rngs(seed: int, n_chunks: int) -> list[np.random.Generator]:
    """Derive one independent, reproducible generator per chunk from ``seed``.

    The spawn tree is a pure function of the root seed, so the same seed
    always yields generators producing the same streams:

    >>> a, b = chunk_rngs(7, 2), chunk_rngs(7, 2)
    >>> [x.random() for x in a] == [y.random() for y in b]
    True
    """
    if n_chunks == 0:
        return []
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    return [np.random.default_rng(child) for child in children]


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of chunk ``index`` alone: ``chunk_rngs(seed, n)[index]`` for any ``n > index``.

    A spawned child's stream depends only on the root seed and its spawn
    key ``(index,)``, so the child is built directly, without spawning the
    chunks before it.  Each group-path task builds its own chunks'
    generators this way, so the delta splice seeds only its dirty chunks.

    >>> chunk_rng(7, 2).random() == chunk_rngs(7, 5)[2].random()
    True
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def seeded_rng(seed: int) -> np.random.Generator:
    """The sanctioned whole-table generator for root seed ``seed``.

    Single-pass strategies (whole-table perturbation, the streaming row
    path) draw from this one generator instead of the per-chunk spawn tree;
    routing construction through here keeps generator creation inside the
    seeding module, which is what the RNG-discipline lint rule (``RPR001``)
    enforces.

    >>> seeded_rng(7).random() == seeded_rng(7).random()
    True
    """
    return np.random.default_rng(np.random.SeedSequence(seed))


def run_chunks_serial(
    items: Sequence[T],
    chunk_fn: Callable[[Sequence[T], np.random.Generator], R],
    seed: int,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[R]:
    """Apply ``chunk_fn(chunk, rng)`` to every chunk inline, in chunk order.

    The sequential reference the shared scheduler's
    :func:`repro.parallel.run_chunks` is tested against.

    >>> run_chunks_serial([1, 2, 3], lambda chunk, rng: sum(chunk), seed=0, chunk_size=2)
    [3, 3]
    """
    chunks = chunk_items(items, chunk_size)
    rngs = chunk_rngs(seed, len(chunks))
    return [chunk_fn(chunk, rng) for chunk, rng in zip(chunks, rngs, strict=True)]


def coerce_seed(rng: int | np.random.Generator | None = None) -> int:
    """Normalise an ``rng`` argument into the integer root seed of the spawn tree.

    ``None`` draws fresh entropy; an integer is used as-is; an existing
    generator deterministically yields one 63-bit seed (so passing the same
    generator state twice gives the same published table).

    >>> coerce_seed(42)
    42
    >>> import numpy as np
    >>> coerce_seed(np.random.default_rng(0)) == coerce_seed(np.random.default_rng(0))
    True
    """
    if rng is None:
        return int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
    if isinstance(rng, np.random.Generator):
        return int(rng.integers(0, 2**63 - 1))
    return operator.index(rng)
