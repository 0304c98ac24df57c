"""Chunk kernels: the units of work the scheduler hands its workers.

:class:`StrategyKernel` stands for the closure a strategy's
:meth:`PublishStrategy.chunk_publisher` builds; it builds that closure
lazily, once, and reports a strategy that has none with a distinct error.
Construction of a chunk publisher draws no randomness — every draw comes
from the per-chunk generators handed in with the payload.
"""

from __future__ import annotations

import zlib
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, NamedTuple

import numpy as np

from repro.dataset.groups import GroupCounts, chunk_sums
from repro.dataset.loaders import CsvCodec, csv_codec, remap_columns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.criterion import PrivacySpec
    from repro.core.sps import SPSRecords
    from repro.dataset.schema import Schema
    from repro.pipeline.strategy import GroupRunFn, PublishStrategy


class MissingChunkPublisher(ValueError):
    """Raised by :meth:`StrategyKernel.build` when the strategy has no kernel.

    A distinct type so callers can tell "this strategy cannot publish in
    chunks" apart from a real :class:`ValueError` the strategy's own
    ``chunk_publisher`` builder raised (bad parameters etc.) — the latter
    must propagate unchanged.
    """


@dataclass(frozen=True)
class EncodedBlock:
    """A published block rendered to CSV text.

    ``text`` is exactly what a CSV sink writes for the block (one
    ``\\r\\n``-terminated line per record, stdlib ``csv`` dialect).
    """

    text: str
    n_rows: int


def encode_block_csv(schema: "Schema", block: np.ndarray) -> EncodedBlock:
    """Render a codes block to the exact CSV text ``_CsvSink`` would write."""
    text = csv_codec(schema).encode(block).decode("utf-8")
    return EncodedBlock(text=text, n_rows=int(block.shape[0]))


class RunResult(NamedTuple):
    """What a run of chunks published: one block plus each chunk's row count.

    Chunk ``c``'s rows are ``block[offsets[c]:offsets[c + 1]]`` where
    ``offsets`` are the running sums of ``chunk_rows`` from zero.  A run
    bound for a CSV sink is rendered by the task that published it
    (:meth:`rendered`): ``csv[c]`` is chunk ``c``'s CSV bytes and, when the
    sink keeps a chunk index with checksums, ``crc32[c]`` their
    :func:`zlib.crc32`.  Both are empty for a run that was not rendered.
    """

    block: np.ndarray
    records: "SPSRecords | None"
    chunk_rows: np.ndarray
    csv: tuple[bytes, ...] = ()
    crc32: tuple[int, ...] = ()

    def rendered(self, codec: CsvCodec, crc32: bool) -> "RunResult":
        """This run with each chunk's CSV bytes (and, with ``crc32``, their CRC32s)."""
        stops = np.cumsum(self.chunk_rows).tolist()
        csv = tuple(
            codec.encode(self.block[start:stop])
            for start, stop in zip([0, *stops[:-1]], stops, strict=True)
        )
        return self._replace(csv=csv, crc32=tuple(map(zlib.crc32, csv)) if crc32 else ())


@dataclass
class StrategyKernel:
    """A stand-in for ``strategy.chunk_publisher(schema, spec, resolved)``.

    :meth:`run` is byte-for-byte the same as calling the closure the
    strategy builds — the kernel *is* that closure, built lazily on first
    use and cached.  Calling the kernel with one chunk and its generator
    runs it as a run of one and returns ``(block, records)``.
    """

    strategy: "PublishStrategy"
    schema: "Schema"
    spec: "PrivacySpec | None"
    resolved: dict[str, Any]
    _fn: Any = field(default=None, repr=False, compare=False)

    def build(self) -> "GroupRunFn":
        """The underlying chunk publisher, built once.

        Raises :class:`MissingChunkPublisher` when the strategy returns
        ``None``; any exception the strategy's builder itself raises
        propagates unchanged.
        """
        if self._fn is None:
            fn = self.strategy.chunk_publisher(self.schema, self.spec, self.resolved)
            if fn is None:
                raise MissingChunkPublisher(
                    f"strategy {self.strategy.name!r} returned no chunk publisher "
                    "for this configuration; it cannot publish in chunks"
                )
            self._fn = fn
        return self._fn

    def run(
        self,
        groups: GroupCounts,
        rngs: Sequence[np.random.Generator],
        bounds: np.ndarray,
    ) -> RunResult:
        """Publish a run of chunks: chunk ``c`` is ``groups[bounds[c]:bounds[c + 1]]``."""
        block, sizes, records = self.build()(groups, rngs, bounds)
        return RunResult(block, records, chunk_sums(sizes, bounds))

    def __call__(
        self, chunk: GroupCounts, rng: np.random.Generator
    ) -> tuple[np.ndarray, "SPSRecords | None"]:
        block, _, records = self.build()(chunk, (rng,), np.array([0, len(chunk)]))
        return block, records


@dataclass
class UniformRowKernel:
    """Per-spool-block finishing of the uniform row-stream path.

    The phase-split draws (all retain draws, then all replacement draws)
    stay **sequential in the parent** — they are cheap vectorised generator
    calls whose order defines the byte contract — and workers get pure
    deterministic payloads: ``(provisional block, retain bits, replacement
    codes)``.  The kernel remaps the block onto the finalized schema codes
    and applies the perturbation.

    ``remaps`` are the per-column provisional→final code tables the
    incremental index produced at finalize time.
    """

    remaps: tuple[np.ndarray, ...]

    def __call__(
        self, payload: tuple[np.ndarray, np.ndarray, np.ndarray], rng: Any = None
    ) -> np.ndarray:
        block, retain, replacements = payload
        final = remap_columns(block, self.remaps)
        final[:, -1] = np.where(retain, final[:, -1], replacements)
        return final
