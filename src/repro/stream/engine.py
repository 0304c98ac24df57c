"""The out-of-core streaming publishing engine.

:func:`stream_publish` publishes a CSV source without ever materialising it:
one bounded-memory pass builds the incremental group index (and, for
row-order-preserving strategies, a disk spool of encoded rows), then the
strategy's group-batch kernel is driven over deterministic seeded chunks and
its output blocks are written straight to the sink.  Peak memory is
proportional to ``chunk_rows`` plus the group index, never to the number of
records.

The stages after indexing — generalize, audit, enforce into a sink — are
:func:`_publish_stages`, the one stage flow every publish path runs:
:func:`repro.publish` over the group index of an in-memory table (its rows
replayed by :class:`_TableRows` for row-stream strategies), this engine and
the delta base publish over the incremental index.

Determinism contract (pinned by ``tests/test_stream.py``): for a fixed seed
and ``chunk_size``, the streamed output is **byte-identical** to
``repro.publish`` on the fully loaded table — including the RNG stream
consumption — for every registered strategy.  This holds because

1. the incremental index finalizes to the exact schema and group order the
   in-memory :func:`~repro.dataset.groups.personal_groups` produces;
2. group chunks and their spawned generators are the same
   (:func:`~repro.pipeline.execution.chunk_rng`), and a kernel publishes
   the same bytes for a chunk whatever run of chunks it is handed in;
3. row-stream strategies draw their whole-table vectorised draws chunk by
   chunk, and numpy generators fill chunked array draws from the same stream
   positions as one whole-array draw.
"""

from __future__ import annotations

import inspect
import itertools
import os
import secrets
import tempfile
import tracemalloc
from collections.abc import Callable, Iterator, Sequence
from pathlib import Path
from types import SimpleNamespace
from typing import IO, Any, NamedTuple, cast

import numpy as np

from repro.core.criterion import PrivacySpec
from repro.core.sps import SPSRecords
from repro.core.testing import PrivacyAudit, audit_groups
from repro.dataset.groups import GroupCounts
from repro.dataset.loaders import CsvCodec, csv_codec, source_label
from repro.dataset.schema import Schema, SchemaError
from repro.dataset.table import Table, code_dtype
from repro.generalization.chi_square import DEFAULT_SIGNIFICANCE
from repro.generalization.merging import AttributeMerge, merge_attribute_from_counts
from repro.obs.metrics import (
    PUBLISH_RUNS,
    ROWS_PUBLISHED,
    STREAM_ROWS_PER_SECOND,
    TRACEMALLOC_PEAK,
)
from repro.obs.trace import span
from repro.parallel.kernels import (
    MissingChunkPublisher,
    RunResult,
    StrategyKernel,
    UniformRowKernel,
)
from repro.parallel.scheduler import iter_ordered_map, iter_run_results
from repro.pipeline.execution import (
    DEFAULT_CHUNK_ROWS,
    DEFAULT_CHUNK_SIZE,
    coerce_seed,
    seeded_rng,
)
from repro.pipeline.strategy import PublishStrategy, get_strategy
from repro.stream.index import IncrementalGroupIndex
from repro.stream.reader import ChunkedReader
from repro.stream.report import StreamReport
from repro.utils.files import replace_file

#: Signature of the optional progress callback: called with small JSON-ready
#: dicts carrying a ``phase`` key as the run advances.
ProgressCallback = Callable[[dict[str, Any]], None]


def _spec_for(
    strategy: PublishStrategy, schema: Schema, resolved: dict[str, Any]
) -> PrivacySpec | None:
    """``strategy.spec_for`` from a bare schema: the out-of-core paths hold no table."""
    return strategy.spec_for(cast(Any, SimpleNamespace(schema=schema)), resolved)


class _TableSink:
    """Collect published blocks into an in-memory table (no ``output`` given)."""

    #: Runs reach this sink as code blocks: nothing is rendered for it.
    codec: CsvCodec | None = None
    crc32 = False

    def __init__(self, schema: Schema) -> None:
        self._schema = schema
        self._blocks: list[np.ndarray] = []
        self.records_written = 0

    def write_run(self, result: RunResult) -> None:
        if result.block.size:
            self._blocks.append(result.block)
            self.records_written += result.block.shape[0]

    def close(self) -> Table:
        n_cols = len(self._schema.public) + 1
        if self._blocks:
            codes = np.vstack(self._blocks)
        else:
            codes = np.empty((0, n_cols), dtype=code_dtype(self._schema))
        return Table(self._schema, codes)

    def abort(self) -> None:
        self._blocks.clear()


class _NullSink:
    """Count published records, keep nothing (``materialize=False``, no output).

    Lets a stats-only run (e.g. ``repro-stream`` without ``--output``) stay
    bounded-memory on inputs the table-materialising sink could not hold.
    """

    codec: CsvCodec | None = None
    crc32 = False

    def __init__(self) -> None:
        self.records_written = 0

    def write_run(self, result: RunResult) -> None:
        self.records_written += result.block.shape[0]

    def close(self) -> None:
        return None

    def abort(self) -> None:
        return None


class _CsvSink:
    """Write published blocks as CSV: the one file sink of the stream and delta paths.

    Produces exactly the bytes :func:`repro.dataset.loaders.write_csv` writes
    for the equivalent in-memory table, through the same
    :class:`~repro.dataset.loaders.CsvCodec`.  Caller-provided streams are
    written directly.  A path output is written to a temp file in the
    target's directory and moved into place by :meth:`close`, so the target
    never holds a partial file and any failure before that leaves it
    untouched (:meth:`abort` removes the temp).  With ``overwrite=False``
    the move is a hard link, which the filesystem refuses atomically with
    :class:`FileExistsError` if the name exists by then — two jobs racing
    to one output cannot clobber each other or a file created mid-run.
    With ``overwrite=True`` it is :func:`~repro.utils.files.replace_file`,
    which frees a replaced file on a background thread.

    The sink renders nothing itself: the task that published a run renders
    its chunks with :attr:`codec` (and, with :attr:`crc32`, checksums them)
    on the worker that ran it, and :meth:`write_run` only writes the bytes.

    ``chunk_counts`` records the row count of every write, empty ones
    included: one entry per kernel chunk on the group path, where
    :meth:`write_run` writes a run chunk by chunk.  Next to it,
    ``chunk_bytes`` records the UTF-8 byte length of what each write
    published and, with ``crc32``, ``chunk_crc32`` its :func:`zlib.crc32`.
    Together they are the chunk index a delta state stores: a later splice
    copies a clean chunk as a verified byte range of the published file
    (:meth:`copy_chunks`).  Only the delta paths keep that index, so only
    they pay for the CRCs.
    """

    def __init__(
        self,
        destination: str | Path | IO[str],
        schema: Schema,
        overwrite: bool = True,
        crc32: bool = False,
    ) -> None:
        self.path: Path | None = None
        self._temp: Path | None = None
        self._text: IO[str] | None = None
        if hasattr(destination, "write"):
            self._text = destination  # type: ignore[assignment]
        else:
            self.path = Path(destination)
            self._temp = self.path.with_name(
                f"{self.path.name}.{secrets.token_hex(8)}.tmp"
            )
            # Published bytes are UTF-8, which read_csv decodes, so
            # round-trips work on any locale; a binary file lets the codec's
            # \r\n pass untranslated.
            self._handle: IO[bytes] = self._temp.open("xb")
        self._overwrite = overwrite
        #: Whether runs come with each chunk's CRC32, for the chunk index.
        self.crc32 = crc32
        #: The codec a run bound for this sink is rendered with.
        self.codec = csv_codec(schema)
        #: The encoded header line every output starts with.
        self.header = self.codec.header
        # Bytes written so far: the offset the next write lands at.
        self._offset = 0
        self._write(self.header)
        self.records_written = 0
        self.chunk_counts: list[int] = []
        self.chunk_bytes: list[int] = []
        self.chunk_crc32: list[int] = []

    def write_run(self, result: RunResult) -> None:
        """Append a rendered run (:meth:`RunResult.rendered`), one write per chunk."""
        for data in result.csv:
            self._write(data)
        sizes = [len(data) for data in result.csv]
        self._index(result.chunk_rows.tolist(), sizes, result.crc32 if self.crc32 else ())

    def copy_chunks(
        self,
        rows: Sequence[int],
        sizes: Sequence[int],
        crc32: Sequence[int],
        copy: Callable[[int, int], None],
    ) -> None:
        """Append chunks whose bytes ``copy(fd, offset)`` writes positionally.

        ``copy`` gets this sink's file descriptor and the offset the chunks
        start at, and must have written all ``sum(sizes)`` bytes from there
        (``os.pwrite``, on any thread) by the time it returns.  The caller
        knows each chunk's row count, byte length and CRC32: the delta
        splice copies clean chunks this way, each checked against the range
        it read from the published base.  Only a path output has a
        descriptor to copy into.
        """
        copy(self._handle.fileno(), self._offset)
        self._offset += sum(sizes)
        # Flushes what was buffered ahead of the copied range, then moves past it.
        self._handle.seek(self._offset)
        self._index(rows, sizes, crc32)

    def _index(self, rows: Sequence[int], sizes: Sequence[int], crc32: Sequence[int]) -> None:
        self.records_written += sum(rows)
        self.chunk_counts.extend(rows)
        self.chunk_bytes.extend(sizes)
        self.chunk_crc32.extend(crc32)

    def _write(self, data: bytes | memoryview) -> None:
        self._offset += len(data)
        if self._text is not None:
            self._text.write(str(data, "utf-8"))
        else:
            self._handle.write(data)

    def close(self) -> None:
        """Flush a path output and move it into place (streams stay open).

        If the flush or the move fails, the temp file is removed and the
        target is untouched.
        """
        if self._temp is None or self.path is None:
            return
        try:
            self._handle.close()
            if self._overwrite:
                replace_file(self._temp, self.path)
            else:
                os.link(self._temp, self.path)
        finally:
            # After a replace the temp name is already gone.
            self._temp.unlink(missing_ok=True)

    def abort(self) -> None:
        """Discard an unpublished temp file; the target is untouched."""
        if self._temp is not None:
            self._handle.close()
            self._temp.unlink(missing_ok=True)


class _RowSpool:
    """Disk spool of provisional-coded row blocks plus per-row retain bits.

    Backs the row-stream (``streams_rows``) path: pass 1 appends each encoded
    chunk, the enforcement phases replay the chunks in order.  Lives entirely
    in anonymous temp files, so memory stays bounded while disk carries the
    ``O(n)`` state an order-preserving perturbation inevitably needs.
    """

    def __init__(self, n_cols: int) -> None:
        self._n_cols = n_cols
        self._codes = tempfile.TemporaryFile()
        self._retain = tempfile.TemporaryFile()
        self.chunk_lengths: list[int] = []
        #: Provisional→final code tables of the spooled blocks, set once the
        #: index is finalized.
        self.remaps: tuple[np.ndarray, ...] = ()

    def append(self, block: np.ndarray) -> None:
        self._codes.write(np.ascontiguousarray(block, dtype=np.int64).tobytes())
        self.chunk_lengths.append(block.shape[0])

    def append_retain(self, retain: np.ndarray) -> None:
        self._retain.write(np.packbits(retain).tobytes())

    def replay(
        self, with_retain: bool = False
    ) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        """Yield the spooled blocks (optionally with their retain bits) in order."""
        self._codes.seek(0)
        if with_retain:
            self._retain.seek(0)
        row_bytes = self._n_cols * 8
        for length in self.chunk_lengths:
            raw = self._codes.read(length * row_bytes)
            block = np.frombuffer(raw, dtype=np.int64).reshape(length, self._n_cols)
            if with_retain:
                packed = np.frombuffer(self._retain.read((length + 7) // 8), dtype=np.uint8)
                yield block, np.unpackbits(packed)[:length].astype(bool)
            else:
                yield block, None

    def close(self) -> None:
        self._codes.close()
        self._retain.close()


class _TableRows:
    """An in-memory table behind the :class:`_RowSpool` replay interface.

    Replays the table's own code blocks (already final codes: identity
    remaps) and keeps the retain bits in memory; nothing goes to disk.
    """

    def __init__(self, table: Table, chunk_rows: int = DEFAULT_CHUNK_ROWS) -> None:
        self._codes = table.codes
        self._retain: list[np.ndarray] = []
        self.chunk_lengths = [
            min(chunk_rows, len(table) - start) for start in range(0, len(table), chunk_rows)
        ]
        self.remaps = tuple(
            np.arange(attribute.size, dtype=np.int64)
            for attribute in (*table.schema.public, table.schema.sensitive)
        )

    def append_retain(self, retain: np.ndarray) -> None:
        self._retain.append(retain)

    def replay(
        self, with_retain: bool = False
    ) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        """Yield the table's blocks (optionally with their retain bits) in order."""
        start = 0
        for position, length in enumerate(self.chunk_lengths):
            block = self._codes[start : start + length]
            start += length
            yield block, self._retain[position] if with_retain else None


def _check_publishable(strategy: PublishStrategy) -> None:
    """Refuse, before any work, a strategy with neither a kernel nor the row path."""
    has_kernel = type(strategy).chunk_publisher is not PublishStrategy.chunk_publisher
    if not (has_kernel or strategy.streams_rows):
        raise ValueError(
            f"strategy {strategy.name!r} is not streamable: it neither exposes "
            "a group-batch chunk_publisher nor declares streams_rows, so no "
            "engine can publish it"
        )
    if strategy.generalizes and strategy.streams_rows:
        raise ValueError("row-stream strategies cannot generalize")


def stream_publish(
    source: str | Path | IO[str],
    *,
    sensitive: str,
    strategy: str | PublishStrategy = "sps",
    rng: int | np.random.Generator | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    workers: int = 1,
    audit: bool = True,
    output: str | Path | IO[str] | None = None,
    materialize: bool = True,
    overwrite: bool = True,
    delimiter: str = ",",
    progress: ProgressCallback | None = None,
    track_memory: bool = False,
    **params: Any,
) -> StreamReport:
    """Publish a CSV source out-of-core with bounded memory.

    Parameters
    ----------
    source:
        CSV file path or open text stream; read exactly once, in chunks of
        ``chunk_rows`` records.
    sensitive:
        Name of the sensitive column SA.
    strategy:
        Registered strategy name or instance.  Must either expose a
        group-batch kernel (``chunk_publisher`` — SPS, the DP histogram
        strategies, ``generalize+sps``) or declare ``streams_rows``
        (``uniform``); anything else raises :class:`ValueError`.
    rng, chunk_size:
        Seed and groups-per-work-chunk, with the same meaning (and the same
        bytes out) as :func:`repro.publish`.
    chunk_rows:
        Records per ingestion chunk — the memory knob.
    workers:
        Fan the enforce stage out over this many threads through the shared
        scheduler (:mod:`repro.parallel`).  Byte-identity is preserved at
        any worker count: chunks and their seeded generators are fixed
        before dispatch and completions are flushed to the sink in chunk
        order, so the published table, the CSV bytes and the RNG stream
        consumption never depend on ``workers``.
    audit:
        Run the pre-publication audit (computed from the incremental index).
    output:
        CSV path or text stream for the published rows.  When given, rows
        stream to it and ``report.published`` is ``None``; when omitted the
        published table is materialised on the report.  A path output is
        written to a temp file beside it and renamed into place at the end,
        so a failed run never leaves a partial file.
    materialize:
        Only consulted when ``output`` is ``None``: pass ``False`` to count
        published records without keeping them (bounded memory for
        stats-only runs, e.g. ``repro-stream`` without ``--output``);
        ``report.published`` is then ``None``.
    overwrite:
        Only consulted for path outputs: pass ``False`` to refuse, with
        :class:`FileExistsError`, to replace a file that exists when the
        output is moved into place — decided atomically by a hard link, so
        a file created while the run was going is never clobbered either
        (the service's stream jobs do this).
    delimiter:
        Field delimiter of the source.
    progress:
        Optional callback receiving ``{"phase": ..., ...}`` dicts as the run
        advances (used by the service's stream jobs).
    track_memory:
        Record the run's peak ``tracemalloc`` allocation on the report.
    params:
        Strategy parameters, validated like :func:`repro.publish`.

    Example:

    >>> import io
    >>> src = io.StringIO("City,Disease\\n" + "Oslo,Flu\\n" * 40 + "Bergen,Cold\\n" * 24)
    >>> report = stream_publish(src, sensitive="Disease", strategy="sps",
    ...                         rng=7, chunk_rows=16)
    >>> report.n_rows, report.n_chunks, report.n_groups
    (64, 4, 2)
    >>> report.published is not None
    True
    """
    strategy = get_strategy(strategy) if isinstance(strategy, str) else strategy
    _check_publishable(strategy)
    if workers <= 0:
        raise ValueError("workers must be positive")

    started_tracing = False
    if track_memory:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            started_tracing = True
        tracemalloc.reset_peak()

    try:
        return _run(
            strategy, source, sensitive, rng, chunk_size, chunk_rows,
            int(workers), audit,
            output, materialize, overwrite, delimiter, progress, track_memory, params,
        ).report
    finally:
        if started_tracing:
            tracemalloc.stop()


#: Keywords :func:`stream_publish` binds itself (everything but ``**params``).
#: A strategy parameter can never use one of these names; the front ends
#: that forward a params mapping reject them instead of letting them bind.
ENGINE_OPTIONS = frozenset(
    name
    for name, parameter in inspect.signature(stream_publish).parameters.items()
    if parameter.kind is not inspect.Parameter.VAR_KEYWORD
)


class _Run(NamedTuple):
    """What one engine run returns: the report plus the delta-state inputs."""

    report: StreamReport
    header: list[str]
    groups: GroupCounts
    sink: Any


def _index_source(
    reader: ChunkedReader,
    notify: ProgressCallback,
    phase: str = "read",
    header: Sequence[str] | None = None,
    spool_rows: bool = False,
    workers: int = 1,
) -> tuple[IncrementalGroupIndex, _RowSpool | None, float]:
    """One bounded-memory pass indexing every chunk of ``reader``, in order.

    The one read-and-index loop of the out-of-core paths: a stream publish
    reads its source with it, a delta append its appended rows.  ``header``
    pins the header the source must carry.  With ``spool_rows`` (row-stream
    strategies) each chunk's provisional codes also go to a
    :class:`_RowSpool`, which is closed here if the read fails.  Returns the
    index, the spool (or ``None``) and the seconds spent writing the spool,
    so the read timing stays pure parse+index work.

    The caller's thread splits the source into chunks.  At ``workers > 1``
    each chunk's key lookup and pair reduction
    (:meth:`IncrementalGroupIndex.prepare`) run on the pool, at most
    ``workers + 1`` chunks ahead, while the caller splits the next chunk;
    the caller then absorbs the results in chunk order.  A one-chunk source
    runs inline.  The index, the spooled codes, the progress events and
    every error are the same at any ``workers``.
    """
    spool: _RowSpool | None = None
    spool_seconds = 0.0
    chunks = reader.chunks()
    try:
        first = next(chunks, None)
        assert first is not None  # reader raises on empty input
        if header is not None and reader.header != list(header):
            raise SchemaError(
                f"{reader.label}: header {reader.header} does not match "
                f"the published dataset's header {list(header)}"
            )
        public_names = reader.public_names or []
        index = IncrementalGroupIndex(public_names, reader.sensitive)
        if spool_rows:
            spool = _RowSpool(len(public_names) + 1)
        payloads = ((chunk,) for chunk in itertools.chain([first], chunks))
        prepared = iter_ordered_map(
            index.prepare, payloads, workers=workers, max_inflight=workers + 1, record=False
        )
        for n_chunks, item in enumerate(prepared, start=1):
            encoded = index.absorb(item)
            if spool is not None:
                with span("spool", kind="io") as spool_sp:
                    spool.append(encoded)
                spool_seconds += spool_sp.duration
            notify({"phase": phase, "rows_read": index.n_rows, "chunks_read": n_chunks})
    except BaseException:
        if spool is not None:
            spool.close()
        raise
    return index, spool, spool_seconds


def _run(
    strategy: PublishStrategy,
    source: str | Path | IO[str],
    sensitive: str,
    rng: int | np.random.Generator | None,
    chunk_size: int,
    chunk_rows: int,
    workers: int,
    audit: bool,
    output: str | Path | IO[str] | None,
    materialize: bool,
    overwrite: bool,
    delimiter: str,
    progress: ProgressCallback | None,
    track_memory: bool,
    params: dict[str, Any],
    *,
    root_name: str = "stream_publish",
    path: str = "stream",
    unsupported: type[ValueError] = ValueError,
    crc32: bool = False,
) -> _Run:
    """The engine behind :func:`stream_publish` and the delta base publish.

    The source-specific part: read and index the CSV source (spooling its
    rows for a row-stream strategy), hand the finalized groups to the shared
    :func:`_publish_stages`, then flush the sink.  ``root_name`` and
    ``path`` label the root span and the ``PUBLISH_RUNS`` counter;
    ``unsupported`` is the error raised when the strategy returns no chunk
    kernel; ``crc32`` makes a CSV sink record each chunk's CRC32.
    """
    timings: dict[str, float] = {}
    notify = progress or (lambda event: None)

    with span(root_name, kind="publish", path=path, strategy=strategy.name) as root:
        # prepare: typed parameter resolution + seed normalisation.
        with span("prepare", kind="stage") as sp:
            resolved = strategy.resolve(params)
            seed = coerce_seed(rng)
            if chunk_size <= 0:
                raise ValueError("chunk_size must be positive")
        timings["prepare"] = sp.duration
        root.set(
            seed=seed, chunk_size=chunk_size, chunk_rows=chunk_rows, workers=workers
        )

        # Everything that owns on-disk state (the row spool, the CSV sink's
        # temp file) is released inside this one try: whatever fails — a bad
        # row mid-read, a strategy exception mid-enforce — the spool is closed and the unpublished temp output
        # removed before the error propagates.
        spool: _RowSpool | None = None
        sink: Any = None
        try:
            # read: one bounded-memory pass over the source.
            with span("read", kind="stage") as sp:
                reader = ChunkedReader(
                    source, sensitive, chunk_rows=chunk_rows, delimiter=delimiter
                )
                index, spool, spool_seconds = _index_source(
                    reader, notify, spool_rows=strategy.streams_rows, workers=workers
                )
                sp.set(
                    rows=reader.rows_read, chunks=reader.chunks_read,
                    pairs_sorted=index.pairs_sorted,
                )
            timings["read"] = max(0.0, sp.duration - spool_seconds)
            timings["spool"] = spool_seconds

            # group index: finalize schema + lexicographically ordered groups.
            with span("group_index", kind="stage") as sp:
                schema, groups = index.finalize()
                if spool is not None:
                    spool.remaps = tuple(index.remaps)
            timings["group_index"] = sp.duration
            notify({"phase": "group_index", "n_groups": len(groups)})

            def open_sink(prepared: Schema) -> Any:
                if output is not None:
                    return _CsvSink(output, prepared, overwrite=overwrite, crc32=crc32)
                return _TableSink(prepared) if materialize else _NullSink()

            staged = _publish_stages(
                strategy, resolved, schema, groups, index.n_rows, open_sink, timings,
                seed=seed, chunk_size=chunk_size, workers=workers,
                audit=audit, rows=spool, notify=notify,
                unsupported=unsupported,
            )
            sink = staged.sink
            if timings["enforce"] > 0.0:
                STREAM_ROWS_PER_SECOND.set(sink.records_written / timings["enforce"])

            # flush: close the sink — for a path output this flushes the temp
            # file and moves it into place.
            with span("flush", kind="stage") as sp:
                published = sink.close()
            timings["flush"] = sp.duration
        except BaseException:
            if sink is not None:
                sink.abort()
            raise
        finally:
            if spool is not None:
                spool.close()
        notify({"phase": "done", "published_records": sink.records_written})

        peak: int | None = None
        if track_memory:
            peak = tracemalloc.get_traced_memory()[1]
            TRACEMALLOC_PEAK.set(peak)

        # finalize: the residual of the run (report assembly) so the stage
        # timings sum to the root span's wall-clock.
        timings["finalize"] = max(0.0, root.elapsed() - sum(timings.values()))
        root.set(rows=index.n_rows, published_records=sink.records_written)

    PUBLISH_RUNS.inc(path=path, strategy=strategy.name)
    ROWS_PUBLISHED.inc(sink.records_written, strategy=strategy.name)
    assert staged.groups is not None  # the out-of-core paths always index
    report = StreamReport(
        strategy=strategy.name,
        params=resolved,
        seed=seed,
        chunk_rows=int(chunk_rows),
        chunk_size=int(chunk_size),
        workers=int(workers),
        n_rows=index.n_rows,
        n_chunks=reader.chunks_read,
        n_groups=len(staged.groups),
        published_records=sink.records_written,
        schema=staged.schema,
        spec=staged.spec,
        audit=staged.audit,
        records=staged.records,
        merges=staged.merges,
        metadata=staged.metadata,
        timings=timings,
        output=None if output is None else source_label(output),
        published=published if output is None else None,
        peak_tracked_bytes=peak,
    )
    return _Run(report, reader.header or [], staged.groups, sink)


class _Staged(NamedTuple):
    """What the shared stage flow hands back: the prepared run plus its open sink."""

    schema: Schema
    groups: GroupCounts | None
    merges: tuple[AttributeMerge, ...] | None
    spec: PrivacySpec | None
    audit: PrivacyAudit | None
    records: SPSRecords | None
    metadata: dict[str, Any]
    sink: Any


def _publish_stages(
    strategy: PublishStrategy,
    resolved: dict[str, Any],
    schema: Schema,
    groups: GroupCounts | None,
    n_rows: int,
    open_sink: Callable[[Schema], Any],
    timings: dict[str, float],
    *,
    seed: int,
    chunk_size: int,
    workers: int,
    audit: bool,
    rows: _RowSpool | _TableRows | None = None,
    merges: tuple[AttributeMerge, ...] | None = None,
    notify: ProgressCallback = lambda event: None,
    unsupported: type[ValueError] = ValueError,
) -> _Staged:
    """generalize → audit → enforce over indexed groups: the one stage flow.

    ``schema`` and ``groups`` are the indexed source's; given ``merges``
    (decided earlier), they are already generalised and the generalize step
    only records the merges.  A ``streams_rows`` strategy is enforced from
    ``rows`` (a :class:`_RowSpool` or :class:`_TableRows`), and ``groups``
    may then be ``None`` when the audit does not run.  Blocks go to
    ``open_sink(prepared schema)``: aborted if enforcing fails, returned
    open otherwise.  The kernel's runs carry the audit's ``s_g``, so SPS
    does not audit them again.  Books ``generalize``, ``audit`` and
    ``enforce`` in ``timings``.
    """
    # generalize: chi-square merging decided from the group counts.
    with span("generalize", kind="stage", ran=strategy.generalizes) as sp:
        metadata = dict(strategy.metadata_for(resolved))
        if strategy.generalizes:
            if merges is None:
                assert groups is not None  # row-stream strategies cannot generalize
                m = schema.sensitive_domain_size
                significance = resolved.get("significance", DEFAULT_SIGNIFICANCE)
                merges = tuple(
                    merge_attribute_from_counts(
                        attribute,
                        groups.column_totals(column),
                        m,
                        significance=significance,
                    )
                    for column, attribute in enumerate(schema.public)
                )
                schema = schema.with_public([merge.generalized for merge in merges])
                groups = groups.recode([merge.code_map() for merge in merges])
            metadata["generalized_domains"] = {
                merge.original.name: {
                    "before": merge.original_domain_size,
                    "after": merge.generalized_domain_size,
                }
                for merge in merges
            }
    timings["generalize"] = sp.duration

    spec = _spec_for(strategy, schema, resolved)

    # audit: Corollary 4 over the group counts (no table required).
    with span("audit", kind="stage", ran=audit and strategy.audits) as sp:
        privacy_audit: PrivacyAudit | None = None
        if audit and strategy.audits and spec is not None:
            assert groups is not None  # callers index whenever the audit runs
            privacy_audit = audit_groups(spec, groups, n_rows)
    timings["audit"] = sp.duration

    # enforce: drive the kernel per group batch (or replay the row source),
    # writing published blocks straight to the sink in chunk order.  Chunk
    # spans recorded by the scheduler land under this span.
    with span("enforce", kind="stage") as sp:
        sink = open_sink(schema)
        records: list[SPSRecords | None] = []
        try:
            if rows is not None:
                _enforce_rows(strategy, spec, rows, seed, workers, sink, notify)
            else:
                assert groups is not None
                kernel = _chunk_kernel(strategy, schema, spec, resolved, unsupported)
                _enforce_groups(
                    kernel, _audited(groups, privacy_audit), seed, chunk_size, workers,
                    sink, records, notify,
                )
        except BaseException:
            sink.abort()
            raise
    timings["enforce"] = sp.duration
    return _Staged(
        schema, groups, merges, spec, privacy_audit, SPSRecords.concat(records),
        metadata, sink,
    )


def _audited(groups: GroupCounts, audit: PrivacyAudit | None) -> GroupCounts:
    """``groups`` carrying the stage audit's ``s_g``, when the audit ran."""
    return groups if audit is None else groups.with_thresholds(audit.thresholds)


def _chunk_kernel(
    strategy: PublishStrategy,
    schema: Schema,
    spec: PrivacySpec | None,
    resolved: dict[str, Any],
    unsupported: type[ValueError] = ValueError,
) -> StrategyKernel:
    """Build the strategy's group-batch kernel, failing fast before any chunk runs.

    The one kernel-build site of every publish path.  A strategy that
    returns no kernel raises ``unsupported``; a :class:`ValueError` from the
    strategy's own builder propagates verbatim.  Every worker calls the
    closure built here.
    """
    kernel = StrategyKernel(strategy, schema, spec, dict(resolved))
    try:
        kernel.build()
    except MissingChunkPublisher as exc:
        raise unsupported(
            f"{exc}, so no engine can publish it with these parameters"
        ) from None
    return kernel


def _enforce_groups(
    kernel: StrategyKernel,
    groups: GroupCounts,
    seed: int,
    chunk_size: int,
    workers: int,
    sink: Any,
    records: list[SPSRecords | None],
    notify: ProgressCallback,
) -> None:
    """Drive the group-run kernel over runs of seeded chunks, in chunk order.

    Each scheduler task publishes a run of consecutive chunks in one kernel
    call (:func:`~repro.parallel.scheduler.iter_run_results`) and, for a CSV
    sink, renders it with the sink's codec; the sink still writes, and
    indexes, each chunk on its own.  With ``workers > 1`` the runs go to the
    shared scheduler's threads, whose FIFO of futures hands them to the
    sink in chunk order, so the output bytes never depend on the worker
    count or the run length.
    """
    results = iter_run_results(
        groups, kernel, seed, chunk_size, workers=workers, codec=sink.codec, crc32=sink.crc32
    )
    done = 0
    for result in results:
        sink.write_run(result)
        records.append(result.records)
        done = min(done + chunk_size * len(result.chunk_rows), len(groups))
        notify({
            "phase": "enforce",
            "groups_done": done,
            "n_groups": len(groups),
            "published_records": sink.records_written,
        })


def _enforce_rows(
    strategy: PublishStrategy,
    spec: PrivacySpec | None,
    spool: _RowSpool | _TableRows,
    seed: int,
    workers: int,
    sink: Any,
    notify: ProgressCallback,
) -> None:
    """Replay the row source through the whole-table uniform perturbation.

    Byte-identity with ``UniformPerturbation.perturb_table`` holds because
    that draws ``rng.random(n)`` then ``rng.integers(0, m, n)``, and chunked
    draws from the same generator consume the same stream: all retain draws
    happen first (phase one), all replacement draws second.

    With ``workers > 1`` the draws **stay sequential in the caller** (they
    define the byte contract and are cheap vectorised generator calls); the
    spool is partitioned block-wise across the pool, whose threads remap the
    codes, apply the perturbation and, for a CSV sink, render the block, and
    the ordered scheduler flushes their results in spool order.  The
    scheduler's submission backpressure caps in-flight blocks, so memory
    stays bounded by ``O(workers * chunk_rows)``.
    """
    if spec is None:  # pragma: no cover - uniform always has a spec
        raise ValueError(f"strategy {strategy.name!r} has no spec for row streaming")
    p = spec.retention_probability
    m = spec.domain_size
    generator = seeded_rng(seed)
    for block, _ in spool.replay():
        spool.append_retain(generator.random(block.shape[0]) < p)
    total = sum(spool.chunk_lengths)

    kernel = UniformRowKernel(remaps=spool.remaps)
    codec = sink.codec

    def publish(payload: tuple[np.ndarray, np.ndarray | None, np.ndarray]) -> RunResult:
        block = kernel(payload)
        result = RunResult(block, None, np.array([block.shape[0]]))
        return result if codec is None else result.rendered(codec, sink.crc32)

    def payloads() -> Iterator[tuple[tuple[np.ndarray, np.ndarray | None, np.ndarray]]]:
        # Pulled lazily by the scheduler, so the phase-two draws happen in
        # spool order regardless of which worker finishes first.
        for block, retain in spool.replay(with_retain=True):
            replacements = generator.integers(0, m, size=block.shape[0])
            yield ((block, retain, replacements),)

    done = 0
    for result in iter_ordered_map(
        publish, payloads(), workers=workers, n_tasks=len(spool.chunk_lengths),
    ):
        sink.write_run(result)
        done += result.block.shape[0]
        notify({
            "phase": "enforce",
            "rows_done": done,
            "n_rows": total,
            "published_records": sink.records_written,
        })
