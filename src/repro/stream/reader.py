"""Bounded-memory chunked CSV reading.

:class:`ChunkedReader` is the ingestion half of the out-of-core publishing
engine: it walks a CSV source (path or open text stream) in chunks of at most
``chunk_rows`` records, validating each row against the header as it goes, so
peak memory is proportional to the chunk size rather than the file size.
Each chunk is a :class:`~repro.dataset.loaders.ColumnChunk`: the records
transposed once into columns, the sensitive column last, so downstream
consumers encode column by column and never need to know where the SA
column sat in the file.

The reader shares the tolerant-input contract of
:func:`repro.dataset.loaders.read_csv` by construction — both consume the
same :func:`repro.dataset.loaders.open_csv_chunks` chunk source: a UTF-8
byte-order mark is stripped, CRLF line endings are handled, blank lines
are skipped, and error messages name the source and the offending line
number.  A path is read as bytes, so chunks of plain lines are split with
array operations and only chunks that need it go through :mod:`csv`.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterator, Sequence
from pathlib import Path
from typing import IO

from repro.dataset.loaders import ColumnChunk, open_csv_chunks, source_label
from repro.pipeline.execution import DEFAULT_CHUNK_ROWS


class ChunkedReader:
    """Iterate a header-carrying CSV source as bounded-size row chunks.

    Parameters
    ----------
    source:
        CSV file path, or an open file-like object (text, or binary
        UTF-8 as :func:`~repro.dataset.loaders.read_csv` takes it).  Paths
        are opened (and closed) per iteration and can therefore be read
        more than once; file-like sources are read exactly once and not
        closed.
    sensitive:
        Name of the sensitive column SA.  Each yielded chunk holds this
        column last.
    chunk_rows:
        Maximum number of records per chunk (the final chunk may be
        smaller).
    delimiter:
        Field delimiter (default comma).

    Example:

    >>> import io
    >>> reader = ChunkedReader(
    ...     io.StringIO("City,Disease\\nOslo,Flu\\nBergen,Cold\\nOslo,Flu\\n"),
    ...     sensitive="Disease", chunk_rows=2)
    >>> chunks = list(reader.chunks())
    >>> [len(chunk) for chunk in chunks], chunks[0].columns
    ([2, 1], (['Oslo', 'Bergen'], ['Flu', 'Cold']))
    >>> reader.rows_read, reader.header
    (3, ['City', 'Disease'])
    """

    def __init__(
        self,
        source: str | Path | IO[str] | IO[bytes],
        sensitive: str,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        delimiter: str = ",",
    ) -> None:
        if chunk_rows <= 0:
            raise ValueError("chunk_rows must be positive")
        self._source = source
        self._sensitive = sensitive
        self._chunk_rows = int(chunk_rows)
        self._delimiter = delimiter
        self.label = source_label(source)
        #: Header of the last completed/started iteration (file column order).
        self.header: list[str] | None = None
        #: Public column names in header order (set once the header is read).
        self.public_names: list[str] | None = None
        #: Records yielded so far in the current iteration.
        self.rows_read = 0
        #: Chunks yielded so far in the current iteration.
        self.chunks_read = 0

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[str]],
        header: Sequence[str],
        sensitive: str,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        label: str = "appended rows",
    ) -> "ChunkedReader":
        """Build a reader over in-memory rows (file column order, no header row).

        The rows are rendered through the same CSV machinery a file source
        goes through, so every validation error a file read would name —
        ragged width, missing sensitive column, no rows at all — is raised
        here too, prefixed with ``label`` instead of a file path (e.g.
        ``"appended rows, line 3: row has 2 fields but the header has 3"``).
        This is what the delta engine hands appended row batches to.

        >>> reader = ChunkedReader.from_rows(
        ...     [["Oslo", "Flu"], ["Bergen", "Cold"]], ["City", "Disease"],
        ...     sensitive="Disease")
        >>> [len(chunk) for chunk in reader.chunks()]
        [2]
        """
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        writer.writerow(list(header))
        writer.writerows(rows)
        buffer.seek(0)
        reader = cls(buffer, sensitive, chunk_rows=chunk_rows)
        reader.label = label
        return reader

    @classmethod
    def from_cursor(
        cls,
        cursor: Iterator[Sequence[object]],
        header: Sequence[str],
        sensitive: str,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        label: str = "database cursor",
    ) -> "ChunkedReader":
        """Build a reader over a DB-API cursor (or any row iterator).

        ``cursor`` yields value tuples in ``header`` order — exactly what
        ``SELECT`` over the source columns produces — and is drained
        incrementally: only ``chunk_rows`` rows are rendered to CSV text at
        a time, so a table larger than memory streams through at bounded
        cost.  Values are stringified with ``str()``; the same header and
        width validation as a file source applies, labelled with ``label``.
        Like a file-like source, a cursor is consumed exactly once.

        >>> rows = iter([("Oslo", "Flu"), ("Bergen", "Cold"), ("Oslo", "Flu")])
        >>> reader = ChunkedReader.from_cursor(
        ...     rows, ["City", "Disease"], sensitive="Disease", chunk_rows=2)
        >>> [len(chunk) for chunk in reader.chunks()]
        [2, 1]
        """
        reader = cls(_CursorStream(cursor, list(header)), sensitive, chunk_rows=chunk_rows)
        reader.label = label
        return reader

    @property
    def chunk_rows(self) -> int:
        """The configured maximum records per chunk."""
        return self._chunk_rows

    @property
    def sensitive(self) -> str:
        """The sensitive column name."""
        return self._sensitive

    def _open(self) -> tuple[IO[str] | IO[bytes], bool]:
        if hasattr(self._source, "read"):
            return self._source, False  # type: ignore[return-value]
        path = Path(self._source)  # type: ignore[arg-type]
        return path.open("rb"), True

    def chunks(self) -> Iterator[ColumnChunk]:
        """Yield column chunks of at most ``chunk_rows`` records (NA columns then SA).

        Raises :class:`~repro.dataset.schema.SchemaError` — naming the source
        and line number — on an empty source, a header without data rows, a
        header missing the sensitive column or repeating a column name, or a
        row whose width does not match the header.
        """
        handle, owned = self._open()
        try:
            yield from self._chunks_from(handle)
        finally:
            if owned:
                handle.close()

    def _chunks_from(self, handle: IO[str] | IO[bytes]) -> Iterator[ColumnChunk]:
        header, chunks = open_csv_chunks(
            handle, self.label, self._sensitive, self._chunk_rows, self._delimiter
        )
        self.header = header
        self.public_names = [name for name in header if name != self._sensitive]
        self.rows_read = 0
        self.chunks_read = 0
        for chunk in chunks:
            self.rows_read += len(chunk)
            self.chunks_read += 1
            yield chunk


class _CursorStream:
    """Lazy text-stream view of a row cursor, rendered as CSV lines.

    Satisfies just enough of the text-file protocol for
    :class:`ChunkedReader` (``read`` marks it as an open stream, iteration
    feeds :func:`csv.reader`): each row is rendered on demand, so draining a
    million-row cursor never holds more than one line of CSV text, and
    ``read(size)`` renders only the rows it needs for ``size`` characters.
    """

    def __init__(self, cursor: Iterator[Sequence[object]], header: list[str]) -> None:
        self._lines = self._render(cursor, header)
        self._pending = ""

    @staticmethod
    def _render(cursor: Iterator[Sequence[object]], header: list[str]) -> Iterator[str]:
        out = io.StringIO(newline="")
        writer = csv.writer(out)
        writer.writerow(header)
        yield out.getvalue()
        for row in cursor:
            out.seek(0)
            out.truncate(0)
            writer.writerow(["" if value is None else str(value) for value in row])
            yield out.getvalue()

    def __iter__(self) -> Iterator[str]:
        return self

    def __next__(self) -> str:
        if self._pending:
            line, self._pending = self._pending, ""
            return line
        return next(self._lines)

    def readline(self) -> str:
        return next(self, "")

    def read(self, size: int | None = -1) -> str:
        """At most ``size`` characters (all that is left for a negative or ``None`` size)."""
        if size is None or size < 0:
            return "".join(self)
        parts: list[str] = []
        wanted = size
        while wanted > 0 and (line := next(self, "")):
            parts.append(line[:wanted])
            self._pending = line[wanted:]
            wanted -= len(parts[-1])
        return "".join(parts)
