"""CSV import/export for user-supplied data sets.

The experiments in this repository run on the synthetic ADULT/CENSUS
generators, but a downstream user who has the real files (or any other
categorical table) can load them with :func:`read_csv`, naming which column is
the sensitive attribute.  Domains are inferred from the observed values.

Every writer of published rows renders them through one :class:`CsvCodec`
(:func:`csv_codec`), so all CSV outputs share the exact bytes of the stdlib
``csv`` writer.
"""

from __future__ import annotations

import csv
import functools
import io
from pathlib import Path
from collections.abc import Iterable, Iterator, Sequence
from typing import IO, cast

import numpy as np

from repro.dataset.schema import Attribute, Schema, SchemaError
from repro.dataset.table import Table

#: Records per column chunk when :func:`read_csv` decodes a source.
READ_CHUNK_ROWS = 32_768

#: Records a chunk source transposes at a time.  Row lists then die young:
#: holding a whole chunk of them makes the cyclic garbage collector walk
#: each one several times, about a third of the read on census-100k.
TRANSPOSE_ROWS = 256

#: Rows rendered per slice by :func:`write_csv`, so writing a large table
#: never builds its whole CSV text as one string.
WRITE_SLICE_ROWS = 65_536


def infer_schema(
    header: Sequence[str],
    rows: Iterable[Sequence[str]],
    sensitive: str,
    source: str = "csv data",
) -> tuple[Schema, list[list[str]]]:
    """Infer a :class:`Schema` from a header and string rows.

    Returns the schema and the materialised rows (so the caller can encode
    them without re-reading the source).  The sensitive column may appear at
    any position in the input; records are reordered so it comes last.
    ``source`` names the data's origin in error messages.

    Example:

    >>> schema, rows = infer_schema(["City", "Disease"], [["Oslo", "Flu"]], "Disease")
    >>> schema.public_names, schema.sensitive_name
    (('City',), 'Disease')
    >>> rows
    [['Oslo', 'Flu']]
    """
    header = [str(h) for h in header]
    picks = _column_picks(header, source, sensitive)
    materialised = [list(map(str, row)) for row in rows]
    for i, row in enumerate(materialised):
        if len(row) != len(header):
            raise SchemaError(
                f"{source}: row {i + 1} has {len(row)} fields but the header "
                f"has {len(header)}"
            )
    columns: list[list[str]] = [[] for _ in picks]
    _transpose_into(columns, materialised, picks)
    chunk = ColumnChunk(columns)
    encoder = ColumnEncoder([header[i] for i in picks[:-1]], sensitive)
    encoder.encode(chunk)
    return encoder.finalize(), chunk.rows()


def source_label(source: object) -> str:
    """A human-readable name for a CSV source, used in error messages.

    Paths name themselves; file-like objects are named by their ``name``
    attribute when they have one (open files do, ``io.StringIO`` does not).

    >>> source_label("data/adult.csv")
    'data/adult.csv'
    >>> import io
    >>> source_label(io.StringIO("City,Disease\\n"))
    'csv stream'
    """
    if hasattr(source, "read"):
        name = getattr(source, "name", None)
        return f"csv stream {name!r}" if isinstance(name, str) else "csv stream"
    return str(source)


class ColumnChunk:
    """A chunk of CSV records held as columns: the NA columns, then SA.

    ``columns[j]`` holds column ``j``'s value of every record, so
    ``len(columns)`` is the record width and ``len(chunk)`` the number of
    records.  This is what :class:`~repro.stream.reader.ChunkedReader`
    yields and what :class:`ColumnEncoder` encodes.

    >>> chunk = ColumnChunk([["Oslo", "Bergen"], ["Flu", "Cold"]])
    >>> len(chunk), chunk.rows()
    (2, [['Oslo', 'Flu'], ['Bergen', 'Cold']])
    """

    __slots__ = ("columns",)

    def __init__(self, columns: Sequence[Sequence[str]]) -> None:
        self.columns = tuple(columns)

    def __len__(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnChunk):
            return NotImplemented
        return self.columns == other.columns

    def __repr__(self) -> str:
        return f"ColumnChunk(rows={len(self)}, columns={len(self.columns)})"

    def rows(self) -> list[list[str]]:
        """The records as lists of values (NA values, then the SA value)."""
        return [list(row) for row in zip(*self.columns, strict=True)]


def _transpose_into(
    columns: list[list[str]], rows: Sequence[Sequence[str]], picks: Sequence[int]
) -> None:
    """Append equal-width ``rows`` to ``columns``, column ``picks[j]`` to ``columns[j]``."""
    if rows:
        transposed = tuple(zip(*rows, strict=True))
        for column, index in zip(columns, picks, strict=True):
            column.extend(transposed[index])


def remap_columns(block: np.ndarray, remaps: Sequence[np.ndarray]) -> np.ndarray:
    """Translate a codes block through per-column code tables (new array).

    The one provisional→final translation of :class:`ColumnEncoder`,
    :func:`read_csv` and the parallel
    :class:`~repro.parallel.kernels.UniformRowKernel` — kept single-sourced
    so the serial and worker paths cannot diverge byte-wise.
    """
    remapped = np.empty_like(block)
    for i, remap in enumerate(remaps):
        remapped[:, i] = remap[block[:, i]]
    return remapped


class ColumnEncoder:
    """Encode column chunks against one first-seen codebook per column.

    Each new value of a column gets the next provisional code when a chunk
    first shows it; a chunk is then encoded column by column, with no
    per-record Python step.  :meth:`finalize` infers the schema (sorted
    domains, sensitive column last) and the provisional→final code tables,
    so a result never depends on how the records were chunked.

    >>> encoder = ColumnEncoder(["City"], "Disease")
    >>> encoder.encode(ColumnChunk([["Oslo", "Bergen"], ["Flu", "Flu"]])).tolist()
    [[0, 0], [1, 0]]
    >>> schema = encoder.finalize()
    >>> schema.public[0].values, encoder.remap(np.array([[0, 0], [1, 0]])).tolist()
    (('Bergen', 'Oslo'), [[1, 0], [0, 0]])
    """

    def __init__(self, public_names: Sequence[str], sensitive: str) -> None:
        self._names = [str(name) for name in public_names] + [str(sensitive)]
        self._books: list[dict[str, int]] = [{} for _ in self._names]
        self._remaps: tuple[np.ndarray, ...] | None = None

    def encode(self, chunk: ColumnChunk) -> np.ndarray:
        """The chunk as a ``(len(chunk), width)`` int64 block of provisional codes."""
        width = len(self._books)
        if len(chunk.columns) != width:
            raise ValueError(f"record has {len(chunk.columns)} fields, expected {width}")
        n = len(chunk)
        block = np.empty((n, width), dtype=np.int64)
        for j, (book, column) in enumerate(zip(self._books, chunk.columns, strict=True)):
            try:
                block[:, j] = np.fromiter(map(book.__getitem__, column), np.int64, count=n)
            except KeyError:
                # The column shows values no earlier chunk did: code them in
                # first-seen order, then encode the column again.
                new = [value for value in dict.fromkeys(column) if value not in book]
                book.update(zip(new, range(len(book), len(book) + len(new)), strict=True))
                block[:, j] = np.fromiter(map(book.__getitem__, column), np.int64, count=n)
        return block

    @property
    def remaps(self) -> tuple[np.ndarray, ...]:
        """Per-column provisional→final code tables (requires :meth:`finalize`)."""
        if self._remaps is None:
            raise ValueError("remaps requires finalize() to have run")
        return self._remaps

    def remap(self, block: np.ndarray) -> np.ndarray:
        """Translate a provisional-coded block onto the finalized schema codes."""
        return remap_columns(block, self.remaps)

    def finalize(self) -> Schema:
        """The inferred schema: every column's sorted domain, sensitive last."""
        attributes: list[Attribute] = []
        remaps: list[np.ndarray] = []
        for name, book in zip(self._names, self._books, strict=True):
            values = sorted(book)
            remap = np.empty(len(values), dtype=np.int64)
            remap[[book[value] for value in values]] = np.arange(len(values))
            attributes.append(Attribute(name, tuple(values)))
            remaps.append(remap)
        self._remaps = tuple(remaps)
        return Schema(public=attributes[:-1], sensitive=attributes[-1])


def _strip_bom(header: list[str]) -> list[str]:
    """Remove a UTF-8 byte-order mark from the first header cell, if present."""
    if header and header[0].startswith('\ufeff'):
        header = [header[0].lstrip('\ufeff'), *header[1:]]
    return header


def _column_picks(header: list[str], source: str, sensitive: str) -> list[int]:
    """Validate a header; return its column indices in NA-then-SA order.

    The one header check of every reader: the sensitive column must be
    present and no column name may repeat.  Errors name ``source``.
    """
    if sensitive not in header:
        raise SchemaError(
            f"{source}: sensitive column {sensitive!r} not found in header {header}"
        )
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise SchemaError(
            f"{source}: header {header} repeats column name(s) {repeated}; "
            "every column needs its own name"
        )
    sensitive_index = header.index(sensitive)
    return [i for i in range(len(header)) if i != sensitive_index] + [sensitive_index]


def open_csv_chunks(
    handle: Iterable[str],
    source: str,
    sensitive: str,
    chunk_rows: int,
    delimiter: str = ",",
) -> tuple[list[str], Iterator[ColumnChunk]]:
    """Validate a CSV handle's header and return ``(header, chunk iterator)``.

    The single source of the tolerant-input contract shared by
    :func:`read_csv` and the streaming
    :class:`~repro.stream.reader.ChunkedReader`: the UTF-8 BOM is stripped
    from the header, blank lines are skipped, and every error \u2014 empty input,
    missing sensitive column, repeated column name, ragged row, header
    without data rows \u2014 names ``source`` (plus the line number for ragged
    rows).  The iterator yields :class:`ColumnChunk` s of ``chunk_rows``
    records (the last may be smaller), each transposed once with the
    sensitive column last, and raises
    :class:`~repro.dataset.schema.SchemaError` lazily as problems are
    reached, so callers can consume it chunk by chunk with bounded memory.

    >>> import io
    >>> header, chunks = open_csv_chunks(
    ...     io.StringIO("Disease,City\\nFlu,Oslo\\n"), "demo.csv", "Disease", 100)
    >>> header, [chunk.rows() for chunk in chunks]
    (['Disease', 'City'], [[['Oslo', 'Flu']]])
    """
    reader = csv.reader(handle, delimiter=delimiter)
    try:
        header = _strip_bom(next(reader))
    except StopIteration:
        raise SchemaError(f"{source} is empty") from None
    picks = _column_picks(header, source, sensitive)
    width = len(header)

    def chunks() -> Iterator[ColumnChunk]:
        columns: list[list[str]] = [[] for _ in picks]
        rows: list[list[str]] = []
        room = min(TRANSPOSE_ROWS, chunk_rows)
        yielded = False
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise SchemaError(
                    f"{source}, line {reader.line_num}: row has {len(row)} "
                    f"fields but the header has {width}"
                )
            rows.append(row)
            if len(rows) == room:
                _transpose_into(columns, rows, picks)
                rows = []
                if len(columns[0]) == chunk_rows:
                    yield ColumnChunk(columns)
                    columns = [[] for _ in picks]
                    yielded = True
                room = min(TRANSPOSE_ROWS, chunk_rows - len(columns[0]))
        _transpose_into(columns, rows, picks)
        if columns[0]:
            yield ColumnChunk(columns)
        elif not yielded:
            raise SchemaError(
                f"{source} has a header but no data rows; at least one record "
                "is required to infer the attribute domains"
            )

    return header, chunks()


def _read_csv_stream(
    handle: Iterable[str], source: str, sensitive: str, delimiter: str
) -> Table:
    header, chunks = open_csv_chunks(handle, source, sensitive, READ_CHUNK_ROWS, delimiter)
    encoder = ColumnEncoder([name for name in header if name != sensitive], sensitive)
    blocks = [encoder.encode(chunk) for chunk in chunks]
    schema = encoder.finalize()
    return Table(schema, encoder.remap(np.concatenate(blocks)))


def read_csv(source: str | Path | IO[str], sensitive: str, delimiter: str = ",") -> Table:
    """Load categorical CSV data (with header) into a :class:`Table`.

    Parameters
    ----------
    source:
        CSV file path, or an open text-mode file-like object (anything with a
        ``read`` method, e.g. an upload stream); file-like sources are read
        but not closed.
    sensitive:
        Name of the column to treat as the sensitive attribute SA.
    delimiter:
        Field delimiter (default comma).

    Raises
    ------
    SchemaError
        If the input is empty or contains a header but no data rows; the
        message names the source (path or stream) and, for malformed rows,
        the offending line number.

    Example:

    >>> import io
    >>> table = read_csv(io.StringIO("City,Disease\\nOslo,Flu\\nOslo,Cold\\n"),
    ...                  sensitive="Disease")
    >>> len(table), table.schema.sensitive_name
    (2, 'Disease')
    """
    if hasattr(source, "read"):
        return _read_csv_stream(source, source_label(source), sensitive, delimiter)
    path = Path(source)
    with path.open(newline="", encoding="utf-8-sig") as handle:
        return _read_csv_stream(handle, str(path), sensitive, delimiter)


def _quote_field(value: str, delimiter: str) -> str:
    """``value`` exactly as :func:`csv.writer` renders it inside a record.

    The value is rendered as the first field of a two-field record, so the
    writer's single-empty-field special case (a lone ``""`` is quoted) can
    never apply: a schema always has at least two columns.
    """
    buffer = io.StringIO()
    csv.writer(buffer, delimiter=delimiter).writerow((value, ""))
    return buffer.getvalue().removesuffix(delimiter + "\r\n")


#: Pad byte of the codec's fixed-width field tables.  UTF-8 never produces
#: it, so deleting every pad byte of a rendered block leaves exactly the
#: encoded fields.
_PAD = b"\xff"


class CsvCodec:
    """Render coded blocks to the UTF-8 bytes :func:`csv.writer` writes for them.

    Every domain value of every column is quoted once, by the stdlib writer
    itself, and stored with its trailing delimiter (``\\r\\n`` after the
    sensitive column) as one fixed-width field, padded with ``0xFF``.
    Encoding a block gathers each column's fields by the block's codes into
    one record array and deletes the pad bytes of its buffer: no per-row
    Python.  Build one through :func:`csv_codec`, which caches it per
    ``(schema, delimiter)``.

    >>> from repro.dataset.schema import Attribute, Schema
    >>> schema = Schema([Attribute("City", ("Oslo", "St. Paul, MN"))],
    ...                 Attribute("Disease", ("Flu", "Cold")))
    >>> codec = csv_codec(schema)
    >>> codec.header + codec.encode(np.array([[1, 0], [0, 1]]))
    b'City,Disease\\r\\n"St. Paul, MN",Flu\\r\\nOslo,Cold\\r\\n'
    """

    def __init__(self, schema: Schema, delimiter: str = ",") -> None:
        attributes = (*schema.public, schema.sensitive)
        self.delimiter = delimiter
        #: The UTF-8 header line every output starts with.
        self.header = (
            delimiter.join(_quote_field(attr.name, delimiter) for attr in attributes)
            + "\r\n"
        ).encode("utf-8")
        self._names = tuple(attr.name for attr in attributes)
        ends = [delimiter] * (len(attributes) - 1) + ["\r\n"]
        self._columns = tuple(
            _field_table(
                [(_quote_field(value, delimiter) + end).encode("utf-8") for value in attr.values]
            )
            for attr, end in zip(attributes, ends, strict=True)
        )
        self._fields = tuple(f"f{i}" for i in range(len(attributes)))
        self._record = np.dtype(
            [(field, values.dtype) for field, values in zip(self._fields, self._columns, strict=True)]
        )

    def encode(self, block: np.ndarray) -> bytes:
        """The UTF-8 CSV lines of a ``(rows, columns)`` codes block (``b""`` for no rows).

        Raises :class:`~repro.dataset.schema.SchemaError` for a block of the
        wrong width or a code outside its column's domain, as
        :meth:`~repro.dataset.schema.Schema.decode_record` does.
        """
        codes = np.asarray(block)
        if codes.shape[0] == 0:
            return b""
        if codes.ndim != 2 or codes.shape[1] != len(self._columns):
            raise SchemaError(
                f"record has {codes.shape[-1]} fields, expected {len(self._columns)}"
            )
        records = np.empty(codes.shape[0], dtype=self._record)
        for field, name, values, column in zip(
            self._fields, self._names, self._columns, codes.T, strict=True
        ):
            # Checked before the gather: a negative code would index from the end.
            low, high = int(column.min()), int(column.max())
            if low < 0 or high >= len(values):
                bad = low if low < 0 else high
                raise SchemaError(f"code {bad} out of range for attribute {name!r}")
            records[field] = values.take(column)
        return records.tobytes().translate(None, _PAD)


def _field_table(fields: Sequence[bytes]) -> np.ndarray:
    """``fields`` as one ``V{width}`` array, each padded to the widest with ``0xFF``."""
    width = max(map(len, fields))
    return np.frombuffer(b"".join(field.ljust(width, _PAD) for field in fields), dtype=f"V{width}")


@functools.lru_cache(maxsize=64)
def csv_codec(schema: Schema, delimiter: str = ",") -> CsvCodec:
    """The :class:`CsvCodec` of ``(schema, delimiter)``, built once and cached."""
    return CsvCodec(schema, delimiter)


def _csv_slices(table: Table, delimiter: str) -> Iterator[bytes]:
    """The UTF-8 header line, then the table's CSV lines one slice at a time."""
    codec = csv_codec(table.schema, delimiter)
    yield codec.header
    codes = table.codes
    for start in range(0, codes.shape[0], WRITE_SLICE_ROWS):
        yield codec.encode(codes[start:start + WRITE_SLICE_ROWS])


def write_csv(
    table: Table, destination: str | Path | IO[str] | IO[bytes], delimiter: str = ","
) -> None:
    """Write a table (public columns then the sensitive column) to CSV.

    Parameters
    ----------
    table:
        The table to serialise.
    destination:
        Output file path, or an open file-like object (anything with a
        ``write`` method, e.g. an HTTP response stream).  Binary streams
        (:class:`io.BufferedIOBase` or :class:`io.RawIOBase`) get the UTF-8
        bytes; any other stream gets text.  File-like destinations are
        written but not closed, symmetrically with :func:`read_csv`'s
        file-like sources.
    delimiter:
        Field delimiter (default comma).

    Example:

    >>> import io
    >>> table = read_csv(io.StringIO("City,Disease\\nOslo,Flu\\n"), sensitive="Disease")
    >>> out = io.StringIO()
    >>> write_csv(table, out)
    >>> out.getvalue().splitlines()
    ['City,Disease', 'Oslo,Flu']
    """
    if not hasattr(destination, "write"):
        # UTF-8 to mirror read_csv's utf-8-sig decoding, so round-trips work
        # on any locale; binary keeps the codec's \r\n untranslated.
        with Path(destination).open("wb") as handle:
            handle.writelines(_csv_slices(table, delimiter))
    elif isinstance(destination, (io.BufferedIOBase, io.RawIOBase)):
        cast("IO[bytes]", destination).writelines(_csv_slices(table, delimiter))
    else:
        text = cast("IO[str]", destination)
        for data in _csv_slices(table, delimiter):
            text.write(data.decode("utf-8"))
