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
from collections.abc import Iterable, Sequence
from typing import IO

import numpy as np

from repro.dataset.schema import Attribute, Schema, SchemaError
from repro.dataset.table import Table

#: Rows rendered per slice by :func:`write_csv`, so writing a large table
#: never builds its whole CSV text as one string.
WRITE_SLICE_ROWS = 65_536


def infer_schema(
    header: Sequence[str],
    rows: Iterable[Sequence[str]],
    sensitive: str,
    source: str = "csv data",
) -> tuple[Schema, list[Sequence[str]]]:
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
    if sensitive not in header:
        raise SchemaError(
            f"{source}: sensitive column {sensitive!r} not found in header {header}"
        )
    materialised = [list(map(str, row)) for row in rows]
    for i, row in enumerate(materialised):
        if len(row) != len(header):
            raise SchemaError(
                f"{source}: row {i + 1} has {len(row)} fields but the header "
                f"has {len(header)}"
            )

    sensitive_index = header.index(sensitive)
    public_names = [h for i, h in enumerate(header) if i != sensitive_index]
    public_indices = [i for i in range(len(header)) if i != sensitive_index]
    reordered = [
        [row[i] for i in public_indices] + [row[sensitive_index]] for row in materialised
    ]
    return _schema_from_reordered(public_names, sensitive, reordered), reordered


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


def _strip_bom(header: list[str]) -> list[str]:
    """Remove a UTF-8 byte-order mark from the first header cell, if present."""
    if header and header[0].startswith('\ufeff'):
        header = [header[0].lstrip('\ufeff'), *header[1:]]
    return header


def open_csv_rows(
    handle: Iterable[str], source: str, sensitive: str, delimiter: str = ","
) -> tuple[list[str], Iterable[list[str]]]:
    """Validate a CSV handle's header and return ``(header, row iterator)``.

    The single source of the tolerant-input contract shared by
    :func:`read_csv` and the streaming
    :class:`~repro.stream.reader.ChunkedReader`: the UTF-8 BOM is stripped
    from the header, blank lines are skipped, and every error \u2014 empty input,
    missing sensitive column, ragged row, header without data rows \u2014 names
    ``source`` (plus the line number for ragged rows).  The iterator yields
    rows reordered so the sensitive column comes last, and raises
    :class:`~repro.dataset.schema.SchemaError` lazily as problems are
    reached, so callers can consume it chunk by chunk with bounded memory.

    >>> import io
    >>> header, rows = open_csv_rows(
    ...     io.StringIO("Disease,City\\nFlu,Oslo\\n"), "demo.csv", "Disease")
    >>> header, list(rows)
    (['Disease', 'City'], [['Oslo', 'Flu']])
    """
    reader = csv.reader(handle, delimiter=delimiter)
    try:
        header = _strip_bom(next(reader))
    except StopIteration:
        raise SchemaError(f"{source} is empty") from None
    if sensitive not in header:
        raise SchemaError(
            f"{source}: sensitive column {sensitive!r} not found in header {header}"
        )
    sensitive_index = header.index(sensitive)
    public_indices = [i for i in range(len(header)) if i != sensitive_index]
    width = len(header)

    def rows() -> Iterable[list[str]]:
        yielded = 0
        for row in reader:
            if not row:
                continue
            if len(row) != width:
                raise SchemaError(
                    f"{source}, line {reader.line_num}: row has {len(row)} "
                    f"fields but the header has {width}"
                )
            yielded += 1
            yield [row[i] for i in public_indices] + [row[sensitive_index]]
        if yielded == 0:
            raise SchemaError(
                f"{source} has a header but no data rows; at least one record "
                "is required to infer the attribute domains"
            )

    return header, rows()


def _schema_from_reordered(
    public_names: Sequence[str], sensitive: str, rows: Iterable[Sequence[str]]
) -> Schema:
    """Infer the schema from rows already validated and reordered SA-last.

    Produces exactly the schema :func:`infer_schema` infers (sorted domains)
    without re-validating or re-copying rows :func:`open_csv_rows` already
    checked — one pass collecting domain values per column.
    """
    seen: list[set[str]] = [set() for _ in range(len(public_names) + 1)]
    for row in rows:
        for column, value in enumerate(row):
            seen[column].add(value)
    return Schema(
        public=tuple(
            Attribute(name, tuple(sorted(seen[i]))) for i, name in enumerate(public_names)
        ),
        sensitive=Attribute(sensitive, tuple(sorted(seen[-1]))),
    )


def _read_csv_stream(
    handle: Iterable[str], source: str, sensitive: str, delimiter: str
) -> Table:
    header, row_iter = open_csv_rows(handle, source, sensitive, delimiter)
    rows = list(row_iter)
    sensitive_index = header.index(sensitive)
    public_names = [h for i, h in enumerate(header) if i != sensitive_index]
    schema = _schema_from_reordered(public_names, sensitive, rows)
    return Table.from_records(schema, rows)


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


class CsvCodec:
    """Render coded blocks to the exact text :func:`csv.writer` writes for them.

    Every domain value of every column is quoted once, by the stdlib writer
    itself.  Encoding a block then indexes each column's quoted values with
    the block's codes and joins them column-wise: no per-row decode.  Build
    one through :func:`csv_codec`, which caches it per ``(schema, delimiter)``.

    >>> from repro.dataset.schema import Attribute, Schema
    >>> schema = Schema([Attribute("City", ("Oslo", "St. Paul, MN"))],
    ...                 Attribute("Disease", ("Flu", "Cold")))
    >>> codec = csv_codec(schema)
    >>> codec.header + codec.encode(np.array([[1, 0], [0, 1]]))
    'City,Disease\\r\\n"St. Paul, MN",Flu\\r\\nOslo,Cold\\r\\n'
    """

    def __init__(self, schema: Schema, delimiter: str = ",") -> None:
        attributes = (*schema.public, schema.sensitive)
        self.delimiter = delimiter
        self.header = (
            delimiter.join(_quote_field(attr.name, delimiter) for attr in attributes)
            + "\r\n"
        )
        self._names = tuple(attr.name for attr in attributes)
        self._columns = tuple(
            np.array([_quote_field(value, delimiter) for value in attr.values], dtype=object)
            for attr in attributes
        )

    def encode(self, block: np.ndarray) -> str:
        """The CSV lines of a ``(rows, columns)`` codes block (``""`` for no rows).

        Raises :class:`~repro.dataset.schema.SchemaError` for a block of the
        wrong width or a code outside its column's domain, as
        :meth:`~repro.dataset.schema.Schema.decode_record` does.
        """
        codes = np.asarray(block)
        if codes.shape[0] == 0:
            return ""
        if codes.ndim != 2 or codes.shape[1] != len(self._columns):
            raise SchemaError(
                f"record has {codes.shape[-1]} fields, expected {len(self._columns)}"
            )
        columns: list[list[str]] = []
        for name, values, column in zip(self._names, self._columns, codes.T, strict=True):
            low, high = int(column.min()), int(column.max())
            if low < 0 or high >= len(values):
                bad = low if low < 0 else high
                raise SchemaError(f"code {bad} out of range for attribute {name!r}")
            columns.append(values[column].tolist())
        return "\r\n".join(map(self.delimiter.join, zip(*columns, strict=True))) + "\r\n"


@functools.lru_cache(maxsize=64)
def csv_codec(schema: Schema, delimiter: str = ",") -> CsvCodec:
    """The :class:`CsvCodec` of ``(schema, delimiter)``, built once and cached."""
    return CsvCodec(schema, delimiter)


def _write_csv_stream(table: Table, handle: IO[str], delimiter: str) -> None:
    codec = csv_codec(table.schema, delimiter)
    handle.write(codec.header)
    codes = table.codes
    for start in range(0, codes.shape[0], WRITE_SLICE_ROWS):
        handle.write(codec.encode(codes[start:start + WRITE_SLICE_ROWS]))


def write_csv(table: Table, destination: str | Path | IO[str], delimiter: str = ",") -> None:
    """Write a table (public columns then the sensitive column) to CSV.

    Parameters
    ----------
    table:
        The table to serialise.
    destination:
        Output file path, or an open text-mode file-like object (anything
        with a ``write`` method, e.g. an HTTP response stream); file-like
        destinations are written but not closed, symmetrically with
        :func:`read_csv`'s file-like sources.
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
    if hasattr(destination, "write"):
        _write_csv_stream(table, destination, delimiter)
        return
    path = Path(destination)
    # UTF-8 to mirror read_csv's utf-8-sig decoding, so round-trips work on
    # any locale.
    with path.open("w", newline="", encoding="utf-8") as handle:
        _write_csv_stream(table, handle, delimiter)
