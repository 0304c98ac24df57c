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
import itertools
from pathlib import Path
from collections.abc import Iterable, Iterator, Sequence
from typing import IO, cast

import numpy as np

from repro.dataset.schema import Attribute, Schema, SchemaError
from repro.dataset.table import Table, check_domains

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
    yields and what :class:`ColumnEncoder` encodes.  A chunk the byte-level
    reader decoded carries its raw field bytes instead: the encoder codes
    those directly, and ``columns`` decodes the strings only when asked.

    >>> chunk = ColumnChunk([["Oslo", "Bergen"], ["Flu", "Cold"]])
    >>> len(chunk), chunk.rows()
    (2, [['Oslo', 'Flu'], ['Bergen', 'Cold']])
    """

    __slots__ = ("_columns", "_spans")

    def __init__(self, columns: Sequence[Sequence[str]]) -> None:
        self._columns: tuple[Sequence[str], ...] | None = tuple(columns)
        self._spans: _FieldSpans | None = None

    @classmethod
    def _of_spans(cls, spans: "_FieldSpans") -> "ColumnChunk":
        chunk = cls.__new__(cls)
        chunk._columns = None
        chunk._spans = spans
        return chunk

    @property
    def columns(self) -> tuple[Sequence[str], ...]:
        """The values, one sequence of strings per column (NA columns, then SA)."""
        if self._columns is None:
            assert self._spans is not None
            self._columns = tuple(self._spans.column(j) for j in range(self._spans.width))
        return self._columns

    def __len__(self) -> int:
        if self._spans is not None:
            return self._spans.n_rows
        return len(self.columns[0]) if self.columns else 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnChunk):
            return NotImplemented
        return self.columns == other.columns

    def __repr__(self) -> str:
        width = len(self.columns) if self._spans is None else self._spans.width
        return f"ColumnChunk(rows={len(self)}, columns={width})"

    def rows(self) -> list[list[str]]:
        """The records as lists of values (NA values, then the SA value)."""
        return [list(row) for row in zip(*self.columns, strict=True)]


#: ``_WORD_MASKS[k]`` keeps the low ``k`` bytes of a little-endian word.
_WORD_MASKS = np.array(
    [(1 << (8 * k)) - 1 for k in range(8)] + [(1 << 64) - 1], dtype=np.uint64
)


class _FieldSpans:
    """The raw UTF-8 fields of a chunk of unquoted CSV lines, column by column.

    ``data`` is the chunk's bytes plus eight zero bytes; ``starts[j]`` and
    ``lengths[j]`` locate column ``j``'s field in every record.  A field's
    key is its bytes loaded as little-endian 64-bit words and masked to its
    length.  The reader only builds spans over text without NUL bytes, so
    the zero padding cannot make two different fields share a key.
    """

    __slots__ = ("data", "starts", "lengths")

    def __init__(self, data: bytes, starts: np.ndarray, lengths: np.ndarray) -> None:
        self.data = data
        self.starts = starts
        self.lengths = lengths

    @property
    def width(self) -> int:
        return self.starts.shape[0]

    @property
    def n_rows(self) -> int:
        return self.starts.shape[1]

    def keys(self, j: int) -> np.ndarray:
        """Column ``j``'s field keys: ``uint64``, or ``V{8k}`` for fields over 8 bytes."""
        starts, lengths = self.starts[j], self.lengths[j]
        # Every 8-byte window of the data: an unaligned load at any offset.
        windows = np.ndarray((len(self.data) - 7,), dtype="<u8", buffer=self.data, strides=(1,))
        n_words = max(1, -(-int(lengths.max(initial=0)) // 8))
        if n_words == 1:
            return windows[starts] & _WORD_MASKS[np.minimum(lengths, 8)]
        words = np.empty((len(starts), n_words), dtype=np.uint64)
        last = len(windows) - 1
        for w in range(n_words):
            # Words past a short field are masked to zero; clip their loads in range.
            at = np.minimum(starts + 8 * w, last)
            words[:, w] = windows[at] & _WORD_MASKS[np.clip(lengths - 8 * w, 0, 8)]
        return words.view(f"V{8 * n_words}").ravel()

    def texts(self, j: int, rows: np.ndarray) -> list[str]:
        """Column ``j``'s values in records ``rows``, decoded in one pass.

        The fields are gathered into one buffer, NUL-separated (no field
        holds a NUL), which is decoded once and split.  Each field is valid
        UTF-8 on its own because the delimiters and line ends around it are
        ASCII.
        """
        if len(rows) == 0:
            return []
        lengths = self.lengths[j, rows]
        sizes = lengths + 1
        ends = np.cumsum(sizes)
        # Buffer position p of field i reads data[starts[i] + p - offset[i]];
        # the byte after each field becomes the separator.
        source = np.arange(int(ends[-1])) + np.repeat(
            self.starts[j, rows] - (ends - sizes), sizes
        )
        joined = np.frombuffer(self.data, dtype=np.uint8)[source]
        joined[ends - 1] = 0
        return joined[:-1].tobytes().decode("utf-8").split("\0")

    def column(self, j: int) -> list[str]:
        """Column ``j``'s values as strings, each distinct field decoded once."""
        _, first, inverse = np.unique(self.keys(j), return_index=True, return_inverse=True)
        values = np.array(self.texts(j, first), dtype=object)
        return values[inverse].tolist()


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
        # Per column and key dtype: a sorted key table and the codes its keys
        # have in the book -- a cache of the book for byte-level chunks.
        self._tables: list[dict[np.dtype, tuple[np.ndarray, np.ndarray]]] = [
            {} for _ in self._names
        ]
        self._remaps: tuple[np.ndarray, ...] | None = None

    def encode(self, chunk: ColumnChunk) -> np.ndarray:
        """The chunk as a ``(len(chunk), width)`` int64 block of provisional codes."""
        width = len(self._books)
        spans = chunk._spans
        n_fields = len(chunk.columns) if spans is None else spans.width
        if n_fields != width:
            raise ValueError(f"record has {n_fields} fields, expected {width}")
        n = len(chunk)
        block = np.empty((n, width), dtype=np.int64)
        if spans is not None:
            for j in range(width):
                block[:, j] = self._encode_keys(j, spans)
            return block
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

    def _encode_keys(self, j: int, spans: "_FieldSpans") -> np.ndarray:
        """Column ``j`` of a byte-level chunk: its keys looked up in the key table.

        Only keys the table misses are decoded, in first-seen order, and
        looked up in (or added to) the book, so the codes are exactly those
        the string path gives the same values.
        """
        keys = spans.keys(j)
        table = self._tables[j].get(keys.dtype)
        if table is not None:
            known, codes = table
            at = np.minimum(np.searchsorted(known, keys), len(known) - 1)
            hit = known[at] == keys
            if hit.all():
                return codes[at]
            missed = np.flatnonzero(~hit)
        else:
            known, codes = keys[:0], np.empty(0, dtype=np.int64)
            missed = np.arange(len(keys))
        new_keys, first = np.unique(keys[missed], return_index=True)
        rows = missed[first]
        seen = np.argsort(rows)
        values = spans.texts(j, rows[seen])
        book = self._books[j]
        # A value may be in the book under a key of another dtype already.
        new = list(itertools.filterfalse(book.__contains__, values))
        book.update(zip(new, range(len(book), len(book) + len(new)), strict=True))
        new_codes = np.empty(len(new_keys), dtype=np.int64)
        new_codes[seen] = np.fromiter(map(book.__getitem__, values), np.int64, count=len(values))
        # ``new_keys`` come sorted: merge them in, with no sort of the whole table.
        at = np.searchsorted(known, new_keys)
        known, codes = np.insert(known, at, new_keys), np.insert(codes, at, new_codes)
        self._tables[j][keys.dtype] = (known, codes)
        return codes[np.searchsorted(known, keys)]

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


#: Bytes a binary CSV source is read in at a time.
READ_BLOCK_BYTES = 1 << 20

#: Bytes of whole lines the csv parser is handed at a time, until a chunk
#: the split declines sets the block size to that chunk's.
PARSE_BLOCK_BYTES = 1 << 16

_BOM = b"\xef\xbb\xbf"


def _is_binary(handle: object) -> bool:
    """Whether a file-like CSV source yields bytes (as :func:`write_csv` decides)."""
    return isinstance(handle, (io.BufferedIOBase, io.RawIOBase))


class _ByteLines:
    """A binary UTF-8 CSV source, read as whole chunks of lines or through ``reader``.

    :meth:`take_spans` consumes the next chunk of lines at once, when it
    can split them without the csv parser.  ``reader`` is a
    :func:`csv.reader` over the rest of the source, decoded one block of
    whole lines at a time and split into the lines a ``newline=""`` text
    file of the same bytes yields (ended by ``\\n``, ``\\r\\n`` or a lone
    ``\\r``), so the parser reads them as it reads an opened file, with no
    per-line Python.  The lines it leaves of a block go back to the byte
    buffer before the next :meth:`take_spans`.  ``line_num`` counts the
    physical lines either consumed.  A leading byte-order mark is skipped,
    as the ``utf-8-sig`` codec does.
    """

    def __init__(self, handle: IO[bytes], source: str, delimiter: str) -> None:
        self._handle = handle
        self._source = source
        self.reader = csv.reader(itertools.chain.from_iterable(self._texts()), delimiter=delimiter)
        self._buf = b""
        self._pos = 0
        #: Offsets of every ``\n`` in ``_buf``.
        self._newlines = np.empty(0, dtype=np.int64)
        self._eof = False
        #: The lines of the block ``reader`` is parsing not yet parsed, and
        #: where the block ends in ``_buf``.
        self._lines: Iterator[str] | None = None
        self._lines_end = 0
        self._block_bytes = PARSE_BLOCK_BYTES
        #: Lines :meth:`take_spans` consumed.
        self._split_lines = 0
        self._fill(len(_BOM))
        if self._buf.startswith(_BOM):
            self._pos = len(_BOM)

    @property
    def line_num(self) -> int:
        """Physical lines consumed so far, split or parsed."""
        return self._split_lines + self.reader.line_num

    def _read(self) -> tuple[bytes, np.ndarray]:
        """The source's next block and the offsets of its ``\\n`` bytes (empty at the end)."""
        block = self._handle.read(READ_BLOCK_BYTES)
        self._eof = not block
        return block, np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == 10)

    def _fill(self, size: int) -> None:
        """Read until ``size`` bytes follow the read position, or to the source's end."""
        have = len(self._buf) - self._pos
        blocks: list[tuple[bytes, np.ndarray]] = []
        while have < size and not self._eof:
            blocks.append(self._read())
            have += len(blocks[-1][0])
        self._append(blocks)

    def _append(self, blocks: list[tuple[bytes, np.ndarray]]) -> None:
        """Join read blocks onto the buffer's unread rest in one copy, dropping its consumed prefix."""
        if not blocks:
            return
        kept = memoryview(self._buf)[self._pos:]
        newlines = [self._newlines[np.searchsorted(self._newlines, self._pos):] - self._pos]
        offset = len(kept)
        for block, found in blocks:
            newlines.append(found + offset)
            offset += len(block)
        self._buf = b"".join([kept, *(block for block, _ in blocks)])
        self._pos = 0
        self._newlines = np.concatenate(newlines)

    def _texts(self) -> Iterator[Iterator[str]]:
        """The source from the read position on, as blocks of decoded whole lines.

        Each block starts wherever the read position is when the previous
        one is used up, so lines :meth:`take_spans` consumed in between are
        never parsed.  Invalid UTF-8 raises :class:`UnicodeDecodeError`
        once every line before it has been parsed, naming the source and
        the line.
        """
        while True:
            self._lines = None
            cut = self._block_cut()
            if cut == self._pos:
                return
            data = self._buf[self._pos:cut]
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                bad = max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start)) + 1
                if not bad:
                    raise self._located(exc) from None
                cut, data = self._pos + bad, data[:bad]
                text = data.decode("utf-8")
            lines = text.splitlines(keepends=True)
            if len(lines) != self._count_lines(self._pos, cut):
                # The text holds a line break of str's own (\v, \f, \x1c-\x1e,
                # \x85, \u2028 or \u2029): split the bytes instead.
                lines = list(map(bytes.decode, data.splitlines(keepends=True)))
            self._lines = iter(lines)
            self._lines_end = self._pos = cut
            yield self._lines

    def _count_lines(self, start: int, end: int) -> int:
        """How many lines :meth:`bytes.splitlines` finds in ``_buf[start:end]``.

        The span starts a line and ends one, or ends the source.
        """
        view = np.frombuffer(self._buf, dtype=np.uint8, count=end - start, offset=start)
        first, last = np.searchsorted(self._newlines, (start, end))
        newlines = self._newlines[first:last] - start
        crlfs = np.count_nonzero(view[newlines[newlines > 0] - 1] == 13)
        return len(newlines) + int(np.count_nonzero(view == 13)) - crlfs + (view[-1] not in (10, 13))

    def _block_cut(self) -> int:
        """The end of the next block of lines: its last line end within the block size.

        A line longer than the block size widens the block; a block at the
        source's end takes everything left.
        """
        size = self._block_bytes
        while True:
            self._fill(size)
            end = min(len(self._buf), self._pos + size)
            newline = self._buf.rfind(b"\n", self._pos, end)
            if newline >= 0:
                return newline + 1
            # With no LF in the span, a CR followed by a byte of it is a lone CR.
            cr = self._buf.rfind(b"\r", self._pos, end - 1)
            if cr >= 0:
                return cr + 1
            if end == len(self._buf) and self._eof:
                return end
            size *= 2

    def _located(self, exc: UnicodeDecodeError) -> UnicodeDecodeError:
        """``exc``, raised in a block's first line, on that line and naming where it is."""
        data = exc.object
        newline = data.find(b"\n")
        cr = data.find(b"\r", 0, len(data) if newline < 0 else newline)
        if cr >= 0 and cr + 1 != newline:
            end = cr + 1
        else:
            end = len(data) if newline < 0 else newline + 1
        return UnicodeDecodeError(
            exc.encoding, data[:end], exc.start, exc.end,
            f"{exc.reason} ({self._source}, line {self.line_num + 1})",
        )

    def _reclaim(self) -> None:
        """Give the lines ``reader`` left of its block back to the byte buffer."""
        if self._lines is not None:
            self._pos = self._lines_end - len("".join(self._lines).encode("utf-8"))
            self._lines = None

    def take_spans(self, n_lines: int, width: int, delimiter: int) -> "_FieldSpans | None":
        """Consume the next ``n_lines`` lines as field spans, or decline (``None``).

        Declines, consuming nothing, at the end of the source and whenever
        :func:`_split_lines` does; ``reader`` then parses the lines in
        blocks of the declined chunk's size.  A block read without a
        ``\\n`` (lines ending in lone CRs, or one line longer than a
        block) declines too, so such a source is never read whole.
        """
        self._reclaim()
        first = int(np.searchsorted(self._newlines, self._pos))
        have = len(self._newlines) - first
        blocks: list[tuple[bytes, np.ndarray]] = []
        while have < n_lines and not self._eof:
            blocks.append(self._read())
            block, found = blocks[-1]
            have += len(found)
            if block and not len(found):
                break
        self._append(blocks)
        first = int(np.searchsorted(self._newlines, self._pos))
        ends = self._newlines[first:first + n_lines]
        stop = int(ends[-1]) + 1 if len(ends) == n_lines else len(self._buf)
        self._block_bytes = max(stop - self._pos, 1)
        if stop == self._pos or (len(ends) < n_lines and not self._eof):
            return None
        spans = _split_lines(self._buf[self._pos:stop], ends - self._pos, width, delimiter)
        if spans is not None:
            self._pos = stop
            self._split_lines += spans.n_rows
        return spans


def _fast_delimiter(delimiter: str) -> int | None:
    """The byte :func:`_split_lines` splits on for ``delimiter``, or ``None`` if it cannot."""
    if len(delimiter) == 1 and delimiter.isascii() and delimiter not in '"\r\n\0':
        return ord(delimiter)
    return None


def _split_lines(
    data: bytes, newlines: np.ndarray, width: int, delimiter: int
) -> _FieldSpans | None:
    """The field spans of whole CSV lines, or ``None`` where the csv parser is needed.

    ``newlines`` are the offsets of every ``\\n`` in ``data``; a last line
    may end without one.  Splitting on the delimiter gives what
    :func:`csv.reader` gives only for lines of valid UTF-8 with no quote, no
    NUL byte, no lone CR, no blank line, no field over the csv field size
    limit and exactly ``width - 1`` delimiters each.  Anything else
    declines, and the caller parses those lines with :func:`csv.reader`,
    which then raises the error, or skips the blank line, as it always has.
    """
    if b'"' in data or b"\0" in data:
        return None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    size = len(data)
    ends = newlines if data.endswith(b"\n") else np.append(newlines, size)
    if ends[0] == 0:
        return None  # a blank first line
    view = np.frombuffer(data, dtype=np.uint8)
    content_ends = ends.copy()
    crs = data.count(b"\r")
    if crs:
        crlf = view[newlines - 1] == 13
        if int(np.count_nonzero(crlf)) != crs:
            return None  # a lone CR
        content_ends[: len(newlines)] -= crlf
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    if np.any(content_ends == starts):
        return None  # a blank line
    n = len(ends)
    delimiters = np.flatnonzero(view == delimiter)
    if len(delimiters) != n * (width - 1):
        return None
    field_starts = np.empty((width, n), dtype=np.int64)
    field_ends = np.empty((width, n), dtype=np.int64)
    field_starts[0] = starts
    field_ends[-1] = content_ends
    if width > 1:
        inner = delimiters.reshape(n, width - 1)
        # With n * (width - 1) delimiters in all, each line holds exactly
        # width - 1 of them iff every row of ``inner`` lies inside its line.
        if np.any(inner[:, 0] < starts) or np.any(inner[:, -1] >= content_ends):
            return None
        field_starts[1:] = inner.T + 1
        field_ends[:-1] = inner.T
    lengths = field_ends - field_starts
    if int(lengths.max()) > csv.field_size_limit():
        return None
    return _FieldSpans(data + bytes(8), field_starts, lengths)


def open_csv_chunks(
    handle: Iterable[str] | IO[bytes],
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

    ``handle`` is a text stream (anything yielding lines) or a binary one
    (:class:`io.BufferedIOBase` or :class:`io.RawIOBase`) of UTF-8 bytes.
    A text stream is parsed by :func:`csv.reader`.  A binary stream is read
    a chunk at a time, and a chunk of plain lines is split with array
    operations into field spans, with no per-row Python; a chunk holding a
    quote, a NUL byte, a lone CR, a blank line, a ragged row or invalid
    UTF-8 goes whole to the same :func:`csv.reader`, which keeps every
    error and line number.  Either way the chunks hold the same records.

    >>> import io
    >>> header, chunks = open_csv_chunks(
    ...     io.StringIO("Disease,City\\nFlu,Oslo\\n"), "demo.csv", "Disease", 100)
    >>> header, [chunk.rows() for chunk in chunks]
    (['Disease', 'City'], [[['Oslo', 'Flu']]])
    """
    lines: _ByteLines | None = None
    if _is_binary(handle):
        lines = _ByteLines(cast("IO[bytes]", handle), source, delimiter)
        reader = lines.reader
    else:
        reader = csv.reader(cast("Iterable[str]", handle), delimiter=delimiter)
    try:
        header = _strip_bom(next(reader))
    except StopIteration:
        raise SchemaError(f"{source} is empty") from None
    picks = _column_picks(header, source, sensitive)
    width = len(header)
    fast = None if lines is None else _fast_delimiter(delimiter)

    def line_num() -> int:
        return reader.line_num if lines is None else lines.line_num

    def parsed_chunk() -> ColumnChunk | None:
        """The next ``chunk_rows`` records through :func:`csv.reader` (``None`` at the end)."""
        columns: list[list[str]] = [[] for _ in picks]
        rows: list[list[str]] = []
        room = min(TRANSPOSE_ROWS, chunk_rows)
        for row in reader:
            if len(row) != width:
                if not row:
                    continue
                raise SchemaError(
                    f"{source}, line {line_num()}: row has {len(row)} "
                    f"fields but the header has {width}"
                )
            rows.append(row)
            if len(rows) == room:
                _transpose_into(columns, rows, picks)
                rows = []
                if len(columns[0]) == chunk_rows:
                    break
                room = min(TRANSPOSE_ROWS, chunk_rows - len(columns[0]))
        _transpose_into(columns, rows, picks)
        return ColumnChunk(columns) if columns[0] else None

    def split_chunk() -> ColumnChunk | None:
        """The next ``chunk_rows`` lines split without the parser, or ``None``."""
        if lines is None or fast is None:
            return None
        spans = lines.take_spans(chunk_rows, width, fast)
        if spans is None:
            return None
        spans.starts, spans.lengths = spans.starts[picks], spans.lengths[picks]
        return ColumnChunk._of_spans(spans)

    def chunks() -> Iterator[ColumnChunk]:
        yielded = False
        while True:
            chunk = split_chunk()
            if chunk is None:
                chunk = parsed_chunk()
            if chunk is None:
                break
            yielded = True
            yield chunk
        if not yielded:
            raise SchemaError(
                f"{source} has a header but no data rows; at least one record "
                "is required to infer the attribute domains"
            )

    return header, chunks()


def _read_csv_stream(
    handle: Iterable[str] | IO[bytes], source: str, sensitive: str, delimiter: str
) -> Table:
    header, chunks = open_csv_chunks(handle, source, sensitive, READ_CHUNK_ROWS, delimiter)
    encoder = ColumnEncoder([name for name in header if name != sensitive], sensitive)
    blocks = [encoder.encode(chunk) for chunk in chunks]
    schema = encoder.finalize()
    return Table(schema, encoder.remap(np.concatenate(blocks)))


def read_csv(
    source: str | Path | IO[str] | IO[bytes], sensitive: str, delimiter: str = ","
) -> Table:
    """Load categorical CSV data (with header) into a :class:`Table`.

    Parameters
    ----------
    source:
        CSV file path, or an open file-like object (anything with a ``read``
        method, e.g. an upload stream); file-like sources are read but not
        closed.  Paths and binary streams (:class:`io.BufferedIOBase` or
        :class:`io.RawIOBase`) are read as UTF-8 bytes, which lets
        :func:`open_csv_chunks` split plain lines without the csv parser;
        a text stream is parsed line by line.
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
    with path.open("rb") as handle:
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
    Python, and no step that holds the interpreter lock for long, so
    threads can encode blocks side by side.  Build one through
    :func:`csv_codec`, which caches it per ``(schema, delimiter)``.

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
        self._schema = schema
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
        # Checked before the gather: a negative code would index from the end.
        check_domains(self._schema, codes)
        records = np.empty(codes.shape[0], dtype=self._record)
        for field, values, column in zip(self._fields, self._columns, codes.T, strict=True):
            records[field] = values.take(column)
        # A mask compress, unlike bytes.translate, releases the interpreter lock.
        raw = records.view(np.uint8)
        return raw[raw != _PAD[0]].tobytes()


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
    elif _is_binary(destination):
        cast("IO[bytes]", destination).writelines(_csv_slices(table, delimiter))
    else:
        text = cast("IO[str]", destination)
        for data in _csv_slices(table, delimiter):
            text.write(data.decode("utf-8"))
