"""The byte-level CSV decode against the ``csv.reader`` path it sits on.

Paths and binary streams are read a chunk at a time: a chunk of plain lines
is split into field spans with array operations, and any other chunk goes
whole to ``csv.reader``.  Two references check it:

* the same bytes with the split switched off, so every chunk is parsed by
  ``csv.reader`` (equal chunks, tables and errors, messages included);
* for valid UTF-8, the text stream a ``newline=""``, ``utf-8-sig`` file of
  the same bytes gives, which never had a byte path (equal chunks, tables
  and errors).

Profiles follow ``tests/test_csv_codec.py``, under names of their own: the
properties run 200 derandomized examples by default and 2000 with ``CI``
set.
"""

import contextlib
import csv
import io
import itertools
import os
import re
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.dataset import loaders  # noqa: E402
from repro.dataset.census import generate_census  # noqa: E402
from repro.dataset.loaders import read_csv, write_csv  # noqa: E402
from repro.dataset.schema import SchemaError  # noqa: E402
from repro.stream.index import IncrementalGroupIndex  # noqa: E402
from repro.stream.reader import ChunkedReader  # noqa: E402

settings.register_profile(
    "csv-decode-ci", derandomize=True, max_examples=2000, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "csv-decode", derandomize=True, max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
decode_profile = settings.get_profile("csv-decode-ci" if os.environ.get("CI") else "csv-decode")

DELIMITERS = [",", ";", "\t", "|"]

# Values the split must keep apart or hand to csv.reader: empty, one byte,
# exactly 8 and over 8 and 16 bytes, U+00FF, a 4-byte emoji, a quote, a NUL,
# and characters str.splitlines breaks at but a CSV line does not.
_VALUES = [
    "", "a", "b", "ab", "12345678", "123456789", "x" * 17, "ÿ", "ÿÿÿÿÿ", "🙂",
    "a🙂b" * 3, " a ", "a\0", '"q"', 'a"b', "é" * 9, "v\x0bw", "\x1e", "x\u2028y",
    "\x85",
]
_PLAIN = ["", "a", "b", "ab", "12345678", "123456789", "x" * 17, "ÿ", "🙂"]


@st.composite
def csv_files(draw):
    """A CSV file's bytes, its delimiter, sensitive column and a chunk size."""
    delimiter = draw(st.sampled_from(DELIMITERS))
    width = draw(st.integers(1, 4))
    header = [f"c{i}" for i in range(width)]
    sensitive = draw(st.sampled_from(header))
    n = draw(st.integers(1, 12))
    plain = draw(st.booleans())
    values = st.sampled_from(_PLAIN if plain else _VALUES)
    lines = []
    for _ in range(n):
        row = draw(st.lists(values, min_size=width, max_size=width))
        kind = draw(st.sampled_from(
            ["raw"] * 6 + ([] if plain else ["quoted", "ragged", "blank", "bad-utf8"])
        ))
        if kind == "quoted":
            out = io.StringIO()
            csv.writer(out, delimiter=delimiter, lineterminator="").writerow(row)
            line = out.getvalue().encode("utf-8")
        elif kind == "ragged":
            line = delimiter.join(row + ["z"]).encode("utf-8")
        elif kind == "blank":
            line = b""
        elif kind == "bad-utf8":
            line = delimiter.join(row).encode("utf-8") + b"\xff"
        else:
            line = delimiter.join(row).encode("utf-8")
        lines.append(line)
    endings = [b"\r\n", b"\n"] + ([] if plain else [b"\r"])
    body = delimiter.join(header).encode("utf-8") + draw(st.sampled_from(endings[:2]))
    for i, line in enumerate(lines):
        last = i == len(lines) - 1
        ending = draw(st.sampled_from(endings + [b""] if last else endings))
        body += line + ending
    if draw(st.booleans()):
        body = b"\xef\xbb\xbf" + body
    chunk_rows = draw(st.sampled_from(sorted({1, 2, max(1, n - 1), n})))
    block_bytes = draw(st.sampled_from([None, 1, 3, 16]))
    return body, delimiter, sensitive, chunk_rows, block_bytes


def outcome(read):
    """``("ok", result)`` or ``("error", type, message)`` of calling ``read``."""
    try:
        return ("ok", read())
    except Exception as exc:  # noqa: BLE001 - the outcome is the comparison
        return ("error", type(exc), str(exc))


def chunk_rows_of(source, sensitive, chunk_rows, delimiter):
    reader = ChunkedReader(source, sensitive, chunk_rows=chunk_rows, delimiter=delimiter)
    return reader.header, [chunk.rows() for chunk in reader.chunks()]


def table_of(source, sensitive, delimiter):
    table = read_csv(source, sensitive=sensitive, delimiter=delimiter)
    return table.schema, table.codes.tolist()


def index_of(source, sensitive, chunk_rows, delimiter):
    """The finalized index, and the provisional (first-seen) codes of every record."""
    reader = ChunkedReader(source, sensitive, chunk_rows=chunk_rows, delimiter=delimiter)
    index, blocks = None, []
    for chunk in reader.chunks():
        index = index or IncrementalGroupIndex(reader.public_names, sensitive)
        blocks.append(index.update_encoded(chunk))
    schema, groups = index.finalize()
    return schema, groups.keys.tolist(), groups.dense().tolist(), np.concatenate(blocks).tolist()


def parsed_only():
    """Switch the split off: every chunk of a binary source goes to csv.reader."""
    return mock.patch.object(loaders, "_split_lines", lambda *args: None)


@contextlib.contextmanager
def block_size(size):
    """Read and parse binary sources ``size`` bytes at a time (``None``: the defaults)."""
    if size is None:
        yield
        return
    with mock.patch.object(loaders, "READ_BLOCK_BYTES", size), mock.patch.object(
        loaders, "PARSE_BLOCK_BYTES", size
    ):
        yield


def first_invalid_line(body):
    """The number of the first line that is not UTF-8 (``None`` if all are)."""
    lines = re.split(rb"(?<=\n)|(?<=\r)(?!\n)", body.removeprefix(b"\xef\xbb\xbf"))
    for number, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return number
    return None


def as_text(body):
    return io.TextIOWrapper(io.BytesIO(body), encoding="utf-8-sig", newline="")


@given(csv_files())
@decode_profile
def test_split_equals_parser(case):
    body, delimiter, sensitive, chunk_rows, block_bytes = case
    for read in (
        lambda source: chunk_rows_of(source, sensitive, chunk_rows, delimiter),
        lambda source: table_of(source, sensitive, delimiter),
        lambda source: index_of(source, sensitive, chunk_rows, delimiter),
    ):
        with block_size(block_bytes):
            split = outcome(lambda: read(io.BytesIO(body)))
            with parsed_only():
                parsed = outcome(lambda: read(io.BytesIO(body)))
        assert split == parsed
        bad_line = first_invalid_line(body)
        if bad_line is None:
            assert split == outcome(lambda: read(as_text(body)))
            continue
        # The text reference decodes 8 KiB ahead of its parser, so it fails
        # first, at a position within that block.  A binary source decodes
        # line by line: it raises the decode error, or an earlier line's.
        assert outcome(lambda: read(as_text(body)))[1] is UnicodeDecodeError
        assert split[0] == "error"
        if split[1] is UnicodeDecodeError:
            assert f"line {bad_line})" in split[2]
        else:
            assert split[1] is SchemaError
            assert int(re.search(r"line (\d+)", split[2]).group(1)) < bad_line


def test_path_source_equals_text_stream(tmp_path):
    table = generate_census(3000, seed=3)
    path = tmp_path / "census.csv"
    write_csv(table, path)
    expected = read_csv(as_text(path.read_bytes()), sensitive=table.schema.sensitive_name)
    loaded = read_csv(path, sensitive=table.schema.sensitive_name)
    assert loaded.schema == expected.schema
    assert np.array_equal(loaded.codes, expected.codes)
    chunks = list(ChunkedReader(path, table.schema.sensitive_name, chunk_rows=1000).chunks())
    assert all(chunk._spans is not None for chunk in chunks)


def test_a_quote_in_the_third_chunk_alone_shares_one_codebook():
    # First seen out of sorted order, so provisional codes differ from sorted ones.
    rows = [[f"v{(3 * i) % 5}", f"s{(2 * i) % 3}"] for i in range(16)]
    rows[9] = ['"v9"', "s0"]
    body = b"a,b\r\n" + b"".join(f"{x},{y}\r\n".encode() for x, y in rows)
    chunks = list(ChunkedReader(io.BytesIO(body), "b", chunk_rows=4).chunks())
    assert [chunk._spans is not None for chunk in chunks] == [True, True, False, True]
    assert chunks[2].rows()[1] == ["v9", "s0"]
    index = IncrementalGroupIndex(["a"], "b")
    blocks = [index.update_encoded(chunk) for chunk in chunks]
    with parsed_only():
        parsed = list(ChunkedReader(io.BytesIO(body), "b", chunk_rows=4).chunks())
    assert parsed == chunks
    reference = IncrementalGroupIndex(["a"], "b")
    expected = [reference.update_encoded(chunk) for chunk in parsed]
    for block, want in zip(blocks, expected, strict=True):
        assert np.array_equal(block, want)
    (schema, groups), (want_schema, want_groups) = index.finalize(), reference.finalize()
    assert schema == want_schema
    assert np.array_equal(groups.keys, want_groups.keys)
    assert np.array_equal(groups.dense(), want_groups.dense())


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7, 50, 200])
def test_index_finalize_is_the_same_for_any_chunking(chunk_rows):
    table = generate_census(200, seed=5)
    out = io.BytesIO()
    write_csv(table, out)
    body = out.getvalue()
    sensitive = table.schema.sensitive_name
    expected = index_of(io.BytesIO(body), sensitive, 200, ",")
    assert index_of(io.BytesIO(body), sensitive, chunk_rows, ",") == expected
    with parsed_only():
        assert index_of(io.BytesIO(body), sensitive, chunk_rows, ",") == expected


def test_zip_code_column_of_50k_distinct_values_gets_csv_reader_codes():
    # Many keys miss per chunk.  Fields over 8 bytes appear only after the
    # first chunk, so later chunks look short values up under a second key
    # dtype and find them in the codebook already.
    rng = np.random.default_rng(9)
    zips = np.concatenate([np.arange(50_000), rng.integers(0, 50_000, 30_000)])
    rng.shuffle(zips)

    def field(i, z):
        return f"{z:05d}" if i < 10_000 or z % 7 else f"Zürich-{z:06d}"

    fields = [field(i, z) for i, z in enumerate(zips.tolist())]
    body = b"zip,sex,s\n" + "".join(
        f"{f},{'MF'[z % 2]},s{z % 3}\n" for f, z in zip(fields, zips.tolist(), strict=True)
    ).encode()

    def codes():
        encoder = loaders.ColumnEncoder(["zip", "sex"], "s")
        chunks = ChunkedReader(io.BytesIO(body), "s", chunk_rows=10_000).chunks()
        block = np.concatenate([encoder.encode(chunk) for chunk in chunks])
        return block, encoder.finalize()

    split = codes()
    with parsed_only():
        parsed = codes()
    assert len(split[1].public[0].values) == len(set(fields)) > 50_000
    assert np.array_equal(split[0], parsed[0])
    assert split[1] == parsed[1]


def test_split_chunk_decodes_its_strings_on_demand():
    body = "City,Disease\nOslo,Flu\nTromsø,Cold\nOslo,Flu\n".encode()
    (chunk,) = ChunkedReader(io.BytesIO(body), "Disease").chunks()
    assert chunk._spans is not None
    assert len(chunk) == 3
    assert chunk.columns == (["Oslo", "Tromsø", "Oslo"], ["Flu", "Cold", "Flu"])


def test_nul_bytes_keep_values_apart():
    # Zero-masked keys would make "a" and "a\0" one value: NUL goes to csv.reader.
    body = b"a,b\nx,1\nx\0,1\n"
    (chunk,) = ChunkedReader(io.BytesIO(body), "b").chunks()
    assert chunk._spans is None
    table = read_csv(io.BytesIO(body), sensitive="b")
    assert table.schema.public[0].values == ("x", "x\0")


def test_invalid_utf8_names_the_source_and_line():
    body = b"City,Disease\nOslo,Flu\nOslo,\xffFlu\n"
    with pytest.raises(UnicodeDecodeError, match=r"csv stream, line 3"):
        read_csv(io.BytesIO(body), sensitive="Disease")


class _CountingReader(io.BytesIO):
    """A binary source that records how far it has been read."""

    def read(self, size=-1):
        data = super().read(size)
        self.consumed = self.tell()
        return data


def test_lone_cr_lines_are_read_a_block_at_a_time():
    # Without an LF, gathering a chunk's lines would read the whole source.
    body = b"a,b\r" + b"".join(b"x%d,y\r" % (i % 50) for i in range(20_000))
    source = _CountingReader(body)
    with block_size(4096):
        chunks = ChunkedReader(source, "b", chunk_rows=100).chunks()
        first = next(chunks)
        assert len(first) == 100 and first._spans is None
        assert source.consumed <= 3 * 4096
        assert sum(map(len, chunks)) == 20_000 - 100


def test_buffer_grows_linearly_over_a_wide_chunk():
    # One chunk of many blocks: every block read must not copy the buffer again.
    body = b"a,b\n" + b"".join(b"%s,%d\n" % (b"v" * 40, i % 7) for i in range(20_000))
    joined = []
    append = loaders._ByteLines._append

    def counted(self, blocks):
        append(self, blocks)
        joined.append(len(self._buf))

    with block_size(512), mock.patch.object(loaders._ByteLines, "_append", counted):
        (chunk,) = ChunkedReader(io.BytesIO(body), "b", chunk_rows=20_000).chunks()
    assert chunk._spans is not None and len(chunk) == 20_000
    assert sum(joined) <= 2 * len(body)


def test_quoted_chunks_read_as_the_text_stream_does():
    table = generate_census(2000, seed=7)
    text = io.StringIO()
    writer = csv.writer(text, quoting=csv.QUOTE_ALL)
    writer.writerow([*table.schema.public_names, table.schema.sensitive_name])
    writer.writerows(table.records())
    body = text.getvalue().encode()
    sensitive = table.schema.sensitive_name
    for chunk_rows in (1, 7, 500, 5000):
        assert chunk_rows_of(io.BytesIO(body), sensitive, chunk_rows, ",") == chunk_rows_of(
            as_text(body), sensitive, chunk_rows, ","
        )


def test_cursor_read_honours_size():
    consumed = itertools.count()
    rows = ((f"city{next(consumed)}", "Flu") for _ in range(10_000))
    reader = ChunkedReader.from_cursor(rows, ["City", "Disease"], sensitive="Disease")
    stream = reader._source
    text = stream.read(64)
    assert 0 < len(text) <= 64
    assert next(consumed) < 20
    rest = stream.read()
    assert (text + rest).count("\r\n") == 10_001
