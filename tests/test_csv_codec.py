"""The byte-level CSV codec against the stdlib per-row rendering it replaces.

Every writer of published rows (``write_csv``, the stream and delta sinks,
the ``table.csv`` route, ``encode_block_csv``) renders through
:class:`repro.dataset.loaders.CsvCodec`.  The reference here is the old
rendering: ``csv.writer(..., delimiter=d).writerows`` over
``Schema.decode_record`` of every row, encoded to UTF-8.  The codec must
produce the same bytes or raise the same exception type.

Profiles follow ``tests/test_store_properties.py``, under names of their
own so they do not replace that module's: the property runs 200
derandomized examples by default and 2000 with ``CI`` set.
"""

import csv
import io
import os

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.dataset.loaders import WRITE_SLICE_ROWS, csv_codec, write_csv  # noqa: E402
from repro.dataset.schema import Attribute, Schema, SchemaError  # noqa: E402
from repro.dataset.table import Table  # noqa: E402

settings.register_profile(
    "csv-codec-ci", derandomize=True, max_examples=2000, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "csv-codec", derandomize=True, max_examples=200, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
codec_profile = settings.get_profile("csv-codec-ci" if os.environ.get("CI") else "csv-codec")

DELIMITERS = [",", ";", "\t", "|"]

# Characters the csv dialect treats specially (every delimiter, the quote
# character, both line-break characters, the space), a few plain ones and
# non-ASCII text.
_SPECIAL = list(",;\t|\"\r\n aZ0é日本🙂")
field_text = st.one_of(
    st.text(alphabet=st.sampled_from(_SPECIAL), max_size=6),
    st.text(max_size=6),
    st.builds(lambda v: f" {v} ", st.text(alphabet=st.sampled_from(_SPECIAL), max_size=3)),
    st.just(""),
)


def per_row_text(schema, codes, delimiter=",", header=True):
    """The per-row rendering every writer used before the codec."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter)
    if header:
        writer.writerow(list(schema.public_names) + [schema.sensitive_name])
    writer.writerows(schema.decode_record(row) for row in codes)
    return buffer.getvalue()


def per_row_csv(schema, codes, delimiter=",", header=True):
    """The per-row rendering as the UTF-8 bytes every writer publishes."""
    return per_row_text(schema, codes, delimiter, header).encode("utf-8")


@st.composite
def schemas(draw):
    n_public = draw(st.integers(1, 3))
    names = draw(
        st.lists(field_text.filter(bool), min_size=n_public + 1, max_size=n_public + 1,
                 unique=True)
    )
    domains = [
        draw(st.lists(field_text, min_size=1, max_size=6, unique=True))
        for _ in range(n_public + 1)
    ]
    return Schema(
        [Attribute(name, tuple(values)) for name, values in zip(names[:-1], domains[:-1])],
        Attribute(names[-1], tuple(domains[-1])),
    )


@st.composite
def blocks(draw, schema):
    """A codes block of 0-50 rows; sometimes with one out-of-range code."""
    sizes = [attr.size for attr in schema.public] + [schema.sensitive.size]
    n_rows = draw(st.integers(0, 50))
    codes = np.array(
        [[draw(st.integers(0, size - 1)) for size in sizes] for _ in range(n_rows)],
        dtype=np.int64,
    ).reshape(n_rows, len(sizes))
    if n_rows and draw(st.booleans()) and draw(st.booleans()):
        row = draw(st.integers(0, n_rows - 1))
        column = draw(st.integers(0, len(sizes) - 1))
        codes[row, column] = draw(st.sampled_from([-1, sizes[column]]))
    return codes


class TestCodecProperties:
    @codec_profile
    @given(data=st.data(), delimiter=st.sampled_from(DELIMITERS))
    def test_codec_matches_csv_writer(self, data, delimiter):
        schema = data.draw(schemas())
        codes = data.draw(blocks(schema))
        codec = csv_codec(schema, delimiter)
        assert codec.header == per_row_csv(schema, codes[:0], delimiter)
        try:
            expected = per_row_csv(schema, codes, delimiter, header=False)
        except Exception as exc:  # the codec must fail the same way
            with pytest.raises(type(exc)):
                codec.encode(codes)
        else:
            assert codec.encode(codes) == expected


class TestCodecExamples:
    @pytest.fixture
    def schema(self):
        return Schema(
            [Attribute("City", ("Oslo", "St. Paul, MN", "")), Attribute("Note", (' "q" ', "a\nb"))],
            Attribute("Disease", ("Flu", "Cold")),
        )

    def test_zero_rows_encode_to_empty_bytes(self, schema):
        assert csv_codec(schema).encode(np.empty((0, 3), dtype=np.int64)) == b""

    def test_empty_field_is_not_quoted_inside_a_row(self, schema):
        codes = np.array([[2, 0, 1]])
        assert csv_codec(schema).encode(codes) == b'," ""q"" ",Cold\r\n'
        assert csv_codec(schema).encode(codes) == per_row_csv(schema, codes, header=False)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_code_raises_schema_error(self, schema, bad):
        with pytest.raises(SchemaError, match="out of range for attribute 'City'"):
            csv_codec(schema).encode(np.array([[0, 0, 0], [bad, 0, 0]]))

    def test_wrong_width_raises_schema_error(self, schema):
        with pytest.raises(SchemaError, match="expected 3"):
            csv_codec(schema).encode(np.array([[0, 0]]))

    def test_pad_byte_values_survive(self):
        # U+00FF encodes to C3 BF and a 4-byte emoji to F0 9F 99 82: neither
        # contains the 0xFF pad byte, so deleting pads never touches a value.
        schema = Schema(
            [Attribute("Name", ("ÿ", "ÿÿÿÿ", "a", "🙂")), Attribute("ÿ", ("🙂🙂", "x"))],
            Attribute("Disease", ("Flu", "ÿ🙂")),
        )
        codes = np.array([[0, 0, 1], [1, 1, 0], [2, 0, 1], [3, 1, 1]])
        encoded = csv_codec(schema).encode(codes)
        assert encoded == per_row_csv(schema, codes, header=False)
        assert encoded.decode("utf-8").splitlines()[0] == "ÿ,🙂🙂,ÿ🙂"
        assert csv_codec(schema).header == "Name,ÿ,Disease\r\n".encode("utf-8")

    def test_field_widths_differ_widely_with_quotes_and_crlf(self):
        values = ("", "a", 'say "hi"', "line\r\nbreak", "x" * 300, '"' * 40, "é" * 100)
        schema = Schema([Attribute("Text", values)], Attribute("Disease", ("Flu", "Cold")))
        codes = np.array([[code, code % 2] for code in range(len(values))] * 3)
        assert csv_codec(schema).encode(codes) == per_row_csv(schema, codes, header=False)
        assert csv_codec(schema, ";").encode(codes) == per_row_csv(schema, codes, ";", header=False)

    def test_code_dtypes_give_equal_bytes(self, schema):
        codes = np.array([[0, 0, 0], [1, 1, 1], [2, 0, 1], [2, 1, 0]])
        expected = per_row_csv(schema, codes, header=False)
        for dtype in (np.int8, np.int16, np.int64):
            assert csv_codec(schema).encode(codes.astype(dtype)) == expected

    def test_negative_int8_code_raises_instead_of_wrapping(self, schema):
        codes = np.array([[0, 0, 0], [0, -1, 0]], dtype=np.int8)
        with pytest.raises(SchemaError, match="code -1 out of range for attribute 'Note'"):
            csv_codec(schema).encode(codes)

    def test_negative_narrow_code_raises_below_a_wider_domain(self):
        # Zip has 300 values, more than int8 holds: viewed unsigned, -1 is
        # 255, which a limit clipped to the unsigned maximum would let through.
        schema = Schema(
            [Attribute("Zip", tuple(map(str, range(300))))], Attribute("Disease", ("a", "b"))
        )
        codes = np.array([[0, 0], [-1, 1]], dtype=np.int8)
        with pytest.raises(SchemaError, match="code -1 out of range for attribute 'Zip'"):
            csv_codec(schema).encode(codes)

    def test_codec_is_built_once_per_schema_and_delimiter(self, schema):
        assert csv_codec(schema, ";") is csv_codec(schema, ";")
        assert csv_codec(schema, ";") is not csv_codec(schema, ",")


class TestWriteCsvSlices:
    def test_large_table_is_written_in_slices(self):
        schema = Schema(
            [Attribute("City", ("Oslo", "St. Paul, MN")), Attribute("Job", ("eng", "nurse"))],
            Attribute("Disease", ("Flu", "Cold", "HIV")),
        )
        n_rows = WRITE_SLICE_ROWS + 1000
        rng = np.random.default_rng(0)
        codes = np.column_stack(
            [rng.integers(0, 2, n_rows), rng.integers(0, 2, n_rows), rng.integers(0, 3, n_rows)]
        )
        table = Table(schema, codes)

        writes = []

        class Recording(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        out = Recording()
        write_csv(table, out, delimiter=";")
        assert out.getvalue() == per_row_text(schema, codes, ";")
        assert len(writes) > 2  # header, then more than one slice
        assert max(text.count("\r\n") for text in writes) <= WRITE_SLICE_ROWS

    def test_binary_and_path_destinations_get_the_same_bytes(self, tmp_path):
        schema = Schema([Attribute("City", ("Oslo", "ÿ, 🙂"))], Attribute("Disease", ("Flu", "Cold")))
        codes = np.array([[0, 0], [1, 1], [1, 0]])
        table = Table(schema, codes)
        binary = io.BytesIO()
        write_csv(table, binary)
        write_csv(table, tmp_path / "out.csv")
        assert binary.getvalue() == per_row_csv(schema, codes)
        assert (tmp_path / "out.csv").read_bytes() == per_row_csv(schema, codes)
