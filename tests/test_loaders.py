"""Tests for CSV loading and writing."""

import io

import pytest

from repro.dataset.loaders import infer_schema, read_csv, write_csv
from repro.dataset.schema import SchemaError


class TestInferSchema:
    def test_sensitive_column_moved_last(self):
        header = ["Income", "Job"]
        rows = [["high", "eng"], ["low", "artist"]]
        schema, reordered = infer_schema(header, rows, sensitive="Income")
        assert schema.sensitive_name == "Income"
        assert schema.public_names == ("Job",)
        assert reordered[0] == ["eng", "high"]

    def test_domains_collected_from_data(self):
        header = ["Job", "Income"]
        rows = [["eng", "high"], ["artist", "low"], ["eng", "low"]]
        schema, _ = infer_schema(header, rows, sensitive="Income")
        assert set(schema.public_attribute("Job").values) == {"eng", "artist"}
        assert set(schema.sensitive.values) == {"high", "low"}

    def test_missing_sensitive_column_rejected(self):
        with pytest.raises(SchemaError):
            infer_schema(["a", "b"], [["1", "2"]], sensitive="c")

    def test_ragged_rows_rejected(self):
        with pytest.raises(SchemaError):
            infer_schema(["a", "b"], [["1"]], sensitive="b")


class TestCsvRoundtrip:
    def test_write_then_read_preserves_counts(self, small_table, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(small_table, path)
        loaded = read_csv(path, sensitive="Disease")
        assert len(loaded) == len(small_table)
        assert loaded.count({"Gender": "male", "Job": "eng"}, "d0") == 6
        assert loaded.count({"Job": "lawyer"}) == 3

    def test_read_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            read_csv(path, sensitive="Income")

    def test_custom_delimiter(self, small_table, tmp_path):
        path = tmp_path / "data.tsv"
        write_csv(small_table, path, delimiter="\t")
        loaded = read_csv(path, sensitive="Disease", delimiter="\t")
        assert len(loaded) == len(small_table)


class TestFileLikeSources:
    def test_read_from_stream(self):
        stream = io.StringIO("Job,Income\neng,high\nartist,low\n")
        table = read_csv(stream, sensitive="Income")
        assert len(table) == 2
        assert table.schema.sensitive_name == "Income"

    def test_stream_not_closed(self):
        stream = io.StringIO("Job,Income\neng,high\n")
        read_csv(stream, sensitive="Income")
        assert not stream.closed

    def test_empty_stream_rejected(self):
        with pytest.raises(SchemaError, match="empty"):
            read_csv(io.StringIO(""), sensitive="Income")

    def test_header_only_stream_rejected(self):
        with pytest.raises(SchemaError, match="no data rows"):
            read_csv(io.StringIO("Job,Income\n"), sensitive="Income")

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("Job,Income\n")
        with pytest.raises(SchemaError, match="no data rows"):
            read_csv(path, sensitive="Income")


class TestErrorMessagesNameTheSource:
    def test_header_only_error_names_the_path(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("Job,Income\n")
        with pytest.raises(SchemaError, match=str(path)):
            read_csv(path, sensitive="Income")

    def test_header_only_error_names_the_stream(self):
        with pytest.raises(SchemaError, match="csv stream"):
            read_csv(io.StringIO("Job,Income\n"), sensitive="Income")

    def test_named_stream_error_includes_its_name(self, tmp_path):
        path = tmp_path / "upload.csv"
        path.write_text("Job,Income\n")
        with path.open() as handle:  # open files carry a .name
            with pytest.raises(SchemaError, match="upload.csv"):
                read_csv(handle, sensitive="Income")

    def test_row_width_error_names_source_and_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("Job,Income\neng,high\nartist\n")
        with pytest.raises(SchemaError, match=rf"{path}, line 3"):
            read_csv(path, sensitive="Income")

    def test_missing_sensitive_error_names_source(self, tmp_path):
        path = tmp_path / "nosens.csv"
        path.write_text("Job,City\neng,Oslo\n")
        with pytest.raises(SchemaError, match=str(path)):
            read_csv(path, sensitive="Income")

    def test_utf8_bom_file_loads(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("\ufeffJob,Income\neng,high\n".encode("utf-8"))
        table = read_csv(path, sensitive="Income")
        assert table.schema.public_names == ("Job",)

    def test_utf8_bom_stream_loads(self):
        table = read_csv(io.StringIO("\ufeffJob,Income\neng,high\n"), sensitive="Income")
        assert table.schema.public_names == ("Job",)


class TestReadCsvErrorContract:
    """read_csv gives the same error texts as the chunked reader."""

    @staticmethod
    def _error(text, sensitive="Disease"):
        with pytest.raises(SchemaError) as raised:
            read_csv(io.StringIO(text), sensitive=sensitive)
        return str(raised.value)

    def test_ragged_row_after_blank_lines(self):
        text = "City,Disease\nOslo,Flu\n\n\nBergen\n"
        assert self._error(text) == "csv stream, line 5: row has 1 fields but the header has 2"

    def test_embedded_newline_before_ragged_row(self):
        text = 'City,Disease\n"Oslo\nWest",Flu\nBergen\n'
        assert self._error(text) == "csv stream, line 4: row has 1 fields but the header has 2"

    def test_header_and_blank_lines_only(self):
        assert self._error("City,Disease\n\n") == (
            "csv stream has a header but no data rows; at least one record "
            "is required to infer the attribute domains"
        )

    def test_repeated_header_name_names_the_source(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("City,City,Disease\nOslo,Oslo,Flu\nBergen,Flu\n")
        with pytest.raises(SchemaError) as raised:
            read_csv(path, sensitive="Disease")
        assert str(raised.value) == (
            f"{path}: header ['City', 'City', 'Disease'] repeats column "
            "name(s) ['City']; every column needs its own name"
        )

    def test_repeated_sensitive_name_refused(self):
        assert "repeats column name(s) ['Disease']" in self._error(
            "Disease,City,Disease\nFlu,Oslo,Flu\n"
        )

    def test_infer_schema_refuses_repeated_names(self):
        with pytest.raises(SchemaError, match="repeats column name"):
            infer_schema(["a", "a", "b"], [["1", "2", "3"]], sensitive="b")


class TestFileLikeDestinations:
    def test_write_to_stream_roundtrips(self, small_table):
        stream = io.StringIO()
        write_csv(small_table, stream)
        stream.seek(0)
        loaded = read_csv(stream, sensitive="Disease")
        assert len(loaded) == len(small_table)
        assert loaded.count({"Gender": "male", "Job": "eng"}, "d0") == 6

    def test_stream_not_closed_after_write(self, small_table):
        stream = io.StringIO()
        write_csv(small_table, stream)
        assert not stream.closed

    def test_stream_write_matches_file_write(self, small_table, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(small_table, path)
        stream = io.StringIO()
        write_csv(small_table, stream)
        assert stream.getvalue().splitlines() == path.read_text().splitlines()
