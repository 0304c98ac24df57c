"""The out-of-core streaming engine and its byte-identity contract.

The load-bearing suite for :mod:`repro.stream`: for a fixed seed and
``chunk_size``, streaming output must equal the in-memory pipeline's output
bit for bit — published table, CSV bytes and RNG stream consumption — for
every registered strategy, at any ``chunk_rows``.  Pinned here the same way
``tests/test_vectorized.py`` pins the vectorized kernels.
"""

import io
import json

import numpy as np
import pytest

import repro
from repro.dataset.groups import personal_groups
from repro.dataset.loaders import read_csv, write_csv
from repro.dataset.schema import SchemaError
from repro.pipeline import available_strategies, publish
from repro.stream import (
    ChunkedReader,
    IncrementalGroupIndex,
    stream_publish,
)
from repro.stream.cli import main as stream_cli_main
from sps_records import assert_records_equal


def _csv_text(table):
    buffer = io.StringIO()
    write_csv(table, buffer)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def adult_csv():
    return _csv_text(repro.generate_adult(2500, seed=11))


# --------------------------------------------------------------------- #
# ChunkedReader edge cases
# --------------------------------------------------------------------- #


class TestChunkedReader:
    def test_final_chunk_smaller_than_chunk_rows(self):
        src = io.StringIO("City,Disease\n" + "Oslo,Flu\n" * 10)
        reader = ChunkedReader(src, sensitive="Disease", chunk_rows=4)
        sizes = [len(chunk) for chunk in reader.chunks()]
        assert sizes == [4, 4, 2]
        assert reader.rows_read == 10 and reader.chunks_read == 3

    def test_crlf_line_endings(self):
        src = io.StringIO("City,Disease\r\nOslo,Flu\r\nBergen,Cold\r\n", newline="")
        reader = ChunkedReader(src, sensitive="Disease", chunk_rows=10)
        chunks = list(reader.chunks())
        assert [chunk.rows() for chunk in chunks] == [[["Oslo", "Flu"], ["Bergen", "Cold"]]]

    def test_utf8_bom_stripped_from_header(self):
        src = io.StringIO("\ufeffCity,Disease\nOslo,Flu\n")
        reader = ChunkedReader(src, sensitive="Disease")
        list(reader.chunks())
        assert reader.header == ["City", "Disease"]

    def test_sensitive_column_reordered_last(self):
        src = io.StringIO("Disease,City\nFlu,Oslo\n")
        reader = ChunkedReader(src, sensitive="Disease")
        (chunk,) = reader.chunks()
        assert chunk.rows() == [["Oslo", "Flu"]]
        assert reader.public_names == ["City"]

    def test_blank_lines_skipped(self):
        src = io.StringIO("City,Disease\nOslo,Flu\n\n\nBergen,Cold\n")
        reader = ChunkedReader(src, sensitive="Disease")
        (chunk,) = reader.chunks()
        assert len(chunk) == 2

    def test_empty_source_names_the_source(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match=str(path)):
            list(ChunkedReader(path, sensitive="Disease").chunks())

    def test_header_only_names_the_source(self):
        src = io.StringIO("City,Disease\n")
        with pytest.raises(SchemaError, match="csv stream.*no data rows"):
            list(ChunkedReader(src, sensitive="Disease").chunks())

    def test_row_width_error_carries_line_number(self):
        src = io.StringIO("City,Disease\nOslo,Flu\nBergen\n")
        with pytest.raises(SchemaError, match="line 3"):
            list(ChunkedReader(src, sensitive="Disease").chunks())

    def test_missing_sensitive_column(self):
        src = io.StringIO("City,Disease\nOslo,Flu\n")
        with pytest.raises(SchemaError, match="'Income' not found"):
            list(ChunkedReader(src, sensitive="Income").chunks())

    def test_path_source_is_reiterable(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("City,Disease\nOslo,Flu\n")
        reader = ChunkedReader(path, sensitive="Disease")
        assert list(reader.chunks()) == list(reader.chunks())

    def test_rejects_nonpositive_chunk_rows(self):
        with pytest.raises(ValueError, match="chunk_rows"):
            ChunkedReader(io.StringIO("x"), sensitive="x", chunk_rows=0)


class TestReaderErrorContract:
    """Errors keep their exact text when they fall at or past a chunk edge."""

    @staticmethod
    def _drain(text, chunk_rows, sensitive="Disease"):
        reader = ChunkedReader(io.StringIO(text), sensitive=sensitive, chunk_rows=chunk_rows)
        sizes = []
        with pytest.raises(SchemaError) as raised:
            for chunk in reader.chunks():
                sizes.append(len(chunk))
        return str(raised.value), sizes

    def test_ragged_row_in_second_chunk(self):
        message, sizes = self._drain("City,Disease\nOslo,Flu\nBergen,Cold\nOslo\n", 2)
        assert message == "csv stream, line 4: row has 1 fields but the header has 2"
        assert sizes == [2]  # the first chunk was yielded before the error

    def test_blank_lines_at_a_chunk_edge(self):
        text = "City,Disease\nOslo,Flu\nBergen,Cold\n\n\nOslo,Flu\n"
        reader = ChunkedReader(io.StringIO(text), sensitive="Disease", chunk_rows=2)
        assert [chunk.rows() for chunk in reader.chunks()] == [
            [["Oslo", "Flu"], ["Bergen", "Cold"]],
            [["Oslo", "Flu"]],
        ]
        message, sizes = self._drain(text + "\nBergen\n", 2)
        assert message == "csv stream, line 8: row has 1 fields but the header has 2"
        assert sizes == [2]  # blank lines neither fill nor close a chunk

    def test_embedded_newline_before_ragged_row(self):
        text = 'City,Disease\n"Oslo\nWest",Flu\n"a, b",Cold\nBergen\n'
        message, sizes = self._drain(text, 1)
        assert message == "csv stream, line 5: row has 1 fields but the header has 2"
        assert sizes == [1, 1]

    def test_header_with_no_data_rows(self):
        message, sizes = self._drain("City,Disease\n\n\n", 1)
        assert message == (
            "csv stream has a header but no data rows; at least one record "
            "is required to infer the attribute domains"
        )
        assert sizes == []

    def test_repeated_header_name_refused_before_any_row(self):
        # The ragged row on line 3 is never reached: the header is refused.
        message, sizes = self._drain("City,City,Disease\nOslo,Oslo,Flu\nBergen,Flu\n", 1)
        assert message == (
            "csv stream: header ['City', 'City', 'Disease'] repeats column "
            "name(s) ['City']; every column needs its own name"
        )
        assert sizes == []


# --------------------------------------------------------------------- #
# IncrementalGroupIndex vs the in-memory GroupIndex
# --------------------------------------------------------------------- #


class TestIncrementalGroupIndex:
    @pytest.mark.parametrize("chunk_rows", [7, 100, 5000])
    def test_matches_in_memory_group_index(self, adult_csv, chunk_rows):
        table = read_csv(io.StringIO(adult_csv), sensitive="Income")
        reference = personal_groups(table)

        reader = ChunkedReader(io.StringIO(adult_csv), sensitive="Income", chunk_rows=chunk_rows)
        index = None
        for chunk in reader.chunks():
            if index is None:
                index = IncrementalGroupIndex(reader.public_names, "Income")
            index.update(chunk)
        schema, groups = index.finalize()

        assert schema == table.schema
        assert groups == reference

    def test_group_spanning_chunk_boundary(self):
        # Two records of the same personal group split across chunks must
        # merge into one group with summed counts.
        src = io.StringIO("City,Disease\nOslo,Flu\nOslo,Cold\nOslo,Flu\n")
        reader = ChunkedReader(src, sensitive="Disease", chunk_rows=2)
        index = IncrementalGroupIndex(["City"], "Disease")
        for chunk in reader.chunks():
            index.update(chunk)
        assert reader.chunks_read == 2  # the group really did span chunks
        _, groups = index.finalize()
        assert len(groups) == 1
        assert groups.dense().tolist() == [[1, 2]]  # Cold, Flu sorted

    def test_finalize_requires_rows(self):
        with pytest.raises(ValueError, match="no rows"):
            IncrementalGroupIndex(["City"], "Disease").finalize()


# --------------------------------------------------------------------- #
# Byte-identity: streaming == in-memory, all strategies
# --------------------------------------------------------------------- #


class TestByteIdentity:
    @pytest.mark.parametrize("strategy", sorted(available_strategies()))
    def test_published_table_and_csv_identical(self, adult_csv, strategy):
        table = read_csv(io.StringIO(adult_csv), sensitive="Income")
        in_memory = publish(table, strategy=strategy, rng=7, chunk_size=64)

        streamed = stream_publish(
            io.StringIO(adult_csv), sensitive="Income", strategy=strategy,
            rng=7, chunk_size=64, chunk_rows=333,
        )
        assert streamed.published == in_memory.published

        sink = io.StringIO()
        stream_publish(
            io.StringIO(adult_csv), sensitive="Income", strategy=strategy,
            rng=7, chunk_size=64, chunk_rows=333, output=sink,
        )
        assert sink.getvalue() == _csv_text(in_memory.published)

    @pytest.mark.parametrize("chunk_rows", [50, 700, 10_000])
    def test_chunk_rows_never_changes_bytes(self, adult_csv, chunk_rows):
        # chunk_rows is a memory knob; any divergence in RNG stream
        # consumption between ingestion chunkings would surface here.
        reference = stream_publish(
            io.StringIO(adult_csv), sensitive="Income", strategy="uniform",
            rng=3, chunk_rows=2500,
        )
        other = stream_publish(
            io.StringIO(adult_csv), sensitive="Income", strategy="uniform",
            rng=3, chunk_rows=chunk_rows,
        )
        assert other.published == reference.published

    def test_chunked_rng_draws_concatenate_like_whole_draws(self):
        # The stream-position pin behind the row-stream path: drawing
        # random/integers in chunks consumes the generator exactly like one
        # whole-array draw, so phase boundaries cannot shift the stream.
        whole = np.random.default_rng(np.random.SeedSequence(5))
        parts = np.random.default_rng(np.random.SeedSequence(5))
        expected_u = whole.random(1000)
        expected_r = whole.integers(0, 14, 1000)
        chunks = (137, 400, 463)
        got_u = np.concatenate([parts.random(k) for k in chunks])
        got_r = np.concatenate([parts.integers(0, 14, k) for k in chunks])
        assert np.array_equal(expected_u, got_u)
        assert np.array_equal(expected_r, got_r)
        assert whole.random() == parts.random()  # same position afterwards

    def test_audit_and_records_match_in_memory(self, adult_csv):
        table = read_csv(io.StringIO(adult_csv), sensitive="Income")
        in_memory = publish(table, strategy="sps", rng=9, chunk_size=128)
        streamed = stream_publish(
            io.StringIO(adult_csv), sensitive="Income", strategy="sps",
            rng=9, chunk_size=128, chunk_rows=400,
        )
        assert streamed.audit.n_groups == in_memory.audit.n_groups
        assert streamed.audit.group_violation_rate == in_memory.audit.group_violation_rate
        assert streamed.audit.record_violation_rate == in_memory.audit.record_violation_rate
        assert streamed.audit.summary() == in_memory.audit.summary()
        for column in ("keys", "sizes", "thresholds", "private"):
            np.testing.assert_array_equal(
                getattr(streamed.audit, column), getattr(in_memory.audit, column)
            )
        assert_records_equal(streamed.records, in_memory.records)

    def test_generalize_metadata_matches_in_memory(self, adult_csv):
        table = read_csv(io.StringIO(adult_csv), sensitive="Income")
        in_memory = publish(table, strategy="generalize+sps", rng=2, chunk_size=64)
        streamed = stream_publish(
            io.StringIO(adult_csv), sensitive="Income", strategy="generalize+sps",
            rng=2, chunk_size=64, chunk_rows=750,
        )
        assert streamed.metadata["generalized_domains"] == in_memory.metadata["generalized_domains"]
        assert streamed.published == in_memory.published


# --------------------------------------------------------------------- #
# Engine surface
# --------------------------------------------------------------------- #


class TestStreamPublish:
    def test_report_shape_and_progress_events(self, adult_csv):
        events = []
        report = stream_publish(
            io.StringIO(adult_csv), sensitive="Income", strategy="sps",
            rng=1, chunk_rows=500, progress=events.append,
        )
        assert report.n_rows == 2500 and report.n_chunks == 5
        assert report.published_records == len(report.published)
        phases = [event["phase"] for event in events]
        assert phases[0] == "read" and phases[-1] == "done"
        assert "group_index" in phases and "enforce" in phases
        summary = report.summary()
        assert summary["rows_read"] == 2500 and "audit" in summary
        json.dumps(summary)  # JSON-compatible throughout

    def test_output_sink_skips_materialisation(self, adult_csv, tmp_path):
        out = tmp_path / "published.csv"
        report = stream_publish(
            io.StringIO(adult_csv), sensitive="Income", strategy="dp-laplace",
            rng=1, output=out,
        )
        assert report.published is None
        assert report.output == str(out)
        assert out.read_text().splitlines()[0] == "Education,Occupation,Race,Gender,Income"

    def test_track_memory_records_peak(self, adult_csv):
        report = stream_publish(
            io.StringIO(adult_csv), sensitive="Income", rng=1, track_memory=True,
        )
        assert report.peak_tracked_bytes > 0
        assert report.summary()["peak_tracked_bytes"] == report.peak_tracked_bytes

    def test_non_streamable_strategy_rejected(self):
        from repro.pipeline.strategy import PublishStrategy

        class Opaque(PublishStrategy):
            name = "opaque"

        with pytest.raises(ValueError, match="not streamable"):
            stream_publish(io.StringIO("a,b\n1,2\n"), sensitive="b", strategy=Opaque())

    def test_overwrite_false_is_atomic_at_the_sink(self, adult_csv, tmp_path):
        out = tmp_path / "out.csv"
        stream_publish(
            io.StringIO(adult_csv), sensitive="Income", rng=1, output=out,
            overwrite=False,
        )
        with pytest.raises(FileExistsError):
            stream_publish(
                io.StringIO(adult_csv), sensitive="Income", rng=1, output=out,
                overwrite=False,
            )
        # default engine/CLI semantics still overwrite
        stream_publish(io.StringIO(adult_csv), sensitive="Income", rng=1, output=out)

    def test_service_stream_job_never_clobbers_existing_output(self, adult_csv, tmp_path):
        from repro.service import AnonymizationService
        from repro.service.registry import ServiceError

        csv_path = tmp_path / "in.csv"
        csv_path.write_text(adult_csv, newline="")
        out = tmp_path / "precious.csv"
        out.write_text("do not clobber")
        service = AnonymizationService()
        with pytest.raises(ServiceError, match="failed"):
            service.publish_stream(csv_path, "Income", "sps", seed=1, output=out)
        assert out.read_text() == "do not clobber"

    def test_audit_false_skips_audit(self, adult_csv):
        report = stream_publish(
            io.StringIO(adult_csv), sensitive="Income", rng=1, audit=False,
        )
        assert report.audit is None

    def test_materialize_false_counts_without_keeping(self, adult_csv):
        counted = stream_publish(
            io.StringIO(adult_csv), sensitive="Income", rng=1, materialize=False,
        )
        kept = stream_publish(io.StringIO(adult_csv), sensitive="Income", rng=1)
        assert counted.published is None
        assert counted.published_records == len(kept.published)

    def test_owned_partial_output_removed_on_enforce_failure(
        self, adult_csv, tmp_path, monkeypatch
    ):
        # A kernel crash mid-publish must close the owned handle and remove
        # the partial file, so a retry with the same path can succeed.
        from repro.pipeline.strategy import SPSStrategy

        def exploding_chunk_publisher(self, schema, spec, resolved):
            def run_fn(run, rngs, bounds):
                raise OSError("disk full")
            return run_fn

        monkeypatch.setattr(SPSStrategy, "chunk_publisher", exploding_chunk_publisher)
        out = tmp_path / "partial.csv"
        with pytest.raises(OSError, match="disk full"):
            stream_publish(
                io.StringIO(adult_csv), sensitive="Income", strategy="sps",
                rng=1, output=out,
            )
        assert not out.exists()

    def test_caller_stream_untouched_on_enforce_failure(self, adult_csv, monkeypatch):
        from repro.pipeline.strategy import SPSStrategy

        def exploding_chunk_publisher(self, schema, spec, resolved):
            def run_fn(run, rngs, bounds):
                raise OSError("disk full")
            return run_fn

        monkeypatch.setattr(SPSStrategy, "chunk_publisher", exploding_chunk_publisher)
        sink = io.StringIO()
        with pytest.raises(OSError, match="disk full"):
            stream_publish(
                io.StringIO(adult_csv), sensitive="Income", strategy="sps",
                rng=1, output=sink,
            )
        assert not sink.closed  # we don't own caller-provided streams


class TestPublishWiring:
    def test_publish_streaming_delegates(self, adult_csv):
        table = read_csv(io.StringIO(adult_csv), sensitive="Income")
        in_memory = publish(table, strategy="sps", rng=7)
        streamed = repro.publish(
            source=io.StringIO(adult_csv), sensitive="Income", streaming=True,
            strategy="sps", rng=7, chunk_rows=600,
        )
        assert streamed.published == in_memory.published

    def test_publish_source_without_streaming_loads(self, adult_csv):
        report = repro.publish(
            source=io.StringIO(adult_csv), sensitive="Income", strategy="sps", rng=7
        )
        assert len(report.prepared) == 2500  # an in-memory PublishReport

    def test_publish_argument_validation(self, adult_csv):
        table = read_csv(io.StringIO(adult_csv), sensitive="Income")
        with pytest.raises(ValueError, match="not both"):
            repro.publish(table, source=io.StringIO("x"))
        with pytest.raises(ValueError, match="requires source"):
            repro.publish(streaming=True)
        with pytest.raises(ValueError, match="sensitive"):
            repro.publish(source=io.StringIO("x"), streaming=True)
        with pytest.raises(ValueError, match="streaming options"):
            repro.publish(table, chunk_rows=100)
        with pytest.raises(ValueError, match="in-memory artifacts"):
            repro.publish(
                source=io.StringIO("x"), sensitive="y", streaming=True,
                groups=personal_groups(table),
            )
        with pytest.raises(ValueError, match="needs a table or a source"):
            repro.publish()
        with pytest.raises(ValueError, match="streaming-engine options"):
            repro.publish(
                source=io.StringIO("x"), sensitive="y", streaming=True, progress=7
            )


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


class TestStreamCLI:
    def test_end_to_end(self, adult_csv, tmp_path, capsys):
        src = tmp_path / "data.csv"
        src.write_text(adult_csv, newline="")
        out = tmp_path / "published.csv"
        code = stream_cli_main([
            str(src), "--sensitive", "Income", "--seed", "7",
            "--chunk-rows", "500", "--output", str(out), "--lam", "0.25",
        ])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rows_read"] == 2500
        assert summary["params"]["lam"] == 0.25
        assert out.exists()

        table = read_csv(io.StringIO(adult_csv), sensitive="Income")
        expected = publish(table, strategy="sps", rng=7, lam=0.25)
        assert out.read_bytes().decode() == _csv_text(expected.published)

    def test_bad_inputs_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert stream_cli_main([str(missing), "--sensitive", "X"]) == 2
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert stream_cli_main([str(empty), "--sensitive", "X"]) == 2
        data = tmp_path / "data.csv"
        data.write_text("a,b\n1,2\n")
        assert stream_cli_main([str(data), "--sensitive", "b", "--strategy", "nope"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err


# --------------------------------------------------------------------- #
# Service stream jobs
# --------------------------------------------------------------------- #


class TestServiceStreamJobs:
    @pytest.fixture()
    def csv_path(self, adult_csv, tmp_path):
        path = tmp_path / "adult.csv"
        path.write_text(adult_csv, newline="")
        return path

    def test_stream_job_matches_in_memory_backend(self, csv_path):
        from repro.service import AnonymizationService

        service = AnonymizationService()
        record = service.publish_stream(csv_path, "Income", "sps", seed=7, chunk_rows=400)
        assert record.status == "completed"
        assert record.spec.stream is True
        assert record.progress.get("phase") == "done"
        assert record.metadata["rows_read"] == 2500

        service.register_csv("mem", csv_path, sensitive="Income")
        in_memory = service.publish("mem", "sps", seed=7)
        assert record.published == in_memory.published

    def test_stream_job_with_output_and_snapshot(self, csv_path, tmp_path):
        from repro.service import AnonymizationService

        service = AnonymizationService()
        out = tmp_path / "out.csv"
        record = service.publish_stream(
            csv_path, "Income", "dp-laplace", seed=3, output=out
        )
        assert record.published is None and out.exists()

        snapshot = tmp_path / "snap.json"
        service.save(snapshot)
        restored = AnonymizationService(snapshot_path=snapshot)
        loaded = restored.job(record.job_id)
        assert loaded.spec.stream is True
        assert loaded.spec.source == str(csv_path)
        assert loaded.spec.output == str(out)
        assert loaded.progress.get("phase") == "done"

    def test_failed_stream_job_recorded(self, tmp_path):
        from repro.service import AnonymizationService
        from repro.service.registry import ServiceError

        service = AnonymizationService()
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n")  # header only
        with pytest.raises(ServiceError, match="failed"):
            service.publish_stream(bad, "b", "sps", seed=1)
        (record,) = service.jobs.records()
        assert record.status == "failed"
        assert "no data rows" in record.error

    def test_unknown_backend_rejected(self, csv_path):
        from repro.service import AnonymizationService
        from repro.service.registry import ServiceError

        with pytest.raises(ServiceError, match="unknown strategy"):
            AnonymizationService().publish_stream(csv_path, "Income", "nope")

    def test_engine_option_in_params_rejected_without_stranding_a_job(self, csv_path):
        from repro.service import AnonymizationService
        from repro.service.registry import ServiceError

        service = AnonymizationService()
        with pytest.raises(ServiceError, match="stream-job options"):
            service.publish_stream(
                csv_path, "Income", "sps", params={"chunk_rows": 500}
            )
        with pytest.raises(ServiceError, match="stream-job options"):
            service.publish_stream(
                csv_path, "Income", "sps", params={"delimiter": ";"}
            )
        assert len(service.jobs) == 0  # rejected before any record was added

    def test_unexpected_failure_still_marks_job_failed(self, csv_path, monkeypatch):
        # Exceptions outside the client-error classes must not strand the
        # pre-added record in "running".
        import repro.service.engine as engine_module
        from repro.service import AnonymizationService

        service = AnonymizationService()

        def boom(*args, **kwargs):
            raise TypeError("unexpected")

        monkeypatch.setattr("repro.stream.engine.stream_publish", boom)
        assert engine_module  # imported for monkeypatch target clarity
        with pytest.raises(TypeError, match="unexpected"):
            service.publish_stream(csv_path, "Income", "sps", seed=1)
        (record,) = service.jobs.records()
        assert record.status == "failed"
        assert "unexpected" in record.error

    def test_http_stream_publish(self, csv_path):
        import urllib.request

        from repro.serve import ServingFrontend
        from repro.service import AnonymizationService

        service = AnonymizationService()
        with ServingFrontend(service, port=0) as frontend:
            base = frontend.base_url
            body = json.dumps({
                "stream": True, "source": str(csv_path), "sensitive": "Income",
                "backend": "sps", "seed": 7, "chunk_rows": 500,
            }).encode()
            request = urllib.request.Request(f"{base}/publish", data=body, method="POST")
            job = json.load(urllib.request.urlopen(request))
            assert job["status"] == "completed"
            assert job["spec"]["stream"] is True
            assert job["progress"]["phase"] == "done"
            again = json.load(urllib.request.urlopen(f"{base}/jobs/{job['job_id']}"))
            assert again["progress"] == job["progress"]

            # The HTTP layer refuses to clobber existing server-side files.
            import urllib.error

            body = json.dumps({
                "stream": True, "source": str(csv_path), "sensitive": "Income",
                "backend": "sps", "output": str(csv_path),
            }).encode()
            request = urllib.request.Request(f"{base}/publish", data=body, method="POST")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400
            assert "already exists" in json.load(excinfo.value)["error"]


# --------------------------------------------------------------------- #
# Bench stream suite
# --------------------------------------------------------------------- #


class TestBenchStreamSuite:
    def test_tiny_suite_reports_byte_identity_and_memory(self):
        from repro.bench.runner import run_suite
        from repro.bench.schema import validate_report

        report = run_suite(
            "stream", tiny=True, seed=5,
            scenario_filter=["stream/sps/adult-5000/c256/r500/w1"],
        )
        validate_report(report)
        (entry,) = report["scenarios"]
        assert entry["verdicts"] == {"byte_identical": True}
        assert entry["ops"]["peak_tracked_streaming_bytes"] > 0
        assert entry["ops"]["rows_per_second"] > 0

    def test_scenarios_are_deterministic_pairs(self):
        from repro.bench.stream import stream_scenarios

        tiny = stream_scenarios(tiny=True)
        assert [s.name for s in tiny] == [s.name for s in stream_scenarios(tiny=True)]
        # The x10 row-growth pairs behind the bounded-memory claim.
        rows = [s.rows for s in stream_scenarios(tiny=False) if s.workers == 1]
        assert all(pair[1] == 10 * pair[0] for pair in zip(rows[::2], rows[1::2]))


class TestCsvSinkChecksums:
    def test_crc32_only_when_asked(self, tmp_path):
        import zlib

        from repro.parallel.kernels import RunResult
        from repro.stream.engine import _CsvSink

        table = repro.generate_adult(50, seed=2)
        block = table.codes[:20]
        plain = _CsvSink(tmp_path / "plain.csv", table.schema)
        kept = _CsvSink(tmp_path / "kept.csv", table.schema, crc32=True)
        run = RunResult(block, None, np.array([len(block)])).rendered(plain.codec, crc32=True)
        for sink in (plain, kept):
            sink.write_run(run)
            sink.close()
        data = (tmp_path / "kept.csv").read_bytes()[len(kept.header):]
        assert plain.chunk_crc32 == []
        assert kept.chunk_crc32 == [zlib.crc32(data)]
        assert plain.chunk_bytes == kept.chunk_bytes == [len(data)]
        assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "kept.csv").read_bytes()
