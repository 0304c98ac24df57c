"""Observability wired through the real execution paths.

The load-bearing contract of :mod:`repro.obs`: turning tracing or metrics on
or off never changes a published byte, traces agree on their deterministic
fields at any worker count, stage timings sum to the total, and the service
exposes the same data through ``GET /metrics`` and per-job event timelines.
"""

import io
import json
import urllib.request

import pytest

import repro
from repro.dataset.loaders import read_csv, write_csv
from repro.delta import delta_publish, publish_base
from repro.obs import Tracer, parse_prometheus, validate_trace, write_trace
from repro.obs.metrics import (
    CHUNKS_TOTAL,
    PUBLISH_RUNS,
    REGISTRY,
    ROWS_PUBLISHED,
)
from repro.parallel.scheduler import RUN_CHUNKS
from repro.pipeline import available_strategies, publish
from repro.serve import ServingFrontend
from repro.service.engine import AnonymizationService
from repro.service.models import JobRecord
from repro.stream import stream_publish

#: Attributes that legitimately vary with the execution backend; everything
#: else in a trace must be identical at any worker count.
_BACKEND_ATTRS = {"backend", "workers", "worker_pid", "worker_thread"}


def _csv_text(table):
    buffer = io.StringIO()
    write_csv(table, buffer)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def adult_csv():
    return _csv_text(repro.generate_adult(1500, seed=13))


def _stream(adult_csv, strategy="sps", workers=1, **kwargs):
    kwargs.setdefault("rng", 7)
    kwargs.setdefault("chunk_size", 64)
    kwargs.setdefault("chunk_rows", 400)
    return stream_publish(
        io.StringIO(adult_csv), sensitive="Income", strategy=strategy,
        workers=workers, **kwargs,
    )


def _span_shape(tracer):
    """A trace's deterministic skeleton: names + backend-independent attrs."""
    return [
        (
            record.name,
            tuple(sorted(
                (key, value) for key, value in record.attributes.items()
                if key not in _BACKEND_ATTRS
            )),
        )
        for record in tracer.spans
    ]


# --------------------------------------------------------------------- #
# Byte-identity: observability never changes published bytes
# --------------------------------------------------------------------- #


class TestByteIdentity:
    @pytest.mark.parametrize("strategy", sorted(available_strategies()))
    def test_tracing_on_off_identical_per_strategy(self, adult_csv, strategy):
        baseline = _stream(adult_csv, strategy, workers=2)
        with Tracer():
            traced = _stream(adult_csv, strategy, workers=2)
        assert traced.published == baseline.published

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_tracing_on_off_identical_per_worker_count(self, adult_csv, workers):
        baseline = _stream(adult_csv, workers=workers)
        with Tracer():
            traced = _stream(adult_csv, workers=workers)
        assert traced.published == baseline.published

    def test_metrics_disabled_identical(self, adult_csv):
        baseline = _stream(adult_csv)
        REGISTRY.disable()
        try:
            muted = _stream(adult_csv)
        finally:
            REGISTRY.enable()
        assert muted.published == baseline.published

    def test_pipeline_tracing_identical(self, adult_csv):
        table = read_csv(io.StringIO(adult_csv), sensitive="Income")
        baseline = publish(table, strategy="sps", rng=7, chunk_size=64, workers=2)
        with Tracer():
            traced = publish(table, strategy="sps", rng=7, chunk_size=64, workers=2)
        assert traced.published == baseline.published


# --------------------------------------------------------------------- #
# Deterministic traces at any worker count
# --------------------------------------------------------------------- #


class TestSpanDeterminism:
    def test_deterministic_fields_agree_across_worker_counts(self, adult_csv):
        shapes = {}
        for workers in (1, 2, 4):
            with Tracer() as tracer:
                _stream(adult_csv, workers=workers)
            shapes[workers] = _span_shape(tracer)
        assert shapes[1] == shapes[2] == shapes[4]

    @pytest.mark.parametrize(("workers", "backend"), [(1, "serial"), (4, "thread")])
    def test_chunk_spans_merge_in_chunk_order_under_enforce(self, adult_csv, workers, backend):
        # One span per scheduler task, a run of up to RUN_CHUNKS chunks,
        # named by its first chunk and its chunk count, in chunk order.
        # The chunk counter still counts chunks.
        REGISTRY.reset()
        with Tracer() as tracer:
            report = _stream(adult_csv, workers=workers, chunk_size=8)
        enforce = next(r for r in tracer.spans if r.name == "enforce")
        tasks = [r for r in tracer.spans if r.name == "chunk"]
        firsts = [t.attributes["first_chunk"] for t in tasks]
        sizes = [t.attributes["n_chunks"] for t in tasks]
        n_chunks = -(-report.n_groups // 8)
        assert n_chunks > RUN_CHUNKS
        assert firsts == list(range(0, n_chunks, RUN_CHUNKS))
        assert sizes == [min(RUN_CHUNKS, n_chunks - first) for first in firsts]
        assert CHUNKS_TOTAL.value(backend=backend) == n_chunks
        assert all(t.parent_id == enforce.span_id for t in tasks)
        assert all(t.attributes["backend"] == backend for t in tasks)

    @pytest.mark.parametrize(("workers", "backend"), [(1, "serial"), (2, "thread")])
    def test_delta_chunk_spans_name_the_dirty_chunks(
        self, adult_csv, tmp_path, workers, backend
    ):
        # Each appended row repeats the first group of its chunk, so chunks
        # 5, 6 and 20 are dirty: one task for the run 5-6, one for 20.
        source = tmp_path / "base.csv"
        source.write_text(adult_csv)
        state = publish_base(
            source, sensitive="Income", output=tmp_path / "published.csv",
            rng=7, chunk_size=16,
        ).state
        schema = state.schema
        rows = []
        for chunk in (5, 6, 20):
            key = state.groups.keys[chunk * 16]
            values = dict(zip(
                schema.public_names,
                (attr.values[code] for attr, code in zip(schema.public, key)),
            ))
            values["Income"] = schema.sensitive.values[0]
            rows.append([values[column] for column in state.header])
        REGISTRY.reset()
        with Tracer() as tracer:
            report = delta_publish(state, rows, output=tmp_path / "out.csv", workers=workers)
        splice = next(r for r in tracer.spans if r.name == "splice")
        tasks = [r for r in tracer.spans if r.name == "chunk"]
        assert report.n_chunks_dirty == 3
        assert [(t.attributes["first_chunk"], t.attributes["n_chunks"]) for t in tasks] == [
            (5, 2), (20, 1),
        ]
        assert all(t.parent_id == splice.span_id for t in tasks)
        assert all(t.attributes["backend"] == backend for t in tasks)
        assert CHUNKS_TOTAL.value(backend=backend) == 3

    def test_trace_exports_and_validates(self, adult_csv, tmp_path):
        path = tmp_path / "stream.jsonl"
        with Tracer() as tracer:
            _stream(adult_csv, workers=2)
        write_trace(tracer, path)
        assert validate_trace(path) == len(tracer.spans) > 0

    def test_pipeline_stage_spans_and_report_timings(self, adult_csv):
        table = read_csv(io.StringIO(adult_csv), sensitive="Income")
        with Tracer() as tracer:
            report = publish(table, strategy="sps", rng=7, chunk_size=64)
        names = [record.name for record in tracer.spans]
        for stage in ("prepare", "generalize", "group_index", "audit", "enforce"):
            assert stage in names
        root = next(r for r in tracer.spans if r.name == "publish")
        assert root.attributes["strategy"] == "sps"
        assert root.attributes["rows"] == len(report.published)
        assert report.total_seconds == pytest.approx(sum(report.timings.values()))

    def test_stream_timings_cover_every_phase(self, adult_csv):
        report = _stream(adult_csv)
        assert set(report.timings) == {
            "prepare", "read", "spool", "group_index", "generalize",
            "audit", "enforce", "flush", "finalize",
        }
        assert all(value >= 0.0 for value in report.timings.values())
        assert report.total_seconds == pytest.approx(sum(report.timings.values()))


# --------------------------------------------------------------------- #
# Progress callbacks
# --------------------------------------------------------------------- #


class TestProgress:
    def test_progress_events_monotonic(self, adult_csv):
        events = []
        _stream(adult_csv, workers=2, progress=events.append)
        phases = [event["phase"] for event in events]
        assert phases[0] == "read" and phases[-1] == "done"
        rows_read = [e["rows_read"] for e in events if e["phase"] == "read"]
        assert rows_read == sorted(rows_read)
        groups_done = [e["groups_done"] for e in events if e["phase"] == "enforce"]
        assert groups_done == sorted(groups_done)

    def test_progress_agrees_across_worker_counts(self, adult_csv):
        sequences = {}
        for workers in (1, 2, 4):
            events = []
            _stream(adult_csv, workers=workers, progress=events.append)
            sequences[workers] = events
        assert sequences[1] == sequences[2] == sequences[4]


# --------------------------------------------------------------------- #
# Metrics through the real paths
# --------------------------------------------------------------------- #


class TestMetricsIntegration:
    def test_stream_updates_the_standard_instruments(self, adult_csv):
        REGISTRY.reset()
        report = _stream(adult_csv)
        assert ROWS_PUBLISHED.value(strategy="sps") == report.published_records
        assert PUBLISH_RUNS.value(path="stream", strategy="sps") == 1.0
        assert CHUNKS_TOTAL.value(backend="serial") > 0

    def test_counters_agree_across_worker_counts(self, adult_csv):
        observed = {}
        for workers in (1, 2, 4):
            REGISTRY.reset()
            _stream(adult_csv, workers=workers)
            chunks = sum(
                value for _, value in CHUNKS_TOTAL.samples()
            )
            observed[workers] = (
                ROWS_PUBLISHED.value(strategy="sps"),
                PUBLISH_RUNS.value(path="stream", strategy="sps"),
                chunks,
            )
        assert observed[1] == observed[2] == observed[4]

    def test_pipeline_updates_the_run_counters(self, adult_csv):
        REGISTRY.reset()
        table = read_csv(io.StringIO(adult_csv), sensitive="Income")
        report = publish(table, strategy="uniform", rng=3)
        assert ROWS_PUBLISHED.value(strategy="uniform") == len(report.published)
        assert PUBLISH_RUNS.value(path="pipeline", strategy="uniform") == 1.0


# --------------------------------------------------------------------- #
# Service: /metrics and per-job event timelines
# --------------------------------------------------------------------- #

CSV_BODY = "Job,City,Income\n" + "\n".join(
    f"{'eng' if i % 2 else 'artist'},c{i % 3},{'high' if i % 4 == 0 else 'low'}"
    for i in range(120)
)


@pytest.fixture()
def service():
    svc = AnonymizationService()
    svc.register_csv("demo", io.StringIO(CSV_BODY), "Income")
    return svc


@pytest.fixture()
def server_url(service):
    with ServingFrontend(service, port=0) as frontend:
        yield frontend.base_url


class TestServiceObservability:
    def test_metrics_endpoint_serves_valid_exposition(self, service, server_url):
        service.publish(dataset="demo", backend="sps", params={}, seed=1)
        with urllib.request.urlopen(f"{server_url}/metrics") as response:
            assert response.headers["Content-Type"].startswith("text/plain; version=0.0.4")
            text = response.read().decode()
        families = parse_prometheus(text)
        assert "repro_build_info" in families
        assert "repro_rows_published_total" in families
        (sample,) = families["repro_build_info"]
        assert sample[1] == 1.0

    def test_in_memory_job_timeline(self, service):
        record = service.publish(dataset="demo", backend="sps", params={}, seed=1)
        assert [event["event"] for event in record.events] == ["started", "completed"]
        elapsed = [event["elapsed"] for event in record.events]
        assert elapsed == sorted(elapsed) and all(t >= 0.0 for t in elapsed)
        assert record.events[-1]["published_records"] == record.published_records

    def test_stream_job_timeline_coalesced_and_deterministic(self, service, tmp_path):
        source = tmp_path / "demo.csv"
        source.write_text(CSV_BODY + "\n")
        record = service.publish_stream(
            source, sensitive="Income", backend="sps", seed=1, chunk_rows=30,
        )
        assert [event["event"] for event in record.events] == [
            "started", "read", "group_index", "enforce", "done", "completed",
        ]

    def test_failed_job_timeline_records_the_error(self, service):
        with pytest.raises(Exception):
            service.publish(dataset="demo", backend="sps", params={"lam": -3.0}, seed=1)
        record = service.jobs.records()[-1]
        assert record.events[-1]["event"] == "failed"
        assert record.events[-1]["error"]

    def test_events_survive_snapshot_round_trip(self, service):
        record = service.publish(dataset="demo", backend="sps", params={}, seed=1)
        clone = JobRecord.from_json(json.loads(json.dumps(record.to_json())))
        assert clone.events == record.events

    def test_jobs_endpoint_serves_events(self, service, server_url):
        record = service.publish(dataset="demo", backend="sps", params={}, seed=1)
        with urllib.request.urlopen(f"{server_url}/jobs/{record.job_id}") as response:
            payload = json.load(response)
        assert [event["event"] for event in payload["events"]] == ["started", "completed"]
