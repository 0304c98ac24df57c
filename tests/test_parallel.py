"""The shared multi-worker scheduler and its determinism contract.

The load-bearing suite for :mod:`repro.parallel`: for a fixed seed and
``chunk_size``, the published table, the CSV bytes and the audit must be
byte-identical at any ``workers`` count — pinned here for every registered
strategy, the way ``tests/test_stream.py`` pins streaming against the
in-memory pipeline.  Also covers the FIFO dispatch's ordering, failure and
early-exit behaviour, the serial/thread
labels of chunk spans and metrics, worker-failure cleanup (the spool and
partial-output bugfix) and the perf-gate script's comparison logic.
"""

import csv
import hashlib
import importlib.util
import io
import json
import threading
import time
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.criterion import PrivacySpec
from repro.dataset.loaders import CsvCodec, csv_codec, read_csv, write_csv
from repro.delta import delta_publish, publish_base
from repro.obs import Tracer
from repro.obs.metrics import CHUNKS_TOTAL, REGISTRY
from repro.parallel import (
    StrategyKernel,
    iter_ordered_map,
    iter_run_results,
    run_chunks,
)
from repro.parallel.kernels import UniformRowKernel, encode_block_csv
from repro.pipeline import publish
from repro.pipeline.execution import run_chunks_serial
from repro.pipeline.params import ParamError
from repro.pipeline.strategy import SPSStrategy, get_strategy
from repro.service.engine import AnonymizationService
from repro.stream import stream_publish
from sps_records import assert_records_equal

ALL_STRATEGIES = ("sps", "uniform", "dp-laplace", "dp-gaussian", "generalize+sps")


def _csv_text(table):
    buffer = io.StringIO()
    write_csv(table, buffer)
    return buffer.getvalue()


def _per_row_csv(table, delimiter=","):
    """The per-row rendering (csv.writer over decode_record) the codec replaced."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter=delimiter)
    writer.writerow(list(table.schema.public_names) + [table.schema.sensitive_name])
    writer.writerows(table.schema.decode_record(row) for row in table.codes)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def quoting_csv():
    """A source whose values need every kind of CSV quoting."""
    cities = ["Oslo, NO", 'say "hi"', "two\nlines", " padded ", "Zürich", ""]
    jobs = ["eng", "nurse; night", "tab\there"]
    diseases = ["flu", "cold", "héпатит", "zika|x"]
    rng = np.random.default_rng(5)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["City", "Job", "Disease"])
    for _ in range(600):
        writer.writerow([
            cities[rng.integers(len(cities))],
            jobs[rng.integers(len(jobs))],
            diseases[rng.integers(len(diseases))],
        ])
    return buffer.getvalue()


@pytest.fixture(scope="module")
def adult_csv():
    return _csv_text(repro.generate_adult(1200, seed=11))


# --------------------------------------------------------------------- #
# Serial / thread execution
# --------------------------------------------------------------------- #


def _module_level_sum(chunk, rng):
    return sum(chunk) + int(rng.integers(0, 10))


class TestBackendLabels:
    @pytest.mark.parametrize(
        ("workers", "n_items", "expected"),
        [(1, 12, "serial"), (4, 3, "serial"), (3, 12, "thread")],
    )
    def test_chunk_spans_and_counter_name_the_backend(self, workers, n_items, expected):
        # One worker or a single chunk runs inline; anything else on threads.
        REGISTRY.reset()
        with Tracer() as tracer:
            run_chunks(
                list(range(n_items)), _module_level_sum, seed=5, chunk_size=4,
                workers=workers,
            )
        chunks = [record for record in tracer.spans if record.name == "chunk"]
        n_chunks = -(-n_items // 4)
        assert len(chunks) == n_chunks
        assert {record.attributes["backend"] for record in chunks} == {expected}
        counts = {labels["backend"]: value for labels, value in CHUNKS_TOTAL.samples()}
        assert counts == {expected: n_chunks}


class TestThreadPool:
    def test_workers_n_runs_chunks_concurrently_on_n_pool_threads(self):
        # All three workers must be inside a kernel at once to pass the
        # barrier; the timeout turns a too-small pool into a failure, not a hang.
        barrier = threading.Barrier(3, timeout=10)
        seen = []

        def kernel(chunk, rng):
            seen.append(threading.current_thread())
            if chunk[0] < 3:
                barrier.wait()
            return chunk[0]

        got = run_chunks(list(range(12)), kernel, seed=0, chunk_size=1, workers=3)
        assert got == list(range(12))
        assert threading.current_thread() not in seen
        assert len(set(seen)) == 3

    @pytest.mark.parametrize(("workers", "n_items"), [(1, 12), (4, 3)])
    def test_inline_runs_on_the_calling_thread(self, workers, n_items):
        seen = []

        def kernel(chunk, rng):
            seen.append(threading.current_thread())
            return chunk[0]

        run_chunks(list(range(n_items)), kernel, seed=0, chunk_size=4, workers=workers)
        assert seen and set(seen) == {threading.current_thread()}

    @pytest.mark.parametrize(
        ("call", "error"),
        [
            (
                lambda: run_chunks(
                    [1, 2], _module_level_sum, seed=0, workers=2, backend="process"
                ),
                TypeError,
            ),
            (
                lambda: list(
                    iter_ordered_map(_module_level_sum, [], workers=2, backend="thread")
                ),
                TypeError,
            ),
            (
                # Extra keywords of stream_publish are strategy parameters.
                lambda: stream_publish(
                    io.StringIO("City,Disease\nOslo,Flu\n"), sensitive="Disease",
                    strategy="uniform", rng=1, parallel_backend="thread",
                ),
                ParamError,
            ),
            (
                lambda: repro.PublishPipeline("sps").with_workers(2, backend="thread"),
                TypeError,
            ),
        ],
        ids=["run_chunks", "iter_ordered_map", "stream_publish", "with_workers"],
    )
    def test_retired_backend_keywords_are_rejected(self, call, error):
        # 9.0.0 removed the backend knob; an old caller fails loudly instead
        # of having its choice silently ignored.
        with pytest.raises(error, match="backend"):
            call()


# --------------------------------------------------------------------- #
# run_chunks / iter_ordered_map
# --------------------------------------------------------------------- #


class TestRunChunks:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_matches_sequential_reference_at_any_worker_count(self, workers):
        items = list(range(37))
        expected = run_chunks_serial(items, _module_level_sum, seed=5, chunk_size=4)
        got = run_chunks(items, _module_level_sum, seed=5, chunk_size=4, workers=workers)
        assert got == expected

    def test_results_ordered_even_when_completion_is_reversed(self):
        first_may_finish = threading.Event()

        def stalling(chunk, rng):
            # The first chunk blocks until the last chunk has run, forcing
            # maximally out-of-order completion.
            if chunk[0] == 0:
                assert first_may_finish.wait(timeout=10)
            if chunk[0] == 8:
                first_may_finish.set()
            return chunk[0]

        got = run_chunks(list(range(10)), stalling, seed=0, chunk_size=2, workers=5)
        assert got == [0, 2, 4, 6, 8]

    def test_worker_exception_propagates(self):
        def boom(chunk, rng):
            if chunk[0] >= 4:
                raise RuntimeError("kernel exploded")
            return chunk[0]

        with pytest.raises(RuntimeError, match="kernel exploded"):
            run_chunks(list(range(8)), boom, seed=0, chunk_size=2, workers=2)

    def test_failure_behind_a_slow_head_yields_the_head_first(self):
        failed = threading.Event()

        def task(index):
            if index == 0:
                # The head finishes only after the task behind it has failed.
                assert failed.wait(timeout=10)
                return "head"
            failed.set()
            raise RuntimeError("second task exploded")

        results = iter_ordered_map(task, [(0,), (1,)], workers=2, n_tasks=2)
        assert next(results) == "head"
        with pytest.raises(RuntimeError, match="second task exploded"):
            next(results)

    def test_early_exit_shuts_the_pool_down_and_cancels_pending_tasks(self):
        before = set(threading.enumerate())
        ran = []

        def task(index):
            ran.append(index)
            if index:
                time.sleep(0.5)
            return index

        results = iter_ordered_map(
            task, ((index,) for index in range(20)), workers=2, n_tasks=20
        )
        with closing(results):
            assert next(results) == 0
        # Task 1, and task 2 if a worker had taken it, were still running
        # when the consumer left; the other submitted tasks were cancelled.
        assert sorted(ran) in ([0, 1], [0, 1, 2])
        assert set(threading.enumerate()) <= before

    def test_run_tasks_keep_a_window_of_workers_plus_one(self):
        pulled = []

        def payloads():
            for index in range(12):
                pulled.append(index)
                yield (index,)

        runs = [(2 * index, 2) for index in range(12)]
        results = iter_ordered_map(lambda index: index, payloads(), workers=3, task_chunks=runs)
        with closing(results):
            assert next(results) == 0
            # A run task's result is a whole run's block: the window is the
            # three workers' runs plus one, not the one-chunk 2 * 3 + 2.
            assert len(pulled) == 3 + 1
            assert list(results) == list(range(1, 12))

    def test_lazy_payloads_pulled_with_backpressure(self):
        pulled = []

        def payloads():
            for i in range(20):
                pulled.append(i)
                yield (i,)

        def slow_identity(value):
            time.sleep(0.005)
            return value

        iterator = iter_ordered_map(slow_identity, payloads(), workers=2, n_tasks=20)
        first = next(iterator)
        assert first == 0
        # Submission backpressure: far fewer than all 20 payloads were pulled
        # to produce the first result (bounded in-flight window).
        assert len(pulled) <= 2 * 2 + 3
        assert list(iterator) == list(range(1, 20))


# --------------------------------------------------------------------- #
# Worker-count equivalence: every strategy, workers x chunk_rows
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def sequential_reference(adult_csv):
    """Per-strategy reference outputs of the sequential paths (workers=1)."""
    references = {}
    for strategy in ALL_STRATEGIES:
        table = read_csv(io.StringIO(adult_csv), sensitive="Income")
        in_memory = publish(table, strategy=strategy, rng=7, chunk_size=32)
        streamed = stream_publish(
            io.StringIO(adult_csv), sensitive="Income", strategy=strategy,
            rng=7, chunk_size=32, chunk_rows=300, workers=1,
        )
        sink = io.StringIO()
        stream_publish(
            io.StringIO(adult_csv), sensitive="Income", strategy=strategy,
            rng=7, chunk_size=32, chunk_rows=300, workers=1, output=sink,
        )
        references[strategy] = {
            "in_memory": in_memory,
            "streamed": streamed,
            "csv": sink.getvalue(),
        }
    return references


def _audit_digest(audit):
    if audit is None:
        return None
    return audit.summary(), audit.total_records


class TestWorkerCountEquivalence:
    @pytest.mark.parametrize("chunk_rows", [250, 900])
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_bytes_csv_and_audit_identical_to_sequential(
        self, adult_csv, sequential_reference, strategy, workers, chunk_rows
    ):
        reference = sequential_reference[strategy]
        report = stream_publish(
            io.StringIO(adult_csv), sensitive="Income", strategy=strategy,
            rng=7, chunk_size=32, chunk_rows=chunk_rows, workers=workers,
        )
        # Published table: identical to the parallel-free streamed run and
        # the classic in-memory pipeline.
        assert (report.published.codes == reference["streamed"].published.codes).all()
        assert (report.published.codes == reference["in_memory"].published.codes).all()
        # CSV bytes: identical through the worker-side encode path.
        sink = io.StringIO()
        stream_publish(
            io.StringIO(adult_csv), sensitive="Income", strategy=strategy,
            rng=7, chunk_size=32, chunk_rows=chunk_rows, workers=workers, output=sink,
        )
        assert sink.getvalue() == reference["csv"]
        # Audit and per-group records: same report content.
        assert _audit_digest(report.audit) == _audit_digest(reference["streamed"].audit)
        assert_records_equal(report.records, reference["streamed"].records)
        assert report.workers == workers

    @pytest.mark.parametrize("workers", [2, 4])
    def test_in_memory_publish_workers_identical(self, adult_csv, sequential_reference, workers):
        table = read_csv(io.StringIO(adult_csv), sensitive="Income")
        report = publish(table, strategy="sps", rng=7, chunk_size=32, workers=workers)
        reference = sequential_reference["sps"]["in_memory"]
        assert (report.published.codes == reference.published.codes).all()
        assert_records_equal(report.records, reference.records)

    def test_thread_backend_also_byte_identical(self, adult_csv, sequential_reference):
        report = stream_publish(
            io.StringIO(adult_csv), sensitive="Income", strategy="sps",
            rng=7, chunk_size=32, chunk_rows=300, workers=3,
        )
        reference = sequential_reference["sps"]["streamed"]
        assert (report.published.codes == reference.published.codes).all()

    def test_workers_must_be_positive(self, adult_csv):
        with pytest.raises(ValueError, match="workers must be positive"):
            stream_publish(
                io.StringIO(adult_csv), sensitive="Income", rng=7, workers=0
            )
        with pytest.raises(ValueError, match="workers must be positive"):
            publish(repro.generate_adult(100, seed=0), workers=0)


# --------------------------------------------------------------------- #
# Kernels
# --------------------------------------------------------------------- #


class TestKernels:
    def test_strategy_kernel_matches_direct_call(self, adult_csv):
        table = read_csv(io.StringIO(adult_csv), sensitive="Income")
        strategy = SPSStrategy()
        resolved = strategy.resolve({})
        spec = strategy.spec_for(table, resolved)
        kernel = StrategyKernel(strategy, table.schema, spec, resolved)
        from repro.dataset.groups import personal_groups

        groups = personal_groups(table)[:5]
        direct = strategy.chunk_publisher(table.schema, spec, resolved)
        a = kernel(groups, np.random.default_rng(3))
        c = direct(groups, [np.random.default_rng(3)], np.array([0, len(groups)]))
        assert (a[0] == c[0]).all()
        assert_records_equal(a[1], c[2])

    def test_encode_block_csv_matches_write_csv_bytes(self, adult_csv):
        table = read_csv(io.StringIO(adult_csv), sensitive="Income")
        encoded = encode_block_csv(table.schema, table.codes[:50])
        expected = _csv_text(
            type(table)(table.schema, table.codes[:50])
        ).split("\r\n", 1)[1]  # drop the header line
        assert encoded.text == expected
        assert encoded.n_rows == 50
        assert encoded.text == _per_row_csv(
            type(table)(table.schema, table.codes[:50])
        ).split("\r\n", 1)[1]

    def test_write_csv_with_delimiter_matches_per_row_rendering(self, quoting_csv):
        table = read_csv(io.StringIO(quoting_csv), sensitive="Disease")
        out = io.StringIO()
        write_csv(table, out, delimiter=";")
        assert out.getvalue() == _per_row_csv(table, delimiter=";")

    def test_table_csv_route_matches_per_row_rendering(self, quoting_csv):
        from repro.serve.router import ServiceRouter

        service = AnonymizationService()
        service.register_csv("quoting", io.StringIO(quoting_csv), sensitive="Disease")
        job = service.publish("quoting", "sps", seed=7)
        result = ServiceRouter(service).handle("GET", f"/jobs/{job.job_id}/table.csv")
        assert result.status == 200
        expected = _per_row_csv(service.published_table(job.job_id))
        assert result.body == expected.encode("utf-8")

    @pytest.mark.parametrize("strategy", ["sps", "uniform"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_csv_sink_matches_per_row_rendering(
        self, quoting_csv, tmp_path, strategy, workers
    ):
        common = dict(sensitive="Disease", strategy=strategy, rng=7, chunk_rows=128, chunk_size=8)
        published = stream_publish(io.StringIO(quoting_csv), **common).published
        output = tmp_path / "out.csv"
        stream_publish(io.StringIO(quoting_csv), output=output, workers=workers, **common)
        assert output.read_bytes() == _per_row_csv(published).encode("utf-8")

    def test_builder_errors_propagate_unmasked(self, adult_csv):
        # A real ValueError from a strategy's chunk_publisher builder must
        # reach the caller verbatim — only the None (no kernel) case may be
        # rewritten into the "cannot publish out-of-core" message.
        class BadBuilder(SPSStrategy):
            name = "sps-bad-builder"

            def chunk_publisher(self, schema, spec, resolved):
                raise ValueError("significance must be between 0 and 1")

        with pytest.raises(ValueError, match="significance must be between 0 and 1"):
            stream_publish(
                io.StringIO(adult_csv), sensitive="Income", strategy=BadBuilder(), rng=7
            )

    def test_uniform_row_kernel_matches_remap_plus_where(self):
        remaps = (np.array([1, 0]), np.array([0, 2, 1]))
        block = np.array([[0, 2], [1, 1], [0, 0]])
        retain = np.array([True, False, True])
        replacements = np.array([9, 9, 9])
        kernel = UniformRowKernel(remaps=remaps)
        out = kernel((block, retain, replacements))
        assert out.tolist() == [[1, 1], [0, 9], [1, 0]]


# --------------------------------------------------------------------- #
# Rendering on the workers, from blocks in the schema's code dtype
# --------------------------------------------------------------------- #


@pytest.fixture
def encode_threads(monkeypatch):
    """The thread of every ``CsvCodec.encode`` call made while the test runs."""
    threads = []
    original = CsvCodec.encode

    def spy(self, block):
        threads.append(threading.current_thread())
        return original(self, block)

    monkeypatch.setattr(CsvCodec, "encode", spy)
    return threads


class TestWorkerSideRendering:
    @pytest.mark.parametrize("strategy", ["sps", "dp-laplace", "uniform"])
    def test_no_run_is_rendered_on_the_calling_thread(
        self, adult_csv, tmp_path, encode_threads, strategy
    ):
        # chunk_size 4 makes several runs of 16 chunks; chunk_rows 200 makes
        # six spool blocks for the row path.
        stream_publish(
            io.StringIO(adult_csv), sensitive="Income", strategy=strategy, rng=7,
            chunk_size=4, chunk_rows=200, workers=2, output=tmp_path / "out.csv",
        )
        assert len(encode_threads) > 1
        assert threading.current_thread() not in encode_threads

    def test_no_delta_run_is_rendered_on_the_calling_thread(
        self, adult_csv, tmp_path, encode_threads
    ):
        source = tmp_path / "base.csv"
        source.write_text(adult_csv, newline="")
        report = publish_base(
            source, sensitive="Income", strategy="dp-laplace", rng=7, chunk_size=4,
            workers=2, output=tmp_path / "published.csv",
        )
        rows = list(csv.reader(io.StringIO(adult_csv)))[1:]
        # One appended row per tenth record dirties chunks all over the table.
        delta_publish(report.state, rows[::10], workers=2)
        assert len(encode_threads) > 2
        assert threading.current_thread() not in encode_threads

    @pytest.mark.parametrize("strategy", ["sps", "dp-laplace", "dp-gaussian"])
    def test_stream_output_is_identical_at_one_and_two_workers(
        self, adult_csv, tmp_path, strategy
    ):
        digests = set()
        for workers in (1, 2):
            output = tmp_path / f"w{workers}.csv"
            stream_publish(
                io.StringIO(adult_csv), sensitive="Income", strategy=strategy, rng=7,
                chunk_size=4, workers=workers, output=output,
            )
            digests.add(hashlib.sha256(output.read_bytes()).hexdigest())
        assert len(digests) == 1

    def test_delta_base_chunk_index_is_identical_at_one_and_two_workers(
        self, adult_csv, tmp_path
    ):
        source = tmp_path / "base.csv"
        source.write_text(adult_csv, newline="")
        states = [
            publish_base(
                source, sensitive="Income", strategy="dp-laplace", rng=7, chunk_size=4,
                workers=workers, output=tmp_path / f"w{workers}.csv",
            ).state
            for workers in (1, 2)
        ]
        assert states[0].chunk_bytes == states[1].chunk_bytes
        assert states[0].chunk_crc32 == states[1].chunk_crc32
        assert len(states[0].chunk_crc32) == -(-len(states[0].groups) // 4)
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()


class TestNarrowBlocks:
    @pytest.mark.parametrize(("widest", "dtype"), [(128, np.int8), (129, np.int16)])
    @pytest.mark.parametrize("strategy", ["sps", "dp-laplace"])
    def test_blocks_use_the_code_dtype_and_render_like_csv_writer(
        self, strategy, widest, dtype
    ):
        from repro.dataset.groups import GroupCounts
        from repro.dataset.schema import Attribute, Schema
        from repro.dataset.table import code_dtype

        schema = Schema(
            [Attribute("A", tuple(f"a{i}" for i in range(widest))), Attribute("B", ("x", "y"))],
            Attribute("S", ("flu", "cold, mild", "hiv")),
        )
        assert code_dtype(schema) == dtype
        # The top codes of the wide column, 127 and (at 129 values) 128,
        # with counts large enough that every group publishes rows.
        top = np.arange(widest - 3, widest)
        keys = np.column_stack([np.repeat(top, 2), np.tile([0, 1], 3)])
        groups = GroupCounts.from_dense(keys, np.full((len(keys), 3), 40))
        resolved = get_strategy(strategy).resolve({})
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=3)
        kernel = StrategyKernel(get_strategy(strategy), schema, spec, resolved)
        codec = csv_codec(schema)
        (result,) = iter_run_results(groups, kernel, seed=3, chunk_size=2, codec=codec)
        assert result.block.dtype == dtype
        assert np.unique(result.block[:, 0]).tolist() == top.tolist()
        rendered = b"".join(result.csv)
        assert len(result.csv) == 3
        expected = io.StringIO()
        csv.writer(expected).writerows(schema.decode_record(row) for row in result.block)
        assert rendered == expected.getvalue().encode("utf-8")


# --------------------------------------------------------------------- #
# Failure cleanup: the spool / partial-output bugfix
# --------------------------------------------------------------------- #


class TestFailureCleanup:
    def test_spool_closed_when_read_fails_midway(self, tmp_path, monkeypatch):
        # A ragged row *after* the spool exists: before the fix the spool's
        # temp files were stranded on read-phase failures (cleanup only
        # covered the enforce stage).
        import repro.stream.engine as engine_module

        spools = []
        original = engine_module._RowSpool

        class RecordingSpool(original):
            def __init__(self, n_cols):
                super().__init__(n_cols)
                spools.append(self)

        monkeypatch.setattr(engine_module, "_RowSpool", RecordingSpool)
        rows = "City,Disease\n" + "Oslo,Flu\n" * 40 + "broken-row\n"
        with pytest.raises(Exception):
            stream_publish(
                io.StringIO(rows), sensitive="Disease", strategy="uniform",
                rng=1, chunk_rows=16,
            )
        assert spools, "row spool was never created"
        assert all(s._codes.closed and s._retain.closed for s in spools)

    def test_partial_output_removed_on_worker_exception(self, adult_csv, tmp_path):
        class Exploding(SPSStrategy):
            name = "sps-exploding"

            def chunk_publisher(self, schema, spec, resolved):
                def run_fn(run, rngs, bounds):
                    raise ValueError("strategy exploded mid-publish")

                return run_fn

        out = tmp_path / "published.csv"
        with pytest.raises(ValueError, match="exploded"):
            stream_publish(
                io.StringIO(adult_csv), sensitive="Income", strategy=Exploding(),
                rng=7, chunk_size=8, chunk_rows=300, workers=3, output=out,
            )
        assert not out.exists()


# --------------------------------------------------------------------- #
# Service integration: JobSpec.workers + HTTP field
# --------------------------------------------------------------------- #


class TestServiceWorkers:
    def test_stream_job_workers_recorded_and_byte_identical(self, adult_csv, tmp_path):
        source = tmp_path / "input.csv"
        source.write_text(adult_csv, newline="")
        service = AnonymizationService()
        out1 = tmp_path / "w1.csv"
        out4 = tmp_path / "w4.csv"
        record1 = service.publish_stream(
            source, "Income", "sps", seed=7, chunk_size=32, workers=1, output=out1
        )
        record4 = service.publish_stream(
            source, "Income", "sps", seed=7, chunk_size=32, workers=4, output=out4
        )
        assert record1.spec.max_workers == 1
        assert record4.spec.max_workers == 4
        assert record4.spec.to_json()["max_workers"] == 4
        assert out1.read_bytes() == out4.read_bytes()

    def test_stream_job_rejects_bad_workers(self, tmp_path):
        service = AnonymizationService()
        from repro.service.registry import ServiceError

        with pytest.raises(ServiceError, match="workers must be positive"):
            service.publish_stream(tmp_path / "x.csv", "Income", "sps", workers=0)

    def test_http_workers_field_both_job_modes(self, adult_csv, tmp_path):
        import json as json_module
        import urllib.request

        from repro.serve import ServingFrontend

        source = tmp_path / "input.csv"
        source.write_text(adult_csv, newline="")
        service = AnonymizationService()
        service.register_synthetic("smoke", "adult", n_records=500, seed=1)
        with ServingFrontend(service, port=0) as frontend:
            base = frontend.base_url

            def post(payload):
                request = urllib.request.Request(
                    f"{base}/publish",
                    data=json_module.dumps(payload).encode(),
                    method="POST",
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(request) as response:
                    return json_module.load(response)

            job = post({"dataset": "smoke", "backend": "sps", "seed": 3, "workers": 2})
            assert job["status"] == "completed"
            assert job["spec"]["max_workers"] == 2
            stream_job = post({
                "stream": True, "source": str(source), "sensitive": "Income",
                "backend": "sps", "seed": 3, "workers": 2,
            })
            assert stream_job["status"] == "completed"
            assert stream_job["spec"]["max_workers"] == 2


# --------------------------------------------------------------------- #
# Bench parallel suite + the perf-gate script
# --------------------------------------------------------------------- #


def _load_gate_module():
    path = Path(__file__).parent.parent / "scripts" / "check_bench_regression.py"
    spec = importlib.util.spec_from_file_location("check_bench_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchStreamWorkers:
    def test_tiny_worker_axis_reports_byte_identity(self):
        from repro.bench.runner import run_suite
        from repro.bench.schema import validate_report
        from repro.bench.timing import TimingSpec

        report = run_suite(
            "stream", tiny=True, timing=TimingSpec(warmup=0, repeats=1),
            scenario_filter=["adult-5000"],
        )
        validate_report(report)
        assert [s["workers"] for s in report["scenarios"]] == [1, 2, 4]
        for entry in report["scenarios"]:
            assert entry["verdicts"]["byte_identical"] is True
            assert entry["ops"]["speedup_vs_w1"] > 0
        assert report["environment"]["cpu_count"] >= 1

    def test_scenario_listing_order_is_workers_ascending(self):
        from repro.bench.stream import stream_scenarios

        names = [s.name for s in stream_scenarios(tiny=True)]
        assert names[0].endswith("/w1") and names[1].endswith("/w2") and names[2].endswith("/w4")
        assert len(names) == 9


class TestPerfGateScript:
    @pytest.mark.parametrize("suite", ["core", "service", "micro", "stream", "delta", "serve"])
    def test_one_false_verdict_is_a_problem_naming_suite_scenario_and_verdict(self, suite):
        gate = _load_gate_module()
        report = {
            "suite": suite,
            "scenarios": [
                {"name": "a/w1", "verdicts": {"x": True, "y": True}},
                {"name": "b/w1", "verdicts": {"x": True, "y": False}},
                {"name": "c/w1", "verdicts": {}},
            ],
        }
        assert gate.check_verdicts(report) == [f"{suite}:b/w1: verdict y is False"]

    @staticmethod
    def _serve_audit_report(monkeypatch, lookup):
        """The tiny serve audit scenario run with ``ResponseCache.get`` replaced."""
        from repro.bench.runner import run_suite
        from repro.bench.timing import TimingSpec
        from repro.serve.cache import ResponseCache

        monkeypatch.setattr(ResponseCache, "get", lookup)
        report = run_suite(
            "serve", tiny=True, timing=TimingSpec(warmup=0, repeats=1), scenario_filter=["audit"]
        )
        (entry,) = report["scenarios"]
        return report, entry

    def test_a_cache_that_never_hits_fails_both_cache_verdicts(self, monkeypatch):
        gate = _load_gate_module()

        def slow_miss(cache, key):
            # Every lookup misses, and costs more than the recompute it
            # fails to save: the cached phase is all recomputes.
            time.sleep(0.02)
            return None

        report, entry = self._serve_audit_report(monkeypatch, slow_miss)
        assert entry["ops"]["cache_hit_ratio"] == 0.0
        assert entry["ops"]["cache_speedup"] < 1.0
        assert entry["verdicts"] == {
            "byte_identical": True,
            "invalidation_observed": True,
            "all_cached_requests_hit": False,
            "hits_faster_than_recompute": False,
        }
        assert gate.check_verdicts(report) == [
            f"serve:{entry['name']}: verdict all_cached_requests_hit is False",
            f"serve:{entry['name']}: verdict hits_faster_than_recompute is False",
        ]

    def test_one_cached_phase_miss_fails_the_hit_verdict(self, monkeypatch):
        from repro.serve.cache import ResponseCache

        gate = _load_gate_module()
        real_get = ResponseCache.get
        hits = []

        def miss_once(cache, key):
            # The first would-be hit is the cached phase's fill request; the
            # second, its first load request, misses and recomputes; the
            # other 39 hit.
            entry = real_get(cache, key)
            if entry is not None:
                hits.append(key)
            return None if len(hits) == 2 and entry is not None else entry

        report, entry = self._serve_audit_report(monkeypatch, miss_once)
        assert entry["ops"]["cache_hit_ratio"] == 39 / 40
        assert entry["verdicts"]["all_cached_requests_hit"] is False
        assert f"serve:{entry['name']}: verdict all_cached_requests_hit is False" in (
            gate.check_verdicts(report)
        )

    def test_throughput_regression_detected(self):
        gate = _load_gate_module()
        baseline = {
            "suite": "core",
            "scenarios": [{"name": "s/a/c1/w1", "seconds": {"best": 1.0}}],
        }
        fast = {
            "suite": "core",
            "scenarios": [{"name": "s/a/c1/w1", "seconds": {"best": 1.2}}],
        }
        slow = {
            "suite": "core",
            "scenarios": [{"name": "s/a/c1/w1", "seconds": {"best": 2.0}}],
        }
        assert gate.compare_throughput(fast, baseline, tolerance=0.25)[0] == []
        problems, _ = gate.compare_throughput(slow, baseline, tolerance=0.25)
        assert len(problems) == 1 and "+100%" in problems[0]

    def test_sub_floor_baselines_are_notes_not_failures(self):
        gate = _load_gate_module()
        baseline = {
            "suite": "service",
            "scenarios": [{"name": "tiny/w1", "seconds": {"best": 0.0008}}],
        }
        candidate = {
            "suite": "service",
            "scenarios": [{"name": "tiny/w1", "seconds": {"best": 0.003}}],
        }
        # +275% but under the 50ms gating floor: noted, never a failure.
        problems, notes = gate.compare_throughput(candidate, baseline, tolerance=0.25)
        assert problems == [] and "gating floor" in notes[0]

    def test_a_scenario_missing_from_the_baseline_is_a_problem(self):
        gate = _load_gate_module()
        baseline = {"scenarios": [{"name": "old-name", "seconds": {"best": 5.0}}]}
        candidate = {
            "suite": "stream",
            "scenarios": [{"name": "new-name", "seconds": {"best": 5.0}}],
        }
        problems, notes = gate.compare_throughput(candidate, baseline, 0.25)
        assert problems == ["stream:new-name: no committed baseline (record one in the baseline directory)"]
        assert notes == []

    def test_committed_baselines_cover_every_gated_scenario(self):
        from repro.bench.runner import SUITES

        baseline_dir = Path(__file__).parent.parent / "benchmarks" / "baselines"
        for name, suite in SUITES.items():
            if not suite.gated:
                continue
            baseline = json.loads((baseline_dir / f"BENCH_{name}.json").read_text())
            assert {s["name"] for s in baseline["scenarios"]} == {
                s.name for s in suite.scenarios(True)
            }, name

    def test_committed_baselines_gate_throughput_in_every_timed_suite(self):
        # micro and serve have no point over the floor; the baselines
        # README says why.  Every other gated suite must keep one.
        from repro.bench.runner import SUITES

        gate = _load_gate_module()
        baseline_dir = Path(__file__).parent.parent / "benchmarks" / "baselines"
        timed = [name for name, suite in SUITES.items() if suite.gated]
        timed = [name for name in timed if name not in ("micro", "serve")]
        assert timed == ["core", "service", "stream", "delta"]
        for name in timed:
            baseline = json.loads((baseline_dir / f"BENCH_{name}.json").read_text())
            best = max(s["seconds"]["best"] for s in baseline["scenarios"])
            assert best >= gate.DEFAULT_MIN_SECONDS, name

    def test_invariance_check_flags_worker_dependent_counts(self):
        gate = _load_gate_module()
        report = {
            "suite": "service",
            "scenarios": [
                {"name": "sps/adult-100/c64/w1", "ops": {"published_records": 100}},
                {"name": "sps/adult-100/c64/w4", "ops": {"published_records": 99}},
            ],
        }
        problems = gate.check_worker_invariance(report)
        assert len(problems) == 1 and "depends on the worker count" in problems[0]

    def test_determinism_check(self):
        gate = _load_gate_module()
        a = {"scenarios": [{"name": "x", "ops": {"published_records": 5, "rps": 1.5}}]}
        b = {"scenarios": [{"name": "x", "ops": {"published_records": 5, "rps": 9.9}}]}
        assert gate.check_determinism(a, b) == []  # floats (wall-clock) ignored
        c = {"scenarios": [{"name": "x", "ops": {"published_records": 6, "rps": 1.5}}]}
        assert len(gate.check_determinism(a, c)) == 1
