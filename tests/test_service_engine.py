"""Tests for the service engine: deterministic parallelism, caching, jobs, snapshots."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.adult import generate_adult
from repro.delta import engine as delta_engine
from repro.dataset.loaders import write_csv
from repro.parallel import run_chunks
from repro.pipeline import register_strategy, unregister_strategy
from repro.pipeline.execution import chunk_items, chunk_rng, chunk_rngs
from repro.pipeline.strategy import SPSStrategy
from repro.service.engine import AnonymizationService
from repro.service.registry import NotFoundError, ServiceError
from repro.store import NS_DELTAS, NS_JOBS, StoreError, VersionConflictError


@pytest.fixture()
def service(skewed_binary_table) -> AnonymizationService:
    svc = AnonymizationService()
    svc.register_table("skewed", skewed_binary_table)
    return svc


class TestParallelPrimitives:
    def test_chunk_items_partitions_in_order(self):
        chunks = chunk_items(list(range(10)), 4)
        assert [list(c) for c in chunks] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_chunk_rngs_reproducible(self):
        a = [rng.random() for rng in chunk_rngs(42, 5)]
        b = [rng.random() for rng in chunk_rngs(42, 5)]
        assert a == b

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**64), n_chunks=st.integers(1, 24))
    def test_chunk_rng_draws_the_stream_of_its_spawned_chunk(self, seed, n_chunks):
        spawned = chunk_rngs(seed, n_chunks)
        for index in range(n_chunks):
            assert chunk_rng(seed, index).random(4).tolist() == spawned[index].random(4).tolist()

    def test_run_chunked_order_independent_of_workers(self):
        items = list(range(100))

        def chunk_fn(chunk, rng):
            return [x + rng.integers(0, 1000) for x in chunk]

        sequential = run_chunks(items, chunk_fn, seed=1, chunk_size=7, workers=1)
        parallel = run_chunks(items, chunk_fn, seed=1, chunk_size=7, workers=8)
        assert sequential == parallel

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            chunk_items([1], 0)


class TestDeterministicEngine:
    @pytest.mark.parametrize("backend", ["sps", "dp-laplace", "generalize+sps"])
    def test_identical_output_at_any_worker_count(self, service, backend):
        """Same seed ⇒ byte-identical published table at any worker count."""
        reference = service.publish("skewed", backend, seed=21, chunk_size=2, max_workers=1)
        for workers in (2, 4, 8):
            other = service.publish(
                "skewed", backend, seed=21, chunk_size=2, max_workers=workers
            )
            assert reference.published.codes.tobytes() == other.published.codes.tobytes()

    def test_different_seeds_differ(self, service):
        a = service.publish("skewed", "sps", seed=1, chunk_size=2)
        b = service.publish("skewed", "sps", seed=2, chunk_size=2)
        assert not np.array_equal(a.published.codes, b.published.codes)


class TestJobsAndCaching:
    def test_second_publish_hits_group_index_cache(self, service):
        first = service.publish("skewed", "sps", seed=1)
        second = service.publish("skewed", "sps", seed=2)
        assert not first.timings.group_index_cached
        assert second.timings.group_index_cached
        assert second.timings.group_index_seconds == 0.0
        entry = service.datasets.get("skewed")
        assert entry.group_index_misses == 1
        assert entry.group_index_hits >= 1

    def test_job_records_spec_timings_audit(self, service):
        record = service.publish(
            "skewed", "sps", params={"lam": 0.4}, seed=5, chunk_size=2, max_workers=2
        )
        assert record.status == "completed"
        assert record.spec.params == {"lam": 0.4}
        assert record.spec.max_workers == 2
        assert record.timings.total_seconds > 0
        assert record.audit is not None
        assert record.audit.n_groups == 3
        fetched = service.job(record.job_id)
        assert fetched is record

    def test_failed_job_recorded_and_raised(self, service):
        with pytest.raises(ServiceError, match="failed"):
            service.publish("skewed", "sps", params={"lam": -1.0})
        records = service.jobs.records()
        assert records[-1].status == "failed"
        assert "lambda" in records[-1].error

    def test_unknown_dataset_and_job(self, service):
        with pytest.raises(NotFoundError):
            service.publish("nope", "sps")
        with pytest.raises(NotFoundError):
            service.job("job-9999")

    def test_duplicate_dataset_rejected_unless_replace(self, service, skewed_binary_table):
        with pytest.raises(ServiceError, match="already registered"):
            service.register_table("skewed", skewed_binary_table)
        service.register_table("skewed", skewed_binary_table, replace=True)

    def test_non_numeric_param_is_client_error(self, service):
        with pytest.raises(ServiceError, match="must be a number"):
            service.publish("skewed", "sps", params={"lam": None})
        assert service.jobs.records()[-1].status == "failed"

    def test_published_tables_evicted_beyond_cap(self, skewed_binary_table):
        from repro.service.registry import JobStore

        svc = AnonymizationService()
        svc.jobs = JobStore(max_published_tables=2, store=svc.store)
        svc.register_table("skewed", skewed_binary_table)
        first = svc.publish("skewed", "uniform", seed=1)
        second = svc.publish("skewed", "uniform", seed=2)
        third = svc.publish("skewed", "uniform", seed=3)
        assert first.published is None  # evicted, record kept
        assert svc.job(first.job_id).status == "completed"
        assert second.published is not None
        assert third.published is not None
        with pytest.raises(ServiceError, match="evicted|no published table"):
            svc.published_table(first.job_id)


class _RaisingSPS(SPSStrategy):
    """An SPS strategy whose kernel fails with a non-client error."""

    name = "test-raising"

    def chunk_publisher(self, schema, spec, resolved):
        def run_fn(run, rngs, bounds):
            raise RuntimeError("strategy exploded")

        return run_fn


#: The engine call each job kind delegates its execution to.
_JOB_ENGINES = {
    "publish": "repro.pipeline.pipeline.PublishPipeline.run",
    "stream": "repro.stream.engine.stream_publish",
    "delta-base": "repro.delta.engine.publish_base",
    "append": "repro.delta.engine.delta_publish",
}


class TestJobLifecycle:
    """Every job kind fails the same way: one stored ``failed`` record."""

    @pytest.fixture()
    def lifecycle(self, tmp_path, skewed_binary_table):
        source = tmp_path / "base.csv"
        write_csv(skewed_binary_table, source)
        service = AnonymizationService()
        service.register_table("skewed", skewed_binary_table)
        service.publish_delta_base(
            "living", source, "Income", "sps", tmp_path / "living.csv", seed=1
        )
        yield service, source, tmp_path
        service.close()

    @staticmethod
    def _run(kind, service, source, tmp_path):
        if kind == "publish":
            return service.publish("skewed", "sps", seed=1)
        if kind == "stream":
            return service.publish_stream(source, "Income", "sps", seed=1)
        if kind == "delta-base":
            return service.publish_delta_base(
                "fresh", source, "Income", "sps", tmp_path / "fresh.csv"
            )
        return service.append_rows("living", rows=[["a", "high"]])

    @staticmethod
    def _stored_failure(service, before):
        records = service.jobs.records()
        assert len(records) == before + 1
        stored = [
            service.store.get(NS_JOBS, key).value
            for key in service.store.keys(NS_JOBS)
        ]
        assert len(stored) == before + 1
        record = stored[-1]
        assert record["status"] == "failed"
        assert record["events"][-1]["event"] == "failed"
        assert records[-1].status == "failed"
        return record

    @pytest.mark.parametrize("kind", list(_JOB_ENGINES))
    @pytest.mark.parametrize(
        ("error", "surfaces_as"),
        [
            (ValueError("bad input"), ServiceError),
            (OSError("disk gone"), ServiceError),
            (RuntimeError("engine bug"), RuntimeError),
        ],
    )
    def test_failed_job_leaves_one_failed_record(
        self, lifecycle, monkeypatch, kind, error, surfaces_as
    ):
        service, source, tmp_path = lifecycle
        before = len(service.jobs)

        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(_JOB_ENGINES[kind], fail)
        with pytest.raises(surfaces_as, match=str(error)):
            self._run(kind, service, source, tmp_path)
        record = self._stored_failure(service, before)
        assert record["error"] == str(error)

    def test_strategy_runtime_error_is_recorded(self, lifecycle):
        service, _, _ = lifecycle
        before = len(service.jobs)
        register_strategy(_RaisingSPS())
        try:
            with pytest.raises(RuntimeError, match="strategy exploded"):
                service.publish("skewed", "test-raising", seed=1)
        finally:
            unregister_strategy("test-raising")
        record = self._stored_failure(service, before)
        assert record["spec"]["backend"] == "test-raising"
        assert record["error"] == "strategy exploded"

    @pytest.mark.parametrize(("kind", "name"), [("delta-base", "fresh"), ("append", "living")])
    def test_delta_version_conflict_fails_with_retry_hint(
        self, lifecycle, monkeypatch, kind, name
    ):
        service, source, tmp_path = lifecycle
        before = len(service.jobs)
        published = tmp_path / f"{name}.csv"
        published_before = published.read_bytes() if published.exists() else None
        rival = service.store.get(NS_DELTAS, "living").value
        function = _JOB_ENGINES[kind].rsplit(".", 1)[1]
        engine = getattr(delta_engine, function)

        def run():
            if kind == "delta-base":
                return service.publish_delta_base(
                    name, source, "Income", "sps", published, replace=True
                )
            # A grown and a new group: rows that change the published bytes.
            return service.append_rows(name, rows=[["c", "high"], ["c", "high"], ["d", "low"]])

        def racing(*args, **kwargs):
            report = engine(*args, **kwargs)
            # Another writer through the shared store commits a state under
            # this name first, so the job's state is at a stale version.
            service.store.put(NS_DELTAS, name, rival)
            return report

        monkeypatch.setattr(delta_engine, function, racing)
        with pytest.raises(ServiceError) as raised:
            run()
        message = str(raised.value)
        assert f"delta dataset {name!r} was modified concurrently" in message
        assert "re-read and retry" in message
        assert isinstance(raised.value.__cause__.__cause__, VersionConflictError)
        record = self._stored_failure(service, before)
        assert "modified concurrently" in record["error"]
        monkeypatch.undo()
        # Neither the job's state nor its CSV landed: the rival's state
        # stands, and the published file is as it was (absent for a base).
        assert service.store.get(NS_DELTAS, name).value == rival
        assert (published.read_bytes() if published.exists() else None) == published_before
        assert not list(tmp_path.glob("*.tmp"))
        # The dataset stays usable: the same job, run again, completes.
        assert run().status == "completed"


class TestAuditEndpointLogic:
    def test_audit_summary_and_worst_groups(self, service):
        report = service.audit("skewed", lam=0.3, delta=0.3, retention_probability=0.5)
        summary = report["summary"]
        assert summary["n_groups"] == 3
        assert 0.0 <= summary["group_violation_rate"] <= 1.0
        assert len(report["worst_violations"]) == summary["n_violating_groups"]

    @staticmethod
    def _tied_table():
        """Nine violating groups: ratios |g| / s_g tie four ways, twice."""
        from repro.dataset.schema import Attribute, Schema
        from repro.dataset.table import Table

        schema = Schema(
            public=(Attribute("Group", tuple(f"g{i}" for i in range(10))),),
            sensitive=Attribute("Income", ("low", "high")),
        )
        rows = []
        for i in range(10):
            size, high = (600, 600) if i < 4 else (500, 400) if i < 8 else (300, 300)
            if i == 9:
                size, high = 10, 5
            rows += [(f"g{i}", "high")] * high + [(f"g{i}", "low")] * (size - high)
        return Table.from_records(schema, rows)

    @pytest.mark.parametrize("source", ["tied", "adult"])
    def test_worst_violations_equal_a_plain_sort(self, source):
        from repro.core.criterion import PrivacySpec
        from repro.core.testing import audit_table

        table = self._tied_table() if source == "tied" else generate_adult(5000, seed=3)
        svc = AnonymizationService()
        svc.register_table("t", table)
        report = svc.audit("t", lam=0.4, delta=0.4, retention_probability=0.5)

        # An independent reference: (key, |g|, s_g) of every violating group
        # as plain Python tuples, sorted by |g| / s_g, the last five reversed.
        spec = PrivacySpec(0.4, 0.4, 0.5, table.schema.sensitive_domain_size)
        audit = audit_table(table, spec)
        violating = [
            (tuple(key), size, threshold)
            for key, size, threshold, private in zip(
                audit.keys.tolist(), audit.sizes.tolist(), audit.thresholds.tolist(),
                audit.private.tolist(), strict=True,
            )
            if not private
        ]
        worst = sorted(violating, key=lambda g: g[1] / max(g[2], 1e-12))[-5:][::-1]
        expected = [
            {
                "key": list(key),
                "values": [
                    attr.decode(code)
                    for attr, code in zip(table.schema.public, key, strict=True)
                ],
                "size": size,
                "max_group_size": float(threshold),
                "sampling_rate": float(min(1.0, threshold / size)),
            }
            for key, size, threshold in worst
        ]
        assert len(violating) > 5
        assert report["summary"]["n_violating_groups"] == len(violating)
        assert json.dumps(report["worst_violations"]) == json.dumps(expected)
        if source == "tied":
            # Ties go to the later group, as the stable sort reversed leaves them.
            assert [v["key"] for v in report["worst_violations"]] == [[3], [2], [1], [0], [7]]

    def test_audit_reuses_cached_index(self, service):
        service.publish("skewed", "sps", seed=1)
        report = service.audit("skewed")
        assert report["group_index_cached"] is True


class TestSyntheticRegistration:
    def test_register_synthetic_adult(self):
        svc = AnonymizationService()
        entry = svc.register_synthetic("adult", "adult", n_records=2000, seed=0)
        assert entry.n_records == 2000
        assert entry.table.schema.sensitive_name == "Income"

    def test_unknown_generator_rejected(self):
        svc = AnonymizationService()
        with pytest.raises(ServiceError, match="unknown synthetic generator"):
            svc.register_synthetic("x", "nope")


class TestSnapshots:
    def test_snapshot_roundtrip(self, tmp_path, skewed_binary_table):
        path = tmp_path / "state.json"
        svc = AnonymizationService(snapshot_path=path)
        svc.register_table("skewed", skewed_binary_table)
        record = svc.publish("skewed", "sps", seed=3)
        svc.save()

        restored = AnonymizationService(snapshot_path=path)
        assert restored.datasets.get("skewed").table == skewed_binary_table
        restored_job = restored.job(record.job_id)
        assert restored_job.spec == record.spec
        assert restored_job.audit == record.audit
        assert restored_job.published is None  # tables are process-local
        # Job ids continue after the restored history.
        next_record = restored.publish("skewed", "uniform", seed=0)
        assert next_record.job_id != record.job_id

    def test_save_onto_json_snapshot_refused_untouched(self, tmp_path, service):
        target = tmp_path / "old.json"
        target.write_text(json.dumps({"store_version": 2, "namespaces": {}, "counters": {}}))
        before = target.read_bytes()
        with pytest.raises(StoreError, match="11.2.0"):
            service.save(target)
        assert target.read_bytes() == before
        assert [entry.name for entry in tmp_path.iterdir()] == ["old.json"]

    def test_save_without_path_rejected(self, service):
        with pytest.raises(ServiceError, match="no snapshot path"):
            service.save()

    def test_snapshot_of_adult_sample(self, tmp_path):
        path = tmp_path / "adult.json"
        svc = AnonymizationService(snapshot_path=path)
        svc.register_table("adult", generate_adult(500, seed=0))
        svc.save()
        restored = AnonymizationService(snapshot_path=path)
        assert restored.datasets.get("adult").n_records == 500
