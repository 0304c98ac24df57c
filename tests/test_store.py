"""Unit and concurrency tests of the ``repro.store`` connectors.

Covers the connector contract (transactions, optimistic versioning, typed
conflicts, counters) uniformly across the in-memory and file stores; the
in-memory store's one connection (data across close/open, many threads);
file-store concurrency (threads and processes hammering one database file
with no lost updates); store resolution and the refusal of pre-12.0.0 JSON
snapshots; export through ``AnonymizationService.save``; and service-level
restart persistence (datasets, jobs and delta states reloading from one
store; group indexes rebuilding; a reload never overwriting a job that
ended meanwhile).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import tempfile
import threading

import pytest

from repro.store import (
    COUNTER_JOB_IDS,
    NS_DATASETS,
    NS_JOBS,
    StoreError,
    VersionConflictError,
    open_store,
)


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    """One open store in memory or on a file; closed after the test."""
    connector = open_store(None if request.param == "memory" else tmp_path / "store.db")
    yield connector
    connector.close()


class TestConnectorContract:
    def test_put_get_roundtrip_and_version_bump(self, store):
        assert store.get("ns", "k") is None
        assert store.put("ns", "k", {"a": 1}) == 1
        stored = store.get("ns", "k")
        assert stored.value == {"a": 1}
        assert stored.version == 1
        assert store.put("ns", "k", [1, 2]) == 2
        assert store.get("ns", "k").value == [1, 2]

    def test_version_equals_get_version_without_decoding(self, store, monkeypatch):
        assert store.version("ns", "k") == 0  # missing key
        store.put("ns", "k", {"a": 1})
        store.put("ns", "k", {"a": 2})
        assert store.version("ns", "k") == store.get("ns", "k").version == 2
        with store.transaction(write=True) as txn:
            txn.put("ns", "staged", 1)
            assert txn.version("ns", "staged") == txn.get("ns", "staged").version == 1
        store.delete("ns", "k")
        assert store.version("ns", "k") == 0

        def no_decode(text):
            raise AssertionError("version() decoded a document")

        monkeypatch.setattr("repro.store.sqlite.decode_value", no_decode)
        assert store.version("ns", "staged") == 1

    def test_canonical_json_semantics(self, store):
        # Tuples become lists and non-string keys become strings in every
        # backend, so payloads are portable across connectors.
        store.put("ns", "k", {"t": (1, 2), 3: "x"})
        assert store.get("ns", "k").value == {"t": [1, 2], "3": "x"}

    def test_unserialisable_value_is_typed_error(self, store):
        with pytest.raises(StoreError, match="JSON-serialisable"):
            store.put("ns", "k", object())

    def test_create_only_conflict(self, store):
        store.put("ns", "k", 1, expected_version=0)
        with pytest.raises(VersionConflictError, match="already exists") as excinfo:
            store.put("ns", "k", 2, expected_version=0)
        assert (excinfo.value.namespace, excinfo.value.key) == ("ns", "k")
        assert excinfo.value.expected == 0
        assert store.get("ns", "k").value == 1

    def test_update_at_version_conflict(self, store):
        store.put("ns", "k", "v1")
        store.put("ns", "k", "v2", expected_version=1)
        with pytest.raises(VersionConflictError, match="expected version 1, found 2"):
            store.put("ns", "k", "v3", expected_version=1)
        assert store.get("ns", "k").value == "v2"

    def test_delete_with_and_without_expected_version(self, store):
        store.put("ns", "k", 1)
        with pytest.raises(VersionConflictError):
            store.delete("ns", "k", expected_version=7)
        assert store.delete("ns", "k", expected_version=1) is True
        assert store.delete("ns", "k") is False
        assert store.get("ns", "k") is None

    def test_listings_are_sorted(self, store):
        for key in ("b", "a", "c"):
            store.put("zoo", key, key.upper())
        store.put("ark", "x", 0)
        assert store.keys("zoo") == ["a", "b", "c"]
        assert [k for k, _ in store.items("zoo")] == ["a", "b", "c"]
        assert store.namespaces() == ["ark", "zoo"]

    def test_counters_are_monotonic_and_peekable(self, store):
        assert store.peek("seq") == 0
        assert [store.next_value("seq") for _ in range(3)] == [1, 2, 3]
        assert store.peek("seq") == 3

    def test_transaction_rolls_back_on_error(self, store):
        store.put("ns", "k", "before")
        with pytest.raises(RuntimeError, match="boom"):
            with store.transaction(write=True) as txn:
                txn.put("ns", "k", "during")
                txn.next_value("seq")
                raise RuntimeError("boom")
        assert store.get("ns", "k").value == "before"
        assert store.peek("seq") == 0

    def test_read_transaction_rejects_writes(self, store):
        with store.transaction() as txn:
            with pytest.raises(StoreError, match="write transaction"):
                txn.put("ns", "k", 1)
            with pytest.raises(StoreError, match="write transaction"):
                txn.next_value("seq")

    def test_closed_store_rejects_access(self, store):
        store.close()
        with pytest.raises(StoreError, match="not open"):
            store.get("ns", "k")
        store.open()  # idempotent reopen for the fixture teardown

    def test_empty_names_rejected(self, store):
        with pytest.raises(StoreError, match="namespace"):
            store.put("", "k", 1)
        with pytest.raises(StoreError, match="key"):
            store.put("ns", "", 1)


class TestInMemoryStore:
    def test_data_survives_close_and_open_of_the_connector(self):
        store = open_store(None)
        store.put("ns", "k", {"x": 1})
        store.next_value(COUNTER_JOB_IDS)
        store.close()
        with pytest.raises(StoreError, match="not open"):
            store.get("ns", "k")
        store.open()
        try:
            assert store.get("ns", "k").value == {"x": 1}
            assert store.peek(COUNTER_JOB_IDS) == 1
        finally:
            store.close()

    def test_every_connector_is_its_own_database(self):
        first, second = open_store(None), open_store(None)
        try:
            first.put("ns", "k", 1)
            assert second.get("ns", "k") is None
        finally:
            first.close()
            second.close()

    def test_threads_share_the_one_connection_without_lost_updates(self):
        store = open_store(None)
        store.put("ns", "doc", 0)
        results: list[list[int]] = []
        lock = threading.Lock()

        def worker():
            values = []
            for _ in range(25):
                values.append(store.next_value("seq"))
                # A read-modify-write: the lock serialises whole transactions.
                with store.transaction(write=True) as txn:
                    txn.put("ns", "doc", txn.get("ns", "doc").value + 1)
            with lock:
                results.append(values)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-transaction often
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not any(t.is_alive() for t in threads)
            flat = [v for values in results for v in values]
            assert sorted(flat) == list(range(1, 151))
            assert all(values == sorted(values) for values in results)
            assert store.get("ns", "doc").value == 150
            assert store.version("ns", "doc") == 151
        finally:
            store.close()


def _dump(store):
    """Every document with its version, and every counter, of one store."""
    with store.transaction() as txn:
        documents = {
            namespace: {key: (stored.value, stored.version) for key, stored in txn.items(namespace)}
            for namespace in txn.namespaces()
        }
        return documents, txn.counters()


class TestExport:
    """``AnonymizationService.save(path)`` copies the whole store to ``path``."""

    @pytest.mark.parametrize("source", ["memory", "sqlite"])
    def test_export_reproduces_the_store_and_replaces_the_target(
        self, tmp_path, source, skewed_binary_table
    ):
        from repro.service.engine import AnonymizationService

        svc = AnonymizationService(
            snapshot_path=None if source == "memory" else tmp_path / "source.db"
        )
        svc.register_table("skewed", skewed_binary_table)
        svc.register_table("skewed", skewed_binary_table, replace=True)
        svc.publish("skewed", "sps", seed=3)
        svc.publish("skewed", "uniform", seed=1)
        target = tmp_path / "export.db"
        stale = open_store(target)
        stale.put("old", "doc", {"stale": True})
        stale.put(NS_DATASETS, "other", {"stale": True})
        for _ in range(5):
            stale.next_value(COUNTER_JOB_IDS)
        stale.next_value("other_counter")
        stale.close()
        try:
            assert svc.save(target) == target
            expected = _dump(svc.store)
        finally:
            svc.close()

        documents, counters = expected
        assert documents[NS_DATASETS]["skewed"][1] == 2
        assert sorted(documents[NS_JOBS]) == ["job-0001", "job-0002"]
        assert all(version == 2 for _, version in documents[NS_JOBS].values())
        assert counters == {COUNTER_JOB_IDS: 2}
        exported = open_store(target)
        try:
            assert _dump(exported) == expected
        finally:
            exported.close()
        # The copy is a working store: ids continue after the source's.
        resumed = AnonymizationService(snapshot_path=target)
        try:
            assert resumed.publish("skewed", "uniform", seed=2).job_id == "job-0003"
        finally:
            resumed.close()


class TestDurabilityAcrossReopen:
    @pytest.mark.parametrize("backend", ["sqlite", "json"])
    def test_file_backends_survive_close_and_reopen(self, tmp_path, backend):
        # A *.json path is a SQLite store like any other.
        path = tmp_path / ("s.db" if backend == "sqlite" else "s.json")
        first = open_store(path)
        first.put("ns", "k", {"x": 1})
        first.next_value(COUNTER_JOB_IDS)
        first.close()
        second = open_store(path)
        try:
            assert second.backend == "sqlite"
            assert second.get("ns", "k").value == {"x": 1}
            assert second.peek(COUNTER_JOB_IDS) == 1
        finally:
            second.close()


class TestOpenStoreResolution:
    def test_none_path_is_memory(self):
        store = open_store(None)
        assert (store.backend, store.location) == ("sqlite", None)
        store.close()

    def test_json_suffix_gets_sqlite_backend(self, tmp_path):
        store = open_store(tmp_path / "state.json")
        assert store.backend == "sqlite"
        store.close()

    def test_other_suffix_gets_sqlite(self, tmp_path):
        store = open_store(tmp_path / "state.db")
        assert store.backend == "sqlite"
        store.close()

    def test_existing_sqlite_file_sniffed_regardless_of_suffix(self, tmp_path):
        path = tmp_path / "state.json"  # lying suffix
        made = open_store(path)
        made.put("ns", "k", 1)
        made.close()
        store = open_store(path)
        try:
            assert store.backend == "sqlite"
            assert store.get("ns", "k").value == 1
        finally:
            store.close()

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_bytes(b"\x00\x01 not a store")
        with pytest.raises(StoreError, match="not a SQLite store"):
            open_store(path)
        assert path.read_bytes() == b"\x00\x01 not a store"

    def test_directory_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="not a SQLite store"):
            open_store(tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_zero_byte_file_opens_as_new_store(self, tmp_path):
        # What mktemp/mkstemp hand out: an existing, empty file.
        handle, name = tempfile.mkstemp(suffix=".db", dir=tmp_path)
        os.close(handle)
        store = open_store(name)
        try:
            assert store.backend == "sqlite"
            store.put("ns", "k", 1)
        finally:
            store.close()
        reopened = open_store(name)
        try:
            assert reopened.get("ns", "k").value == 1
        finally:
            reopened.close()


def _legacy_v1_payload():
    from repro.service.models import table_to_json
    from repro.dataset.adult import generate_adult

    return {
        "version": 1,
        "datasets": {"demo": table_to_json(generate_adult(40, seed=1))},
        "jobs": [],
        "next_job_id": 5,
    }


_V2_PAYLOAD = {
    "store_version": 2,
    "namespaces": {"jobs": {"job-0001": {"version": 1, "value": {"job_id": "job-0001"}}}},
    "counters": {"job_ids": 1},
}


class TestLegacySnapshotRefusal:
    """A pre-12.0.0 JSON snapshot is refused and left exactly as it was."""

    @pytest.mark.parametrize("name", ["state.db", "state.json", "state"])
    @pytest.mark.parametrize("layout", ["v1", "v2", "v99"])
    def test_json_snapshot_refused_byte_identical(self, tmp_path, layout, name):
        # Any JSON object is refused the same way, whatever version it claims.
        payload = {
            "v1": _legacy_v1_payload(),
            "v2": _V2_PAYLOAD,
            "v99": {"version": 99},
        }[layout]
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        before = path.read_bytes()
        with pytest.raises(StoreError, match=r"pre-12\.0\.0 JSON snapshot.*11\.2\.0"):
            open_store(path)
        assert path.read_bytes() == before
        # No half-built database, backup or journal beside it.
        assert [entry.name for entry in tmp_path.iterdir()] == [name]


# --------------------------------------------------------------------- #
# Concurrency: no lost updates, monotonic ids, typed conflicts
# --------------------------------------------------------------------- #

def _alloc_ids_in_process(path: str, count: int, queue) -> None:
    store = open_store(path)
    try:
        values = [store.next_value(COUNTER_JOB_IDS) for _ in range(count)]
    finally:
        store.close()
    queue.put(values)


class TestSqliteConcurrency:
    def test_threads_share_one_counter_without_duplicates(self, tmp_path):
        store = open_store(tmp_path / "c.db")
        results: list[list[int]] = []
        lock = threading.Lock()

        def worker():
            values = [store.next_value("seq") for _ in range(25)]
            with lock:
                results.append(values)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        store.close()
        flat = [v for values in results for v in values]
        assert len(flat) == len(set(flat)) == 200
        assert max(flat) == 200
        for values in results:  # each thread sees strictly increasing values
            assert values == sorted(values)

    def test_threads_optimistic_writes_have_one_winner_per_round(self, tmp_path):
        store = open_store(tmp_path / "o.db")
        store.put("ns", "doc", {"round": 0})
        conflicts = []
        lock = threading.Lock()

        def contender(name: str):
            for _ in range(10):
                stored = store.get("ns", "doc")
                try:
                    store.put(
                        "ns", "doc", {"writer": name},
                        expected_version=stored.version,
                    )
                except VersionConflictError as exc:
                    with lock:
                        conflicts.append(exc)

        threads = [
            threading.Thread(target=contender, args=(f"w{i}",)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        final = store.get("ns", "doc")
        store.close()
        # Every attempt either won (bumped the version) or raised typed.
        assert final.version == 1 + 40 - len(conflicts)
        assert all(isinstance(c, VersionConflictError) for c in conflicts)

    def test_processes_share_one_counter_without_duplicates(self, tmp_path):
        path = tmp_path / "p.db"
        open_store(path).close()  # create the schema up front
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        procs = [
            ctx.Process(target=_alloc_ids_in_process, args=(str(path), 20, queue))
            for _ in range(4)
        ]
        for p in procs:
            p.start()
        collected = [queue.get(timeout=60) for _ in procs]
        for p in procs:
            p.join(timeout=60)
        flat = [v for values in collected for v in values]
        assert len(flat) == len(set(flat)) == 80
        assert max(flat) == 80
        store = open_store(path)
        assert store.peek(COUNTER_JOB_IDS) == 80
        store.close()

    def test_two_job_stores_issue_globally_monotonic_ids(self, tmp_path):
        from repro.service.models import JobRecord, JobSpec
        from repro.service.registry import JobStore

        path = tmp_path / "jobs.db"
        first = open_store(path)
        second = open_store(path)
        try:
            a, b = JobStore(store=first), JobStore(store=second)
            spec = JobSpec(dataset="d", backend="sps")
            ids = []
            for jobs in (a, b, a, b):
                record = JobRecord(job_id="", spec=spec, status="running")
                jobs.add(record)  # draws the id in the record's transaction
                ids.append(record.job_id)
            assert ids == ["job-0001", "job-0002", "job-0003", "job-0004"]
        finally:
            first.close()
            second.close()


# --------------------------------------------------------------------- #
# Service over a store: restart resumes with everything intact
# --------------------------------------------------------------------- #

class TestServiceRestartPersistence:
    def test_datasets_and_jobs_survive_restart_and_the_index_rebuilds(
        self, tmp_path, skewed_binary_table
    ):
        from repro.service.engine import AnonymizationService

        path = tmp_path / "service.db"
        svc = AnonymizationService(snapshot_path=path)
        svc.register_table("skewed", skewed_binary_table)
        record = svc.publish("skewed", "sps", seed=3)
        assert svc.datasets.get("skewed").group_index_misses == 1
        warm = svc.audit("skewed")
        assert warm["group_index_cached"] is True
        svc.close()

        restored = AnonymizationService(snapshot_path=path)
        try:
            entry = restored.datasets.get("skewed")
            assert entry.table == skewed_binary_table
            # The group index is derived data: the first audit rebuilds it.
            first = restored.audit("skewed")
            assert first["group_index_cached"] is False
            assert (entry.group_index_hits, entry.group_index_misses) == (0, 1)
            assert first["summary"] == warm["summary"]
            again = restored.audit("skewed")
            assert json.dumps(again) == json.dumps(warm)
            loaded = restored.job(record.job_id)
            assert loaded.spec == record.spec
            assert loaded.status == "completed"
            next_record = restored.publish("skewed", "uniform", seed=0)
            assert next_record.job_id > record.job_id  # ids continue
        finally:
            restored.close()

    def test_rebuilt_index_after_restart_matches_the_one_before(self, tmp_path):
        from repro.dataset.adult import generate_adult
        from repro.service.engine import AnonymizationService

        path = tmp_path / "service.db"
        svc = AnonymizationService(snapshot_path=path)
        svc.register_table("adult", generate_adult(500, seed=0))
        before, _, _ = svc.datasets.get("adult").groups()
        svc.close()

        restored = AnonymizationService(snapshot_path=path)
        try:
            entry = restored.datasets.get("adult")
            after, _, cached = entry.groups()
            assert cached is False  # nothing of the index was stored
            assert after == before
            assert entry.groups()[2] is True  # later calls reuse the rebuild
        finally:
            restored.close()

    def test_delta_dataset_survives_restart_and_stays_appendable(self, tmp_path):
        from repro.service.engine import AnonymizationService

        src = tmp_path / "base.csv"
        rows = ["City,Disease"] + [
            f"c{i % 3},d{i % 2}" for i in range(60)
        ]
        src.write_text("\n".join(rows) + "\n", newline="")
        out = tmp_path / "published.csv"
        path = tmp_path / "service.db"

        svc = AnonymizationService(snapshot_path=path)
        svc.publish_delta_base("living", src, "Disease", "sps", out, seed=5)
        assert "living" in svc.deltas
        base_rows = svc.deltas["living"].n_rows
        svc.close()

        restored = AnonymizationService(snapshot_path=path)
        try:
            assert "living" in restored.deltas
            assert restored.deltas["living"].n_rows == base_rows
            record = restored.append_rows("living", rows=[["c0", "d1"], ["c9", "d0"]])
            assert record.status == "completed"
            assert restored.deltas["living"].n_rows == base_rows + 2
        finally:
            restored.close()

    def test_running_job_restores_as_interrupted(self, tmp_path):
        from repro.service.models import JobRecord, JobSpec
        from repro.service.registry import JobStore

        path = tmp_path / "jobs.db"
        store = open_store(path)
        jobs = JobStore(store=store)
        record = JobRecord(
            job_id="",
            spec=JobSpec(dataset="d", backend="sps", params={}, seed=0),
            status="running",
        )
        jobs.add(record)  # draws the id; the owning process "dies" here
        store.close()

        reopened = open_store(path)
        try:
            restored = JobStore(store=reopened)
            loaded = restored.get(record.job_id)
            assert loaded.status == "interrupted"
            assert "restarted" in loaded.error
        finally:
            reopened.close()

    def test_reload_keeps_a_job_that_ended_between_its_read_and_rewrite(
        self, tmp_path, skewed_binary_table
    ):
        from repro.service.engine import AnonymizationService

        path = tmp_path / "shared.db"
        owner = AnonymizationService(snapshot_path=path)
        owner.register_table("skewed", skewed_binary_table)
        entry = owner.datasets.get("skewed")
        build, started, release = entry.groups, threading.Event(), threading.Event()

        def held_build():
            started.set()  # the job's running record is committed
            assert release.wait(30)
            return build()

        entry.groups = held_build
        worker = threading.Thread(target=owner.publish, args=("skewed", "sps"))
        worker.start()
        assert started.wait(30)

        loader_store = open_store(path)
        rewrite = loader_store.put

        def put_after_the_job_ends(*args, **kwargs):
            # The loader has read the running record; the owner now stores
            # the completed one before the loader's rewrite lands.
            release.set()
            worker.join(30)
            return rewrite(*args, **kwargs)

        loader_store.put = put_after_the_job_ends
        loader = AnonymizationService(store=loader_store)
        try:
            assert not worker.is_alive()
            (job_id,) = loader.store.keys(NS_JOBS)
            assert loader.store.get(NS_JOBS, job_id).value["status"] == "completed"
            assert loader.job(job_id).status == "completed"
            assert owner.job(job_id).status == "completed"
        finally:
            loader.close()
            owner.close()

    def test_register_conflict_across_shared_store_is_typed(self, tmp_path, skewed_binary_table):
        from repro.service.registry import DatasetRegistry, ServiceError

        path = tmp_path / "shared.db"
        first = open_store(path)
        second = open_store(path)
        try:
            a, b = DatasetRegistry(store=first), DatasetRegistry(store=second)
            a.register("demo", skewed_binary_table)
            # b's in-memory view predates a's write: the store still rejects.
            with pytest.raises(ServiceError, match="already registered"):
                b.register("demo", skewed_binary_table)
        finally:
            first.close()
            second.close()
