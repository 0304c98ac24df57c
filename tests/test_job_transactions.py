"""One store write transaction per job transition, on the in-memory and file stores.

Every job kind — in-memory publish, stream, delta base and delta append —
makes exactly two write transactions however many chunks it runs: one when
it starts (the job id and the ``running`` record) and one when it ends (the
terminal record, with a delta job's successor state).  A completion commit
that fails advances neither the record nor the state, and leaves no
published file behind.  A hypothesis state machine over the service checks
the invariants those transactions keep across publishes, appends, stale
appends, failed commits, crashes and restarts.

``CI=true`` selects the model's larger derandomized profile.
"""

from __future__ import annotations

import csv
import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

import repro  # noqa: E402
from repro.delta import engine as delta_engine  # noqa: E402
from repro.obs.metrics import STORE_TXNS  # noqa: E402
from repro.pipeline.execution import DEFAULT_CHUNK_SIZE  # noqa: E402
from repro.service.engine import AnonymizationService  # noqa: E402
from repro.service.registry import ServiceError  # noqa: E402
from repro.store import (  # noqa: E402
    COUNTER_JOB_IDS,
    NS_JOBS,
    StorageConnector,
    StoreError,
    open_store,
)

HEADER = ["City", "Disease"]
BASE_ROWS = [[f"c{i % 23}", f"d{i % 3}"] for i in range(120)]
#: Grows a group and adds one (24 in all): rows that change the published bytes.
APPEND_ROWS = [["c1", "d2"], ["c1", "d2"], ["c99", "d0"]]


def _write_csv(path: Path, rows: list[list[str]]) -> Path:
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([HEADER, *rows])
    return path


def _open_service(backend: str, where: Path, memory: StorageConnector) -> AnonymizationService:
    """A service over the test's one store: the shared in-memory one or the file."""
    if backend == "memory":
        return AnonymizationService(store=memory)
    return AnonymizationService(snapshot_path=where / "state.db")


class _Watched:
    """A transaction proxy that notes whether it stores a given kind of job record."""

    def __init__(self, txn, statuses: frozenset[str]) -> None:
        self._txn = txn
        self._statuses = statuses
        self.matched = False

    def put(self, namespace, key, value, expected_version=None):
        if namespace == NS_JOBS and value["status"] in self._statuses:
            self.matched = True
        return self._txn.put(namespace, key, value, expected_version=expected_version)

    def __getattr__(self, name):
        return getattr(self._txn, name)


class _FailingCommits:
    """Stands in for ``StorageConnector.transaction``: a write transaction that
    stores a job record of one of ``statuses`` raises where it would commit,
    so all of its writes roll back — at most ``times`` times."""

    def __init__(self, store, statuses=("completed",), times: int = 1) -> None:
        self._transaction = store.transaction
        self._statuses = frozenset(statuses)
        self._left = times
        self.fired = 0

    @contextmanager
    def __call__(self, write: bool = False):
        with self._transaction(write) as txn:
            watched = _Watched(txn, self._statuses)
            yield watched
            if watched.matched and self._left:
                self._left -= 1
                self.fired += 1
                raise StoreError("injected commit failure")


def _stored_jobs(service: AnonymizationService) -> dict[str, dict]:
    return {key: stored.value for key, stored in service.store.items(NS_JOBS)}


@pytest.fixture(params=["memory", "sqlite"])
def backend(request) -> str:
    return request.param


@pytest.fixture()
def open_service(backend, tmp_path):
    memory = open_store(None)
    opened: list[AnonymizationService] = []

    def open_() -> AnonymizationService:
        opened.append(_open_service(backend, tmp_path, memory))
        return opened[-1]

    yield open_
    for service in opened:
        service.close()


def _jobs(service: AnonymizationService, where: Path, chunk_size: int = DEFAULT_CHUNK_SIZE):
    """Each job kind as a callable, over the base CSV in ``where``."""
    source = _write_csv(where / "base.csv", BASE_ROWS)
    if "table" not in service.datasets:
        service.register_csv("table", source, "Disease")
    return {
        "publish": lambda: service.publish("table", "sps", seed=3, chunk_size=chunk_size),
        "stream": lambda: service.publish_stream(
            source, "Disease", "sps", seed=3, chunk_size=chunk_size, chunk_rows=25,
            output=where / "stream.csv",
        ),
        "delta-base": lambda: service.publish_delta_base(
            "living", source, "Disease", "sps", where / "living.csv", seed=3,
            chunk_size=chunk_size, chunk_rows=25,
        ),
        "append": lambda: service.append_rows("living", rows=APPEND_ROWS),
    }


class TestWriteTransactionsPerJob:
    @pytest.mark.parametrize("chunk_size", [1, DEFAULT_CHUNK_SIZE])
    def test_every_job_kind_makes_two_write_transactions(
        self, open_service, tmp_path, chunk_size
    ):
        service = open_service()
        jobs = _jobs(service, tmp_path, chunk_size)
        counted = {}
        for kind, run in jobs.items():
            before = STORE_TXNS.value(backend=service.store.backend, write="true")
            record = run()
            counted[kind] = STORE_TXNS.value(backend=service.store.backend, write="true") - before
            assert record.status == "completed"
            # The terminal write carries the final progress and the whole timeline.
            assert service.store.get(NS_JOBS, record.job_id).value == record.to_json()
            if kind != "publish":
                assert record.progress["phase"] == "done"
        assert counted == dict.fromkeys(jobs, 2)
        assert record.metadata["n_chunks"] == (24 if chunk_size == 1 else 1)


class TestFailedCompletionCommit:
    @pytest.mark.parametrize("kind", ["publish", "stream", "delta-base", "append"])
    def test_neither_record_nor_state_advances_and_a_retry_matches(
        self, open_service, tmp_path, kind, monkeypatch
    ):
        service = open_service()
        jobs = _jobs(service, tmp_path)
        if kind == "append":
            jobs["delta-base"]()
        output = {"stream": "stream.csv", "delta-base": "living.csv", "append": "living.csv"}
        published = tmp_path / output.get(kind, "none.csv")
        published_before = published.read_bytes() if published.exists() else None
        version_before = service.deltas.version("living")
        failing = _FailingCommits(service.store)
        monkeypatch.setattr(service.store, "transaction", failing)
        with pytest.raises(StoreError, match="injected commit failure"):
            jobs[kind]()
        monkeypatch.undo()

        assert failing.fired == 1
        record = service.jobs.records()[-1]
        assert record.status == "failed"
        assert record.published is None
        events = [event["event"] for event in record.events]
        assert events[-1] == "failed" and "completed" not in events
        assert _stored_jobs(service)[record.job_id] == record.to_json()
        assert service.deltas.version("living") == version_before
        assert (published.read_bytes() if published.exists() else None) == published_before
        assert not list(tmp_path.glob("*.tmp"))

        retried = jobs[kind]()
        assert retried.status == "completed"
        reference_dir = tmp_path / "reference"
        reference_dir.mkdir()
        reference = AnonymizationService()
        reference_jobs = _jobs(reference, reference_dir)
        if kind == "append":
            reference_jobs["delta-base"]()
        expected = reference_jobs[kind]()
        if kind == "publish":
            assert retried.published.codes.tobytes() == expected.published.codes.tobytes()
        else:
            assert published.read_bytes() == (reference_dir / published.name).read_bytes()
        reference.close()


# --------------------------------------------------------------------- #
# Stateful model
# --------------------------------------------------------------------- #
settings.register_profile(
    "job-model-ci", derandomize=True, max_examples=400, stateful_step_count=25,
    deadline=None, database=None, suppress_health_check=list(HealthCheck),
)
settings.register_profile(
    "job-model", derandomize=True, max_examples=50, stateful_step_count=15,
    deadline=None, database=None, suppress_health_check=list(HealthCheck),
)
model_profile = settings.get_profile("job-model-ci" if os.environ.get("CI") else "job-model")

ROWS = st.lists(
    st.tuples(st.sampled_from(["c0", "c1", "c2", "c3"]), st.sampled_from(["d0", "d1", "d2"]))
    .map(list),
    min_size=1,
    max_size=25,
)
#: A table's rows: the sensitive domain needs two values.
TABLE_ROWS = ROWS.map(lambda rows: [["c0", "d0"], ["c1", "d1"], *rows])


class JobTransitionModel(RuleBasedStateMachine):
    """The service against a model of what its committed jobs must leave behind.

    The model tracks the living dataset ``living``, which every run starts
    with: the rows its base and applied appends folded in, its seed and
    chunk size.  Every job that fails — an empty append, a stale append, an
    injected commit failure or a crash — must leave that unchanged.
    """

    backend = "memory"

    def __init__(self) -> None:
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="job-model-"))
        self.memory = open_store(None)
        self.service = _open_service(self.backend, self.dir, self.memory)
        self.others: list[AnonymizationService] = []
        self.n_files = 0
        self.living: dict | None = None  # rows, seed, chunk_size
        self.version = 0
        self.specs: dict[str, dict] = {}  # job id -> the spec it was stored with
        self.crashed: set[str] = set()  # stored "running" by a crash
        self.interrupted: set[str] = set()  # reloaded as "interrupted"
        self.references: dict[tuple, bytes] = {}

    def teardown(self) -> None:
        for service in (self.service, *self.others):
            service.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    def _path(self, stem: str) -> Path:
        self.n_files += 1
        return self.dir / f"{stem}-{self.n_files}.csv"

    def _second_service(self) -> AnonymizationService:
        other = _open_service(self.backend, self.dir, self.memory)
        self.others.append(other)
        return other

    # -- rules --------------------------------------------------------- #
    @initialize(rows=TABLE_ROWS)
    def first_register(self, rows):
        self.service.register_csv("table", _write_csv(self._path("table"), rows), "Disease")

    @rule(rows=TABLE_ROWS)
    def register(self, rows):
        table = _write_csv(self._path("table"), rows)
        self.service.register_csv("table", table, "Disease", replace=True)

    @rule(seed=st.integers(0, 9))
    def publish(self, seed):
        assert self.service.publish("table", "sps", seed=seed).status == "completed"

    @initialize(rows=TABLE_ROWS, seed=st.integers(0, 9), chunk_size=st.sampled_from([1, 2, 256]))
    def first_delta_base(self, rows, seed, chunk_size):
        self.delta_base(rows, seed, chunk_size)

    @rule(rows=TABLE_ROWS, seed=st.integers(0, 9), chunk_size=st.sampled_from([1, 2, 256]))
    def delta_base(self, rows, seed, chunk_size):
        record = self.service.publish_delta_base(
            "living", _write_csv(self._path("base"), rows), "Disease", "sps",
            self._path("living"), seed=seed, chunk_size=chunk_size, replace=True,
        )
        assert record.status == "completed"
        self.living = {"rows": list(rows), "seed": seed, "chunk_size": chunk_size}

    @rule(rows=ROWS | st.just([]))
    def append(self, rows):
        if not rows:  # an empty batch fails its job
            with pytest.raises(ServiceError):
                self.service.append_rows("living", rows=rows)
            return
        assert self.service.append_rows("living", rows=rows).status == "completed"
        self.living["rows"] += rows

    @rule(rows=ROWS, rival_rows=ROWS)
    def stale_append(self, rows, rival_rows):
        """Another service on the same store appends while this one's append runs."""
        rival = self._second_service()
        real = delta_engine.delta_publish
        raced = []

        def racing(*args, **kwargs):
            report = real(*args, **kwargs)
            with mock.patch.object(delta_engine, "delta_publish", real):
                raced.append(rival.append_rows("living", rows=rival_rows))
            return report

        with mock.patch.object(delta_engine, "delta_publish", racing):
            with pytest.raises(ServiceError, match="modified concurrently"):
                self.service.append_rows("living", rows=rows)
        assert [record.status for record in raced] == ["completed"]
        self.living["rows"] += rival_rows

    @rule(kind=st.sampled_from(["publish", "delta-base", "append"]), rows=TABLE_ROWS)
    def failed_commit(self, kind, rows):
        failing = _FailingCommits(self.service.store)
        with mock.patch.object(self.service.store, "transaction", failing):
            with pytest.raises((StoreError, ServiceError)):
                self._run(kind, rows)
        assert failing.fired == 1

    @rule(kind=st.sampled_from(["publish", "delta-base", "append"]), rows=TABLE_ROWS)
    def crash(self, kind, rows):
        """The process dies after a job started: no terminal record is ever stored."""
        before = set(_stored_jobs(self.service))
        failing = _FailingCommits(self.service.store, ("completed", "failed"), times=2)
        with mock.patch.object(self.service.store, "transaction", failing):
            with pytest.raises((StoreError, ServiceError)):
                self._run(kind, rows)
        self.crashed |= set(_stored_jobs(self.service)) - before
        self.restart()

    @rule()
    def restart(self):
        self.service.close()
        self.service = _open_service(self.backend, self.dir, self.memory)
        self.interrupted |= self.crashed
        self.crashed = set()

    @rule()
    def read_jobs(self):
        stored = _stored_jobs(self.service)
        for record in self.service.jobs.records():
            assert self.service.job(record.job_id) is record
            assert stored[record.job_id] == record.to_json()

    def _run(self, kind, rows):
        if kind == "publish":
            self.service.publish("table", "sps", seed=1)
        elif kind == "delta-base":
            self.service.publish_delta_base(
                "living", _write_csv(self._path("base"), rows), "Disease", "sps",
                self._path("living"), seed=1, replace=True,
            )
        else:
            self.service.append_rows("living", rows=rows)

    # -- invariants ---------------------------------------------------- #
    @invariant()
    def every_job_is_terminal_or_interrupted_after_a_restart(self):
        for job_id, stored in _stored_jobs(self.service).items():
            if job_id in self.crashed:
                assert stored["status"] == "running"
            elif job_id in self.interrupted:
                assert stored["status"] == "interrupted"
            else:
                assert stored["status"] in {"completed", "failed"}, stored
        for record in self.service.jobs.records():
            assert record.status in {"completed", "failed", "interrupted"}

    @invariant()
    def delta_versions_only_increase(self):
        version = self.service.deltas.version("living")
        assert version >= self.version
        self.version = version

    @invariant()
    def job_ids_never_repeat(self):
        stored = _stored_jobs(self.service)
        assert set(self.specs) <= set(stored)
        for job_id, document in stored.items():
            assert self.specs.setdefault(job_id, document["spec"]) == document["spec"]
        numbers = [int(job_id.rsplit("-", 1)[1]) for job_id in stored]
        assert len(set(numbers)) == len(numbers)
        assert max(numbers, default=0) <= self.service.store.peek(COUNTER_JOB_IDS)

    @invariant()
    def latest_delta_csv_equals_a_full_publish(self):
        state = self.service.deltas.get("living")
        if self.living is None:
            assert state is None
            return
        assert state.n_rows == len(self.living["rows"])
        rows, seed, chunk_size = (self.living[k] for k in ("rows", "seed", "chunk_size"))
        key = (tuple(map(tuple, rows)), seed, chunk_size)
        if key not in self.references:
            output = self._path("reference")
            repro.publish(
                source=_write_csv(self._path("all"), rows), sensitive="Disease",
                streaming=True, strategy="sps", rng=seed, chunk_size=chunk_size, output=output,
            )
            self.references[key] = output.read_bytes()
        assert Path(state.output).read_bytes() == self.references[key]

    @invariant()
    def a_completed_delta_record_agrees_with_the_stored_state(self):
        state = self.service.deltas.get("living")
        completed = [
            document for document in _stored_jobs(self.service).values()
            if document["spec"].get("delta") and document["spec"]["dataset"] == "living"
            and document["status"] == "completed"
        ]
        if state is None:
            assert not completed
            return
        latest = max(completed, key=lambda document: int(document["job_id"].rsplit("-", 1)[1]))
        assert latest["metadata"]["n_rows"] == state.n_rows
        assert latest["metadata"]["output"] == state.output
        assert latest["metadata"]["n_chunks"] == len(state.chunk_row_counts)
        assert not list(self.dir.glob("*.tmp"))


class SqliteJobTransitionModel(JobTransitionModel):
    backend = "sqlite"


TestJobTransitionModelMemory = JobTransitionModel.TestCase
TestJobTransitionModelMemory.settings = model_profile
TestJobTransitionModelSqlite = SqliteJobTransitionModel.TestCase
TestJobTransitionModelSqlite.settings = model_profile
