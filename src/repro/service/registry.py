"""Dataset registry and job store, write-through over a storage connector.

A dataset is registered once and then serves many publish/audit requests.
The dominant cost of every SPS-family request is building the table's
personal groups (a :class:`~repro.dataset.groups.GroupCounts`), so
:class:`DatasetEntry` builds them lazily on first use and caches them (plus
any chi-square generalisation of the table, keyed by significance level) for
all subsequent jobs; the entry tracks cache hits/misses and build times so
``/stats`` can prove the cache is doing its job.

Both registries persist through the configured
:class:`~repro.store.sqlite.StorageConnector` inside the mutating call, not at
shutdown — so a ``kill -9`` loses nothing that was committed.  A register is
one write transaction; a job record is written in one when the job starts
and in one more when it ends.  Group indexes and generalisations are derived
from the table, so they stay in process memory and are rebuilt on first use
after a restart.
Each takes the service's one store as a required argument: a delta job
stages its state in the job store's transaction, so the registries, the
job store and the delta store must share it.  Job ids come from the store's
durable counter, so they are monotonic across restarts *and* across processes
sharing one SQLite store; duplicate-register races surface as
:class:`ServiceError` via the store's optimistic versioning, never as a lost
update.

Both registries are thread-safe: the HTTP front end executes requests on a
pool of worker threads and the engine fans publish work out over threads.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from typing import Any

from repro.dataset.groups import GroupCounts, personal_groups
from repro.dataset.table import Table
from repro.generalization.merging import GeneralizationResult, generalize_table
from repro.obs.trace import span
from repro.service.models import JobRecord, table_from_json, table_to_json
from repro.store import (
    COUNTER_JOB_IDS,
    NS_DATASETS,
    NS_JOBS,
    StorageConnector,
    StoreTransaction,
    VersionConflictError,
)


class ServiceError(ValueError):
    """Raised for client-level service failures (bad spec, duplicate name...)."""


class NotFoundError(ServiceError):
    """Raised when a named dataset or job does not exist."""


class DatasetEntry:
    """One registered table plus its cached derived indexes."""

    def __init__(self, name: str, table: Table) -> None:
        self.name = name
        self.table = table
        self._lock = threading.Lock()
        self._groups: GroupCounts | None = None
        self._generalizations: dict[float, GeneralizationResult] = {}
        self._generalized_groups: dict[float, GroupCounts] = {}
        self.group_index_seconds = 0.0
        self.group_index_hits = 0
        self.group_index_misses = 0

    @property
    def n_records(self) -> int:
        """Number of records in the registered table."""
        return len(self.table)

    def groups(self) -> tuple[GroupCounts, float, bool]:
        """Return the personal groups, their build time, and whether they were cached.

        The build time is the wall-clock cost actually paid by *this* call:
        zero on a cache hit.
        """
        with self._lock:
            if self._groups is not None:
                self.group_index_hits += 1
                return self._groups, 0.0, True
            with span("group_index_build", kind="cache", dataset=self.name) as sp:
                self._groups = personal_groups(self.table)
            elapsed = sp.duration
            self.group_index_seconds = elapsed
            self.group_index_misses += 1
            return self._groups, elapsed, False

    def generalized(
        self, significance: float
    ) -> tuple[GeneralizationResult, GroupCounts, float, bool]:
        """Chi-square generalised table + its personal groups, cached per significance."""
        key = float(significance)
        with self._lock:
            if key in self._generalizations:
                self.group_index_hits += 1
                return self._generalizations[key], self._generalized_groups[key], 0.0, True
            with span(
                "generalize_build", kind="cache", dataset=self.name, significance=key
            ) as sp:
                result = generalize_table(self.table, significance=key)
                groups = personal_groups(result.table)
            elapsed = sp.duration
            self._generalizations[key] = result
            self._generalized_groups[key] = groups
            self.group_index_misses += 1
            return result, groups, elapsed, False

    def to_json(self) -> dict[str, Any]:
        """Serialisable description of the entry (without the code matrix)."""
        with self._lock:
            n_groups = len(self._groups) if self._groups is not None else None
        return {
            "name": self.name,
            "n_records": self.n_records,
            "public_attributes": list(self.table.schema.public_names),
            "sensitive_attribute": self.table.schema.sensitive_name,
            "sensitive_domain_size": self.table.schema.sensitive_domain_size,
            "n_groups": n_groups,
            "group_index_cached": n_groups is not None,
            "group_index_seconds": self.group_index_seconds,
            "group_index_hits": self.group_index_hits,
            "group_index_misses": self.group_index_misses,
        }


class DatasetRegistry:
    """Named registry of :class:`DatasetEntry` objects over a connector.

    Tables persist write-through as schema + integer code matrix; a
    duplicate register racing another writer on a shared store loses with a
    typed :class:`ServiceError`, not a lost update.
    """

    def __init__(self, store: StorageConnector) -> None:
        self._lock = threading.RLock()
        self._store = store
        self._entries: dict[str, DatasetEntry] = {}
        self._load()

    def _load(self) -> None:
        for name, stored in self._store.items(NS_DATASETS):
            self._entries[name] = DatasetEntry(name, table_from_json(stored.value))

    def register(self, name: str, table: Table, replace: bool = False) -> DatasetEntry:
        """Register ``table`` under ``name``; rejects duplicates unless ``replace``.

        The duplicate check runs in the store, so two processes racing the
        same name on a shared backend cannot both win.
        """
        if not name:
            raise ServiceError("dataset name must be non-empty")
        with self._lock:
            if name in self._entries and not replace:
                raise ServiceError(f"dataset {name!r} is already registered")
            try:
                self._store.put(
                    NS_DATASETS,
                    name,
                    table_to_json(table),
                    expected_version=None if replace else 0,
                )
            except VersionConflictError:
                raise ServiceError(f"dataset {name!r} is already registered") from None
            entry = DatasetEntry(name, table)
            self._entries[name] = entry
            return entry

    def get(self, name: str) -> DatasetEntry:
        """Return the entry for ``name`` (raises :class:`ServiceError` if unknown)."""
        with self._lock:
            try:
                return self._entries[name]
            except KeyError:
                known = sorted(self._entries)
                raise NotFoundError(
                    f"unknown dataset {name!r}; registered datasets: {known}"
                ) from None

    def names(self) -> list[str]:
        """Registered dataset names, sorted."""
        with self._lock:
            return sorted(self._entries)

    def entries(self) -> list[DatasetEntry]:
        """All entries, sorted by name."""
        with self._lock:
            return [self._entries[name] for name in sorted(self._entries)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries


def _job_sort_key(job_id: str) -> tuple[int, str]:
    suffix = job_id.rsplit("-", 1)[-1]
    return (int(suffix), job_id) if suffix.isdigit() else (1 << 62, job_id)


class JobStore:
    """Append-only store of publish jobs with sequential, durable ids.

    A job's *record* (spec, timings, audit, progress, events) is stored by
    :meth:`add` when the job starts and once more when it ends, each time in
    one write transaction; progress in between updates the resident record
    only, which is what :meth:`get` serves.
    Published *tables* are memory-heavy, so only the
    ``max_published_tables`` most recent ones stay resident — older jobs
    keep their full record but drop the table, exactly as they would after a
    restart.  Ids come from the connector's durable counter
    (:data:`~repro.store.base.COUNTER_JOB_IDS`), so they continue
    monotonically across restarts and across processes sharing one SQLite
    store.  A record persisted as ``running`` when the process died is
    reloaded as ``interrupted`` — the store never claims a crashed job
    completed.  That rewrite is conditional on the version read, so a job
    that ends in another process meanwhile keeps its terminal record.
    """

    #: How many published tables a long-lived service keeps in memory.
    DEFAULT_MAX_PUBLISHED_TABLES = 16

    def __init__(
        self,
        store: StorageConnector,
        max_published_tables: int = DEFAULT_MAX_PUBLISHED_TABLES,
    ) -> None:
        if max_published_tables < 1:
            raise ValueError("max_published_tables must be at least 1")
        self._lock = threading.RLock()
        self._store = store
        self._jobs: dict[str, JobRecord] = {}
        self._max_published_tables = max_published_tables
        self._with_tables: list[str] = []
        self._load()

    def _load(self) -> None:
        loaded = sorted(self._store.items(NS_JOBS), key=lambda kv: _job_sort_key(kv[0]))
        for job_id, stored in loaded:
            record = JobRecord.from_json(stored.value)
            if record.status == "running":
                # The owning process died mid-job; completed work was
                # persisted by the job itself, so "running" can only mean
                # the crash interrupted it.
                record.status = "interrupted"
                record.error = "service restarted while the job was running"
                try:
                    self._store.put(
                        NS_JOBS, job_id, record.to_json(), expected_version=stored.version
                    )
                except VersionConflictError:
                    # The job ended after the read: keep the record it stored.
                    current = self._store.get(NS_JOBS, job_id)
                    if current is not None:
                        record = JobRecord.from_json(current.value)
            self._jobs[job_id] = record

    def add(
        self,
        record: JobRecord,
        stage: Callable[[StoreTransaction], object] | None = None,
    ) -> None:
        """Store a record in one write transaction, and cap resident tables.

        A new record (empty ``job_id``) draws its id in that transaction.
        ``stage`` makes further writes in it (a delta job's successor
        state), so they commit with the record or not at all.
        """
        with self._lock:
            with self._store.transaction(write=True) as txn:
                if not record.job_id:
                    record.job_id = f"job-{txn.next_value(COUNTER_JOB_IDS):04d}"
                if stage is not None:
                    stage(txn)
                txn.put(NS_JOBS, record.job_id, record.to_json())
            self._jobs[record.job_id] = record
            if record.published is not None:
                self._with_tables.append(record.job_id)
                while len(self._with_tables) > self._max_published_tables:
                    evicted = self._with_tables.pop(0)
                    self._jobs[evicted].published = None

    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise NotFoundError(f"unknown job {job_id!r}") from None

    def records(self) -> list[JobRecord]:
        """All job records in creation order."""
        with self._lock:
            return list(self._jobs.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._jobs)
