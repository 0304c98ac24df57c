"""Durable pluggable storage for datasets, jobs, caches and delta states.

The service and delta subsystems persist through one abstract interface —
:class:`~repro.store.base.StorageConnector`: transactional get/put/delete/
list per namespace, optimistic versioning, and named monotonic counters.
Two backends implement it:

========== ==================================================================
``sqlite`` :class:`~repro.store.sqlite.SqliteConnector` — the durable
           default: WAL mode, ``synchronous=FULL``, one connection per
           thread, busy-timeout retry.  Survives ``kill -9`` and concurrent
           writers (see ``docs/storage.md``).
``memory`` :class:`~repro.store.memory.MemoryConnector` — process-local,
           for tests and store-less services.
========== ==================================================================

:func:`open_store` opens SQLite for any path (memory for none).  A legacy
JSON snapshot found at the path — whatever its suffix — migrates to SQLite
in place on first open (:mod:`repro.store.legacy` reads it; the original is
kept as ``<name>.pre-store.json``).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.store.base import (
    COUNTER_JOB_IDS,
    NS_DATASET_CACHES,
    NS_DATASETS,
    NS_DELTAS,
    NS_JOBS,
    StorageConnector,
    StoreError,
    StoreTransaction,
    VersionConflictError,
    VersionedValue,
    copy_store,
)
from repro.store.legacy import is_json_snapshot, load_snapshot_store
from repro.store.memory import MemoryConnector
from repro.store.sqlite import SqliteConnector, is_sqlite_file

__all__ = [
    "COUNTER_JOB_IDS",
    "NS_DATASETS",
    "NS_DATASET_CACHES",
    "NS_DELTAS",
    "NS_JOBS",
    "MemoryConnector",
    "SqliteConnector",
    "StorageConnector",
    "StoreError",
    "StoreTransaction",
    "VersionConflictError",
    "VersionedValue",
    "copy_store",
    "migrate_json_to_sqlite",
    "open_store",
]


def migrate_json_to_sqlite(
    json_path: str | Path, sqlite_path: str | Path | None = None
) -> SqliteConnector:
    """Migrate a JSON snapshot into a SQLite store; returns the open store.

    Documents, versions and counters are copied exactly, so optimistic
    writers and the job-id sequence carry on seamlessly.  When
    ``sqlite_path`` is omitted the SQLite store replaces the JSON file *at
    the same path*: the database is built beside it first, the original is
    kept as ``<name>.pre-store.json``, and only then does an atomic rename
    put the database in place — a crash mid-migration never loses the
    snapshot.
    """
    source_path = Path(json_path)
    in_place = sqlite_path is None
    target_path = Path(sqlite_path) if sqlite_path is not None else source_path
    build_path = (
        target_path.with_suffix(target_path.suffix + ".migrating")
        if in_place
        else target_path
    )
    source = load_snapshot_store(source_path)
    try:
        if build_path.exists():
            build_path.unlink()
        target = SqliteConnector(build_path)
        target.open()
        try:
            copy_store(source, target)
        finally:
            target.close()
    finally:
        source.close()
    if in_place:
        backup = source_path.with_suffix(source_path.suffix + ".pre-store.json")
        os.replace(source_path, backup)
        os.replace(build_path, target_path)
    migrated = SqliteConnector(target_path)
    migrated.open()
    return migrated


def open_store(path: str | Path | None = None) -> StorageConnector:
    """Open a storage connector for ``path``; returns it already opened.

    ``path is None`` gives a fresh in-memory store; any path gives SQLite.
    An existing file is sniffed: a SQLite database opens as is, a legacy
    JSON snapshot migrates to SQLite in place first, anything else is
    rejected.
    """
    if path is None:
        return MemoryConnector().open()
    target = Path(path)
    if is_json_snapshot(target):
        return migrate_json_to_sqlite(target)
    if target.exists() and not is_sqlite_file(target):
        raise StoreError(f"{target} is neither a SQLite store nor a JSON snapshot")
    return SqliteConnector(target).open()
