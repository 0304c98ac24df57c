"""Durable storage for datasets, jobs and delta states.

The service and delta subsystems persist through one
:class:`~repro.store.sqlite.StorageConnector`: transactional get/put/delete/
list per namespace, optimistic versioning, and named monotonic counters.
It is SQLite at one of two locations:

========== ==================================================================
a file     every ``--store`` path: WAL mode, ``synchronous=FULL``, one
           connection per thread, busy-timeout retry.  Survives ``kill -9``
           and concurrent writers (see ``docs/storage.md``).
memory     no path: one ``:memory:`` connection behind a lock, for tests and
           store-less services; its data lives as long as the connector.
========== ==================================================================

:func:`open_store` opens a file store for any path and an in-memory one for
none.  It refuses a pre-12.0.0 JSON snapshot at the path, whatever its
suffix, and leaves the file as it was: repro 11.2.0 is the last release that
migrates one.
"""

from __future__ import annotations

from pathlib import Path

from repro.store.base import (
    COUNTER_JOB_IDS,
    NS_DATASETS,
    NS_DELTAS,
    NS_JOBS,
    StoreError,
    VersionConflictError,
    VersionedValue,
)
from repro.store.sqlite import StorageConnector, StoreTransaction, is_sqlite_file

__all__ = [
    "COUNTER_JOB_IDS",
    "NS_DATASETS",
    "NS_DELTAS",
    "NS_JOBS",
    "StorageConnector",
    "StoreError",
    "StoreTransaction",
    "VersionConflictError",
    "VersionedValue",
    "open_store",
]


def open_store(path: str | Path | None = None) -> StorageConnector:
    """Open a storage connector for ``path``; returns it already opened.

    ``path is None`` gives a fresh in-memory store; any path a file store.
    A missing or zero-byte file becomes a new store and a SQLite database
    opens as is.  Any other file is refused with :class:`StoreError` and left
    untouched; a pre-12.0.0 JSON snapshot gets a message naming 11.2.0, the
    last release that migrates one.
    """
    if path is None:
        return StorageConnector().open()
    target = Path(path)
    if target.exists() and not is_sqlite_file(target):
        if _is_json_snapshot(target):
            raise StoreError(
                f"{target} looks like a pre-12.0.0 JSON snapshot, which 12.0.0 "
                "no longer migrates; open it once with repro 11.2.0 to migrate "
                "it to SQLite in place, then use it here"
            )
        if not target.is_file() or target.stat().st_size:
            raise StoreError(f"{target} is not a SQLite store")
    return StorageConnector(target).open()


def _is_json_snapshot(path: Path) -> bool:
    """Whether ``path`` is a file whose first non-blank byte is ``{``."""
    try:
        with path.open("rb") as handle:
            return handle.read(64).lstrip().startswith(b"{")
    except OSError:
        return False
