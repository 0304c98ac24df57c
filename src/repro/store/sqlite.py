"""SQLite storage connector: the durable default backend.

Durability and concurrency posture:

* **WAL journal mode** — readers never block the writer and vice versa, and
  a ``kill -9`` mid-transaction leaves the main database file consistent
  (the write-ahead log replays or discards the tail on the next open).
* **``synchronous=FULL``** — a committed transaction has been fsynced; the
  fault-injection suite (``tests/test_store_faults.py``) kills the process
  at arbitrary points and asserts nothing committed is lost.
* **One connection per thread** — ``sqlite3`` connections are not safely
  shareable across threads; each thread lazily opens its own, and a forked
  child never inherits a parent connection (connections are keyed by pid
  as well).
* **Busy-timeout plus bounded retry** — concurrent writers serialise on
  SQLite's single write lock; ``BEGIN IMMEDIATE`` takes it up front (no
  deadlock-prone lock upgrades) and lock contention is retried with backoff
  before surfacing as :class:`~repro.store.base.StoreError`.

The schema is three tables: ``kv(namespace, key, version, value)``,
``counters(name, value)`` and ``meta(key, value)`` carrying the format
version.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from contextlib import contextmanager, suppress
from pathlib import Path
from collections.abc import Callable, Iterator
from typing import Any, TypeVar

from repro.store.base import (
    StorageConnector,
    StoreError,
    StoreTransaction,
    VersionConflictError,
    VersionedValue,
    check_names,
    decode_value,
    encode_value,
)

#: First 16 bytes of every SQLite database file.
SQLITE_MAGIC = b"SQLite format 3\x00"

#: Version of the kv/counters/meta schema written by this module.
STORE_FORMAT_VERSION = 1

_SCHEMA = (
    """
    CREATE TABLE IF NOT EXISTS kv (
        namespace TEXT NOT NULL,
        key TEXT NOT NULL,
        version INTEGER NOT NULL,
        value TEXT NOT NULL,
        PRIMARY KEY (namespace, key)
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS counters (
        name TEXT PRIMARY KEY,
        value INTEGER NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS meta (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
)

_T = TypeVar("_T")


def _is_locked(exc: sqlite3.OperationalError) -> bool:
    message = str(exc).lower()
    return "locked" in message or "busy" in message


class _SqliteTransaction(StoreTransaction):
    """Executes against one thread's connection inside an explicit BEGIN."""

    def __init__(self, backend: str, write: bool, conn: sqlite3.Connection) -> None:
        super().__init__(backend, write)
        self._conn = conn

    # -- reads --------------------------------------------------------- #
    def get(self, namespace: str, key: str) -> VersionedValue | None:
        check_names(namespace, key)
        self._count("get")
        row = self._conn.execute(
            "SELECT version, value FROM kv WHERE namespace = ? AND key = ?",
            (namespace, key),
        ).fetchone()
        if row is None:
            return None
        return VersionedValue(value=decode_value(row[1]), version=int(row[0]))

    def version(self, namespace: str, key: str) -> int:
        check_names(namespace, key)
        self._count("get")
        return self._current_version(namespace, key)

    def keys(self, namespace: str) -> list[str]:
        check_names(namespace)
        self._count("list")
        rows = self._conn.execute(
            "SELECT key FROM kv WHERE namespace = ? ORDER BY key", (namespace,)
        ).fetchall()
        return [str(row[0]) for row in rows]

    def items(self, namespace: str) -> list[tuple[str, VersionedValue]]:
        check_names(namespace)
        self._count("list")
        rows = self._conn.execute(
            "SELECT key, version, value FROM kv WHERE namespace = ? ORDER BY key",
            (namespace,),
        ).fetchall()
        return [
            (str(key), VersionedValue(value=decode_value(text), version=int(version)))
            for key, version, text in rows
        ]

    def namespaces(self) -> list[str]:
        self._count("list")
        rows = self._conn.execute(
            "SELECT DISTINCT namespace FROM kv ORDER BY namespace"
        ).fetchall()
        return [str(row[0]) for row in rows]

    def peek(self, counter: str) -> int:
        check_names(counter)
        self._count("counter")
        row = self._conn.execute(
            "SELECT value FROM counters WHERE name = ?", (counter,)
        ).fetchone()
        return int(row[0]) if row is not None else 0

    def counters(self) -> dict[str, int]:
        self._count("counter")
        rows = self._conn.execute(
            "SELECT name, value FROM counters ORDER BY name"
        ).fetchall()
        return {str(name): int(value) for name, value in rows}

    # -- writes -------------------------------------------------------- #
    def _current_version(self, namespace: str, key: str) -> int:
        row = self._conn.execute(
            "SELECT version FROM kv WHERE namespace = ? AND key = ?",
            (namespace, key),
        ).fetchone()
        return int(row[0]) if row is not None else 0

    def put(
        self, namespace: str, key: str, value: Any, expected_version: int | None = None
    ) -> int:
        check_names(namespace, key)
        self._require_write("put")
        self._count("put")
        text = encode_value(value)
        current = self._current_version(namespace, key)
        if expected_version is not None and expected_version != current:
            raise VersionConflictError(namespace, key, expected_version, current)
        new_version = current + 1
        self._conn.execute(
            "INSERT INTO kv (namespace, key, version, value) VALUES (?, ?, ?, ?) "
            "ON CONFLICT (namespace, key) DO UPDATE SET version = ?, value = ?",
            (namespace, key, new_version, text, new_version, text),
        )
        return new_version

    def delete(
        self, namespace: str, key: str, expected_version: int | None = None
    ) -> bool:
        check_names(namespace, key)
        self._require_write("delete")
        self._count("delete")
        current = self._current_version(namespace, key)
        if current == 0:
            if expected_version not in (None, 0):
                raise VersionConflictError(namespace, key, expected_version, 0)
            return False
        if expected_version is not None and expected_version != current:
            raise VersionConflictError(namespace, key, expected_version, current)
        self._conn.execute(
            "DELETE FROM kv WHERE namespace = ? AND key = ?", (namespace, key)
        )
        return True

    def next_value(self, counter: str) -> int:
        check_names(counter)
        self._require_write("counter")
        self._count("counter")
        value = self.peek(counter) + 1
        self._conn.execute(
            "INSERT INTO counters (name, value) VALUES (?, ?) "
            "ON CONFLICT (name) DO UPDATE SET value = ?",
            (counter, value, value),
        )
        return value

    def restore(self, namespace: str, key: str, value: Any, version: int) -> None:
        check_names(namespace, key)
        self._require_write("restore")
        self._count("put")
        if version < 1:
            raise VersionConflictError(namespace, key, version, 0)
        text = encode_value(value)
        self._conn.execute(
            "INSERT INTO kv (namespace, key, version, value) VALUES (?, ?, ?, ?) "
            "ON CONFLICT (namespace, key) DO UPDATE SET version = ?, value = ?",
            (namespace, key, int(version), text, int(version), text),
        )

    def set_counter(self, counter: str, value: int) -> None:
        check_names(counter)
        self._require_write("counter")
        self._count("counter")
        self._conn.execute(
            "INSERT INTO counters (name, value) VALUES (?, ?) "
            "ON CONFLICT (name) DO UPDATE SET value = ?",
            (counter, int(value), int(value)),
        )


class SqliteConnector(StorageConnector):
    """Durable :class:`~repro.store.base.StorageConnector` over one SQLite file."""

    backend = "sqlite"

    def __init__(
        self,
        path: str | Path,
        busy_timeout: float = 5.0,
        synchronous: str = "FULL",
        max_retries: int = 8,
    ) -> None:
        super().__init__()
        if synchronous.upper() not in {"OFF", "NORMAL", "FULL", "EXTRA"}:
            raise StoreError(f"invalid synchronous mode {synchronous!r}")
        if busy_timeout < 0:
            raise StoreError("busy_timeout must be non-negative")
        if max_retries < 1:
            raise StoreError("max_retries must be at least 1")
        self._path = Path(path)
        self._busy_timeout = float(busy_timeout)
        self._synchronous = synchronous.upper()
        self._max_retries = int(max_retries)
        self._local = threading.local()
        self._conn_lock = threading.Lock()
        self._all_conns: list[sqlite3.Connection] = []

    @property
    def location(self) -> str:
        """Path of the database file."""
        return str(self._path)

    # -- lifecycle ----------------------------------------------------- #
    def _open_backend(self) -> None:
        self._path.parent.mkdir(parents=True, exist_ok=True)
        conn = self._connection()
        # Racing openers contend on the schema lock; go through the same
        # bounded backoff as transactions.
        self._retry(lambda: self._create_schema(conn))

    def _create_schema(self, conn: sqlite3.Connection) -> None:
        for statement in _SCHEMA:
            conn.execute(statement)
        conn.execute(
            "INSERT OR IGNORE INTO meta (key, value) VALUES ('store_version', ?)",
            (str(STORE_FORMAT_VERSION),),
        )
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'store_version'"
        ).fetchone()
        found = int(row[0]) if row is not None else 0
        if found != STORE_FORMAT_VERSION:
            raise StoreError(
                f"store format version {found} in {self._path} is not supported "
                f"(this build writes version {STORE_FORMAT_VERSION})"
            )

    def _close_backend(self) -> None:
        with self._conn_lock:
            conns, self._all_conns = self._all_conns, []
        for conn in conns:
            with suppress(sqlite3.Error):
                conn.close()
        self._local = threading.local()

    def _connection(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        pid = getattr(self._local, "pid", None)
        if conn is not None and pid == os.getpid():
            return conn
        # A forked child sees the parent's thread-local slot: never reuse the
        # inherited connection object (shared file offsets corrupt the WAL).
        conn = sqlite3.connect(
            str(self._path),
            timeout=self._busy_timeout,
            isolation_level=None,  # explicit BEGIN/COMMIT below
            check_same_thread=False,  # each conn still serves only its thread
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute(f"PRAGMA synchronous={self._synchronous}")
        conn.execute(f"PRAGMA busy_timeout={int(self._busy_timeout * 1000)}")
        self._local.conn = conn
        self._local.pid = os.getpid()
        with self._conn_lock:
            self._all_conns.append(conn)
        return conn

    # -- transactions --------------------------------------------------- #
    def _retry(self, operation: Callable[[], _T]) -> _T:
        delay = 0.005
        for attempt in range(self._max_retries):
            try:
                return operation()
            except sqlite3.OperationalError as exc:
                if not _is_locked(exc) or attempt == self._max_retries - 1:
                    raise StoreError(f"sqlite store {self._path}: {exc}") from exc
                time.sleep(delay)
                delay = min(delay * 2, 0.25)
        raise StoreError(f"sqlite store {self._path} stayed locked")  # pragma: no cover

    @contextmanager
    def _transact(self, write: bool) -> Iterator[StoreTransaction]:
        conn = self._connection()
        begin = "BEGIN IMMEDIATE" if write else "BEGIN"
        self._retry(lambda: conn.execute(begin))
        try:
            yield _SqliteTransaction(self.backend, write, conn)
        except BaseException:
            with suppress(sqlite3.Error):
                conn.execute("ROLLBACK")
            raise
        try:
            self._retry(lambda: conn.execute("COMMIT"))
        except StoreError:
            with suppress(sqlite3.Error):
                conn.execute("ROLLBACK")
            raise


def is_sqlite_file(path: str | Path) -> bool:
    """Whether ``path`` exists and starts with the SQLite file magic."""
    target = Path(path)
    if not target.is_file():
        return False
    try:
        with target.open("rb") as handle:
            return handle.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC
    except OSError:
        return False
