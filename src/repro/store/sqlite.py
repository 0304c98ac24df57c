"""The storage connector: SQLite on a file or in memory.

A :class:`StorageConnector` keeps small JSON documents under
``(namespace, key)`` pairs with the versions and counters described in
:mod:`repro.store.base`.  All reads and writes happen inside a
:class:`StoreTransaction`, which either commits atomically or leaves the
store untouched.

A store on a file (every ``--store`` path) has this durability and
concurrency posture:

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

A store without a path lives in one ``:memory:`` database.  Such a database
is private to its connection, so the connector keeps that one connection
for as long as it exists (its data survives ``close()``/``open()``) and a
lock serialises the transactions of all threads on it.

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

from repro.obs.metrics import STORE_OPS, STORE_TXNS
from repro.obs.trace import span
from repro.store.base import (
    StoreError,
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

#: Seconds a file connection waits on another writer's lock per attempt.
BUSY_TIMEOUT_S = 5.0

#: ``PRAGMA synchronous`` of a file store: a commit returns once fsynced.
SYNCHRONOUS = "FULL"

#: Attempts at a locked ``BEGIN``/``COMMIT`` before it raises StoreError.
MAX_RETRIES = 8

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


class StoreTransaction:
    """One atomic unit of reads and writes, inside an explicit BEGIN.

    Mutating calls (:meth:`put`, :meth:`delete`, :meth:`next_value`)
    require the transaction to have been opened with ``write=True``;
    read-only transactions raise :class:`StoreError` instead of silently
    upgrading (an upgrade mid-flight is how SQLite deadlocks two deferred
    writers).
    """

    def __init__(self, conn: sqlite3.Connection, write: bool) -> None:
        self._conn = conn
        self.write = write

    def _count(self, op: str) -> None:
        STORE_OPS.inc(backend=StorageConnector.backend, op=op)

    def _require_write(self, op: str) -> None:
        if not self.write:
            raise StoreError(
                f"{op}() requires a write transaction; open with transaction(write=True)"
            )

    # -- reads --------------------------------------------------------- #
    def get(self, namespace: str, key: str) -> VersionedValue | None:
        """The value and version stored under ``(namespace, key)``, or ``None``."""
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
        """The version stored under ``(namespace, key)`` (0 when absent).

        Equals ``get(namespace, key).version`` without decoding the document.
        """
        check_names(namespace, key)
        self._count("get")
        return self._current_version(namespace, key)

    def keys(self, namespace: str) -> list[str]:
        """All keys in ``namespace``, sorted."""
        check_names(namespace)
        self._count("list")
        rows = self._conn.execute(
            "SELECT key FROM kv WHERE namespace = ? ORDER BY key", (namespace,)
        ).fetchall()
        return [str(row[0]) for row in rows]

    def items(self, namespace: str) -> list[tuple[str, VersionedValue]]:
        """All ``(key, versioned value)`` pairs in ``namespace``, sorted by key."""
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
        """Every namespace holding at least one key, sorted."""
        self._count("list")
        rows = self._conn.execute(
            "SELECT DISTINCT namespace FROM kv ORDER BY namespace"
        ).fetchall()
        return [str(row[0]) for row in rows]

    def peek(self, counter: str) -> int:
        """Current value of a counter (0 when never advanced)."""
        check_names(counter)
        self._count("counter")
        row = self._conn.execute(
            "SELECT value FROM counters WHERE name = ?", (counter,)
        ).fetchone()
        return int(row[0]) if row is not None else 0

    def counters(self) -> dict[str, int]:
        """Every named counter and its current value."""
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
        """Write a document; returns the new version.

        ``expected_version=0`` creates only (raises
        :class:`VersionConflictError` if the key exists);
        ``expected_version=N`` updates only if the key is still at ``N``;
        ``None`` writes unconditionally.
        """
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
        """Delete a document; returns whether it existed.

        A non-``None`` ``expected_version`` must match the stored version.
        """
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
        """Advance a named monotonic counter and return its new value."""
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


class StorageConnector:
    """A namespaced, versioned document store on a SQLite file or in memory.

    ``path`` names the database file; ``None`` keeps the store in memory.
    """

    #: Backend name reported by ``/stats`` and used as the metrics label.
    backend = "sqlite"

    def __init__(self, path: str | Path | None = None) -> None:
        self._path = Path(path) if path is not None else None
        self._closed = True
        self._local = threading.local()
        self._conn_lock = threading.Lock()
        self._all_conns: list[sqlite3.Connection] = []
        self._memory = (
            None
            if self._path is not None
            else sqlite3.connect(":memory:", isolation_level=None, check_same_thread=False)
        )
        self._memory_lock = threading.RLock()

    @property
    def location(self) -> str | None:
        """Path of the database file, or ``None`` for an in-memory store."""
        return str(self._path) if self._path is not None else None

    # -- lifecycle ----------------------------------------------------- #
    def open(self) -> "StorageConnector":
        """Open the store (idempotent); returns ``self`` for chaining."""
        if self._closed:
            if self._path is not None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
            with self._connection() as conn:
                # Racing openers contend on the schema lock; go through the
                # same bounded backoff as transactions.
                self._retry(lambda: self._create_schema(conn))
            self._closed = False
        return self

    def close(self) -> None:
        """Release the file connections (idempotent); memory data stays."""
        if not self._closed:
            self._closed = True
            with self._conn_lock:
                conns, self._all_conns = self._all_conns, []
            for conn in conns:
                with suppress(sqlite3.Error):
                    conn.close()
            self._local = threading.local()

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError(f"store {self._name} is not open")

    @property
    def _name(self) -> str:
        return str(self._path) if self._path is not None else ":memory:"

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
                f"store format version {found} in {self._name} is not supported "
                f"(this build writes version {STORE_FORMAT_VERSION})"
            )

    @contextmanager
    def _connection(self) -> Iterator[sqlite3.Connection]:
        """The in-memory connection under its lock, or this thread's file one."""
        if self._memory is not None:
            with self._memory_lock:
                yield self._memory
        else:
            yield self._thread_connection()

    def _thread_connection(self) -> sqlite3.Connection:
        conn = getattr(self._local, "conn", None)
        pid = getattr(self._local, "pid", None)
        if conn is not None and pid == os.getpid():
            return conn
        # A forked child sees the parent's thread-local slot: never reuse the
        # inherited connection object (shared file offsets corrupt the WAL).
        conn = sqlite3.connect(
            str(self._path),
            timeout=BUSY_TIMEOUT_S,
            isolation_level=None,  # explicit BEGIN/COMMIT below
            check_same_thread=False,  # each conn still serves only its thread
        )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute(f"PRAGMA synchronous={SYNCHRONOUS}")
        conn.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT_S * 1000)}")
        self._local.conn = conn
        self._local.pid = os.getpid()
        with self._conn_lock:
            self._all_conns.append(conn)
        return conn

    # -- transactions -------------------------------------------------- #
    def _retry(self, operation: Callable[[], _T]) -> _T:
        delay = 0.005
        for attempt in range(MAX_RETRIES):
            try:
                return operation()
            except sqlite3.OperationalError as exc:
                if not _is_locked(exc) or attempt == MAX_RETRIES - 1:
                    raise StoreError(f"sqlite store {self._name}: {exc}") from exc
                time.sleep(delay)
                delay = min(delay * 2, 0.25)
        raise StoreError(f"sqlite store {self._name} stayed locked")  # pragma: no cover

    @contextmanager
    def transaction(self, write: bool = False) -> Iterator[StoreTransaction]:
        """Open one atomic transaction (commit on exit, roll back on error)."""
        self._check_open()
        with span("store_txn", kind="store", backend=self.backend, write=write):
            with self._connection() as conn:
                begin = "BEGIN IMMEDIATE" if write else "BEGIN"
                self._retry(lambda: conn.execute(begin))
                try:
                    yield StoreTransaction(conn, write)
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
        STORE_TXNS.inc(backend=self.backend, write="true" if write else "false")

    def backup(self, target: "StorageConnector") -> None:
        """Replace ``target``'s whole database with a copy of this one.

        One consistent read copies every document, version and counter, so
        optimistic writers that read the source still conflict correctly
        against the copy; whatever ``target`` held before is gone.
        """
        self._check_open()
        target._check_open()
        with self._connection() as source, target._connection() as copy:
            try:
                source.backup(copy)
            except sqlite3.Error as exc:
                raise StoreError(f"backup of {self._name} to {target._name}: {exc}") from exc

    # -- autocommit conveniences --------------------------------------- #
    def get(self, namespace: str, key: str) -> VersionedValue | None:
        """One-shot read of a single document."""
        with self.transaction() as txn:
            return txn.get(namespace, key)

    def version(self, namespace: str, key: str) -> int:
        """One-shot read of a single document's version (0 when absent)."""
        with self.transaction() as txn:
            return txn.version(namespace, key)

    def put(
        self, namespace: str, key: str, value: Any, expected_version: int | None = None
    ) -> int:
        """One-shot versioned write of a single document."""
        with self.transaction(write=True) as txn:
            return txn.put(namespace, key, value, expected_version=expected_version)

    def delete(
        self, namespace: str, key: str, expected_version: int | None = None
    ) -> bool:
        """One-shot delete of a single document."""
        with self.transaction(write=True) as txn:
            return txn.delete(namespace, key, expected_version=expected_version)

    def keys(self, namespace: str) -> list[str]:
        """One-shot sorted key listing of a namespace."""
        with self.transaction() as txn:
            return txn.keys(namespace)

    def items(self, namespace: str) -> list[tuple[str, VersionedValue]]:
        """One-shot sorted item listing of a namespace."""
        with self.transaction() as txn:
            return txn.items(namespace)

    def namespaces(self) -> list[str]:
        """One-shot listing of the populated namespaces."""
        with self.transaction() as txn:
            return txn.namespaces()

    def next_value(self, counter: str) -> int:
        """One-shot counter advance."""
        with self.transaction(write=True) as txn:
            return txn.next_value(counter)

    def peek(self, counter: str) -> int:
        """One-shot counter read."""
        with self.transaction() as txn:
            return txn.peek(counter)


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
