"""The storage connector contract: transactional, namespaced, versioned.

A :class:`StorageConnector` persists small JSON documents under
``(namespace, key)`` pairs, each carrying an integer **version** that starts
at 1 on first write and increments on every update.  All reads and writes
happen inside a :class:`StoreTransaction`; a transaction either commits
atomically or leaves the store untouched.  Writers pass
``expected_version`` to detect races: ``0`` means "the key must not exist
yet" (create-only), any other integer means "the key must still be at that
version" (update-only), and ``None`` writes unconditionally.  A mismatch
raises :class:`VersionConflictError` — a *typed* error the service layers
translate, never silent corruption.

Values are encoded to canonical JSON at the transaction boundary, so every
connector has identical value semantics (tuples become lists, keys become
strings) and a payload that round-trips through one connector round-trips
through all of them.

Each connector also keeps named monotonic **counters**
(:meth:`StoreTransaction.next_value`) — the durable sequence behind
``next_job_id`` — which survive restarts and are race-free across processes
on the SQLite backend.
"""

from __future__ import annotations

import abc
import json
from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Iterator
from typing import Any

from repro.obs.metrics import STORE_OPS, STORE_TXNS
from repro.obs.trace import span


#: Well-known namespaces of the service layers (shared by the registries
#: and the delta store).
NS_DATASETS = "datasets"
NS_JOBS = "jobs"
NS_DELTAS = "deltas"

#: The durable sequence behind job ids (drawn by ``JobStore.add``).
COUNTER_JOB_IDS = "job_ids"


class StoreError(RuntimeError):
    """Raised for storage-level failures (closed store, bad payload, I/O)."""


class VersionConflictError(StoreError):
    """An optimistic-concurrency check failed: someone else wrote first.

    ``expected == 0`` means the writer required the key to be absent (a
    create-only put that lost a race); any other expectation means the key
    moved past the version the writer had read.
    """

    def __init__(self, namespace: str, key: str, expected: int, found: int) -> None:
        self.namespace = namespace
        self.key = key
        self.expected = expected
        self.found = found
        if expected == 0:
            detail = "the key already exists"
        else:
            detail = f"expected version {expected}, found {found}"
        super().__init__(f"version conflict on {namespace}/{key}: {detail}")


@dataclass(frozen=True)
class VersionedValue:
    """One stored document and the version it was read at."""

    value: Any
    version: int


def encode_value(value: Any) -> str:
    """Encode a document as canonical JSON text (what every connector stores)."""
    try:
        return json.dumps(value, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise StoreError(f"value is not JSON-serialisable: {exc}") from exc


def decode_value(text: str) -> Any:
    """Decode stored JSON text back into plain Python objects."""
    return json.loads(text)


def check_names(namespace: str, key: str | None = None) -> None:
    """Reject empty or non-string namespaces/keys before they hit a backend."""
    if not isinstance(namespace, str) or not namespace:
        raise StoreError(f"namespace must be a non-empty string, got {namespace!r}")
    if key is not None and (not isinstance(key, str) or not key):
        raise StoreError(f"key must be a non-empty string, got {key!r}")


class StoreTransaction(abc.ABC):
    """One atomic unit of reads and writes against a connector.

    Mutating calls (:meth:`put`, :meth:`delete`, :meth:`next_value`,
    :meth:`restore`, :meth:`set_counter`) require the transaction to have
    been opened with ``write=True``; read-only transactions raise
    :class:`StoreError` instead of silently upgrading (an upgrade mid-flight
    is how SQLite deadlocks two deferred writers).
    """

    def __init__(self, backend: str, write: bool) -> None:
        self._backend = backend
        self.write = write

    def _count(self, op: str) -> None:
        STORE_OPS.inc(backend=self._backend, op=op)

    def _require_write(self, op: str) -> None:
        if not self.write:
            raise StoreError(
                f"{op}() requires a write transaction; open with transaction(write=True)"
            )

    # -- reads --------------------------------------------------------- #
    @abc.abstractmethod
    def get(self, namespace: str, key: str) -> VersionedValue | None:
        """The value and version stored under ``(namespace, key)``, or ``None``."""

    @abc.abstractmethod
    def version(self, namespace: str, key: str) -> int:
        """The version stored under ``(namespace, key)`` (0 when absent).

        Equals ``get(namespace, key).version`` without decoding the document.
        """

    @abc.abstractmethod
    def keys(self, namespace: str) -> list[str]:
        """All keys in ``namespace``, sorted."""

    @abc.abstractmethod
    def items(self, namespace: str) -> list[tuple[str, VersionedValue]]:
        """All ``(key, versioned value)`` pairs in ``namespace``, sorted by key."""

    @abc.abstractmethod
    def namespaces(self) -> list[str]:
        """Every namespace holding at least one key, sorted."""

    @abc.abstractmethod
    def peek(self, counter: str) -> int:
        """Current value of a counter (0 when never advanced)."""

    @abc.abstractmethod
    def counters(self) -> dict[str, int]:
        """Every named counter and its current value."""

    # -- writes -------------------------------------------------------- #
    @abc.abstractmethod
    def put(
        self, namespace: str, key: str, value: Any, expected_version: int | None = None
    ) -> int:
        """Write a document; returns the new version.

        ``expected_version=0`` creates only (raises
        :class:`VersionConflictError` if the key exists);
        ``expected_version=N`` updates only if the key is still at ``N``;
        ``None`` writes unconditionally.
        """

    @abc.abstractmethod
    def delete(
        self, namespace: str, key: str, expected_version: int | None = None
    ) -> bool:
        """Delete a document; returns whether it existed.

        A non-``None`` ``expected_version`` must match the stored version.
        """

    @abc.abstractmethod
    def next_value(self, counter: str) -> int:
        """Advance a named monotonic counter and return its new value."""

    @abc.abstractmethod
    def restore(self, namespace: str, key: str, value: Any, version: int) -> None:
        """Write a document at an exact version (copy only).

        Unlike :meth:`put`, this does not bump the version — it reproduces
        the source store's version so optimistic writers carry on seamlessly
        against a copy.
        """

    @abc.abstractmethod
    def set_counter(self, counter: str, value: int) -> None:
        """Set a counter to an absolute value (copy only)."""


class StorageConnector(abc.ABC):
    """Abstract durable key/value store with namespaces and versions.

    Concrete backends: :class:`~repro.store.sqlite.SqliteConnector` (the
    durable default) and :class:`~repro.store.memory.MemoryConnector`
    (tests, store-less services).
    """

    #: Short backend name used as the metrics label.
    backend: str = "abstract"

    def __init__(self) -> None:
        self._closed = True

    # -- lifecycle ----------------------------------------------------- #
    @property
    def closed(self) -> bool:
        """Whether the connector is not currently open."""
        return self._closed

    def open(self) -> "StorageConnector":
        """Open the backend (idempotent); returns ``self`` for chaining."""
        if self._closed:
            self._open_backend()
            self._closed = False
        return self

    def close(self) -> None:
        """Flush and release the backend (idempotent)."""
        if not self._closed:
            self._close_backend()
            self._closed = True

    def __enter__(self) -> "StorageConnector":
        return self.open()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @abc.abstractmethod
    def _open_backend(self) -> None:
        """Backend-specific open."""

    @abc.abstractmethod
    def _close_backend(self) -> None:
        """Backend-specific close."""

    @abc.abstractmethod
    def _transact(self, write: bool) -> Any:
        """A context manager yielding a :class:`StoreTransaction`."""

    @property
    def location(self) -> str | None:
        """Where the data lives (a path), or ``None`` for in-memory backends."""
        return None

    def _check_open(self) -> None:
        if self._closed:
            raise StoreError(f"{type(self).__name__} is not open")

    # -- transactions -------------------------------------------------- #
    @contextmanager
    def transaction(self, write: bool = False) -> Iterator[StoreTransaction]:
        """Open one atomic transaction (commit on exit, roll back on error)."""
        self._check_open()
        with span("store_txn", kind="store", backend=self.backend, write=write):
            with self._transact(write) as txn:
                yield txn
        STORE_TXNS.inc(backend=self.backend, write="true" if write else "false")

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


def copy_store(source: StorageConnector, target: StorageConnector) -> None:
    """Copy every document, version and counter from one open store to another.

    Versions are reproduced exactly (via :meth:`StoreTransaction.restore`),
    so optimistic writers that read before the copy still conflict correctly
    against the copy — this is what backs ``AnonymizationService.save``'s export.
    """
    with source.transaction() as src:
        payload = [
            (namespace, src.items(namespace)) for namespace in src.namespaces()
        ]
        counters = src.counters()
    with target.transaction(write=True) as dst:
        for namespace, entries in payload:
            for key, stored in entries:
                dst.restore(namespace, key, stored.value, stored.version)
        for name, value in counters.items():
            dst.set_counter(name, value)
