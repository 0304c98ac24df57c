"""In-memory storage connector: the test double and the store-less default.

Semantics match the SQLite backend exactly — values are encoded to canonical
JSON at the boundary, versions and counters behave identically, and a
transaction that raises leaves nothing behind (writes are staged and applied
only on commit).  One re-entrant lock serialises transactions, so the
connector is thread-safe but, being process-local, offers no cross-process
durability: that is what :class:`~repro.store.sqlite.SqliteConnector` is for.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from collections.abc import Iterator
from typing import Any

from repro.store.base import (
    StorageConnector,
    StoreTransaction,
    VersionConflictError,
    VersionedValue,
    check_names,
    decode_value,
    encode_value,
)

#: Sentinel marking a staged deletion in a transaction's write set.
_DELETED = object()


class _MemoryTransaction(StoreTransaction):
    """Stages writes over the connector's maps; commit applies them."""

    def __init__(
        self,
        backend: str,
        write: bool,
        data: dict[str, dict[str, tuple[int, str]]],
        counters: dict[str, int],
    ) -> None:
        super().__init__(backend, write)
        self._data = data
        self._base_counters = counters
        #: Staged writes: (namespace, key) -> (version, text) or _DELETED.
        self._staged: dict[tuple[str, str], Any] = {}
        self._staged_counters: dict[str, int] = {}

    # -- reads --------------------------------------------------------- #
    def _lookup(self, namespace: str, key: str) -> tuple[int, str] | None:
        staged = self._staged.get((namespace, key))
        if staged is _DELETED:
            return None
        if staged is not None:
            version, text = staged
            return int(version), str(text)
        stored = self._data.get(namespace, {}).get(key)
        return stored

    def get(self, namespace: str, key: str) -> VersionedValue | None:
        check_names(namespace, key)
        self._count("get")
        stored = self._lookup(namespace, key)
        if stored is None:
            return None
        version, text = stored
        return VersionedValue(value=decode_value(text), version=version)

    def version(self, namespace: str, key: str) -> int:
        check_names(namespace, key)
        self._count("get")
        stored = self._lookup(namespace, key)
        return stored[0] if stored is not None else 0

    def _namespace_view(self, namespace: str) -> dict[str, tuple[int, str]]:
        view = dict(self._data.get(namespace, {}))
        for (ns, key), staged in self._staged.items():
            if ns != namespace:
                continue
            if staged is _DELETED:
                view.pop(key, None)
            else:
                view[key] = staged
        return view

    def keys(self, namespace: str) -> list[str]:
        check_names(namespace)
        self._count("list")
        return sorted(self._namespace_view(namespace))

    def items(self, namespace: str) -> list[tuple[str, VersionedValue]]:
        check_names(namespace)
        self._count("list")
        view = self._namespace_view(namespace)
        return [
            (key, VersionedValue(value=decode_value(text), version=version))
            for key, (version, text) in sorted(view.items())
        ]

    def namespaces(self) -> list[str]:
        self._count("list")
        names = {ns for ns, entries in self._data.items() if entries}
        for (ns, _key), staged in self._staged.items():
            if staged is not _DELETED:
                names.add(ns)
        return sorted(ns for ns in names if self._namespace_view(ns))

    def peek(self, counter: str) -> int:
        check_names(counter)
        self._count("counter")
        if counter in self._staged_counters:
            return self._staged_counters[counter]
        return self._base_counters.get(counter, 0)

    def counters(self) -> dict[str, int]:
        self._count("counter")
        merged = dict(self._base_counters)
        merged.update(self._staged_counters)
        return merged

    # -- writes -------------------------------------------------------- #
    def put(
        self, namespace: str, key: str, value: Any, expected_version: int | None = None
    ) -> int:
        check_names(namespace, key)
        self._require_write("put")
        self._count("put")
        text = encode_value(value)
        stored = self._lookup(namespace, key)
        current = stored[0] if stored is not None else 0
        if expected_version is not None and expected_version != current:
            raise VersionConflictError(namespace, key, expected_version, current)
        new_version = current + 1
        self._staged[(namespace, key)] = (new_version, text)
        return new_version

    def delete(
        self, namespace: str, key: str, expected_version: int | None = None
    ) -> bool:
        check_names(namespace, key)
        self._require_write("delete")
        self._count("delete")
        stored = self._lookup(namespace, key)
        if stored is None:
            if expected_version not in (None, 0):
                raise VersionConflictError(namespace, key, expected_version, 0)
            return False
        if expected_version is not None and expected_version != stored[0]:
            raise VersionConflictError(namespace, key, expected_version, stored[0])
        self._staged[(namespace, key)] = _DELETED
        return True

    def next_value(self, counter: str) -> int:
        check_names(counter)
        self._require_write("counter")
        self._count("counter")
        value = self.peek(counter) + 1
        self._staged_counters[counter] = value
        return value

    def restore(self, namespace: str, key: str, value: Any, version: int) -> None:
        check_names(namespace, key)
        self._require_write("restore")
        self._count("put")
        if version < 1:
            raise VersionConflictError(namespace, key, version, 0)
        self._staged[(namespace, key)] = (int(version), encode_value(value))

    def set_counter(self, counter: str, value: int) -> None:
        check_names(counter)
        self._require_write("counter")
        self._count("counter")
        self._staged_counters[counter] = int(value)

    # -- commit -------------------------------------------------------- #
    def apply(self) -> None:
        """Fold the staged writes into the connector's maps."""
        for (namespace, key), staged in self._staged.items():
            if staged is _DELETED:
                bucket = self._data.get(namespace)
                if bucket is not None:
                    bucket.pop(key, None)
                    if not bucket:
                        self._data.pop(namespace, None)
            else:
                self._data.setdefault(namespace, {})[key] = staged
        self._base_counters.update(self._staged_counters)


class MemoryConnector(StorageConnector):
    """Process-local :class:`~repro.store.base.StorageConnector`."""

    backend = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.RLock()
        self._data: dict[str, dict[str, tuple[int, str]]] = {}
        self._counters: dict[str, int] = {}

    def _open_backend(self) -> None:
        pass

    def _close_backend(self) -> None:
        pass

    @contextmanager
    def _transact(self, write: bool) -> Iterator[StoreTransaction]:
        with self._lock:
            txn = _MemoryTransaction(self.backend, write, self._data, self._counters)
            yield txn
            txn.apply()
