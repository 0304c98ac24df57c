"""What every stored document obeys: names, versions, JSON and typed errors.

The store (:class:`~repro.store.sqlite.StorageConnector`) keeps small JSON
documents under ``(namespace, key)`` pairs, each carrying an integer
**version** that starts at 1 on first write and increments on every update.
Writers pass ``expected_version`` to detect races: ``0`` means "the key must
not exist yet" (create-only), any other integer means "the key must still be
at that version" (update-only), and ``None`` writes unconditionally.  A
mismatch raises :class:`VersionConflictError` — a *typed* error the service
layers translate, never silent corruption.

Values are encoded to canonical JSON at the transaction boundary (tuples
become lists, keys become strings), so a file store and an in-memory store
hold the same values.

The store also keeps named monotonic **counters**
(:meth:`~repro.store.sqlite.StoreTransaction.next_value`) — the durable
sequence behind job ids — which survive restarts and are race-free across
processes sharing one file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any


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
