"""The request-level response cache behind the serving front end.

A :class:`ResponseCache` stores fully-rendered HTTP response bodies for the
read endpoints whose output is a pure function of *what is registered* —
audits and dataset reads — keyed on::

    (kind, dataset, resolved params, dataset version)

``kind`` plays the strategy slot of the key: it names which read produced
the response (``audit`` or ``dataset``).  The **dataset version** is the
storage connector's own optimistic document version for the dataset — the
version of its ``datasets`` document paired with the version of its
``deltas`` document — so a re-register (which bumps the ``datasets``
version) or a delta append (which bumps the ``deltas`` version) makes every
old key unreachable by construction.  On top of that versioned keying,
:meth:`invalidate` actively drops the affected entries the moment the
service mutates a dataset, so the cache never holds more than one version
of any response.

Entries persist write-through into the owning service's
:class:`~repro.store.base.StorageConnector` under the
:data:`~repro.store.base.NS_RESPONSE_CACHE` namespace: a restarted service
resumes with its hot responses intact.  At load time every persisted entry
is **revalidated** against the dataset versions currently in the store —
an entry cached before a re-register that happened while the service was
down is dropped, never served.

The cache is attached to a service with :meth:`attach` (or implicitly by
:class:`repro.serve.frontend.ServingFrontend`); attaching registers the
invalidation hook and folds the hit/miss/invalidation counters into
``AnonymizationService.stats()`` under the ``response_cache`` key.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import SERVE_CACHE_HITS, SERVE_CACHE_INVALIDATIONS
from repro.store.base import (
    NS_DATASETS,
    NS_DELTAS,
    NS_RESPONSE_CACHE,
    StorageConnector,
    StoreError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.engine import AnonymizationService

#: Default cap on resident (and persisted) entries; oldest-first eviction.
DEFAULT_MAX_ENTRIES = 256


@dataclass(frozen=True)
class CachedResponse:
    """One fully-rendered cacheable response."""

    dataset: str
    status: int
    content_type: str
    body: bytes

    def to_json(self) -> dict[str, Any]:
        """Store-persistable form (bodies are UTF-8 JSON text)."""
        return {
            "dataset": self.dataset,
            "status": self.status,
            "content_type": self.content_type,
            "body": self.body.decode("utf-8"),
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "CachedResponse":
        return cls(
            dataset=str(payload["dataset"]),
            status=int(payload["status"]),
            content_type=str(payload["content_type"]),
            body=str(payload["body"]).encode("utf-8"),
        )


class ResponseCache:
    """Versioned, persisted response cache for the serving front end."""

    def __init__(
        self,
        store: StorageConnector | None = None,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        persist: bool = True,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self._lock = threading.Lock()
        self._store = store
        self._persist = persist
        self._max_entries = max_entries
        self._entries: OrderedDict[str, CachedResponse] = OrderedDict()
        self._versions: dict[str, tuple[int, int]] = {}
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # Attachment and version tracking
    # ------------------------------------------------------------------ #
    def attach(self, service: "AnonymizationService") -> "ResponseCache":
        """Bind the cache to ``service``: share its store, load persisted
        entries (revalidated against current dataset versions), and register
        the invalidation hook for re-registers and delta appends."""
        if self._store is None:
            self._store = service.store
        self._load_versions()
        self._load_persisted()
        service.attach_response_cache(self)
        return self

    def _version_of(self, name: str) -> tuple[int, int]:
        """Read ``name``'s (datasets, deltas) document versions from the store."""
        assert self._store is not None
        with self._store.transaction() as txn:
            return txn.version(NS_DATASETS, name), txn.version(NS_DELTAS, name)

    def _load_versions(self) -> None:
        assert self._store is not None
        names = set(self._store.keys(NS_DATASETS)) | set(self._store.keys(NS_DELTAS))
        with self._lock:
            self._versions = {name: self._version_of(name) for name in names}

    def _load_persisted(self) -> None:
        """Adopt persisted entries whose dataset version is still current."""
        assert self._store is not None
        if not self._persist:
            return
        stale: list[str] = []
        with self._lock:
            for key, stored in self._store.items(NS_RESPONSE_CACHE):
                try:
                    entry = CachedResponse.from_json(stored.value)
                except (KeyError, TypeError, ValueError):
                    stale.append(key)
                    continue
                current = self._versions.get(entry.dataset, (0, 0))
                if self._key_versions(key) != current:
                    stale.append(key)
                    continue
                self._entries[key] = entry
        for key in stale:
            self._delete_persisted(key)

    @staticmethod
    def _key_versions(key: str) -> tuple[int, int]:
        """The ``(datasets, deltas)`` version pair baked into a cache key."""
        try:
            _, _, version, _ = key.split("|", 3)
            ds, _, delta = version.partition(".")
            return (int(ds.lstrip("v")), int(delta))
        except ValueError:
            return (-1, -1)

    # ------------------------------------------------------------------ #
    # Keying
    # ------------------------------------------------------------------ #
    def key(self, kind: str, dataset: str, params: dict[str, Any]) -> str:
        """The canonical key of one cacheable response.

        ``v<datasets>.<deltas>`` is the dataset-version pair at key time, so
        keys built after a mutation can never collide with entries cached
        before it.
        """
        with self._lock:
            ds_version, delta_version = self._versions.get(dataset, (0, 0))
        resolved = json.dumps(params, sort_keys=True, separators=(",", ":"))
        return f"{kind}|{dataset}|v{ds_version}.{delta_version}|{resolved}"

    # ------------------------------------------------------------------ #
    # Lookup / fill / invalidation
    # ------------------------------------------------------------------ #
    def get(self, key: str) -> CachedResponse | None:
        """The cached response under ``key``, counting the hit or miss."""
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
        SERVE_CACHE_HITS.inc(result="hit" if entry is not None else "miss")
        return entry

    def put(self, key: str, entry: CachedResponse) -> None:
        """Cache ``entry`` under ``key``; evicts oldest-first past the cap."""
        if not self.enabled:
            return
        evicted: list[str] = []
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                old_key, _ = self._entries.popitem(last=False)
                evicted.append(old_key)
                self.evictions += 1
        self._persist_entry(key, entry)
        for old_key in evicted:
            self._delete_persisted(old_key)

    def invalidate(self, dataset: str) -> int:
        """Drop every entry of ``dataset`` and refresh its version.

        Called by the service whenever a dataset is (re-)registered, created
        as a delta base, or receives appended rows.  Only keys of that
        dataset are touched — entries for other datasets survive untouched.
        Returns the number of entries dropped.
        """
        dropped: list[str] = []
        with self._lock:
            if self._store is not None:
                self._versions[dataset] = self._version_of(dataset)
            else:
                ds, delta = self._versions.get(dataset, (0, 0))
                self._versions[dataset] = (ds + 1, delta)
            dropped = [
                key for key, entry in self._entries.items() if entry.dataset == dataset
            ]
            for key in dropped:
                del self._entries[key]
            self.invalidations += len(dropped)
        for key in dropped:
            self._delete_persisted(key)
        SERVE_CACHE_INVALIDATIONS.inc(len(dropped))
        return len(dropped)

    def clear(self) -> None:
        """Drop every entry (persisted ones included); counters survive."""
        with self._lock:
            keys = list(self._entries)
            self._entries.clear()
        for key in keys:
            self._delete_persisted(key)

    # ------------------------------------------------------------------ #
    # Persistence plumbing
    # ------------------------------------------------------------------ #
    def _persist_entry(self, key: str, entry: CachedResponse) -> None:
        if not self._persist or self._store is None:
            return
        try:
            self._store.put(NS_RESPONSE_CACHE, key, entry.to_json())
        except StoreError:
            # Cache persistence is an optimisation; a store hiccup must
            # never fail the request that produced the response.
            pass

    def _delete_persisted(self, key: str) -> None:
        if not self._persist or self._store is None:
            return
        try:
            self._store.delete(NS_RESPONSE_CACHE, key)
        except StoreError:
            pass

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats_payload(self) -> dict[str, Any]:
        """The counter block ``AnonymizationService.stats()`` folds in."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "entries": len(self._entries),
                "max_entries": self._max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "evictions": self.evictions,
                "persisted": self._persist and self._store is not None,
            }
