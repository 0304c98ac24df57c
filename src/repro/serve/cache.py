"""The request-level response cache behind the serving front end.

A :class:`ResponseCache` holds fully-rendered HTTP response bodies for the
audit endpoint, whose output is a pure function of *what is registered*,
keyed on::

    (kind, dataset, resolved params, dataset generation)

``kind`` names which read produced the response (``audit``).  The
**dataset generation** is a per-dataset counter that :meth:`invalidate`
bumps whenever the service mutates the dataset (a re-register, a delta base
publish or a delta append), so every key built before the mutation is
unreachable by construction.  On top of that, :meth:`invalidate` drops the
affected entries at once, so the cache never holds more than one generation
of any response.

The cache lives in process memory only.  A cached body is derived data —
a function of the registered table and the request — so a restarted
service starts empty and refills on first use; the store never holds it.

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

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.engine import AnonymizationService

#: Default cap on resident entries; oldest-first eviction.
DEFAULT_MAX_ENTRIES = 256


@dataclass(frozen=True)
class CachedResponse:
    """One fully-rendered cacheable response."""

    dataset: str
    status: int
    content_type: str
    body: bytes


class ResponseCache:
    """Versioned, in-memory response cache for the serving front end."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self._lock = threading.Lock()
        self._max_entries = max_entries
        self._entries: OrderedDict[str, CachedResponse] = OrderedDict()
        self._generations: dict[str, int] = {}
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def attach(self, service: "AnonymizationService") -> "ResponseCache":
        """Bind the cache to ``service``: register the invalidation hook for
        re-registers and delta appends, and fold the counters into its stats."""
        service.attach_response_cache(self)
        return self

    # ------------------------------------------------------------------ #
    # Keying
    # ------------------------------------------------------------------ #
    def key(self, kind: str, dataset: str, params: dict[str, Any]) -> str:
        """The canonical key of one cacheable response.

        ``v<generation>`` is the dataset's generation at key time, so keys
        built after a mutation can never collide with entries cached before
        it.
        """
        with self._lock:
            generation = self._generations.get(dataset, 0)
        resolved = json.dumps(params, sort_keys=True, separators=(",", ":"))
        return f"{kind}|{dataset}|v{generation}|{resolved}"

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
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(self, dataset: str) -> int:
        """Drop every entry of ``dataset`` and bump its generation.

        Called by the service whenever a dataset is (re-)registered, created
        as a delta base, or receives appended rows.  Only keys of that
        dataset are touched — entries for other datasets survive untouched.
        Returns the number of entries dropped.
        """
        with self._lock:
            self._generations[dataset] = self._generations.get(dataset, 0) + 1
            dropped = [
                key for key, entry in self._entries.items() if entry.dataset == dataset
            ]
            for key in dropped:
                del self._entries[key]
            self.invalidations += len(dropped)
        SERVE_CACHE_INVALIDATIONS.inc(len(dropped))
        return len(dropped)

    def clear(self) -> None:
        """Drop every entry; counters survive."""
        with self._lock:
            self._entries.clear()

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
            }
