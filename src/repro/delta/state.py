"""Persistent state of an incrementally re-publishable dataset.

A base publish (:func:`repro.delta.publish_base`) captures everything a
later append needs, so the base source never has to be re-read:

* the per-group counts as a :class:`~repro.dataset.groups.GroupCounts`
  over the schema of the rows folded in so far; an append that introduces
  new attribute values re-codes them onto the grown domains;
* the per-chunk published row counts — clean chunks can then be copied out
  of the published CSV without re-running their kernels (the row count of a
  chunk depends on the kernel's draws and is unrecoverable after the fact);
* the ``(strategy, params, seed, chunk_size)`` tuple that pins the bytes.

The state is a plain JSON document (:meth:`DeltaState.save` /
:meth:`DeltaState.load`) whose groups are keyed by **decoded value
strings**, not codes — values are decoded only in :meth:`DeltaState.to_json`
and encoded only in :meth:`DeltaState.from_json` — so a publish made by one
process can be appended to by another — the ``repro-delta`` CLI round-trips it through a file and
the service persists it per dataset through a storage connector
(:class:`DeltaStateStore`), so a restarted service resumes appending where
it left off.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.dataset.groups import GroupCounts
from repro.dataset.schema import Attribute, Schema
from repro.store.base import NS_DELTAS, StorageConnector
from repro.store.memory import MemoryConnector

#: Version of the serialised state document.
STATE_VERSION = 1


def _decode_groups(schema: Schema, groups: GroupCounts) -> list[list[Any]]:
    """Value-keyed ``[[NA values...], {SA value: count}]`` pairs, in group order."""
    keys = zip(*(
        np.array(attr.values, dtype=object)[groups.keys[:, i]].tolist()
        for i, attr in enumerate(schema.public)
    ), strict=True)
    # Only the non-zero counts are stored, row by row.
    rows, columns = np.nonzero(groups.counts)
    values = np.array(schema.sensitive.values, dtype=object)[columns].tolist()
    counts = groups.counts[rows, columns].tolist()
    bounds = np.searchsorted(rows, np.arange(len(groups) + 1)).tolist()
    return [
        [list(key), dict(zip(values[lo:hi], counts[lo:hi], strict=True))]
        for key, lo, hi in zip(keys, bounds[:-1], bounds[1:], strict=True)
    ]


def _encode_groups(
    header: Sequence[str], sensitive: str, stored: Sequence[Any]
) -> tuple[Schema, GroupCounts]:
    """The schema the value-keyed groups imply (sorted domains) and their counts.

    Every row lives in exactly one personal group, so the observed domain of
    a column is the set of values that column takes across the group keys —
    the same domains :meth:`repro.stream.index.IncrementalGroupIndex.finalize`
    infers from the rows themselves.
    """
    # One (NA values..., SA value, count) entry per stored count.
    entries = [
        (*map(str, key), str(value), int(n))
        for key, counts in stored
        for value, n in counts.items()
    ]
    if not entries:
        raise ValueError("a delta state holds at least one group")
    *columns, weights = zip(*entries, strict=True)
    # Public columns in file order, then the sensitive column.
    names = [*(name for name in header if name != sensitive), sensitive]
    attributes = [
        Attribute(name, tuple(sorted(set(column))))
        for name, column in zip(names, columns, strict=True)
    ]
    codes = np.empty((len(attributes), len(entries)), dtype=np.int64)
    for row, (attr, column) in enumerate(zip(attributes, columns, strict=True)):
        lookup = {value: code for code, value in enumerate(attr.values)}
        codes[row] = [lookup[value] for value in column]
    schema = Schema(public=attributes[:-1], sensitive=attributes[-1])
    groups, _, _ = GroupCounts.tabulate(
        codes[:-1].T, codes[-1], schema.sensitive_domain_size, np.array(weights, dtype=np.int64)
    )
    return schema, groups


@dataclass(frozen=True)
class DeltaState:
    """Everything a delta re-publish needs to know about a published base.

    Instances are immutable; :func:`repro.delta.delta_publish` returns the
    successor state on its report rather than mutating the input, so a
    failed splice can never leave the caller holding state that disagrees
    with the (untouched) published file.
    """

    #: Registered strategy name the base was published with.
    strategy: str
    #: Fully resolved strategy parameters (defaults filled in).
    params: dict[str, Any]
    #: Root seed of the per-chunk spawn tree.
    seed: int
    #: Personal groups per work chunk (pins the published bytes).
    chunk_size: int
    #: CSV records per ingestion chunk (memory knob; does not pin bytes).
    chunk_rows: int
    #: Total input rows folded in so far (base plus every applied append).
    n_rows: int
    #: Sensitive column name.
    sensitive: str
    #: Source file column order (appends must match it).
    header: tuple[str, ...]
    #: The schema the groups are coded over: every domain is the sorted set
    #: of values the rows folded in so far take.
    schema: Schema
    #: Per-group SA counts over ``schema``, in published group order.
    groups: GroupCounts
    #: Published rows per kernel chunk, in chunk order.
    chunk_row_counts: tuple[int, ...]
    #: Path of the published CSV the splice step rewrites.
    output: str

    @property
    def n_groups(self) -> int:
        """Number of distinct personal groups."""
        return len(self.groups)

    def with_output(self, output: str) -> "DeltaState":
        """A copy of the state pointing at a different published file."""
        return replace(self, output=output)

    def to_json(self) -> dict[str, Any]:
        """JSON-ready dict (inverse of :meth:`from_json`)."""
        return {
            "state_version": STATE_VERSION,
            "strategy": self.strategy,
            "params": dict(self.params),
            "seed": self.seed,
            "chunk_size": self.chunk_size,
            "chunk_rows": self.chunk_rows,
            "n_rows": self.n_rows,
            "sensitive": self.sensitive,
            "header": list(self.header),
            "groups": _decode_groups(self.schema, self.groups),
            "chunk_row_counts": list(self.chunk_row_counts),
            "output": self.output,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "DeltaState":
        """Rebuild a state from :meth:`to_json` output."""
        version = data.get("state_version")
        if version != STATE_VERSION:
            raise ValueError(
                f"unsupported delta state version {version!r} (expected {STATE_VERSION})"
            )
        header = tuple(str(name) for name in data["header"])
        sensitive = str(data["sensitive"])
        schema, groups = _encode_groups(header, sensitive, data["groups"])
        return cls(
            strategy=str(data["strategy"]),
            params=dict(data["params"]),
            seed=int(data["seed"]),
            chunk_size=int(data["chunk_size"]),
            chunk_rows=int(data["chunk_rows"]),
            n_rows=int(data["n_rows"]),
            sensitive=sensitive,
            header=header,
            schema=schema,
            groups=groups,
            chunk_row_counts=tuple(int(n) for n in data["chunk_row_counts"]),
            output=str(data["output"]),
        )

    def save(self, path: str | Path) -> None:
        """Write the state as a JSON document."""
        Path(path).write_text(
            json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> "DeltaState":
        """Read a state written by :meth:`save`."""
        return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


class DeltaStateStore:
    """Versioned persistence of :class:`DeltaState` keyed by dataset name.

    States live in the ``deltas`` namespace of a
    :class:`~repro.store.base.StorageConnector`, so a restarted service
    resumes with every delta dataset appendable.  Writers pass the version
    they read (:meth:`entry`) back into :meth:`put` so a concurrent append
    through a shared store surfaces as a typed
    :class:`~repro.store.base.VersionConflictError` instead of silently
    losing the other append's group counts.
    """

    def __init__(self, store: StorageConnector | None = None) -> None:
        self._store = store if store is not None else MemoryConnector().open()

    @property
    def store(self) -> StorageConnector:
        """The connector the states persist through."""
        return self._store

    def entry(self, name: str) -> tuple[DeltaState, int] | None:
        """The state and the store version it was read at, or ``None``."""
        stored = self._store.get(NS_DELTAS, name)
        if stored is None:
            return None
        return DeltaState.from_json(stored.value), stored.version

    def get(self, name: str) -> DeltaState | None:
        """The current state of delta dataset ``name``, or ``None``."""
        found = self.entry(name)
        return found[0] if found is not None else None

    def version(self, name: str) -> int:
        """The store version of ``name`` (0 when it does not exist)."""
        stored = self._store.get(NS_DELTAS, name)
        return stored.version if stored is not None else 0

    def put(
        self, name: str, state: DeltaState, expected_version: int | None = None
    ) -> int:
        """Persist a state; returns the new version.

        ``expected_version`` follows the connector contract: ``0`` creates
        only, ``N`` replaces only if the stored state is still at ``N``,
        ``None`` writes unconditionally.
        """
        return self._store.put(
            NS_DELTAS, name, state.to_json(), expected_version=expected_version
        )

    def delete(self, name: str) -> bool:
        """Remove a delta dataset's state; returns whether it existed."""
        return self._store.delete(NS_DELTAS, name)

    def names(self) -> list[str]:
        """All delta dataset names, sorted."""
        return self._store.keys(NS_DELTAS)

    def __contains__(self, name: str) -> bool:
        return self._store.get(NS_DELTAS, name) is not None

    def __getitem__(self, name: str) -> DeltaState:
        state = self.get(name)
        if state is None:
            raise KeyError(name)
        return state

    def __setitem__(self, name: str, state: DeltaState) -> None:
        self.put(name, state)

    def __len__(self) -> int:
        return len(self.names())
