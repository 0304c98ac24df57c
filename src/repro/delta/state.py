"""Persistent state of an incrementally re-publishable dataset.

A base publish (:func:`repro.delta.publish_base`) captures everything a
later append needs, so the base source never has to be re-read:

* the per-group counts as a :class:`~repro.dataset.groups.GroupCounts`
  over the schema of the rows folded in so far; an append that introduces
  new attribute values re-codes them onto the grown domains;
* the chunk index of the published CSV: each kernel chunk's row count,
  byte length and CRC32.  A clean chunk is then copied out of the
  published file as a checksum-verified byte range without re-running its
  kernel (its row count depends on the kernel's draws and is unrecoverable
  after the fact);
* the ``(strategy, params, seed, chunk_size)`` tuple that pins the bytes.

The state is a plain JSON document (:meth:`DeltaState.save` /
:meth:`DeltaState.load`), so a publish made by one process can be appended
to by another — the ``repro-delta`` CLI round-trips it through a file and
the service persists it per dataset through a storage connector
(:class:`DeltaStateStore`), so a restarted service resumes appending where
it left off.  The document stores the groups column-wise: each column's
sorted domain once, one key-code list per public column and the groups'
cells as ``(group, SA code, n)`` lists.

``state_version`` 3 (8.0.0) has the layout of version 2 and marks the
draw layout its published chunks were made with: SPS draws once per phase
per chunk since 8.0.0.  A clean chunk is copied, not re-drawn, so a state
from before 8.0.0 would splice old-layout chunks beside new-layout ones;
:meth:`DeltaState.from_json` refuses it with a
:class:`StaleDeltaStateError` that names the re-base.

>>> DeltaState.from_json({"state_version": 2, "strategy": "sps"})
Traceback (most recent call last):
...
repro.delta.state.StaleDeltaStateError: delta state version 2 predates the 8.0.0 draw layout; re-publish the base with repro.delta.publish_base (repro-delta init, or a delta base publish job) and append to that
"""

from __future__ import annotations

import json
import secrets
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.dataset.groups import GroupCounts, keys_sorted_unique
from repro.dataset.schema import Attribute, Schema
from repro.store import NS_DELTAS, StorageConnector, StoreTransaction
from repro.utils.files import replace_file

#: Version of the serialised state document :meth:`DeltaState.to_json` writes.
STATE_VERSION = 3


class StaleDeltaStateError(ValueError):
    """A delta state document from before 8.0.0, which no append may extend.

    ``document`` is the refused JSON document, so a caller can still report
    what it described (strategy, seed, output).
    """

    def __init__(self, document: dict[str, Any]) -> None:
        self.document = document
        super().__init__(
            f"delta state version {document.get('state_version')!r} predates the "
            "8.0.0 draw layout; re-publish the base with repro.delta.publish_base "
            "(repro-delta init, or a delta base publish job) and append to that"
        )


def _columnar_groups(schema: Schema, groups: GroupCounts) -> dict[str, Any]:
    """The groups as column lists: domains, key codes and cells."""
    return {
        "domains": [list(attr.values) for attr in (*schema.public, schema.sensitive)],
        "keys": groups.keys.T.tolist(),
        "counts": {
            "group": groups.cell_groups().tolist(),
            "code": groups.codes.tolist(),
            "n": groups.n.tolist(),
        },
    }


def _corrupt(detail: str) -> ValueError:
    return ValueError(f"corrupt delta state: {detail}")


def _decode_columnar(
    header: Sequence[str], sensitive: str, data: dict[str, Any]
) -> tuple[Schema, GroupCounts]:
    """Inverse of :func:`_columnar_groups`; refuses what a publish never writes.

    The domains are sorted, every code lies in its column's domain, every
    group holds at least one row and the keys are unique and sorted — the
    invariants the append merge, the dirty-chunk diff and the kernels rely on.
    """
    names = [*(name for name in header if name != sensitive), sensitive]
    domains = data["domains"]
    if len(domains) != len(names):
        raise _corrupt(f"{len(domains)} domains for {len(names)} columns")
    attributes = [
        Attribute(name, tuple(values)) for name, values in zip(names, domains, strict=True)
    ]
    if any(list(attr.values) != sorted(attr.values) for attr in attributes):
        raise _corrupt("a domain is not sorted")
    schema = Schema(public=attributes[:-1], sensitive=attributes[-1])

    counts = data["counts"]
    group, code, n = (np.array(counts[key], dtype=np.int64) for key in ("group", "code", "n"))
    if len(group) == 0 or not len(group) == len(code) == len(n):
        raise _corrupt("the count lists are empty or of unequal lengths")
    n_groups, m = int(group.max()) + 1, schema.sensitive_domain_size
    if group.min() < 0 or code.min() < 0 or code.max() >= m or n.min() <= 0:
        raise _corrupt("a count lies outside the groups or the sensitive domain")
    per_group = np.bincount(group)
    if (np.diff(group * m + code) <= 0).any() or not per_group.all():
        raise _corrupt("the counts are not one sorted entry per non-empty cell")

    keys = np.array(data["keys"], dtype=np.int64)
    if keys.shape != (len(schema.public), n_groups):
        raise _corrupt(f"key lists of shape {keys.shape} for {n_groups} groups")
    sizes = np.array([attr.size for attr in schema.public], dtype=np.int64)
    if (keys < 0).any() or (keys.T >= sizes).any():
        raise _corrupt("a key code lies outside its column's domain")
    if not keys_sorted_unique(keys.T):
        raise _corrupt("the group keys are not unique and sorted")
    return schema, GroupCounts(keys.T, np.concatenate(([0], np.cumsum(per_group))), code, n, m)


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
    #: Published UTF-8 bytes per kernel chunk, in chunk order.
    chunk_bytes: tuple[int, ...]
    #: :func:`zlib.crc32` of each chunk's published bytes.
    chunk_crc32: tuple[int, ...]

    @property
    def n_groups(self) -> int:
        """Number of distinct personal groups."""
        return len(self.groups)

    def to_json(self) -> dict[str, Any]:
        """JSON-ready ``state_version`` 3 dict (inverse of :meth:`from_json`)."""
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
            "groups": _columnar_groups(self.schema, self.groups),
            "chunks": {
                "rows": list(self.chunk_row_counts),
                "bytes": list(self.chunk_bytes),
                "crc32": list(self.chunk_crc32),
            },
            "output": self.output,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "DeltaState":
        """Rebuild a state from a ``state_version`` 3 document.

        Raises :class:`StaleDeltaStateError` for a version 1 or 2 document
        and :class:`ValueError` for any other version.
        """
        version = data.get("state_version")
        if version in (1, 2):
            raise StaleDeltaStateError(data)
        if version != STATE_VERSION:
            raise ValueError(
                f"unsupported delta state version {version!r} (expected {STATE_VERSION})"
            )
        header = tuple(str(name) for name in data["header"])
        sensitive = str(data["sensitive"])
        schema, groups = _decode_columnar(header, sensitive, data["groups"])
        chunks = data["chunks"]
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
            chunk_row_counts=tuple(int(n) for n in chunks["rows"]),
            output=str(data["output"]),
            chunk_bytes=tuple(int(n) for n in chunks["bytes"]),
            chunk_crc32=tuple(int(n) for n in chunks["crc32"]),
        )

    def save(self, path: str | Path) -> None:
        """Write the state as a JSON document, atomically.

        The document goes to a temp file beside ``path`` that replaces it
        only once fully written (:func:`~repro.utils.files.replace_file`),
        so a failure part way leaves the previous state file as it was.
        """
        target = Path(path)
        data = json.dumps(self.to_json(), separators=(",", ":")).encode("utf-8") + b"\n"
        temp = target.with_name(f"{target.name}.{secrets.token_hex(8)}.tmp")
        try:
            with temp.open("xb") as handle:
                handle.write(data)
            replace_file(temp, target)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "DeltaState":
        """Read a state written by :meth:`save`."""
        return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


class DeltaStateStore:
    """Versioned persistence of :class:`DeltaState` keyed by dataset name.

    States live in the ``deltas`` namespace of a
    :class:`~repro.store.sqlite.StorageConnector`, so a restarted service
    resumes with every delta dataset appendable.  A writer stages a state in
    the transaction that also stores its job's record (:meth:`stage`), at
    the version it read (:meth:`entry`), so a concurrent append through a
    shared store surfaces as a typed
    :class:`~repro.store.base.VersionConflictError` instead of silently
    losing the other append's group counts.
    """

    def __init__(self, store: StorageConnector) -> None:
        self._store = store

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
        return self._store.version(NS_DELTAS, name)

    def stage(
        self, txn: StoreTransaction, name: str, state: DeltaState, expected_version: int
    ) -> int:
        """Write a state in the caller's write transaction; returns the new version.

        ``txn`` is a write transaction on this store's connector; the write
        commits with the rest of it or not at all.  ``expected_version`` is
        the version the writer read: ``0`` creates only, ``N`` replaces only
        if the stored state is still at ``N``.
        """
        return txn.put(NS_DELTAS, name, state.to_json(), expected_version=expected_version)

    def names(self) -> list[str]:
        """All delta dataset names, sorted."""
        return self._store.keys(NS_DELTAS)

    def __contains__(self, name: str) -> bool:
        return self.version(name) != 0

    def __getitem__(self, name: str) -> DeltaState:
        state = self.get(name)
        if state is None:
            raise KeyError(name)
        return state

    def __len__(self) -> int:
        return len(self.names())
