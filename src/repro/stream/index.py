"""Incremental personal-group indexing over row chunks.

The paper's group-wise publishing model makes the full table unnecessary for
every group-based strategy: the published bytes are a pure function of the
ordered list of personal groups — their NA keys and SA count vectors — plus
the seed and chunk size.  :class:`IncrementalGroupIndex` accumulates exactly
that from bounded row chunks: each chunk updates per-column value
dictionaries and per-(NA key, SA value) counters, and :meth:`finalize` emits
the same schema :func:`repro.dataset.loaders.infer_schema` would infer and
the same :class:`~repro.dataset.groups.GroupCounts`
:class:`repro.dataset.groups.GroupIndex` would build (lexicographic in the
NA key codes), so downstream enforcement is byte-identical to the in-memory
path.

Memory is ``O(chunk_rows + G * m + total domain size)`` where ``G`` is the
number of distinct personal groups and ``m`` the SA domain size — never
``O(n)`` in the number of records.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.dataset.groups import GroupCounts
from repro.dataset.schema import Attribute, Schema


class IncrementalGroupIndex:
    """Merge per-chunk ``(NA key, SA value)`` counts into one group index.

    Values are assigned provisional integer codes in first-seen order while
    chunks stream past; :meth:`finalize` re-maps them onto the sorted domains
    of the inferred schema, so the result does not depend on chunking at all
    — only on the set of rows.

    Example:

    >>> index = IncrementalGroupIndex(public_names=["City"], sensitive="Disease")
    >>> index.update([["Oslo", "Flu"], ["Bergen", "Flu"]])
    >>> index.update([["Oslo", "Cold"]])
    >>> schema, groups = index.finalize()
    >>> groups.keys.tolist(), groups.counts.tolist()
    ([[0], [1]], [[0, 1], [1, 1]])
    >>> schema.public[0].values, index.n_rows
    (('Bergen', 'Oslo'), 3)
    """

    def __init__(self, public_names: Sequence[str], sensitive: str) -> None:
        self._public_names = [str(name) for name in public_names]
        self._sensitive = str(sensitive)
        # value -> provisional code, one dict per public column + one for SA.
        self._codebooks: list[dict[str, int]] = [
            {} for _ in range(len(self._public_names) + 1)
        ]
        # provisional (NA key..., SA code) -> count
        self._counts: dict[tuple[int, ...], int] = {}
        self._remaps: list[np.ndarray] | None = None
        self.n_rows = 0

    def update(self, rows: Sequence[Sequence[str]]) -> None:
        """Fold one chunk of records (NA values then SA value) into the index."""
        self.update_encoded(rows)

    def update_encoded(self, rows: Sequence[Sequence[str]]) -> np.ndarray:
        """Like :meth:`update`, also returning the chunk as provisional codes.

        The returned ``(len(rows), n_public + 1)`` int64 block uses the
        index's *provisional* (first-seen order) codes; once every chunk has
        streamed past, :meth:`remap_block` translates such blocks onto the
        finalized sorted-domain codes.  Row-order-preserving strategies spool
        these blocks so the source never needs a second read.
        """
        codebooks = self._codebooks
        counts = self._counts
        width = len(codebooks)
        block = np.empty((len(rows), width), dtype=np.int64)
        for r, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"record has {len(row)} fields, expected {width}")
            codes = tuple(
                book.setdefault(value, len(book))
                for book, value in zip(codebooks, row, strict=True)
            )
            block[r] = codes
            counts[codes] = counts.get(codes, 0) + 1
        self.n_rows += len(rows)
        return block

    @property
    def remaps(self) -> tuple[np.ndarray, ...]:
        """Per-column provisional→final code tables (requires :meth:`finalize`).

        Exposed so the parallel row kernel can remap spooled blocks inside
        worker processes without shipping the whole index.
        """
        if self._remaps is None:
            raise ValueError("remaps requires finalize() to have run")
        return tuple(self._remaps)

    def remap_block(self, block: np.ndarray) -> np.ndarray:
        """Translate a provisional-coded block onto the finalized schema codes."""
        if self._remaps is None:
            raise ValueError("remap_block requires finalize() to have run")
        from repro.parallel.kernels import remap_columns

        return remap_columns(block, self._remaps)

    def finalize(self) -> tuple[Schema, GroupCounts]:
        """Build the inferred schema and the lexicographically ordered groups.

        The schema is exactly what :func:`repro.dataset.loaders.infer_schema`
        infers from the same rows (sorted domains, sensitive column last);
        the groups are exactly what :class:`repro.dataset.groups.GroupIndex`
        builds over the materialised table.
        """
        if self.n_rows == 0:
            raise ValueError("cannot finalize an index that saw no rows")
        # Provisional -> final code permutation per column (sorted domains).
        remaps: list[np.ndarray] = []
        attributes: list[Attribute] = []
        for name, book in zip(self._public_names + [self._sensitive], self._codebooks, strict=True):
            values = sorted(book)
            remap = np.empty(len(book), dtype=np.int64)
            remap[[book[value] for value in values]] = np.arange(len(values))
            remaps.append(remap)
            attributes.append(Attribute(name, tuple(values)))
        self._remaps = remaps
        schema = Schema(public=tuple(attributes[:-1]), sensitive=attributes[-1])

        pairs = self.remap_block(np.array(list(self._counts), dtype=np.int64))
        weights = np.fromiter(self._counts.values(), dtype=np.int64, count=len(self._counts))
        groups, _, _ = GroupCounts.tabulate(
            pairs[:, :-1], pairs[:, -1], schema.sensitive_domain_size, weights
        )
        return schema, groups
