"""Incremental personal-group indexing over column chunks.

The paper's group-wise publishing model makes the full table unnecessary for
every group-based strategy: the published bytes are a pure function of the
ordered list of personal groups — their NA keys and SA count vectors — plus
the seed and chunk size.  :class:`IncrementalGroupIndex` accumulates exactly
that from bounded column chunks: a :class:`~repro.dataset.loaders.ColumnEncoder`
codes each chunk column by column, and the chunk's codes are folded into one
running ``(NA key, SA code, n)`` pair table by a sort of the table plus the
chunk.  :meth:`finalize` emits the same schema
:func:`repro.dataset.loaders.read_csv` would infer and the same
:class:`~repro.dataset.groups.GroupCounts`
:func:`repro.dataset.groups.personal_groups` would build (lexicographic in
the NA key codes), so downstream enforcement is byte-identical to the
in-memory path.

Memory is ``O(chunk_rows + P + total domain size)`` where ``P`` is the
number of distinct ``(NA key, SA value)`` pairs — never ``O(n)`` in the
number of records.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.dataset.groups import GroupCounts, _sorted_runs
from repro.dataset.loaders import ColumnChunk, ColumnEncoder
from repro.dataset.schema import Schema


class IncrementalGroupIndex:
    """Merge per-chunk ``(NA key, SA value)`` counts into one group index.

    Values are assigned provisional integer codes in first-seen order while
    chunks stream past; :meth:`finalize` re-maps them onto the sorted domains
    of the inferred schema, so the result does not depend on chunking at all
    — only on the set of rows.

    Example:

    >>> from repro.dataset.loaders import ColumnChunk
    >>> index = IncrementalGroupIndex(public_names=["City"], sensitive="Disease")
    >>> index.update(ColumnChunk([["Oslo", "Bergen"], ["Flu", "Flu"]]))
    >>> index.update(ColumnChunk([["Oslo"], ["Cold"]]))
    >>> schema, groups = index.finalize()
    >>> groups.keys.tolist(), groups.dense().tolist()
    ([[0], [1]], [[0, 1], [1, 1]])
    >>> schema.public[0].values, index.n_rows, index.n_pairs
    (('Bergen', 'Oslo'), 3, 3)
    """

    def __init__(self, public_names: Sequence[str], sensitive: str) -> None:
        self._encoder = ColumnEncoder(public_names, sensitive)
        width = len(public_names) + 1
        # The running pair table: distinct provisional (NA key..., SA code)
        # rows in sorted order, and how many records each stands for.
        self._pairs = np.empty((0, width), dtype=np.int64)
        self._pair_counts = np.empty(0, dtype=np.int64)
        self.n_rows = 0

    @property
    def n_pairs(self) -> int:
        """Rows of the running pair table: the distinct ``(NA key, SA)`` pairs seen."""
        return len(self._pairs)

    def update(self, chunk: ColumnChunk) -> None:
        """Fold one column chunk (NA columns then the SA column) into the index."""
        self.update_encoded(chunk)

    def update_encoded(self, chunk: ColumnChunk) -> np.ndarray:
        """Like :meth:`update`, also returning the chunk as provisional codes.

        The returned ``(len(chunk), n_public + 1)`` int64 block uses the
        index's *provisional* (first-seen order) codes; once every chunk has
        streamed past, :meth:`remap_block` translates such blocks onto the
        finalized sorted-domain codes.  Row-order-preserving strategies spool
        these blocks so the source never needs a second read.
        """
        block = self._encoder.encode(chunk)
        if len(block):
            pairs = np.concatenate((self._pairs, block))
            weights = np.concatenate((self._pair_counts, np.ones(len(block), dtype=np.int64)))
            order, starts = _sorted_runs(pairs)
            self._pairs = pairs[order[starts]]
            self._pair_counts = np.add.reduceat(weights[order], starts)
            self.n_rows += len(block)
        return block

    @property
    def remaps(self) -> tuple[np.ndarray, ...]:
        """Per-column provisional→final code tables (requires :meth:`finalize`).

        Exposed so the parallel row kernel can remap spooled blocks on its
        worker threads without holding the whole index.
        """
        return self._encoder.remaps

    def remap_block(self, block: np.ndarray) -> np.ndarray:
        """Translate a provisional-coded block onto the finalized schema codes."""
        return self._encoder.remap(block)

    def finalize(self) -> tuple[Schema, GroupCounts]:
        """Build the inferred schema and the lexicographically ordered groups.

        The schema is exactly what :func:`repro.dataset.loaders.read_csv`
        infers from the same rows (sorted domains, sensitive column last);
        the groups are exactly what :func:`repro.dataset.groups.personal_groups`
        builds over the materialised table.
        """
        if self.n_rows == 0:
            raise ValueError("cannot finalize an index that saw no rows")
        schema = self._encoder.finalize()
        pairs = self._encoder.remap(self._pairs)
        groups = GroupCounts.tabulate(
            pairs[:, :-1], pairs[:, -1], schema.sensitive_domain_size, self._pair_counts
        )
        return schema, groups
