"""Incremental personal-group indexing over column chunks.

The paper's group-wise publishing model makes the full table unnecessary for
every group-based strategy: the published bytes are a pure function of the
ordered list of personal groups — their NA keys and SA count vectors — plus
the seed and chunk size.  A group's counts are sums over its rows, so they
add up across chunks in any grouping.  :class:`IncrementalGroupIndex`
accumulates exactly that from bounded column chunks: a
:class:`~repro.dataset.loaders.ColumnEncoder` codes each chunk column by
column, each chunk is reduced to its own table of distinct
``(NA key, SA code)`` pairs with their counts, and those tables are folded
into one running pair table geometrically — only once together they
outgrow it — so every pair is sorted ``O(log chunks)`` times and the whole
read sorts ``O(rows)`` pairs.  :meth:`finalize` emits the same schema
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

from repro.dataset.groups import (
    GroupCounts,
    _decode_row_codes,
    _key_radices,
    _row_codes,
    _sorted_runs,
    _summed_cells,
)
from repro.dataset.loaders import ColumnChunk, ColumnEncoder, KeyLookup
from repro.dataset.schema import Schema

#: A table of distinct pairs, held column by column (``width x pairs``),
#: and how many records each pair stands for.
PairTable = tuple[np.ndarray, np.ndarray]


def _distinct_rows(rows: np.ndarray, weights: np.ndarray | None = None) -> PairTable:
    """The distinct rows of non-empty ``rows`` (as columns) and how many rows (or how much weight) each has.

    One sort of the rows' mixed-radix codes, or a lexsort of the columns
    when those codes would overflow ``int64``.  ``rows`` reads fastest as
    the transpose of contiguous columns.
    """
    radices = _key_radices(rows)
    codes = None if radices is None else _row_codes(rows, radices)
    if codes is not None:
        assert radices is not None
        cells, counts = _summed_cells(codes, weights)
        return _decode_row_codes(cells, radices).T, counts
    order, starts = _sorted_runs(rows)
    ordered = np.ones(len(rows), dtype=np.int64) if weights is None else weights[order]
    return np.ascontiguousarray(rows[order[starts]].T), np.add.reduceat(ordered, starts)


class IncrementalGroupIndex:
    """Merge per-chunk ``(NA key, SA value)`` counts into one group index.

    Values are assigned provisional integer codes in first-seen order while
    chunks stream past; :meth:`finalize` re-maps them onto the sorted domains
    of the inferred schema, so the result does not depend on chunking at all
    — only on the set of rows.

    A chunk goes in through :meth:`update` (or :meth:`update_encoded`), or in
    two steps that let a thread pool do most of the work: :meth:`prepare`
    looks the chunk's keys up and reduces it to its own pair table, and may
    run on any thread, for several chunks at once; :meth:`absorb` codes what
    the lookup missed and queues the chunk's table, once per chunk and in
    chunk order.  Queued tables are folded into the running table only once
    together they hold more rows than it does.  A fold sorts fewer than twice
    the queued rows, so a read hands at most three times its rows to the
    pair sort (:attr:`pairs_sorted`), at any chunk count.

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
        # rows and how many records each stands for.
        self._pairs = np.empty((width, 0), dtype=np.int64)
        self._pair_counts = np.empty(0, dtype=np.int64)
        # Chunk tables not folded into it yet, and their rows in all.
        self._pending: list[PairTable] = []
        self._pending_rows = 0
        self.n_rows = 0
        #: Rows handed to the pair sort: every chunk's rows, plus the
        #: running and queued tables at each fold.
        self.pairs_sorted = 0

    @property
    def n_pairs(self) -> int:
        """Rows of the running pair table: the distinct ``(NA key, SA)`` pairs seen."""
        self._fold()
        return self._pairs.shape[1]

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
        return self.absorb(self.prepare(chunk))

    def prepare(self, chunk: ColumnChunk) -> tuple[KeyLookup, PairTable | None]:
        """A chunk's key lookup and its own pair table: the work :meth:`absorb` needs done.

        Changes nothing, so it may run on any thread while :meth:`absorb`
        runs on another.  A chunk of string columns is left whole to
        :meth:`absorb`.
        """
        lookup = self._encoder.lookup(chunk)
        return lookup, None if lookup.block is None else _distinct_rows(lookup.block)

    def absorb(self, prepared: tuple[KeyLookup, PairTable | None]) -> np.ndarray:
        """Take in one chunk :meth:`prepare` returned; return it as provisional codes.

        Call it once per chunk, in chunk order: it assigns the codes of the
        values the chunk shows first.
        """
        lookup, table = prepared
        block = self._encoder.resolve(lookup)
        if not len(block):
            return block
        if table is None:
            table = _distinct_rows(block)
        else:
            lookup.translate(table[0].T)
        self.n_rows += len(block)
        self.pairs_sorted += len(block)
        self._pending.append(table)
        self._pending_rows += table[0].shape[1]
        if self._pending_rows > self._pairs.shape[1]:
            self._fold()
        return block

    def _fold(self) -> None:
        """Fold the queued chunk tables into the running table."""
        if not self._pending:
            return
        if self._pairs.shape[1] or len(self._pending) > 1:
            columns = np.concatenate([self._pairs, *(pairs for pairs, _ in self._pending)], axis=1)
            weights = np.concatenate([self._pair_counts, *(n for _, n in self._pending)])
            self.pairs_sorted += len(weights)
            self._pairs, self._pair_counts = _distinct_rows(columns.T, weights)
        else:
            # One chunk's table is distinct already.
            self._pairs, self._pair_counts = self._pending[0]
        self._pending = []
        self._pending_rows = 0

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
        # The queued tables need no fold first: tabulating sums their counts.
        tables = [(self._pairs, self._pair_counts), *self._pending]
        pairs = self._encoder.remap(np.concatenate([pairs for pairs, _ in tables], axis=1).T)
        counts = np.concatenate([n for _, n in tables])
        groups = GroupCounts.tabulate(
            pairs[:, :-1], pairs[:, -1], schema.sensitive_domain_size, counts
        )
        return schema, groups
