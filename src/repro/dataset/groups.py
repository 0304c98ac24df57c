"""Personal and aggregate groups (Section 3.2 of the paper).

A *personal group* ``D(x1, ..., xn)`` fixes a concrete value for every public
attribute; it contains exactly the records that are indistinguishable from a
target individual using public information.  An *aggregate group* leaves at
least one public attribute as a wildcard.  Personal reconstruction (privacy
risk) operates on personal groups; aggregate reconstruction (utility) on
aggregate groups.

The audit (Corollary 4) and SPS read only each personal group's NA key and
SA count vector, so :class:`GroupCounts` holds exactly that, as two aligned
integer matrices; every engine (in-memory, streaming, delta) produces and
consumes it.  :func:`personal_groups` partitions a materialised table into
its personal groups in a single vectorised pass — the paper's "sort by NA
then SA" preprocessing.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.dataset.table import Table


def _row_codes(keys: np.ndarray, radices: Sequence[int] | None = None) -> np.ndarray | None:
    """One int64 per row of non-negative ``keys`` that orders as the rows do.

    Mixed-radix over ``radices`` (by default each column's ``max + 1``; pass
    the domain sizes to code two key sets comparably); ``None`` when the
    radix product would overflow int64 (or a code is negative), so the
    caller falls back to a column-wise sort.
    """
    if radices is None:
        # Column by column: a table's key columns are strided views, which
        # reduce several times faster one at a time than along axis 0.
        if keys.size == 0 or min(int(column.min()) for column in keys.T) < 0:
            return None
        radices = [int(column.max()) + 1 for column in keys.T]
    if math.prod(radices) >= 2**63:
        return None
    codes = np.zeros(len(keys), dtype=np.int64)
    for column, radix in zip(keys.T, radices, strict=True):
        codes *= radix
        codes += column
    return codes


def _sorted_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic row order of ``keys`` and the start of each run of equal keys.

    When the row codes times the row count fit in int64, ``code * n + row``
    makes every key distinct, so one unstable argsort gives the stable
    order (several times faster than a stable sort); otherwise a stable
    argsort of the codes, or a lexsort when even they do not fit.
    """
    codes = _row_codes(keys)
    if codes is None:
        order = np.lexsort(keys.T[::-1])
        ordered = keys[order]
        change = np.any(ordered[1:] != ordered[:-1], axis=1)
    else:
        n = len(codes)
        if n and (int(codes.max()) + 1) * n < 2**63:
            order = np.argsort(codes * n + np.arange(n))
        else:
            order = np.argsort(codes, kind="stable")
        ordered_codes = codes[order]
        change = ordered_codes[1:] != ordered_codes[:-1]
    # The first row starts a run; no rows, no runs.
    return order, np.flatnonzero(np.concatenate(([True], change)))[: len(keys)]


def keys_sorted_unique(keys: np.ndarray) -> bool:
    """Whether the rows of ``keys`` are unique and in lexicographic order.

    One compare of each row with the one before it, no sort: a row must
    exceed its predecessor at the first column where the two differ.

    >>> keys_sorted_unique(np.array([[0, 5], [1, 0], [1, 2]]))
    True
    >>> keys_sorted_unique(np.array([[1, 0], [0, 5]]))
    False
    >>> keys_sorted_unique(np.array([[1, 0], [1, 0]]))
    False
    """
    later, earlier = keys[1:], keys[:-1]
    differ = later != earlier
    first = differ.argmax(axis=1)
    rows = np.arange(len(first))
    return bool((differ.any(axis=1) & (later[rows, first] > earlier[rows, first])).all())


class GroupCounts:
    """Personal groups as two aligned integer matrices.

    ``keys`` (``G x k``) holds each group's NA codes, unique and sorted
    lexicographically — the published group order; ``counts`` (``G x m``)
    holds its SA count vector.  Slicing returns a :class:`GroupCounts`, so
    the chunk runners hand kernels columnar chunks.

    >>> import numpy as np
    >>> groups = GroupCounts.aggregate(
    ...     GroupCounts(np.array([[1, 0], [0, 2]]), np.array([[1, 0], [0, 3]])),
    ...     GroupCounts(np.array([[1, 0]]), np.array([[2, 1]])),
    ... )
    >>> groups.keys.tolist(), groups.counts.tolist()
    ([[0, 2], [1, 0]], [[0, 3], [3, 1]])
    >>> len(groups), groups.sizes().tolist(), groups[1:].keys.tolist()
    (2, [3, 4], [[1, 0]])
    """

    __slots__ = ("keys", "counts")

    def __init__(self, keys: np.ndarray, counts: np.ndarray) -> None:
        self.keys = np.asarray(keys, dtype=np.int64)
        self.counts = np.asarray(counts, dtype=np.int64)
        if self.keys.ndim != 2 or self.counts.ndim != 2 or len(self.keys) != len(self.counts):
            raise ValueError("keys and counts must be matrices with one row per group")

    @classmethod
    def aggregate(cls, *parts: "GroupCounts") -> "GroupCounts":
        """Sum the count rows that share a key across ``parts``; sort the keys.

        Every part must have the same key and count widths.  Each run of
        equal keys takes its first row's counts; only the rows after it in
        the run are added on, one exact ``int64`` reduction per run that has
        any.
        """
        keys = np.concatenate([part.keys for part in parts])
        counts = np.concatenate([part.counts for part in parts])
        order, starts = _sorted_runs(keys)
        summed = counts[order[starts]]
        later = np.ones(len(keys), dtype=bool)
        later[starts] = False
        rows = np.flatnonzero(later)
        if rows.size:
            runs = np.searchsorted(starts, rows, side="right") - 1
            first = np.flatnonzero(np.concatenate(([True], runs[1:] != runs[:-1])))
            summed[runs[first]] += np.add.reduceat(counts[order[rows]], first, axis=0)
        return cls(keys[order[starts]], summed)

    @classmethod
    def tabulate(
        cls,
        keys: np.ndarray,
        sensitive: np.ndarray,
        m: int,
        weights: np.ndarray | None = None,
    ) -> "GroupCounts":
        """Group rows of NA ``keys`` with SA codes ``sensitive`` (optionally weighted).

        The rows are sorted stably by key and each run of equal keys is one
        group.  The counts are exact ``int64``: one ``bincount`` of the flat
        ``(group, SA)`` cells, or, with ``weights``, one sum per run of equal
        cells.

        >>> groups = GroupCounts.tabulate(np.array([[1], [0], [1]]), np.array([0, 1, 1]), 2)
        >>> groups.keys.tolist(), groups.counts.tolist()
        ([[0], [1]], [[0, 1], [1, 1]])
        """
        order, starts = _sorted_runs(keys)
        n_cells = starts.size * m
        sizes = np.diff(starts, append=len(keys))
        cells = np.repeat(np.arange(starts.size) * m, sizes) + sensitive[order]
        flat: np.ndarray
        if weights is None:
            flat = np.bincount(cells, minlength=n_cells)
        else:
            by_cell, first = _sorted_runs(cells[:, None])
            flat = np.zeros(n_cells, dtype=np.int64)
            if first.size:
                flat[cells[by_cell[first]]] = np.add.reduceat(weights[order][by_cell], first)
        return cls(keys[order[starts]], flat.reshape(starts.size, m))

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index: slice) -> "GroupCounts":
        if not isinstance(index, slice):
            raise TypeError("GroupCounts supports slicing only")
        return GroupCounts(self.keys[index], self.counts[index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupCounts):
            return NotImplemented
        return np.array_equal(self.keys, other.keys) and np.array_equal(
            self.counts, other.counts
        )

    def sizes(self) -> np.ndarray:
        """``|g|`` of every group."""
        return self.counts.sum(axis=1)

    def column_totals(self, column: int) -> dict[int, np.ndarray]:
        """SA count vectors summed per observed value code of public ``column``.

        A personal group fixes every public attribute, so this is exactly the
        per-attribute contingency table of the underlying rows.
        """
        # Loaded already wherever this runs: the chi-square merging these
        # totals feed imports scipy.stats, and scipy.sparse with it.
        from scipy import sparse

        values, inverse = np.unique(self.keys[:, column], return_inverse=True)
        if not values.size:
            return {}
        # A one-hot (values x groups) matrix times the counts: exact int64
        # sums, with no gathered copy of the G x m counts.
        n = len(inverse)
        onehot = sparse.csc_matrix(
            (np.ones(n, dtype=self.counts.dtype), inverse, np.arange(n + 1)),
            shape=(values.size, n),
        )
        return dict(zip(values.tolist(), onehot @ self.counts, strict=True))

    def recode(self, key_maps: Sequence[np.ndarray]) -> "GroupCounts":
        """Re-key through per-column code maps, merging groups whose keys collide."""
        keys = np.empty_like(self.keys)
        for column, code_map in enumerate(key_maps):
            keys[:, column] = np.asarray(code_map, dtype=np.int64)[self.keys[:, column]]
        return GroupCounts.aggregate(GroupCounts(keys, self.counts))


def expand_counts(counts: np.ndarray) -> np.ndarray:
    """One SA code per record of a ``G x m`` count matrix, group by group.

    >>> expand_counts(np.array([[2, 0, 1], [0, 1, 0]])).tolist()
    [0, 0, 2, 1]
    """
    flat = counts.ravel()
    # Only the non-zero cells: a table's count matrix is mostly zeros.
    cells = np.flatnonzero(flat != 0)
    return np.repeat(cells % counts.shape[1], flat[cells])


def chunk_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sums of per-group ``values`` over each chunk ``[bounds[c], bounds[c + 1])``.

    >>> chunk_sums(np.array([3, 1, 0, 2, 5]), np.array([0, 2, 4, 5])).tolist()
    [4, 2, 5]
    """
    return np.diff(np.concatenate(([0], np.cumsum(values)))[bounds])


def group_block(
    keys: np.ndarray, sizes: np.ndarray, sensitive: np.ndarray, dtype: np.dtype
) -> np.ndarray:
    """A published code block: each NA key repeated ``sizes`` times, then the SA codes.

    ``dtype`` is the block's integer dtype: a publish path passes its
    schema's :func:`~repro.dataset.table.code_dtype`, which holds every code
    of the schema, so the block is as narrow as a table's codes.

    >>> block = group_block(np.array([[4, 5], [6, 7]]), np.array([1, 2]),
    ...                     np.array([0, 1, 2]), np.int8)
    >>> block.dtype, block.tolist()
    (dtype('int8'), [[4, 5, 0], [6, 7, 1], [6, 7, 2]])
    """
    # Repeat each key row with room for its SA code: the block is the only
    # record-sized allocation.
    rows = np.empty((len(keys), keys.shape[1] + 1), dtype=dtype)
    rows[:, :-1] = keys
    block = np.repeat(rows, sizes, axis=0)
    block[:, -1] = sensitive
    return block


def personal_groups(table: Table) -> GroupCounts:
    """The :class:`GroupCounts` of all personal groups of ``table``."""
    return GroupCounts.tabulate(
        table.public_codes, table.sensitive_codes, table.schema.sensitive_domain_size
    )


def aggregate_group(table: Table, conditions: Mapping[str, str]) -> np.ndarray:
    """Boolean mask of the aggregate group defined by partial NA conditions.

    ``conditions`` maps a subset of public attribute names to values; the
    remaining attributes are wildcards.  Passing every public attribute
    degenerates to a personal group, which is allowed (the paper's
    ``D(x1, ..., xn)`` notation covers both).
    """
    return table.match_public(dict(conditions))
