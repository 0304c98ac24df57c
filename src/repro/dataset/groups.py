"""Personal and aggregate groups (Section 3.2 of the paper).

A *personal group* ``D(x1, ..., xn)`` fixes a concrete value for every public
attribute; it contains exactly the records that are indistinguishable from a
target individual using public information.  An *aggregate group* leaves at
least one public attribute as a wildcard.  Personal reconstruction (privacy
risk) operates on personal groups; aggregate reconstruction (utility) on
aggregate groups.

The audit (Corollary 4) and SPS read only each personal group's NA key and
its non-zero SA counts, so :class:`GroupCounts` holds exactly that, in one
compressed-sparse-row form: the ``G x k`` key matrix, group ``offsets``
into the cells, and each non-zero cell's SA ``codes`` (ascending within a
group) and count ``n``.  A census table's ``G x m`` count matrix is mostly
zeros; the cells are only its non-zero entries.  Every engine (in-memory,
streaming, delta) produces and consumes this form, and the few readers that
need a matrix call :meth:`GroupCounts.dense`.  :func:`personal_groups`
partitions a materialised table into its personal groups with one sort of
the combined ``(NA key, SA)`` row code — the paper's "sort by NA then SA"
preprocessing.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import numpy as np

from repro.dataset.table import Table


def _key_radices(keys: np.ndarray) -> list[int] | None:
    """Each column's ``max + 1``; ``None`` for no keys or a negative code."""
    # Column by column: a table's key columns are strided views, which
    # reduce several times faster one at a time than along axis 0.
    if keys.size == 0 or min(int(column.min()) for column in keys.T) < 0:
        return None
    return [int(column.max()) + 1 for column in keys.T]


def _row_codes(keys: np.ndarray, radices: Sequence[int] | None = None) -> np.ndarray | None:
    """One int64 per row of non-negative ``keys`` that orders as the rows do.

    Mixed-radix over ``radices`` (by default :func:`_key_radices`; pass the
    domain sizes to code two key sets comparably); ``None`` when the radix
    product would overflow int64 (or a code is negative), so the caller
    falls back to a column-wise sort.
    """
    if radices is None:
        radices = _key_radices(keys)
        if radices is None:
            return None
    if math.prod(radices) >= 2**63:
        return None
    codes = np.zeros(len(keys), dtype=np.int64)
    for column, radix in zip(keys.T, radices, strict=True):
        codes *= radix
        codes += column
    return codes


def _decode_row_codes(codes: np.ndarray, radices: Sequence[int]) -> np.ndarray:
    """The key rows of :func:`_row_codes` ``codes`` over ``radices`` (inverse of the coding)."""
    # Decoded column by column into contiguous rows of the transpose.
    columns = np.empty((len(radices), codes.size), dtype=np.int64)
    for column in range(len(radices) - 1, 0, -1):
        codes, columns[column] = np.divmod(codes, radices[column])
    columns[0] = codes
    return columns.T


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values of the sorted 1-D ``ordered`` starts."""
    # The first value starts a run; no values, no runs.
    return np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))[: ordered.size]


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
        return order, _run_starts(codes[order])
    return order, np.flatnonzero(np.concatenate(([True], change)))[: len(keys)]


def _key_ranks(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted unique rows of ``keys`` and the index among them of every row."""
    order, starts = _sorted_runs(keys)
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[order] = np.repeat(np.arange(starts.size), np.diff(starts, append=len(keys)))
    return keys[order[starts]], ranks


def _summed_cells(
    cells: np.ndarray, weights: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``cells``, sorted, and how many rows (or how much weight) each has.

    Without weights one ``np.sort`` suffices; with them, one ``argsort`` and
    one exact ``int64`` sum per run.
    """
    if weights is None:
        ordered = np.sort(cells)
        starts = _run_starts(ordered)
        return ordered[starts], np.diff(starts, append=ordered.size)
    order = np.argsort(cells)
    ordered = cells[order]
    starts = _run_starts(ordered)
    return ordered[starts], np.add.reduceat(np.asarray(weights, dtype=np.int64)[order], starts)


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
    """Personal groups in compressed-sparse-row form.

    ``keys`` (``G x k``) holds each group's NA codes, unique and sorted
    lexicographically — the published group order.  Group ``g``'s non-zero
    SA counts are the cells ``offsets[g]:offsets[g + 1]``: ``codes`` holds
    each cell's SA code, ascending within the group, and ``n`` its count;
    ``m`` is the SA domain size.  Slicing returns a :class:`GroupCounts` of
    views with rebased offsets, so the chunk runners hand kernels columnar
    chunks.  ``thresholds``, when set (:meth:`with_thresholds`), are the
    groups' audited ``s_g``; slices carry them.

    >>> import numpy as np
    >>> groups = GroupCounts.aggregate(
    ...     GroupCounts.from_dense(np.array([[1, 0], [0, 2]]), np.array([[1, 0], [0, 3]])),
    ...     GroupCounts.from_dense(np.array([[1, 0]]), np.array([[2, 1]])),
    ... )
    >>> groups.keys.tolist(), groups.dense().tolist()
    ([[0, 2], [1, 0]], [[0, 3], [3, 1]])
    >>> groups.offsets.tolist(), groups.codes.tolist(), groups.n.tolist()
    ([0, 1, 3], [1, 0, 1], [3, 3, 1])
    >>> len(groups), groups.sizes().tolist(), groups[1:].keys.tolist()
    (2, [3, 4], [[1, 0]])
    """

    __slots__ = ("keys", "offsets", "codes", "n", "m", "thresholds")

    def __init__(
        self,
        keys: np.ndarray,
        offsets: np.ndarray,
        codes: np.ndarray,
        n: np.ndarray,
        m: int,
        thresholds: np.ndarray | None = None,
    ) -> None:
        self.keys = np.asarray(keys, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.codes = np.asarray(codes, dtype=np.int64)
        self.n = np.asarray(n, dtype=np.int64)
        self.m = int(m)
        self.thresholds = thresholds
        if (
            self.keys.ndim != 2
            or self.offsets.shape != (len(self.keys) + 1,)
            or self.codes.ndim != 1
            or self.codes.shape != self.n.shape
            or self.offsets[0] != 0
            or self.offsets[-1] != self.n.size
        ):
            raise ValueError("offsets must bound one run of cells per key row")
        if thresholds is not None and len(thresholds) != len(self.keys):
            raise ValueError("thresholds must hold one s_g per group")

    @classmethod
    def from_dense(cls, keys: np.ndarray, counts: np.ndarray) -> "GroupCounts":
        """The groups of ``keys`` with the rows of a ``G x m`` count matrix.

        Only the non-zero entries become cells; a zero row is a group with
        no cells.

        >>> groups = GroupCounts.from_dense(np.array([[0], [1]]), np.array([[2, 0, 1], [0, 0, 0]]))
        >>> groups.offsets.tolist(), groups.codes.tolist(), groups.n.tolist()
        ([0, 2, 2], [0, 2], [2, 1])
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.ndim != 2:
            raise ValueError("counts must be a matrix with one row per group")
        rows, codes = np.nonzero(counts)
        offsets = np.concatenate(([0], np.cumsum(np.count_nonzero(counts, axis=1))))
        return cls(keys, offsets, codes, counts[rows, codes], counts.shape[1])

    @classmethod
    def _from_cells(
        cls,
        keys: np.ndarray,
        groups: np.ndarray,
        codes: np.ndarray,
        weights: np.ndarray | None,
        m: int,
    ) -> "GroupCounts":
        """``keys`` (sorted, unique) with one cell per distinct ``(groups, codes)`` pair.

        Each cell counts its pairs, or with ``weights`` sums theirs.
        """
        cells, n = _summed_cells(groups * m + codes, weights)
        groups, codes = np.divmod(cells, m)
        offsets = np.concatenate(([0], np.cumsum(np.bincount(groups, minlength=len(keys)))))
        return cls(keys, offsets, codes, n, m)

    @classmethod
    def aggregate(cls, *parts: "GroupCounts") -> "GroupCounts":
        """Sum the cells that share a key and an SA code across ``parts``; sort the keys.

        Every part must have the same key width and ``m``; a key with no
        cells keeps its (empty) group.
        """
        if len({part.m for part in parts}) != 1:
            raise ValueError("every part must have the same SA domain size")
        keys, ranks = _key_ranks(np.concatenate([part.keys for part in parts]))
        cells_per_group = np.concatenate([np.diff(part.offsets) for part in parts])
        return cls._from_cells(
            keys,
            np.repeat(ranks, cells_per_group),
            np.concatenate([part.codes for part in parts]),
            np.concatenate([part.n for part in parts]),
            parts[0].m,
        )

    @classmethod
    def tabulate(
        cls,
        keys: np.ndarray,
        sensitive: np.ndarray,
        m: int,
        weights: np.ndarray | None = None,
    ) -> "GroupCounts":
        """Group rows of NA ``keys`` with SA codes ``sensitive`` (optionally weighted).

        One sort of the combined ``(NA key, SA)`` row code: its runs are the
        cells, and the runs of equal key codes among them the groups.  The
        counts are exact ``int64``: rows per cell or, with positive integer
        ``weights``, each cell's summed weight.  When the combined code would
        overflow ``int64``, the rows are ranked by key first (a lexsort) and
        the cells sorted by rank.

        >>> groups = GroupCounts.tabulate(np.array([[1], [0], [1]]), np.array([0, 1, 1]), 2)
        >>> groups.keys.tolist(), groups.dense().tolist()
        ([[0], [1]], [[0, 1], [1, 1]])
        """
        radices = _key_radices(keys)
        if radices is not None and math.prod(radices) * m < 2**63:
            codes = _row_codes(keys, radices)
            assert codes is not None  # the radix product fits
            cells, n = _summed_cells(codes * m + sensitive, weights)
            key_codes, codes = np.divmod(cells, m)
            starts = _run_starts(key_codes)
            return cls(
                _decode_row_codes(key_codes[starts], radices),
                np.append(starts, cells.size), codes, n, m,
            )
        unique, ranks = _key_ranks(keys)
        return cls._from_cells(unique, ranks, np.asarray(sensitive), weights, m)

    def with_thresholds(self, thresholds: np.ndarray) -> "GroupCounts":
        """These groups carrying their audited ``s_g``: a new object over the same arrays.

        The stage audit hands the SPS kernel its thresholds this way, so a
        run is not audited twice; ``self`` (perhaps a cached index) is left
        as it is.
        """
        return GroupCounts(self.keys, self.offsets, self.codes, self.n, self.m, thresholds)

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index: slice) -> "GroupCounts":
        if not isinstance(index, slice):
            raise TypeError("GroupCounts supports slicing only")
        start, stop, step = index.indices(len(self))
        if step != 1:
            raise ValueError("GroupCounts supports contiguous slices only")
        stop = max(start, stop)
        lo, hi = int(self.offsets[start]), int(self.offsets[stop])
        return GroupCounts(
            self.keys[start:stop],
            self.offsets[start : stop + 1] - lo,
            self.codes[lo:hi],
            self.n[lo:hi],
            self.m,
            None if self.thresholds is None else self.thresholds[start:stop],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupCounts):
            return NotImplemented
        return self.m == other.m and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("keys", "offsets", "codes", "n")
        )

    def cell_groups(self) -> np.ndarray:
        """The group of every cell."""
        return np.repeat(np.arange(len(self)), np.diff(self.offsets))

    def dense(self) -> np.ndarray:
        """The ``G x m`` count matrix, for the readers that need one."""
        counts = np.zeros((len(self), self.m), dtype=np.int64)
        counts[self.cell_groups(), self.codes] = self.n
        return counts

    def sizes(self) -> np.ndarray:
        """``|g|`` of every group: a segment sum over the cells."""
        return chunk_sums(self.n, self.offsets)

    def max_counts(self) -> np.ndarray:
        """Every group's largest SA count, ``f * |g|`` (0 for a group with no cells)."""
        return segment_max(self.n, self.offsets)

    def expand(self) -> np.ndarray:
        """One SA code per record, group by group, ascending within a group."""
        return np.repeat(self.codes, self.n)

    def column_totals(self, column: int) -> dict[int, np.ndarray]:
        """SA count vectors summed per observed value code of public ``column``.

        A personal group fixes every public attribute, so this is exactly the
        per-attribute contingency table of the underlying rows.  The sums
        are exact ``int64``, one scatter-add of the cells.
        """
        values, inverse = np.unique(self.keys[:, column], return_inverse=True)
        totals = np.zeros((values.size, self.m), dtype=np.int64)
        np.add.at(totals.reshape(-1), inverse[self.cell_groups()] * self.m + self.codes, self.n)
        return dict(zip(values.tolist(), totals, strict=True))

    def recode(self, key_maps: Sequence[np.ndarray]) -> "GroupCounts":
        """Re-key through per-column code maps, merging groups whose keys collide."""
        keys = np.empty_like(self.keys)
        for column, code_map in enumerate(key_maps):
            keys[:, column] = np.asarray(code_map, dtype=np.int64)[self.keys[:, column]]
        return GroupCounts.aggregate(GroupCounts(keys, self.offsets, self.codes, self.n, self.m))


def expand_counts(counts: np.ndarray) -> np.ndarray:
    """One SA code per record of a dense ``G x m`` count matrix, group by group.

    The DP kernels draw noise for every entry of a chunk's matrix, zeros
    included, and expand the noisy matrix with this; a
    :class:`GroupCounts` expands its cells with :meth:`GroupCounts.expand`.

    >>> expand_counts(np.array([[2, 0, 1], [0, 1, 0]])).tolist()
    [0, 0, 2, 1]
    """
    flat = counts.ravel()
    # Only the non-zero cells: a table's count matrix is mostly zeros.
    cells = np.flatnonzero(flat != 0)
    return np.repeat(cells % counts.shape[1], flat[cells])


def chunk_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Sums of ``values`` over each segment ``[bounds[c], bounds[c + 1])``.

    An empty segment sums to 0, wherever it lies:

    >>> chunk_sums(np.array([3, 1, 0, 2, 5]), np.array([0, 2, 2, 4, 5])).tolist()
    [4, 0, 2, 5]
    """
    return np.diff(np.concatenate(([0], np.cumsum(values)))[bounds])


def segment_max(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Maxima of non-negative ``values`` over each segment ``[bounds[c], bounds[c + 1])``.

    ``bounds`` run from 0 to ``len(values)``.  An empty segment's maximum
    is 0: ``np.maximum.reduceat`` would return the value at its index (and
    fails at an index equal to the length), so only the non-empty segments
    reduce, each up to the next one's start.

    >>> segment_max(np.array([3, 1, 2, 5]), np.array([0, 0, 2, 2, 4, 4])).tolist()
    [0, 3, 0, 5, 0]
    """
    maxima = np.zeros(len(bounds) - 1, dtype=values.dtype)
    filled = bounds[1:] > bounds[:-1]
    maxima[filled] = np.maximum.reduceat(values, bounds[:-1][filled])
    return maxima


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
