"""Unit tests for repro.dataset.groups (personal and aggregate groups).

The CSR form of :class:`GroupCounts` is checked against a dense ``bincount``
reference written here: a hypothesis property over tabulate (weighted and
not), aggregate, slicing, recode, column totals, sizes, maximum counts and
expansion, with empty input, one group and ``m = 1`` among the examples.
It runs 100 derandomized examples by default and 1000 with ``CI`` set.
"""

import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.criterion import PrivacySpec
from repro.core.testing import audit_groups
from repro.dataset.groups import (
    GroupCounts,
    aggregate_group,
    keys_sorted_unique,
    personal_groups,
)
from repro.dataset.table import Table

settings.register_profile(
    "groups-ci", derandomize=True, max_examples=1000, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "groups", derandomize=True, max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
groups_profile = settings.get_profile("groups-ci" if os.environ.get("CI") else "groups")


def _key(table, **values):
    """The encoded NA key of the given public values, in the order given."""
    schema = table.schema
    return [schema.public_attribute(name).encode(values[name]) for name in values]


def _position(groups, key):
    """The row of ``groups`` whose NA key is ``key``, or ``None``."""
    matches = np.flatnonzero((groups.keys == key).all(axis=1))
    return int(matches[0]) if matches.size else None


class TestPersonalGroups:
    def test_number_of_groups(self, small_table):
        groups = personal_groups(small_table)
        assert len(groups) == 3

    def test_group_sizes_cover_table(self, small_table):
        groups = personal_groups(small_table)
        assert groups.sizes().sum() == len(small_table)

    def test_counts_by_key(self, small_table):
        groups = personal_groups(small_table)
        position = _position(groups, _key(small_table, Gender="male", Job="eng"))
        assert position is not None
        assert groups.sizes()[position] == 8
        assert groups.dense()[position].tolist()[:2] == [6, 2]

    def test_missing_group_has_no_row(self, small_table):
        groups = personal_groups(small_table)
        assert _position(groups, _key(small_table, Gender="female", Job="artist")) is None

    def test_max_frequencies(self, small_table):
        groups = personal_groups(small_table)
        frequencies = groups.dense().max(axis=1) / groups.sizes()
        eng = _position(groups, _key(small_table, Gender="male", Job="eng"))
        assert frequencies[eng] == pytest.approx(0.75)
        lawyer = _position(groups, _key(small_table, Gender="male", Job="lawyer"))
        assert frequencies[lawyer] == pytest.approx(1.0)

    def test_empty_table_has_no_groups(self, disease_schema):
        empty = Table.from_records(disease_schema, [])
        groups = personal_groups(empty)
        assert len(groups) == 0
        assert groups.keys.shape == (0, 2) and groups.dense().shape == (0, 10)

    def test_counts_match_the_rows_of_each_key(self, small_table):
        groups = personal_groups(small_table)
        assert keys_sorted_unique(groups.keys)
        for key, counts in zip(groups.keys, groups.dense(), strict=True):
            rows = (small_table.public_codes == key).all(axis=1)
            sensitive = small_table.sensitive_codes[rows]
            assert np.bincount(sensitive, minlength=10).tolist() == counts.tolist()


class TestAggregateGroup:
    def test_partial_condition(self, small_table):
        mask = aggregate_group(small_table, {"Job": "eng"})
        assert mask.sum() == 12

    def test_empty_condition_selects_all(self, small_table):
        mask = aggregate_group(small_table, {})
        assert mask.all()

    def test_full_condition_degenerates_to_personal_group(self, small_table):
        mask = aggregate_group(small_table, {"Gender": "male", "Job": "lawyer"})
        assert mask.sum() == 3


class TestColumnTotals:
    @staticmethod
    def reduceat_totals(groups, column):
        """The gather-and-reduceat sum column_totals used to do."""
        order = np.lexsort((np.arange(len(groups.keys)), groups.keys[:, column]))
        values = groups.keys[order, column]
        starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
        totals = np.add.reduceat(groups.dense()[order], starts, axis=0)
        return dict(zip(values[starts].tolist(), totals, strict=True))

    @pytest.mark.parametrize("seed", range(8))
    def test_equal_to_reduceat_on_random_counts(self, seed):
        rng = np.random.default_rng(seed)
        n_groups, m = int(rng.integers(1, 40)), int(rng.integers(1, 5))
        keys = np.column_stack([
            rng.integers(0, 6, n_groups),
            np.full(n_groups, 3),  # a column with one observed value
            rng.integers(0, 2, n_groups),
        ])
        groups = GroupCounts.from_dense(keys, rng.integers(0, 50, (n_groups, m)))
        for column in range(keys.shape[1]):
            totals = groups.column_totals(column)
            expected = self.reduceat_totals(groups, column)
            assert list(totals) == list(expected)
            for value, row in expected.items():
                assert totals[value].dtype == np.int64
                assert np.array_equal(totals[value], row)

    def test_sums_are_exact_past_float64_precision(self):
        big = 2**53 + 1  # not a float64
        groups = GroupCounts.from_dense(np.array([[0], [0], [1]]), np.array([[big, 1], [big, 2], [1, big]]))
        totals = groups.column_totals(0)
        assert totals[0].tolist() == [2 * big, 3]
        assert totals[1].tolist() == [1, big]

    def test_no_groups_no_totals(self):
        empty = GroupCounts.from_dense(np.empty((0, 2), dtype=np.int64), np.empty((0, 3), dtype=np.int64))
        assert empty.column_totals(0) == {}


# --------------------------------------------------------------------- #
# The CSR form against a dense bincount reference
# --------------------------------------------------------------------- #


def _dense(keys, sensitive, m, weights=None):
    """The sorted unique key rows and their ``G x m`` counts: one bincount of the cells."""
    if not len(keys):
        return np.empty((0, keys.shape[1]), dtype=np.int64), np.empty((0, m), dtype=np.int64)
    unique, inverse = np.unique(keys, axis=0, return_inverse=True)
    cells = inverse.reshape(-1) * m + sensitive
    counts = np.bincount(cells, weights=weights, minlength=len(unique) * m)
    return unique, counts.astype(np.int64).reshape(len(unique), m)


def _expand(counts):
    """One SA code per record of a count matrix, row-major."""
    return np.repeat(np.tile(np.arange(counts.shape[1]), len(counts)), counts.reshape(-1))


def _assert_csr(groups, keys, counts):
    """``groups`` is the CSR form of ``keys`` with ``counts``: cells, invariants, reductions."""
    assert groups.keys.tolist() == keys.tolist()
    assert groups.dense().tolist() == counts.tolist()
    assert groups.m == counts.shape[1]
    assert groups.offsets[0] == 0 and groups.offsets[-1] == groups.n.size
    assert (np.diff(groups.offsets) >= 0).all() and (groups.n > 0).all()
    for g in range(len(groups)):
        assert (np.diff(groups.codes[groups.offsets[g]:groups.offsets[g + 1]]) > 0).all()
    assert groups.sizes().tolist() == counts.sum(axis=1).tolist()
    assert groups.max_counts().tolist() == counts.max(axis=1, initial=0).tolist()
    assert groups.expand().tolist() == _expand(counts).tolist()


@st.composite
def _rows(draw):
    """NA key rows over a small domain (so keys repeat), SA codes, weights and ``m``."""
    m, k, n = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 40))
    codes = st.lists(st.integers(0, 3), min_size=k, max_size=k)
    keys = np.array(draw(st.lists(codes, min_size=n, max_size=n)), dtype=np.int64)
    sensitive = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    return (
        keys.reshape(n, k),
        np.array(sensitive, dtype=np.int64),
        np.array(weights, dtype=np.int64),
        m,
    )


_EMPTY = (
    np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 3
)
_ONE_GROUP = (np.array([[2, 1]] * 4), np.array([0, 2, 2, 1]), np.array([1, 5, 2, 7]), 3)
_M_ONE = (np.array([[1], [0], [1], [3]]), np.zeros(4, dtype=np.int64), np.array([2, 1, 1, 4]), 1)
#: Key codes whose mixed-radix product overflows int64: tabulate ranks the keys instead.
_WIDE_KEYS = (
    np.array([[2**40, 2**30], [0, 5], [2**40, 2**30], [7, 2**62]]),
    np.array([0, 1, 1, 2]), np.array([3, 1, 4, 1]), 3,
)
_IDENTITY_MAPS = [[0, 1, 2, 3]] * 3
_MERGING_MAPS = [[0, 0, 1, 0]] * 3


class TestCsrAgainstDenseReference:
    @groups_profile
    @example(rows=_EMPTY)
    @example(rows=_ONE_GROUP)
    @example(rows=_M_ONE)
    @example(rows=_WIDE_KEYS)
    @given(rows=_rows())
    def test_tabulate_sizes_maxima_and_expand(self, rows):
        keys, sensitive, weights, m = rows
        _assert_csr(GroupCounts.tabulate(keys, sensitive, m), *_dense(keys, sensitive, m))
        _assert_csr(
            GroupCounts.tabulate(keys, sensitive, m, weights),
            *_dense(keys, sensitive, m, weights),
        )

    @groups_profile
    @example(rows=_EMPTY, cuts=(0.0, 1.0, 0.5), key_maps=_IDENTITY_MAPS)
    @example(rows=_ONE_GROUP, cuts=(0.0, 1.0, 0.5), key_maps=_IDENTITY_MAPS)
    @example(rows=_M_ONE, cuts=(0.3, 1.0, 0.5), key_maps=_MERGING_MAPS)
    @given(
        rows=_rows(),
        cuts=st.tuples(*[st.floats(0.0, 1.0)] * 3),
        key_maps=st.lists(
            st.lists(st.integers(0, 2), min_size=4, max_size=4), min_size=3, max_size=3
        ),
    )
    def test_slices_aggregate_recode_and_column_totals(self, rows, cuts, key_maps):
        keys, sensitive, weights, m = rows
        groups = GroupCounts.tabulate(keys, sensitive, m, weights)
        unique, counts = _dense(keys, sensitive, m, weights)
        lo = int(cuts[0] * len(groups))
        hi = lo + int(cuts[1] * (len(groups) - lo))
        _assert_csr(groups[lo:hi], unique[lo:hi], counts[lo:hi])

        split = int(cuts[2] * len(keys))
        parts = [
            GroupCounts.tabulate(keys[:split], sensitive[:split], m, weights[:split]),
            GroupCounts.tabulate(keys[split:], sensitive[split:], m, weights[split:]),
        ]
        _assert_csr(GroupCounts.aggregate(*parts), unique, counts)

        maps = [np.array(code_map) for code_map in key_maps[: keys.shape[1]]]
        recoded = np.stack(
            [code_map[column] for code_map, column in zip(maps, keys.T, strict=True)], axis=1
        ).reshape(keys.shape)
        _assert_csr(groups.recode(maps), *_dense(recoded, sensitive, m, weights))

        for column in range(keys.shape[1]):
            expected = {
                int(value): counts[unique[:, column] == value].sum(axis=0).tolist()
                for value in np.unique(unique[:, column])
            }
            totals = groups.column_totals(column)
            assert {value: row.tolist() for value, row in totals.items()} == expected


class TestEmptyGroups:
    """A group with no cells reads nothing of its neighbours, wherever it lies.

    ``np.add.reduceat`` and ``np.maximum.reduceat`` return the element at
    the index for an empty segment, and raise at an index equal to the
    length: a zero row first, in the middle or last must still have
    ``|g| = 0``, ``f = 0`` and ``s_g = inf``.
    """

    SPEC = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=3)

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
    def test_sizes_audit_and_expand(self, position):
        rows = [[3, 0, 5], [0, 2, 7]]
        rows.insert(position, [0, 0, 0])
        groups = GroupCounts.from_dense(np.arange(3).reshape(3, 1), np.array(rows))
        assert np.diff(groups.offsets)[position] == 0
        assert groups.sizes().tolist() == [sum(row) for row in rows]
        assert groups.max_counts().tolist() == [max(row) for row in rows]
        assert groups.expand().tolist() == _expand(np.array(rows)).tolist()

        audit = audit_groups(self.SPEC, groups, 17)
        assert audit.sizes[position] == 0
        assert audit.thresholds[position] == math.inf and audit.private[position]
        others = [g for g in range(3) if g != position]
        assert (audit.thresholds[others] < math.inf).all()

    def test_only_empty_groups(self):
        groups = GroupCounts.from_dense(np.arange(2).reshape(2, 1), np.zeros((2, 3)))
        assert groups.n.size == 0 and groups.offsets.tolist() == [0, 0, 0]
        assert groups.sizes().tolist() == [0, 0] and groups.max_counts().tolist() == [0, 0]
        assert groups.expand().size == 0
        assert audit_groups(self.SPEC, groups, 0).thresholds.tolist() == [math.inf] * 2
