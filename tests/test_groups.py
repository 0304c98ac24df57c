"""Unit tests for repro.dataset.groups (personal and aggregate groups)."""

import numpy as np
import pytest

from repro.dataset.groups import aggregate_group, keys_sorted_unique, personal_groups
from repro.dataset.table import Table


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
        assert groups.counts[position].tolist()[:2] == [6, 2]

    def test_missing_group_has_no_row(self, small_table):
        groups = personal_groups(small_table)
        assert _position(groups, _key(small_table, Gender="female", Job="artist")) is None

    def test_max_frequencies(self, small_table):
        groups = personal_groups(small_table)
        frequencies = groups.counts.max(axis=1) / groups.sizes()
        eng = _position(groups, _key(small_table, Gender="male", Job="eng"))
        assert frequencies[eng] == pytest.approx(0.75)
        lawyer = _position(groups, _key(small_table, Gender="male", Job="lawyer"))
        assert frequencies[lawyer] == pytest.approx(1.0)

    def test_empty_table_has_no_groups(self, disease_schema):
        empty = Table.from_records(disease_schema, [])
        groups = personal_groups(empty)
        assert len(groups) == 0
        assert groups.keys.shape == (0, 2) and groups.counts.shape == (0, 10)

    def test_counts_match_the_rows_of_each_key(self, small_table):
        groups = personal_groups(small_table)
        assert keys_sorted_unique(groups.keys)
        for key, counts in zip(groups.keys, groups.counts, strict=True):
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
        totals = np.add.reduceat(groups.counts[order], starts, axis=0)
        return dict(zip(values[starts].tolist(), totals, strict=True))

    @pytest.mark.parametrize("seed", range(8))
    def test_equal_to_reduceat_on_random_counts(self, seed):
        from repro.dataset.groups import GroupCounts

        rng = np.random.default_rng(seed)
        n_groups, m = int(rng.integers(1, 40)), int(rng.integers(1, 5))
        keys = np.column_stack([
            rng.integers(0, 6, n_groups),
            np.full(n_groups, 3),  # a column with one observed value
            rng.integers(0, 2, n_groups),
        ])
        groups = GroupCounts(keys, rng.integers(0, 50, (n_groups, m)))
        for column in range(keys.shape[1]):
            totals = groups.column_totals(column)
            expected = self.reduceat_totals(groups, column)
            assert list(totals) == list(expected)
            for value, row in expected.items():
                assert totals[value].dtype == np.int64
                assert np.array_equal(totals[value], row)

    def test_sums_are_exact_past_float64_precision(self):
        from repro.dataset.groups import GroupCounts

        big = 2**53 + 1  # not a float64
        groups = GroupCounts(np.array([[0], [0], [1]]), np.array([[big, 1], [big, 2], [1, big]]))
        totals = groups.column_totals(0)
        assert totals[0].tolist() == [2 * big, 3]
        assert totals[1].tolist() == [1, big]

    def test_no_groups_no_totals(self):
        from repro.dataset.groups import GroupCounts

        empty = GroupCounts(np.empty((0, 2), dtype=np.int64), np.empty((0, 3), dtype=np.int64))
        assert empty.column_totals(0) == {}
