"""Unit tests for repro.dataset.groups (personal and aggregate groups)."""

import numpy as np
import pytest

from repro.dataset.groups import aggregate_group, personal_groups
from repro.dataset.table import Table


def _key(table, **values):
    """The encoded NA key of the given public values, in the order given."""
    schema = table.schema
    return [schema.public_attribute(name).encode(values[name]) for name in values]


class TestGroupIndex:
    def test_number_of_groups(self, small_table):
        index = personal_groups(small_table)
        assert len(index) == 3

    def test_group_sizes_cover_table(self, small_table):
        index = personal_groups(small_table)
        assert index.sizes().sum() == len(small_table)

    def test_group_lookup_by_values(self, small_table):
        index = personal_groups(small_table)
        group = index.get(_key(small_table, Gender="male", Job="eng"))
        assert group is not None
        assert group.size == 8
        assert group.sensitive_counts[0] == 6
        assert group.sensitive_counts[1] == 2

    def test_group_lookup_requires_all_public_attributes(self, small_table):
        index = personal_groups(small_table)
        assert index.get(_key(small_table, Job="eng")) is None

    def test_missing_group_returns_none(self, small_table):
        index = personal_groups(small_table)
        assert index.get(_key(small_table, Gender="female", Job="artist")) is None

    def test_frequencies_and_max_frequency(self, small_table):
        index = personal_groups(small_table)
        group = index.get(_key(small_table, Gender="male", Job="eng"))
        assert group.frequencies[0] == pytest.approx(0.75)
        assert group.max_frequency == pytest.approx(0.75)
        pure = index.get(_key(small_table, Gender="male", Job="lawyer"))
        assert pure.max_frequency == pytest.approx(1.0)

    def test_average_group_size(self, small_table):
        index = personal_groups(small_table)
        assert index.average_group_size() == pytest.approx(len(small_table) / 3)

    def test_empty_table_has_no_groups(self, disease_schema):
        empty = Table.from_records(disease_schema, [])
        index = personal_groups(empty)
        assert len(index) == 0
        assert index.average_group_size() == 0.0

    def test_indices_point_to_matching_rows(self, small_table):
        index = personal_groups(small_table)
        for group in index:
            rows = small_table.public_codes[group.indices]
            assert np.all(rows == np.asarray(group.key))


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
