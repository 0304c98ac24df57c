"""Tests for the (lambda, delta)-reconstruction-privacy criterion (Definition 3, Corollary 4)."""

import math

import numpy as np
import pytest

from repro.core.criterion import (
    PrivacySpec,
    group_sizes_and_thresholds,
    max_group_size,
    smallest_error_bound,
    value_is_private,
)
from repro.core.testing import audit_groups
from repro.dataset.groups import personal_groups


def make_spec(lam=0.3, delta=0.3, p=0.5, m=2) -> PrivacySpec:
    return PrivacySpec(lam=lam, delta=delta, retention_probability=p, domain_size=m)


class TestPrivacySpec:
    def test_valid_spec(self):
        spec = make_spec()
        assert spec.off_diagonal == pytest.approx(0.25)

    @pytest.mark.parametrize("lam", [0.0, -0.1])
    def test_invalid_lambda_rejected(self, lam):
        with pytest.raises(ValueError):
            make_spec(lam=lam)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.2, 1.5])
    def test_invalid_delta_rejected(self, delta):
        with pytest.raises(ValueError):
            make_spec(delta=delta)

    def test_invalid_p_and_m_rejected(self):
        with pytest.raises(ValueError):
            make_spec(p=0.0)
        with pytest.raises(ValueError):
            make_spec(m=1)

    def test_lambda_upper_limit(self):
        spec = make_spec(p=0.5, m=2)
        assert spec.lambda_upper_limit(0.5) == pytest.approx(1 + 0.25 / 0.25)
        assert spec.lambda_upper_limit(0.0) == math.inf


class TestMaxGroupSize:
    def test_equation_10_value(self):
        # lambda = delta = 0.3, p = 0.5, m = 2, f = 0.5:
        # s_g = -2 (0.25 + 0.25) ln 0.3 / (0.3*0.5*0.5)^2
        spec = make_spec()
        expected = -2 * 0.5 * math.log(0.3) / (0.075**2)
        assert max_group_size(spec, 0.5) == pytest.approx(expected)

    def test_decreasing_in_frequency(self):
        """The paper uses the group's max frequency because s_g decreases in f."""
        spec = make_spec(m=50)
        sizes = [max_group_size(spec, f) for f in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_decreasing_in_retention(self):
        sizes = [max_group_size(make_spec(p=p), 0.5) for p in (0.3, 0.5, 0.7)]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_decreasing_in_lambda(self):
        assert max_group_size(make_spec(lam=0.1), 0.5) > max_group_size(make_spec(lam=0.5), 0.5)

    def test_increasing_in_delta_magnitude(self):
        # A stricter (larger) delta forces a smaller group.
        assert max_group_size(make_spec(delta=0.1), 0.5) > max_group_size(make_spec(delta=0.5), 0.5)

    def test_zero_frequency_is_unbounded(self):
        assert max_group_size(make_spec(), 0.0) == math.inf

    def test_invalid_frequency_rejected(self):
        with pytest.raises(ValueError):
            max_group_size(make_spec(), 1.2)

    def test_vectorised_matches_scalar(self):
        spec = make_spec(m=10)
        frequencies = np.array([0.0, 0.2, 0.5, 0.9])
        vector = group_sizes_and_thresholds(spec, frequencies)
        for f, v in zip(frequencies, vector):
            assert v == pytest.approx(max_group_size(spec, float(f)))


class TestValueAndGroupTests:
    def test_corollary_4_boundary(self):
        spec = make_spec()
        threshold = max_group_size(spec, 0.5)
        assert value_is_private(spec, int(threshold), 0.5)
        assert not value_is_private(spec, int(threshold) + 1, 0.5)

    def test_empty_group_is_private(self):
        assert value_is_private(make_spec(), 0, 0.5)

    def test_absent_value_is_private(self):
        assert value_is_private(make_spec(), 10_000, 0.0)

    def test_negative_group_size_rejected(self):
        with pytest.raises(ValueError):
            value_is_private(make_spec(), -1, 0.5)

    @pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
    def test_group_verdict_is_the_scalar_test_at_max_frequency(self, skewed_binary_table, p):
        groups = personal_groups(skewed_binary_table)
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=p, domain_size=2)
        audit = audit_groups(spec, groups, len(skewed_binary_table))
        sizes = groups.sizes().tolist()
        frequencies = (groups.dense().max(axis=1) / groups.sizes()).tolist()
        expected = [value_is_private(spec, n, f) for n, f in zip(sizes, frequencies)]
        assert audit.private.tolist() == expected
        assert not all(expected)  # the group "a" of 400 records violates

    def test_small_groups_in_fixture_are_private(self, small_table):
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=10)
        audit = audit_groups(spec, personal_groups(small_table), len(small_table))
        # All fixture groups have fewer than 10 records; s_g is in the hundreds.
        assert audit.private.all()

    def test_violation_appears_for_large_pure_group(self, binary_schema):
        from repro.dataset.table import Table

        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=2)
        records = [("a", "high")] * 500
        table = Table.from_records(binary_schema, records)
        audit = audit_groups(spec, personal_groups(table), len(table))
        assert audit.private.tolist() == [False]


class TestSmallestErrorBound:
    def test_consistency_with_verdict(self):
        spec = make_spec()
        threshold = max_group_size(spec, 0.5)
        below = smallest_error_bound(spec, int(threshold) - 1, 0.5)
        above = smallest_error_bound(spec, int(threshold) + 50, 0.5)
        assert below >= spec.delta
        assert above < spec.delta

    def test_degenerate_inputs_give_trivial_bound(self):
        spec = make_spec()
        assert smallest_error_bound(spec, 0, 0.5) == 1.0
        assert smallest_error_bound(spec, 100, 0.0) == 1.0
