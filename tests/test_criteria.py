"""Tests for the classical posterior/prior criteria and the comparison report."""

import numpy as np
import pytest

from repro.core.criterion import PrivacySpec
from repro.criteria.classic import (
    beta_likeness_report,
    l_diversity_report,
    small_count_report,
    t_closeness_report,
    total_variation_distance,
)
from repro.criteria.comparison import compare_criteria
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table


@pytest.fixture()
def smooth_and_skewed_table():
    """Two groups: one mirroring the global distribution, one heavily skewed."""
    schema = Schema(
        public=(Attribute("Group", ("balanced", "skewed")),),
        sensitive=Attribute("Disease", ("a", "b", "c", "d")),
    )
    records = []
    # Balanced group: 100 records spread 40/30/20/10.
    for value, count in zip("abcd", (40, 30, 20, 10)):
        records += [("balanced", value)] * count
    # Skewed group: 100 records, 97 of one value, 1 each of the others.
    records += [("skewed", "a")] * 97 + [("skewed", "b"), ("skewed", "c"), ("skewed", "d")]
    return Table.from_records(schema, records)


class TestLDiversity:
    def test_distinct_counts_values(self, smooth_and_skewed_table):
        report = l_diversity_report(smooth_and_skewed_table, l=4)
        assert report.is_satisfied  # both groups contain all four values

    def test_entropy_flags_the_skewed_group(self, smooth_and_skewed_table):
        report = l_diversity_report(smooth_and_skewed_table, l=3, variant="entropy")
        assert not report.is_satisfied
        assert len(report.failing_groups) == 1

    def test_l_of_one_is_trivial(self, smooth_and_skewed_table):
        assert l_diversity_report(smooth_and_skewed_table, l=1).is_satisfied

    def test_homogeneous_group_fails_distinct(self, binary_schema):
        table = Table.from_records(binary_schema, [("a", "high")] * 50)
        report = l_diversity_report(table, l=2)
        assert not report.is_satisfied
        assert report.group_failure_rate == 1.0
        assert report.record_failure_rate == 1.0

    def test_invalid_arguments_rejected(self, smooth_and_skewed_table):
        with pytest.raises(ValueError):
            l_diversity_report(smooth_and_skewed_table, l=0)
        with pytest.raises(ValueError):
            l_diversity_report(smooth_and_skewed_table, l=2, variant="recursive")


class TestTCloseness:
    def test_total_variation_distance(self):
        assert total_variation_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert total_variation_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0
        with pytest.raises(ValueError):
            total_variation_distance(np.ones(2), np.ones(3))

    def test_skewed_group_fails_tight_t(self, smooth_and_skewed_table):
        report = t_closeness_report(smooth_and_skewed_table, t=0.1)
        assert not report.is_satisfied
        # Only the skewed group should fail; the balanced one is not far from
        # the (mixture) global distribution at t=0.4.
        loose = t_closeness_report(smooth_and_skewed_table, t=0.4)
        assert len(loose.failing_groups) <= len(report.failing_groups)

    def test_t_of_one_is_trivial(self, smooth_and_skewed_table):
        assert t_closeness_report(smooth_and_skewed_table, t=1.0).is_satisfied

    def test_invalid_t_rejected(self, smooth_and_skewed_table):
        with pytest.raises(ValueError):
            t_closeness_report(smooth_and_skewed_table, t=-0.1)


class TestBetaLikeness:
    def test_large_gain_flagged(self, smooth_and_skewed_table):
        # Value "a" has global frequency ~0.685; the skewed group raises it to
        # 0.97, a relative gain of ~0.42, so beta=0.2 fails and beta=1.0 passes.
        tight = beta_likeness_report(smooth_and_skewed_table, beta=0.2)
        loose = beta_likeness_report(smooth_and_skewed_table, beta=1.0)
        assert not tight.is_satisfied
        assert loose.is_satisfied

    def test_statistical_relationship_counts_as_violation(self, binary_schema):
        """The drawback the paper highlights: a genuine statistical pattern
        (one group's rate far above the global rate) violates beta-likeness."""
        records = [("a", "high")] * 80 + [("a", "low")] * 20 + [("b", "low")] * 900 + [("b", "high")] * 100
        table = Table.from_records(binary_schema, records)
        report = beta_likeness_report(table, beta=1.0)
        assert not report.is_satisfied

    def test_invalid_beta_rejected(self, smooth_and_skewed_table):
        with pytest.raises(ValueError):
            beta_likeness_report(smooth_and_skewed_table, beta=0.0)


class TestSmallCount:
    def test_singleton_counts_flagged(self, smooth_and_skewed_table):
        report = small_count_report(smooth_and_skewed_table, k=3)
        assert not report.is_satisfied  # the skewed group has counts of 1

    def test_large_counts_pass(self, smooth_and_skewed_table):
        assert small_count_report(smooth_and_skewed_table, k=1).is_satisfied

    def test_invalid_k_rejected(self, smooth_and_skewed_table):
        with pytest.raises(ValueError):
            small_count_report(smooth_and_skewed_table, k=0)


class TestComparison:
    def test_comparison_contains_all_criteria(self, smooth_and_skewed_table):
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=4)
        comparison = compare_criteria(smooth_and_skewed_table, spec)
        names = {report.criterion for report in comparison.reports}
        assert names == {
            "distinct-l-diversity",
            "entropy-l-diversity",
            "t-closeness",
            "beta-likeness",
            "small-count",
        }
        text = comparison.render()
        assert "reconstruction-privacy" in text
        assert "failing records" in text

    def test_reconstruction_privacy_tolerates_statistical_patterns(self, binary_schema):
        """The key contrast of Section 1.2: a strong pattern in a *small* group
        violates t-closeness/beta-likeness but not reconstruction privacy."""
        records = [("a", "high")] * 20 + [("a", "low")] * 5 + [("b", "low")] * 1000 + [("b", "high")] * 100
        table = Table.from_records(binary_schema, records)
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=2)
        comparison = compare_criteria(table, spec, t=0.2, beta=1.0)
        t_report = next(r for r in comparison.reports if r.criterion == "t-closeness")
        assert not t_report.is_satisfied
        # Group "a" (25 records) is far below s_g, so reconstruction privacy
        # does not flag it even though its distribution deviates strongly.
        group_a_key = (table.schema.public_attribute("Group").encode("a"),)
        assert group_a_key in t_report.failing_groups
        from repro.core.testing import audit_table

        audit = audit_table(table, spec)
        violating_keys = set(map(tuple, audit.keys[~audit.private].tolist()))
        assert group_a_key not in violating_keys
