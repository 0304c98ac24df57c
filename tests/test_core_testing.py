"""Tests for data-set level privacy auditing (v_g / v_r)."""

import numpy as np
import pytest

from repro.analysis.violation import violation_report
from repro.core.criterion import PrivacySpec
from repro.core.testing import audit_table
from repro.dataset.groups import personal_groups
from repro.dataset.table import Table


@pytest.fixture()
def binary_spec() -> PrivacySpec:
    return PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=2)


class TestAuditTable:
    def test_domain_mismatch_rejected(self, small_table):
        wrong = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=3)
        with pytest.raises(ValueError):
            audit_table(small_table, wrong)

    def test_all_small_groups_pass(self, small_table):
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=10)
        audit = audit_table(small_table, spec)
        assert audit.is_private
        assert audit.group_violation_rate == 0.0
        assert audit.record_violation_rate == 0.0

    def test_violations_detected_and_rates_consistent(self, skewed_binary_table, binary_spec):
        audit = audit_table(skewed_binary_table, binary_spec)
        assert not audit.is_private
        assert 0 < audit.group_violation_rate < 1
        # The biggest group (400 records, f = 0.8) violates, so v_r > v_g.
        assert audit.record_violation_rate > audit.group_violation_rate
        covered = int(audit.sizes[~audit.private].sum())
        assert audit.record_violation_rate == pytest.approx(covered / len(skewed_binary_table))

    def test_reusing_group_index_gives_same_result(self, skewed_binary_table, binary_spec):
        groups = personal_groups(skewed_binary_table)
        a = audit_table(skewed_binary_table, binary_spec)
        b = audit_table(skewed_binary_table, binary_spec, groups=groups)
        assert a.group_violation_rate == b.group_violation_rate
        assert a.record_violation_rate == b.record_violation_rate

    def test_empty_table_is_trivially_private(self, binary_schema, binary_spec):
        empty = Table.from_records(binary_schema, [])
        audit = audit_table(empty, binary_spec)
        assert audit.is_private
        assert audit.n_groups == 0


class TestSamplingRates:
    """``tau = min(1, s_g / |g|)``: the rate SPS samples each audited group at."""

    def test_sampling_rate_capped_at_one(self, small_table):
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=10)
        audit = audit_table(small_table, spec)
        assert audit.n_groups == 3
        assert np.minimum(1.0, audit.thresholds / audit.sizes).tolist() == [1.0] * 3

    def test_sampling_rate_below_one_for_violating_group(self, skewed_binary_table, binary_spec):
        audit = audit_table(skewed_binary_table, binary_spec)
        violating = ~audit.private
        assert violating.any()
        rates = np.minimum(1.0, audit.thresholds / audit.sizes)[violating]
        assert ((0 < rates) & (rates < 1)).all()
        assert (audit.thresholds[violating] < audit.sizes[violating]).all()


class TestViolationReport:
    def test_report_matches_audit(self, skewed_binary_table, binary_spec):
        audit = audit_table(skewed_binary_table, binary_spec)
        report = violation_report(skewed_binary_table, binary_spec)
        assert report.group_rate == pytest.approx(audit.group_violation_rate)
        assert report.record_rate == pytest.approx(audit.record_violation_rate)
        assert report.total_groups == audit.n_groups

    def test_report_can_reuse_audit(self, skewed_binary_table, binary_spec):
        audit = audit_table(skewed_binary_table, binary_spec)
        report = violation_report(skewed_binary_table, binary_spec, audit=audit)
        assert report.violating_groups == audit.n_violating_groups == int((~audit.private).sum())

    def test_rates_move_with_lambda(self, skewed_binary_table):
        # Equation (9): a larger lambda shrinks the admissible group size s_g,
        # so the same data violates the criterion more often.
        small_lambda = PrivacySpec(lam=0.1, delta=0.3, retention_probability=0.5, domain_size=2)
        large_lambda = PrivacySpec(lam=0.5, delta=0.3, retention_probability=0.5, domain_size=2)
        small_report = violation_report(skewed_binary_table, small_lambda)
        large_report = violation_report(skewed_binary_table, large_lambda)
        assert large_report.group_rate >= small_report.group_rate
