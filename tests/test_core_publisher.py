"""Tests for the paper's end-to-end publishing workflow through ``repro.publish``.

``strategy="generalize+sps"`` is the full workflow (chi-square generalise →
audit → enforce with SPS); ``strategy="sps"`` skips the generalisation.
"""

import numpy as np
import pytest

from repro import publish
from repro.core.criterion import PrivacySpec
from repro.core.testing import audit_table
from repro.dataset.adult import generate_adult
from repro.dataset.groups import personal_groups
from repro.generalization.merging import generalize_table
from repro.perturbation.uniform import perturb_table

PARAMS = {"lam": 0.3, "delta": 0.3, "retention_probability": 0.5}


@pytest.fixture(scope="module")
def adult_sample():
    return generate_adult(10_000, seed=20150323)


@pytest.fixture(scope="module")
def report(adult_sample):
    return publish(adult_sample, strategy="generalize+sps", rng=0, **PARAMS)


class TestPublisher:
    def test_publish_produces_all_artifacts(self, report):
        assert report.generalization is not None
        assert report.spec.domain_size == 2
        assert len(report.published) > 0
        assert report.audit.n_groups == len(personal_groups(report.prepared))
        np.testing.assert_array_equal(report.audit.keys, personal_groups(report.prepared).keys)

    def test_generalization_can_be_disabled(self, adult_sample):
        result = publish(adult_sample, strategy="sps", rng=0, **PARAMS)
        assert result.generalization is None
        assert result.prepared.schema == adult_sample.schema

    def test_generalization_reduces_group_count(self, adult_sample):
        prepared = generalize_table(adult_sample).table
        before = len(personal_groups(adult_sample))
        after = len(personal_groups(prepared))
        assert after < before

    def test_audit_matches_publish_audit(self, adult_sample, report):
        prepared = generalize_table(adult_sample).table
        spec = PrivacySpec(domain_size=prepared.schema.sensitive_domain_size, **PARAMS)
        standalone = audit_table(prepared, spec)
        assert standalone.group_violation_rate == pytest.approx(report.audit.group_violation_rate)

    def test_published_data_passes_a_re_audit_of_sampled_sizes(self, report):
        """Every published group's *sample* size respects the s_g threshold.

        Privacy is achieved on the sampled records before scaling (Section 5
        "Remarks"), so the bookkeeping sample_size must not exceed s_g (up to
        the +-1 of stochastic rounding).
        """
        # Per-value stochastic rounding can overshoot s_g by at most one record
        # per sensitive value (m = 2 for ADULT).
        slack = report.spec.domain_size
        records = report.records
        within = records.sample_sizes <= records.thresholds + slack
        assert (within | ~records.sampled).all()

    def test_uniform_baseline_keeps_size(self, report):
        baseline = perturb_table(report.prepared, PARAMS["retention_probability"], rng=0)
        assert len(baseline) == len(report.prepared)
        assert np.array_equal(baseline.public_codes, report.prepared.public_codes)

    def test_spec_uses_table_domain(self, adult_sample):
        result = publish(
            adult_sample, strategy="generalize+sps",
            lam=0.2, delta=0.4, retention_probability=0.7, rng=0,
        )
        assert result.spec.domain_size == adult_sample.schema.sensitive_domain_size
        assert result.spec.lam == 0.2 and result.spec.delta == 0.4

    def test_sps_reduces_violation_risk_relative_to_up(self, report):
        """The published (scaled) data should not allow tighter personal
        reconstruction than plain UP on a violating group: its effective number
        of independent trials is the sample size, which is what the audit uses."""
        sampled = report.records.sampled
        assert sampled.any(), "expected at least one violating group in ADULT"
        assert (report.records.sample_sizes[sampled] < report.records.sizes[sampled]).all()
