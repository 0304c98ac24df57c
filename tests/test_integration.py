"""End-to-end integration tests across the whole publishing + analysis pipeline."""

import numpy as np
import pytest

from repro import publish
from repro.analysis.utility import compare_up_and_sps
from repro.core.criterion import PrivacySpec
from repro.core.sps import sps_publish
from repro.core.testing import audit_table
from repro.dataset.adult import generate_adult
from repro.dataset.census import generate_census
from repro.dataset.groups import personal_groups
from repro.generalization.merging import generalize_table
from repro.perturbation.rho_privacy import max_retention_for_rho_privacy, satisfies_rho_privacy
from repro.queries.workload import WorkloadConfig, generate_workload
from repro.queries.error import average_relative_error
from repro.reconstruction.mle import mle_frequencies


class TestAdultEndToEnd:
    @pytest.fixture(scope="class")
    def adult(self):
        return generate_adult(15_000, seed=20150323)

    def test_full_pipeline_produces_consistent_artifacts(self, adult):
        result = publish(
            adult, strategy="generalize+sps",
            lam=0.3, delta=0.3, retention_probability=0.5, rng=0,
        )

        # 1. Generalisation shrank the schema but kept every record.
        assert len(result.prepared) == len(adult)
        assert sum(m.generalized_domain_size for m in result.generalization.merges) < sum(
            m.original_domain_size for m in result.generalization.merges
        )

        # 2. The audit found violations (ADULT's binary SA makes f >= 0.5 everywhere).
        assert result.audit.record_violation_rate > 0.5

        # 3. Every violating group was sampled; compliant groups were not.
        np.testing.assert_array_equal(result.records.keys, result.audit.keys)
        np.testing.assert_array_equal(result.records.sampled, ~result.audit.private)

        # 4. The published table keeps the NA structure of the prepared table.
        assert np.array_equal(
            personal_groups(result.published).keys, personal_groups(result.prepared).keys
        )

    def test_aggregate_utility_survives_while_personal_risk_is_bounded(self, adult):
        """The paper's headline claim on a medium-size ADULT sample."""
        generalization = generalize_table(adult)
        prepared = generalization.table
        spec = PrivacySpec(
            lam=0.3, delta=0.3, retention_probability=0.5,
            domain_size=prepared.schema.sensitive_domain_size,
        )

        queries = generate_workload(
            adult, prepared, WorkloadConfig(n_queries=100), generalization=generalization, rng=1
        )
        comparison = compare_up_and_sps(prepared, spec, queries, runs=2, rng=2)
        # SPS costs some utility but stays in the same ballpark as UP
        # (the paper reports roughly +50 % in the ADULT worst case).
        assert comparison.sps_error <= 3.0 * comparison.up_error + 0.05

    def test_rho_privacy_guides_retention_choice(self, adult):
        p_max = max_retention_for_rho_privacy(2, rho1=0.4, rho2=0.8)
        assert 0 < p_max < 1
        assert satisfies_rho_privacy(p_max, 2, 0.4, 0.8)
        result = publish(
            adult, strategy="generalize+sps",
            lam=0.3, delta=0.3, retention_probability=p_max, rng=3,
        )
        assert len(result.published) > 0


class TestCensusEndToEnd:
    def test_census_pipeline_age_is_uninformative_and_violations_are_rare(self):
        census = generate_census(40_000, seed=20150323)
        generalization = generalize_table(census)
        assert generalization.merge_for("Age").generalized_domain_size == 1

        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=50)
        audit = audit_table(generalization.table, spec)
        # CENSUS's many balanced SA values make personal groups much harder to
        # violate than ADULT's binary SA (Figure 4 vs Figure 2).
        assert audit.group_violation_rate < 0.3

        result = sps_publish(generalization.table, spec, rng=0)
        assert abs(len(result.published) - len(census)) < 0.1 * len(census)

    def test_census_reconstruction_on_large_aggregate_is_accurate(self):
        census = generate_census(30_000, seed=7)
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=50)
        result = sps_publish(census, spec, rng=1)
        true_frequencies = census.sensitive_frequencies()
        estimates = mle_frequencies(result.published.sensitive_counts(), 0.5)
        assert np.abs(estimates - true_frequencies).max() < 0.02


class TestUtilityMonotonicity:
    def test_relative_error_falls_with_data_size(self):
        """Figure 5(d)'s shape: more data means better aggregate reconstruction."""
        spec_p = 0.5
        errors = []
        for size in (5_000, 40_000):
            census = generate_census(size, seed=11)
            queries = generate_workload(census, census, WorkloadConfig(n_queries=60), rng=0)
            spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=spec_p, domain_size=50)
            published = sps_publish(census, spec, rng=5).published
            errors.append(average_relative_error(queries, census, published, spec_p))
        assert errors[1] < errors[0]
