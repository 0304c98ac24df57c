"""Tests for the service's backends: every registered strategy, selected by name."""

import numpy as np
import pytest

from repro.core.criterion import PrivacySpec
from repro.core.testing import audit_table
from repro.dataset.groups import expand_counts, group_block, personal_groups
from repro.dataset.table import code_dtype
from repro.pipeline import register_strategy, unregister_strategy
from repro.pipeline.strategy import PublishStrategy
from repro.service.engine import AnonymizationService, backend_defaults
from repro.service.registry import ServiceError

BUILTIN_BACKENDS = {"sps", "uniform", "dp-laplace", "dp-gaussian", "generalize+sps"}


@pytest.fixture()
def service(skewed_binary_table) -> AnonymizationService:
    svc = AnonymizationService()
    svc.register_table("skewed", skewed_binary_table)
    return svc


class TestRegistry:
    def test_builtin_backends_registered(self, service):
        assert BUILTIN_BACKENDS <= set(service.describe()["backends"])

    def test_unknown_backend_rejected(self, service):
        with pytest.raises(ServiceError, match="unknown backend"):
            service.publish("skewed", "no-such-backend")

    def test_descriptions_expose_defaults(self, service):
        descriptions = service.stats()["backends"]
        assert descriptions == backend_defaults()
        assert descriptions["sps"]["lam"] == 0.3
        assert descriptions["dp-laplace"]["epsilon"] == 1.0

    def test_custom_backend_is_one_registration_away(self, service, skewed_binary_table):
        class IdentityStrategy(PublishStrategy):
            name = "identity-test"

            def chunk_publisher(self, schema, spec, resolved):
                def run_fn(run, rngs, bounds):
                    sizes, sensitive = run.sizes(), expand_counts(run.dense())
                    block = group_block(run.keys, sizes, sensitive, code_dtype(schema))
                    return block, sizes, None

                return run_fn

        try:
            register_strategy(IdentityStrategy())
            record = service.publish("skewed", "identity-test")
            # Published in group order: the same records, as a multiset.
            assert record.published.schema == skewed_binary_table.schema
            assert sorted(record.published.codes.tolist()) == sorted(
                skewed_binary_table.codes.tolist()
            )
            assert "identity-test" in service.stats()["backends"]
            with pytest.raises(ValueError, match="already registered"):
                register_strategy(IdentityStrategy())
        finally:
            unregister_strategy("identity-test")

    def test_unknown_parameter_rejected(self, service):
        with pytest.raises(ServiceError, match="does not accept parameters"):
            service.publish("skewed", "sps", params={"typo": 1.0})


class TestSPSBackend:
    def test_matches_audit_and_preserves_keys(self, service, skewed_binary_table):
        record = service.publish("skewed", "sps", seed=5, chunk_size=2)
        original_keys = personal_groups(skewed_binary_table).keys
        published_keys = personal_groups(record.published).keys
        assert np.array_equal(published_keys, original_keys)
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=2)
        reference = audit_table(skewed_binary_table, spec)
        assert record.audit.group_violation_rate == reference.group_violation_rate
        assert record.metadata["n_sampled_groups"] == int((~reference.private).sum()) > 0

    def test_deterministic_for_fixed_seed(self, service):
        a = service.publish("skewed", "sps", seed=9, chunk_size=2)
        b = service.publish("skewed", "sps", seed=9, chunk_size=2)
        assert np.array_equal(a.published.codes, b.published.codes)

    def test_uses_cached_group_index_on_second_publish(self, service):
        first = service.publish("skewed", "sps", seed=1, chunk_size=64)
        second = service.publish("skewed", "sps", seed=2, chunk_size=64)
        assert not first.timings.group_index_cached
        assert second.timings.group_index_cached
        assert second.timings.group_index_seconds == 0.0


class TestUniformBackend:
    def test_preserves_size_and_public_columns(self, service, skewed_binary_table):
        record = service.publish("skewed", "uniform", seed=3, chunk_size=256)
        assert len(record.published) == len(skewed_binary_table)
        assert np.array_equal(
            record.published.public_codes, skewed_binary_table.public_codes
        )


class TestDPBackends:
    @pytest.mark.parametrize("name", ["dp-laplace", "dp-gaussian"])
    def test_publishes_valid_table_with_metadata(self, name, service, skewed_binary_table):
        record = service.publish("skewed", name, seed=4, chunk_size=2)
        assert record.published.schema == skewed_binary_table.schema
        assert record.audit is None
        assert record.metadata["noise_variance"] > 0
        # Published group keys must be a subset of the original NA keys.
        original_keys = set(map(tuple, personal_groups(skewed_binary_table).keys.tolist()))
        published_keys = set(map(tuple, personal_groups(record.published).keys.tolist()))
        assert published_keys <= original_keys

    def test_low_noise_preserves_histograms_approximately(self, service, skewed_binary_table):
        record = service.publish(
            "skewed", "dp-laplace", params={"epsilon": 100.0}, seed=4, chunk_size=2
        )
        assert abs(len(record.published) - len(skewed_binary_table)) <= 5


class TestGeneralizeSPSBackend:
    def test_reports_domain_collapse(self, service):
        record = service.publish("skewed", "generalize+sps", seed=6, chunk_size=2)
        domains = record.metadata["generalized_domains"]
        assert domains["Group"]["before"] == 3
        assert domains["Group"]["after"] <= 3
        assert record.audit is not None
