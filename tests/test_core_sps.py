"""Tests for the Sampling-Perturbing-Scaling algorithm (Section 5)."""

import sys

import numpy as np
import pytest

import repro
from repro.core import testing
from repro.core.criterion import PrivacySpec, max_group_size
from repro.core.sps import sps_publish, sps_publish_groups
from repro.core.testing import audit_table
from repro.dataset.census import generate_census
from repro.dataset.groups import GroupCounts, personal_groups
from repro.dataset.loaders import write_csv
from repro.dataset.table import Table
from repro.delta import delta_publish, publish_base
from repro.reconstruction.mle import mle_frequencies
from repro.utils.rng import default_rng
from sps_records import assert_records_equal


@pytest.fixture()
def binary_spec() -> PrivacySpec:
    return PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=2)


def _one_group(groups, position, spec, rng):
    """SPS over one personal group: its published SA codes and its one-row records."""
    chunk = groups[position : position + 1]
    codes, records = sps_publish_groups(
        chunk, spec, rng, n_public=groups.keys.shape[1], dtype=np.int64
    )
    return codes[:, -1], records


class TestSpsGroup:
    def test_small_group_not_sampled(self, small_table):
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=10)
        groups = personal_groups(small_table)
        size = int(groups.sizes()[0])
        codes, records = _one_group(groups, 0, spec, default_rng(0))
        assert records.sampled.tolist() == [False]
        assert records.sample_sizes.tolist() == [size]
        assert codes.size == size

    def test_large_group_sampled_to_threshold(self, skewed_binary_table, binary_spec):
        groups = personal_groups(skewed_binary_table)
        a = skewed_binary_table.schema.public_attribute("Group").encode("a")
        position = int(np.flatnonzero(groups.keys[:, 0] == a)[0])
        size = int(groups.sizes()[position])
        threshold = max_group_size(binary_spec, float(groups.dense()[position].max() / size))
        assert size > threshold  # precondition for the test
        codes, records = _one_group(groups, position, binary_spec, default_rng(1))
        assert records.sampled.tolist() == [True]
        # The sample size equals s_g up to the stochastic rounding of each value.
        sample_size = int(records.sample_sizes[0])
        assert abs(sample_size - threshold) <= 2
        # Scaling restores roughly the original size.
        assert abs(codes.size - size) <= sample_size

    def test_published_codes_stay_in_domain(self, skewed_binary_table, binary_spec):
        rng = default_rng(3)
        groups = personal_groups(skewed_binary_table)
        for position in range(len(groups)):
            codes, _ = _one_group(groups, position, binary_spec, rng)
            assert codes.min() >= 0 and codes.max() < 2


class TestSpsPublish:
    def test_published_size_close_to_original(self, skewed_binary_table, binary_spec):
        result = sps_publish(skewed_binary_table, binary_spec, rng=0)
        assert abs(len(result.published) - len(skewed_binary_table)) < 0.1 * len(skewed_binary_table)

    def test_public_key_structure_preserved(self, skewed_binary_table, binary_spec):
        result = sps_publish(skewed_binary_table, binary_spec, rng=0)
        original_keys = personal_groups(skewed_binary_table).keys
        published_keys = personal_groups(result.published).keys
        assert np.array_equal(published_keys, original_keys)

    def test_only_violating_groups_sampled(self, skewed_binary_table, binary_spec):
        audit = audit_table(skewed_binary_table, binary_spec)
        result = sps_publish(skewed_binary_table, binary_spec, rng=0)
        expected_sampled = audit.keys[~audit.private]
        np.testing.assert_array_equal(result.records.keys[result.records.sampled], expected_sampled)
        np.testing.assert_array_equal(result.records.keys, audit.keys)
        assert result.n_sampled_groups == len(expected_sampled) > 0

    def test_domain_mismatch_rejected(self, small_table, binary_spec):
        with pytest.raises(ValueError):
            sps_publish(small_table, binary_spec)

    def test_reproducible_with_seed(self, skewed_binary_table, binary_spec):
        a = sps_publish(skewed_binary_table, binary_spec, rng=11)
        b = sps_publish(skewed_binary_table, binary_spec, rng=11)
        assert a.published == b.published

    def test_no_sampling_when_data_already_private(self, small_table):
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=10)
        result = sps_publish(small_table, spec, rng=0)
        assert result.n_sampled_groups == 0
        assert result.sampled_fraction == 0.0
        assert len(result.published) == len(small_table)

    def test_empty_table(self, binary_schema, binary_spec):
        empty = Table.from_records(binary_schema, [])
        result = sps_publish(empty, binary_spec, rng=0)
        assert len(result.published) == 0
        assert len(result.records) == 0 and result.records.keys.shape == (0, 1)


class TestSpsPublishGroups:
    def test_chunked_union_covers_all_groups(self, skewed_binary_table, binary_spec):
        """The chunk entry point partitions cleanly: publishing the group list
        in two chunks yields exactly the per-chunk groups' records."""
        groups = personal_groups(skewed_binary_table)
        n_public = len(skewed_binary_table.schema.public)
        codes_a, records_a = sps_publish_groups(
            groups[:2], binary_spec, 1, n_public, dtype=np.int64
        )
        codes_b, records_b = sps_publish_groups(
            groups[2:], binary_spec, 2, n_public, dtype=np.int64
        )
        assert np.array_equal(np.vstack([records_a.keys, records_b.keys]), groups.keys)
        combined = Table(skewed_binary_table.schema, np.vstack([codes_a, codes_b]))
        assert np.array_equal(personal_groups(combined).keys, groups.keys)

    def test_matches_sps_publish_for_single_chunk(self, skewed_binary_table, binary_spec):
        groups = personal_groups(skewed_binary_table)
        n_public = len(skewed_binary_table.schema.public)
        codes, records = sps_publish_groups(
            groups, binary_spec, default_rng(17), n_public, dtype=np.int64
        )
        reference = sps_publish(skewed_binary_table, binary_spec, rng=default_rng(17))
        assert np.array_equal(codes, reference.published.codes)
        assert_records_equal(records, reference.records)

    def test_empty_chunk(self, binary_spec):
        empty = GroupCounts.from_dense(np.empty((0, 1)), np.empty((0, 2)))
        codes, records = sps_publish_groups(empty, binary_spec, 0, n_public=1, dtype=np.int64)
        assert codes.shape == (0, 2)
        assert len(records) == 0 and records.keys.shape == (0, 1)


class TestTheorem4Privacy:
    def test_sample_sizes_satisfy_the_criterion(self, binary_schema):
        """Theorem 4: privacy is achieved on the sampled records g1.

        Reconstruction privacy is a property of the number of independent coin
        tosses, which after SPS equals the sample size |g1| ~ s_g; every
        published group's sample size must therefore pass Corollary 4.
        """
        from repro.core.criterion import value_is_private

        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=2)
        records = [("a", "high")] * 800 + [("a", "low")] * 200
        table = Table.from_records(binary_schema, records)
        for seed in range(20):
            result = sps_publish(table, spec, rng=seed)
            assert result.records.sampled.tolist() == [True]
            # Allow the +-1 per SA value of stochastic rounding; the group's
            # max frequency is 800 / 1000.
            sample_size = int(result.records.sample_sizes[0])
            assert value_is_private(spec, sample_size - spec.domain_size, 0.8)

    def test_sps_widens_personal_reconstruction_error_relative_to_up(self, binary_schema):
        """The point of sampling: the personal estimate from D*_2 is noisier
        than the estimate from plain UP on the same (violating) group."""
        from repro.perturbation.uniform import perturb_table

        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=2)
        records = [("a", "high")] * 800 + [("a", "low")] * 200
        table = Table.from_records(binary_schema, records)
        up_estimates, sps_estimates = [], []
        for seed in range(200):
            up = perturb_table(table, 0.5, rng=seed)
            up_estimates.append(mle_frequencies(up.sensitive_counts(), 0.5)[1])
            sps = sps_publish(table, spec, rng=seed)
            sps_estimates.append(mle_frequencies(sps.published.sensitive_counts(), 0.5)[1])
        assert np.std(sps_estimates) > 1.5 * np.std(up_estimates)


class TestTheorem5Utility:
    def test_aggregate_reconstruction_stays_unbiased(self, binary_schema):
        """Theorem 5: the frequency reconstructed from D*_2 is unbiased for aggregates."""
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=2)
        rng = np.random.default_rng(5)
        records = []
        for group, size, rate in (("a", 700, 0.7), ("b", 500, 0.4), ("c", 300, 0.2)):
            highs = rng.random(size) < rate
            records += [(group, "high" if h else "low") for h in highs]
        table = Table.from_records(binary_schema, records)
        true_high = table.sensitive_frequencies()[1]
        estimates = []
        for seed in range(250):
            result = sps_publish(table, spec, rng=seed)
            estimates.append(mle_frequencies(result.published.sensitive_counts(), 0.5)[1])
        assert float(np.mean(estimates)) == pytest.approx(true_high, abs=0.03)


#: A spec under which most census groups are sampled.
SAMPLING = {"lam": 0.7, "delta": 0.7, "retention_probability": 0.9}


@pytest.fixture
def audit_calls(monkeypatch):
    """Every ``audit_groups`` call, through whichever module binds the name."""
    original = testing.audit_groups
    calls = []

    def spy(*args, **kwargs):
        calls.append(len(args[1]))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "audit_groups", None) is original:
            monkeypatch.setattr(module, "audit_groups", spy)
    return calls


@pytest.fixture(scope="module")
def census():
    """A census sample of ~2,800 groups: 44 chunks of 64, so three runs."""
    return generate_census(3000, seed=2)


class TestOneAuditPerPublish:
    """The stage audit's ``s_g`` reach the SPS kernel: one audit per publish, on every path."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_in_memory(self, census, audit_calls, workers):
        report = repro.publish(
            census, strategy="sps", rng=5, chunk_size=64, workers=workers, **SAMPLING
        )
        assert report.records.n_sampled_groups > 0
        assert audit_calls == [report.audit.n_groups]
        # With the stage off the kernel audits its runs itself: same bytes.
        unaudited = repro.publish(
            census, strategy="sps", rng=5, chunk_size=64, workers=workers, audit=False,
            **SAMPLING,
        )
        assert unaudited.audit is None and unaudited.published == report.published

    def test_stream_publish(self, census, audit_calls, tmp_path):
        source = tmp_path / "census.csv"
        write_csv(census, source)
        report = repro.stream_publish(
            source, sensitive=census.schema.sensitive_name, strategy="sps", rng=5,
            chunk_size=64, workers=2, output=tmp_path / "published.csv", **SAMPLING,
        )
        assert report.records.n_sampled_groups > 0
        assert audit_calls == [report.audit.n_groups]

    def test_delta_append(self, census, audit_calls, tmp_path):
        rows = [list(record) for record in census.records()]
        base = tmp_path / "base.csv"
        write_csv(Table.from_records(census.schema, rows[:-20]), base)
        report = publish_base(
            base, sensitive=census.schema.sensitive_name, output=tmp_path / "published.csv",
            strategy="sps", rng=5, chunk_size=64, **SAMPLING,
        )
        assert len(audit_calls) == 1
        audit_calls.clear()
        appended = delta_publish(report.state, rows[-20:])
        assert appended.records.n_sampled_groups > 0
        assert audit_calls == [appended.audit.n_groups]
