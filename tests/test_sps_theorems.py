"""SPS against the paper's guarantees, over a sweep of seeds.

Theorem 4: SPS tosses only ``|g1|`` coins per sampled group, and the
frequency-preserving sample has expected size ``s_g`` (each SA value keeps
``count * s_g / |g|`` records in expectation).  Theorem 5: sampling and
scaling preserve SA frequencies in expectation, so inverting the uniform
perturbation on the published counts reconstructs the original counts
without bias.

Both are properties of the algorithm, not of the order of its coin tosses,
so these tests hold for any draw layout.  They run SPS over the 78 sampled
groups (``|g| > s_g``) of the full synthetic ADULT table at the default spec,
for many seeds, and check each pooled mean against its expectation within
three standard errors.  A biased sampler (rounding every sample size down
instead of stochastically) fails them.
"""

import numpy as np
import pytest

from repro.core.criterion import PrivacySpec
from repro.core.sps import sps_publish_groups
from repro.core.testing import audit_groups
from repro.dataset.adult import generate_adult
from repro.dataset.groups import GroupCounts, personal_groups
from repro.reconstruction.mle import reconstruct_counts

N_SEEDS = 400


@pytest.fixture(scope="module")
def sweep():
    """The sampled groups, their ``s_g`` and one SPS run per seed."""
    table = generate_adult()
    groups = personal_groups(table)
    spec = PrivacySpec(
        lam=0.3, delta=0.3, retention_probability=0.5,
        domain_size=table.schema.sensitive_domain_size,
    )
    audit = audit_groups(spec, groups, len(table))
    sampled = ~audit.private
    chunk = GroupCounts.from_dense(groups.keys[sampled], groups.dense()[sampled])
    sample_totals, published_counts = [], []
    for seed in range(N_SEEDS):
        codes, records = sps_publish_groups(
            chunk, spec, seed, n_public=chunk.keys.shape[1], dtype=np.int64
        )
        sample_totals.append(int(records.sample_sizes.sum()))
        published_counts.append(np.bincount(codes[:, -1], minlength=spec.domain_size))
    return {
        "spec": spec,
        "chunk": chunk,
        "thresholds": audit.thresholds[sampled],
        "sample_totals": np.array(sample_totals, dtype=float),
        "published_counts": np.array(published_counts, dtype=float),
    }


def _within_three_standard_errors(samples, expected):
    mean = samples.mean(axis=0)
    standard_error = samples.std(axis=0, ddof=1) / np.sqrt(len(samples))
    assert (np.abs(mean - expected) <= 3 * standard_error).all(), (mean, expected, standard_error)


def test_sweep_covers_the_sampled_groups(sweep):
    assert len(sweep["chunk"]) == 78
    assert (sweep["chunk"].sizes() > sweep["thresholds"]).all()


def test_theorem_4_sample_size_tracks_max_group_size(sweep):
    # Each SA value keeps floor(count * tau) or one more record, so |g1|
    # never exceeds s_g by m or more ...
    m = sweep["spec"].domain_size
    assert (sweep["sample_totals"] < sweep["thresholds"].sum() + m * len(sweep["chunk"])).all()
    # ... and in expectation equals it: sum |g1| = sum s_g.
    _within_three_standard_errors(sweep["sample_totals"], sweep["thresholds"].sum())


def test_theorem_5_reconstructed_counts_are_unbiased(sweep):
    reconstructed = reconstruct_counts(
        sweep["published_counts"], sweep["spec"].retention_probability
    )
    _within_three_standard_errors(reconstructed, sweep["chunk"].dense().sum(axis=0))
