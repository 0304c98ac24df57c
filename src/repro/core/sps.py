"""The Sampling-Perturbing-Scaling (SPS) enforcement algorithm (Section 5).

For every personal group ``g`` of the input table:

1. compute the maximum group size ``s_g`` (Equation 10) from the group's
   maximum SA frequency;
2. if ``|g| <= s_g`` the group already satisfies reconstruction privacy and is
   perturbed as-is (plain uniform perturbation);
3. otherwise, *Sampling* draws a frequency-preserving sample ``g1`` of
   expected size ``s_g`` (per SA value: ``floor(|g_sa| tau)`` records plus one
   more with probability equal to the fractional part, ``tau = s_g / |g|``),
   *Perturbing* applies uniform perturbation to ``g1``, and *Scaling*
   duplicates each perturbed record ``floor(tau')`` times plus one more with
   probability equal to the fractional part, ``tau' = |g| / |g1|``, so the
   published group returns to roughly the original size.

The published table ``D*_2`` is the union of the per-group outputs.  Privacy
holds because only ``|g1| ~ s_g`` independent coin tosses were performed
(Theorem 4); utility holds because sampling and scaling both preserve SA
frequencies in expectation (Theorem 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.criterion import PrivacySpec, max_group_size
from repro.dataset.groups import GroupCounts, GroupIndex, personal_groups
from repro.dataset.table import Table
from repro.perturbation.uniform import UniformPerturbation
from repro.utils.rng import default_rng


@dataclass(frozen=True)
class GroupPublication:
    """What SPS did to one personal group."""

    key: tuple[int, ...]
    original_size: int
    max_group_size: float
    sampled: bool
    sample_size: int
    published_size: int


@dataclass(frozen=True)
class SPSResult:
    """The published table ``D*_2`` and per-group bookkeeping."""

    published: Table
    groups: tuple[GroupPublication, ...]
    spec: PrivacySpec

    @property
    def n_sampled_groups(self) -> int:
        """How many groups actually needed sampling (``|g| > s_g``)."""
        return sum(1 for g in self.groups if g.sampled)

    @property
    def sampled_fraction(self) -> float:
        """Fraction of groups that needed sampling."""
        if not self.groups:
            return 0.0
        return self.n_sampled_groups / len(self.groups)


def _stochastic_round(value: float, rng: np.random.Generator) -> int:
    """Round ``value`` down, plus one with probability equal to its fractional part."""
    floor = int(np.floor(value))
    fraction = value - floor
    if fraction > 0 and rng.random() < fraction:
        floor += 1
    return floor


def _sample_counts(
    counts: np.ndarray, sampling_rate: float, rng: np.random.Generator
) -> np.ndarray:
    """Frequency-preserving sample sizes per SA value (the *Sampling* step).

    All records of a personal group sharing the same SA value are identical,
    so sampling reduces to choosing how many copies of each value to keep:
    ``floor(count * tau)`` plus one more with probability equal to the
    fractional part.  One uniform is drawn per SA value with a non-zero
    fractional part, in value order, exactly as the per-value
    :func:`_stochastic_round` loop would — numpy generators fill array draws
    from the same stream as repeated scalar draws, so this vectorised form is
    byte-identical to the loop for any seed.
    """
    scaled = counts * sampling_rate
    floors = np.floor(scaled)
    fractions = scaled - floors
    sampled = floors.astype(np.int64)
    # counts == 0 entries have a zero fractional part and never draw.
    draw = fractions > 0
    n_draws = int(np.count_nonzero(draw))
    if n_draws:
        sampled[draw] += rng.random(n_draws) < fractions[draw]
    return np.minimum(sampled, counts)


def _scale_codes(codes: np.ndarray, target_size: int, rng: np.random.Generator) -> np.ndarray:
    """Duplicate perturbed SA codes back up to roughly ``target_size`` (the *Scaling* step).

    Every record is repeated ``floor(tau')`` times plus one more with
    probability equal to the fractional part of ``tau'``, as a single
    vectorised draw (one uniform per record instead of a Python-level loop —
    this is the hot path for large sampled groups).
    """
    if codes.size == 0:
        return codes
    ratio = target_size / codes.size
    floor = int(np.floor(ratio))
    fraction = ratio - floor
    repeats = floor + (rng.random(codes.size) < fraction).astype(np.int64)
    return np.repeat(codes, repeats)


def sps_group(
    key: tuple[int, ...],
    counts: np.ndarray,
    spec: PrivacySpec,
    perturbation: UniformPerturbation,
    rng: np.random.Generator,
) -> tuple[np.ndarray, GroupPublication]:
    """Run SPS on one personal group: NA ``key`` with SA count vector ``counts``.

    Returns the published SA codes for the group (the NA key is unchanged by
    construction) and the bookkeeping record.
    """
    size = int(counts.sum())
    max_frequency = float(counts.max() / counts.sum()) if size else 0.0
    threshold = max_group_size(spec, max_frequency)

    if size <= threshold:
        # No sampling needed: perturb every record of the group.
        original_codes = np.repeat(np.arange(counts.size), counts)
        published = perturbation.perturb_codes(original_codes, rng)
        record = GroupPublication(
            key=key,
            original_size=size,
            max_group_size=threshold,
            sampled=False,
            sample_size=size,
            published_size=int(published.size),
        )
        return published, record

    sampling_rate = threshold / size
    sampled_counts = _sample_counts(counts, sampling_rate, rng)
    if sampled_counts.sum() == 0:
        # Degenerate corner (s_g < 1): keep one record of the dominant value so
        # the group is not silently deleted from the published data.
        sampled_counts[int(np.argmax(counts))] = 1
    sample_codes = np.repeat(np.arange(sampled_counts.size), sampled_counts)
    perturbed = perturbation.perturb_codes(sample_codes, rng)
    published = _scale_codes(perturbed, size, rng)
    record = GroupPublication(
        key=key,
        original_size=size,
        max_group_size=threshold,
        sampled=True,
        sample_size=int(sample_codes.size),
        published_size=int(published.size),
    )
    return published, record


def sps_publish_groups(
    groups: GroupCounts,
    spec: PrivacySpec,
    rng: int | np.random.Generator | None,
    n_public: int,
    perturbation: UniformPerturbation | None = None,
) -> tuple[np.ndarray, list[GroupPublication]]:
    """Run SPS over a chunk of personal groups and return its published block.

    This is the reusable unit of work behind :func:`sps_publish`: callers that
    partition a :class:`GroupCounts` into chunks (e.g. the service engine's
    parallel executor) hand each chunk its own seeded generator and
    concatenate the returned blocks, so the full published table is
    deterministic for a fixed chunking regardless of execution order.

    Returns the ``(n_published, n_public + 1)`` code block for the chunk
    (NA key columns then the published SA column) and the per-group
    bookkeeping records, in input group order.
    """
    rng = default_rng(rng)
    if perturbation is None:
        perturbation = UniformPerturbation(spec.retention_probability, spec.domain_size)
    code_blocks: list[np.ndarray] = []
    records: list[GroupPublication] = []
    for key, counts in zip(groups.keys.tolist(), groups.counts, strict=True):
        published_codes, record = sps_group(tuple(key), counts, spec, perturbation, rng)
        records.append(record)
        code_blocks.append(published_codes)
    if not code_blocks:
        return np.empty((0, n_public + 1), dtype=np.int64), records
    # Assemble the chunk's block in two bulk operations (repeat the NA keys,
    # concatenate the SA codes) instead of one allocation per group.
    sizes = np.fromiter((block.size for block in code_blocks), dtype=np.int64, count=len(code_blocks))
    codes = np.empty((int(sizes.sum()), n_public + 1), dtype=np.int64)
    codes[:, :n_public] = np.repeat(groups.keys, sizes, axis=0)
    codes[:, n_public] = np.concatenate(code_blocks)
    return codes, records


def sps_publish(
    table: Table,
    spec: PrivacySpec,
    rng: int | np.random.Generator | None = None,
    groups: GroupIndex | None = None,
) -> SPSResult:
    """Publish ``D*_2``: run SPS over every personal group of ``table``.

    Parameters
    ----------
    table:
        The raw table ``D`` (after NA generalisation if applicable).
    spec:
        The ``(lambda, delta, p, m)`` specification; ``m`` must match the
        table's sensitive domain size.
    rng:
        Seed or generator for all coin tosses (sampling, perturbation, scaling).
    groups:
        Optional pre-built group index.
    """
    if spec.domain_size != table.schema.sensitive_domain_size:
        raise ValueError("spec.domain_size does not match the table's sensitive domain size")
    rng = default_rng(rng)
    index = groups if groups is not None else personal_groups(table)
    codes, records = sps_publish_groups(
        index.groups, spec, rng, n_public=len(table.schema.public)
    )
    published_table = Table(table.schema, codes)
    return SPSResult(published=published_table, groups=tuple(records), spec=spec)
