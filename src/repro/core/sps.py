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

from collections.abc import Iterable
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from repro.core.criterion import PrivacySpec, max_group_size
from repro.core.testing import audit_groups
from repro.dataset.groups import (
    GroupCounts,
    GroupIndex,
    expand_counts,
    group_block,
    personal_groups,
)
from repro.dataset.table import Table
from repro.perturbation.uniform import UniformPerturbation
from repro.utils.rng import default_rng


@dataclass(frozen=True)
class GroupPublication:
    """What SPS did to one personal group (a view of one :class:`SPSRecords` row)."""

    key: tuple[int, ...]
    original_size: int
    max_group_size: float
    sampled: bool
    sample_size: int
    published_size: int


@dataclass(frozen=True, eq=False)
class SPSRecords:
    """What SPS did to every personal group of a publish, as aligned arrays.

    Row ``g`` holds group ``g``'s NA key (``keys``, ``G x k``), ``|g|``
    (``sizes``), ``s_g`` (``thresholds``), whether it was ``sampled``
    (``|g| > s_g``), the sample size ``|g1|`` and the published size.
    :meth:`concat` joins the records of consecutive chunks; ``groups``
    builds the per-group :class:`GroupPublication` views on first use.

    >>> import numpy as np
    >>> from repro.core.criterion import PrivacySpec
    >>> from repro.dataset.groups import GroupCounts
    >>> spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=2)
    >>> groups = GroupCounts(np.array([[0], [1]]), np.array([[2, 1], [600, 5]]))
    >>> codes, records = sps_publish_groups(groups, spec, 7, n_public=1)
    >>> records.sampled.tolist(), records.n_sampled_groups, records.sampled_fraction
    ([False, True], 1, 0.5)
    >>> both = SPSRecords.concat([records, records])
    >>> len(both), int(both.published_sizes.sum()) == 2 * len(codes)
    (4, True)
    >>> both.groups[2].key, both.groups[2].original_size
    ((0,), 3)
    """

    keys: np.ndarray
    sizes: np.ndarray
    thresholds: np.ndarray
    sampled: np.ndarray
    sample_sizes: np.ndarray
    published_sizes: np.ndarray

    def __len__(self) -> int:
        return int(self.sizes.size)

    @classmethod
    def empty(cls, n_public: int) -> "SPSRecords":
        """Records of no groups, for keys of width ``n_public``."""
        none = np.empty(0, dtype=np.int64)
        return cls(
            np.empty((0, n_public), dtype=np.int64), none, none.astype(float),
            none.astype(bool), none, none,
        )

    @classmethod
    def concat(cls, parts: Iterable["SPSRecords | None"]) -> "SPSRecords | None":
        """The records of consecutive chunks as one set (``None`` when no part has any)."""
        present = [part for part in parts if part is not None]
        if not present:
            return None
        return cls(**{
            column.name: np.concatenate([getattr(part, column.name) for part in present])
            for column in fields(cls)
        })

    @property
    def n_sampled_groups(self) -> int:
        """How many groups actually needed sampling (``|g| > s_g``)."""
        return int(np.count_nonzero(self.sampled))

    @property
    def sampled_fraction(self) -> float:
        """Fraction of groups that needed sampling."""
        if not len(self):
            return 0.0
        return self.n_sampled_groups / len(self)

    @cached_property
    def groups(self) -> tuple[GroupPublication, ...]:
        """Per-group :class:`GroupPublication` views, in group order."""
        columns = (
            map(tuple, self.keys.tolist()),
            self.sizes.tolist(),
            self.thresholds.tolist(),
            self.sampled.tolist(),
            self.sample_sizes.tolist(),
            self.published_sizes.tolist(),
        )
        return tuple(GroupPublication(*row) for row in zip(*columns, strict=True))


@dataclass(frozen=True)
class SPSResult:
    """The published table ``D*_2`` and its per-group bookkeeping."""

    published: Table
    records: SPSRecords
    spec: PrivacySpec

    @property
    def groups(self) -> tuple[GroupPublication, ...]:
        """Per-group views of :attr:`records`."""
        return self.records.groups

    @property
    def n_sampled_groups(self) -> int:
        """How many groups actually needed sampling (``|g| > s_g``)."""
        return self.records.n_sampled_groups

    @property
    def sampled_fraction(self) -> float:
        """Fraction of groups that needed sampling."""
        return self.records.sampled_fraction


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


def sps_group(
    key: tuple[int, ...],
    counts: np.ndarray,
    spec: PrivacySpec,
    perturbation: UniformPerturbation,
    rng: np.random.Generator,
) -> tuple[np.ndarray, GroupPublication]:
    """Run SPS on one personal group: NA ``key`` with SA count vector ``counts``.

    Returns the published SA codes for the group (the NA key is unchanged by
    construction) and the bookkeeping record.  The one-group reference:
    :func:`sps_publish_groups` draws exactly what a loop of these calls
    draws, in the same order.
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
    # Scaling: every perturbed record is repeated floor(tau') times, plus one
    # more with probability equal to the fractional part of tau' = |g| / |g1|.
    ratio = size / perturbed.size
    floor = int(np.floor(ratio))
    repeats = floor + (rng.random(perturbed.size) < ratio - floor).astype(np.int64)
    published = np.repeat(perturbed, repeats)
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
) -> tuple[np.ndarray, SPSRecords]:
    """Run SPS over a chunk of personal groups and return its published block.

    This is the reusable unit of work behind :func:`sps_publish`: callers that
    partition a :class:`GroupCounts` into chunks (e.g. the service engine's
    parallel executor) hand each chunk its own seeded generator and
    concatenate the returned blocks, so the full published table is
    deterministic for a fixed chunking regardless of execution order.

    The coin tosses are exactly those of a loop of :func:`sps_group` calls,
    in the same order: per group, ``random(n)`` and ``integers(0, m, n)``
    (the perturbation), preceded by the sampling draws and followed by
    ``random(n)`` (the scaling) when the group is sampled.  Only those draw
    calls run per group; ``s_g`` (the audit's Equation 10), the code
    expansion, the retain/replace choice and the scaling repeats are each
    one array operation over the chunk.

    Returns the ``(n_published, n_public + 1)`` code block for the chunk
    (NA key columns then the published SA column) and the chunk's
    :class:`SPSRecords`, in input group order.
    """
    rng = default_rng(rng)
    if perturbation is None:
        perturbation = UniformPerturbation(spec.retention_probability, spec.domain_size)
    if groups.counts.shape[1] != spec.domain_size or groups.keys.shape[1] != n_public:
        raise ValueError("the chunk's count or key width does not match the spec or n_public")
    audit = audit_groups(spec, groups, 0)
    sampled = ~audit.private
    sample_counts = groups.counts.copy() if sampled.any() else groups.counts
    sizes = audit.sizes.tolist()
    m = perturbation.domain_size
    random, integers = rng.random, rng.integers
    uniforms: list[np.ndarray] = []
    replacements: list[np.ndarray] = []
    scale_uniforms: list[np.ndarray] = []
    for g, (size, is_sampled) in enumerate(zip(sizes, sampled.tolist(), strict=True)):
        if not is_sampled:
            uniforms.append(random(size))
            replacements.append(integers(0, m, size))
            continue
        counts = groups.counts[g]
        sample = _sample_counts(counts, audit.thresholds[g].item() / size, rng)
        if sample.sum() == 0:
            sample[int(np.argmax(counts))] = 1  # s_g < 1: see sps_group
        sample_counts[g] = sample
        n = int(sample.sum())
        uniforms.append(random(n))
        replacements.append(integers(0, m, n))
        scale_uniforms.append(random(n))
    sample_sizes = sample_counts.sum(axis=1)
    if not uniforms:
        codes = np.empty(0, dtype=np.int64)
    else:
        codes = np.where(
            np.concatenate(uniforms) < perturbation.retention_probability,
            expand_counts(sample_counts),
            np.concatenate(replacements),
        )
    published_sizes = sample_sizes.copy()
    if scale_uniforms:
        # Scaling, over the sampled groups' records only (all others publish
        # once): floor(tau') copies plus one with probability frac(tau').
        kept = sample_sizes[sampled]
        ratio = audit.sizes[sampled] / kept
        floors = np.floor(ratio)
        repeats = (
            np.repeat(floors.astype(np.int64), kept)
            + (np.concatenate(scale_uniforms) < np.repeat(ratio - floors, kept))
        )
        published_sizes[sampled] = np.add.reduceat(repeats, np.cumsum(kept) - kept)
        all_repeats = np.ones(codes.size, dtype=np.int64)
        all_repeats[np.repeat(sampled, sample_sizes)] = repeats
        codes = np.repeat(codes, all_repeats)
    records = SPSRecords(
        keys=groups.keys,
        sizes=audit.sizes,
        thresholds=audit.thresholds,
        sampled=sampled,
        sample_sizes=sample_sizes,
        published_sizes=published_sizes,
    )
    return group_block(groups.keys, published_sizes, codes), records


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
    return SPSResult(published=Table(table.schema, codes), records=records, spec=spec)
