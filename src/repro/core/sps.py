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
frequencies in expectation (Theorem 5).  Neither depends on the order of the
coin tosses, so :func:`sps_publish_groups` runs the algorithm as the paper's
one sort and one scan over a *run* of consecutive chunks of groups.  Each
chunk keeps its own spawned generator, which makes at most one draw per
phase, in phase order: sampling ``random(F_c)``, retention ``random(N_c)``,
replacement ``integers(0, m, N_c)`` and scaling ``random(K_c)``.  Only those
four draws are split by chunk; the audit, sampling, code expansion,
retain/replace choice and scaling are each one array operation over the
run, never one per group or per chunk.  A chunk's bytes are therefore the
same whatever run it is in.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, fields

import numpy as np

from repro.core.criterion import PrivacySpec
from repro.core.testing import audit_groups
from repro.dataset.groups import (
    GroupCounts,
    chunk_sums,
    expand_counts,
    group_block,
    personal_groups,
)
from repro.dataset.table import Table, code_dtype
from repro.perturbation.uniform import UniformPerturbation
from repro.utils.rng import default_rng


@dataclass(frozen=True, eq=False)
class SPSRecords:
    """What SPS did to every personal group of a publish, as aligned arrays.

    Row ``g`` holds group ``g``'s NA key (``keys``, ``G x k``), ``|g|``
    (``sizes``), ``s_g`` (``thresholds``), whether it was ``sampled``
    (``|g| > s_g``), the sample size ``|g1|`` and the published size.
    :meth:`concat` joins the records of consecutive chunks.

    >>> import numpy as np
    >>> from repro.core.criterion import PrivacySpec
    >>> from repro.dataset.groups import GroupCounts
    >>> spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=2)
    >>> groups = GroupCounts(np.array([[0], [1]]), np.array([[2, 1], [600, 5]]))
    >>> codes, records = sps_publish_groups(groups, spec, 7, n_public=1, dtype=np.int8)
    >>> records.sampled.tolist(), records.n_sampled_groups, records.sampled_fraction
    ([False, True], 1, 0.5)
    >>> both = SPSRecords.concat([records, records])
    >>> len(both), int(both.published_sizes.sum()) == 2 * len(codes)
    (4, True)
    >>> both.keys[2].tolist(), int(both.sizes[2]), int(both.published_sizes[2])
    ([0], 3, 3)
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


@dataclass(frozen=True)
class SPSResult:
    """The published table ``D*_2`` and its per-group bookkeeping."""

    published: Table
    records: SPSRecords
    spec: PrivacySpec

    @property
    def n_sampled_groups(self) -> int:
        """How many groups actually needed sampling (``|g| > s_g``)."""
        return self.records.n_sampled_groups

    @property
    def sampled_fraction(self) -> float:
        """Fraction of groups that needed sampling."""
        return self.records.sampled_fraction


def _chunk_draws(
    rngs: Sequence[np.random.Generator],
    per_chunk: np.ndarray,
    draw: Callable[[np.random.Generator, int], np.ndarray],
    dtype: type = float,
) -> np.ndarray:
    """``draw(rngs[c], per_chunk[c])`` for every chunk, joined in chunk order.

    A chunk that needs no draws makes no call.
    """
    parts = [
        draw(rng, n) for rng, n in zip(rngs, per_chunk.tolist(), strict=True) if n
    ]
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


def _uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.random(size)


def _sample_counts(
    counts: np.ndarray, rates: np.ndarray, uniforms: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Frequency-preserving sample sizes of a ``G x m`` count matrix (phase 1).

    All records of a personal group sharing the same SA value are identical,
    so sampling reduces to choosing how many copies of each value to keep:
    ``floor(count * tau)`` plus one more with probability equal to the
    fractional part, ``tau = rates[g]`` for row ``g``.  ``uniforms(per_row)``
    returns one uniform per entry with a non-zero fractional part, given how
    many each row has, row-major (group order, then SA code).  numpy
    generators fill array draws from the same stream as repeated scalar
    draws, so this equals stochastic rounding of one entry at a time, row by
    row, for any seed.
    """
    scaled = counts * rates[:, None]
    floors = np.floor(scaled)
    fractions = scaled - floors
    sampled = floors.astype(np.int64)
    # counts == 0 entries have a zero fractional part and never draw.
    draw = fractions > 0
    if draw.any():
        sampled[draw] += uniforms(draw.sum(axis=1)) < fractions[draw]
    return np.minimum(sampled, counts)


def sps_publish_groups(
    groups: GroupCounts,
    spec: PrivacySpec,
    rngs: int | np.random.Generator | Sequence[np.random.Generator] | None,
    n_public: int,
    perturbation: UniformPerturbation | None = None,
    bounds: np.ndarray | None = None,
    *,
    dtype: np.dtype,
) -> tuple[np.ndarray, SPSRecords]:
    """Run SPS over a run of consecutive chunks of personal groups.

    This is the reusable unit of work behind :func:`sps_publish` and the
    ``sps`` strategy's kernel.  Chunk ``c`` of the run is
    ``groups[bounds[c]:bounds[c + 1]]`` and draws only from ``rngs[c]``, its
    own spawned generator; with ``bounds=None`` the whole of ``groups`` is
    one chunk and ``rngs`` may be one seed or generator.  The bytes of a chunk
    therefore never depend on which run it is in: a run of ``k`` chunks
    publishes exactly what ``k`` one-chunk calls publish, concatenated.

    Each chunk's generator makes at most one draw per phase, in this order:

    1. ``random(F_c)``: the sampling step's stochastic rounding, over the
       ``F_c`` non-integer entries of ``counts * s_g / |g|`` of the chunk's
       sampled groups, row-major.  A sample that rounds to zero
       (``s_g < 1``) keeps one record of the group's dominant value and
       draws nothing more;
    2. ``random(N_c)``: retain or replace, one uniform per perturbed record
       of the chunk (``|g1|`` per sampled group, ``|g|`` per other group),
       in group order;
    3. ``integers(0, m, N_c)``: the replacement values, in the same order;
    4. ``random(K_c)``: the scaling step, over the chunk's sampled groups'
       ``K_c = sum |g1|`` perturbed records.

    A draw of zero values is not made.  Everything else -- ``s_g`` (the
    audit's Equation 10), the code expansion, the retain/replace choice and
    the scaling repeats -- is one array operation over the whole run.

    Returns the ``(n_published, n_public + 1)`` code block of the run (NA
    key columns then the published SA column), in ``dtype`` (a publish
    path passes its schema's :func:`~repro.dataset.table.code_dtype`), and
    the run's :class:`SPSRecords`, in input group order.
    """
    if not isinstance(rngs, Sequence):
        rngs = [default_rng(rngs)]
    if bounds is None:
        bounds = np.array([0, len(groups)])
    if len(rngs) != len(bounds) - 1:
        raise ValueError("a run needs one generator per chunk")
    if perturbation is None:
        perturbation = UniformPerturbation(spec.retention_probability, spec.domain_size)
    if groups.counts.shape[1] != spec.domain_size or groups.keys.shape[1] != n_public:
        raise ValueError("the chunk's count or key width does not match the spec or n_public")
    audit = audit_groups(spec, groups, 0)
    sizes, sampled = audit.sizes, ~audit.private
    sample_counts = groups.counts
    sample_sizes = sizes.copy()
    if sampled.any():
        counts = groups.counts[sampled]

        def uniforms(per_row: np.ndarray) -> np.ndarray:
            per_group = np.zeros(len(groups), dtype=np.int64)
            per_group[sampled] = per_row
            return _chunk_draws(rngs, chunk_sums(per_group, bounds), _uniform)

        sample = _sample_counts(counts, audit.thresholds[sampled] / sizes[sampled], uniforms)
        # s_g < 1: keep one record of the dominant value, so the group is not
        # silently deleted from the published data.
        empty = np.flatnonzero(sample.sum(axis=1) == 0)
        sample[empty, counts[empty].argmax(axis=1)] = 1
        sample_counts = groups.counts.copy()
        sample_counts[sampled] = sample
        sample_sizes[sampled] = sample.sum(axis=1)
    n = int(sample_sizes.sum())
    per_chunk = chunk_sums(sample_sizes, bounds)
    retain = _chunk_draws(rngs, per_chunk, _uniform) < perturbation.retention_probability
    m = perturbation.domain_size
    replacements = _chunk_draws(
        rngs, per_chunk, lambda rng, size: rng.integers(0, m, size), np.int64
    )
    codes = np.where(retain, expand_counts(sample_counts), replacements)
    published_sizes = sample_sizes.copy()
    if sampled.any():
        # Scaling, over the sampled groups' records only (all others publish
        # once): floor(tau') copies plus one with probability frac(tau').
        kept = sample_sizes[sampled]
        ratio = sizes[sampled] / kept
        floors = np.floor(ratio)
        scale_draws = _chunk_draws(
            rngs, chunk_sums(np.where(sampled, sample_sizes, 0), bounds), _uniform
        )
        repeats = np.repeat(floors.astype(np.int64), kept) + (
            scale_draws < np.repeat(ratio - floors, kept)
        )
        published_sizes[sampled] = np.add.reduceat(repeats, np.cumsum(kept) - kept)
        all_repeats = np.ones(n, dtype=np.int64)
        all_repeats[np.repeat(sampled, sample_sizes)] = repeats
        codes = np.repeat(codes, all_repeats)
    records = SPSRecords(
        keys=groups.keys,
        sizes=sizes,
        thresholds=audit.thresholds,
        sampled=sampled,
        sample_sizes=sample_sizes,
        published_sizes=published_sizes,
    )
    return group_block(groups.keys, published_sizes, codes, dtype), records


def sps_publish(
    table: Table,
    spec: PrivacySpec,
    rng: int | np.random.Generator | None = None,
    groups: GroupCounts | None = None,
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
        The table's personal groups, if already built.
    """
    if spec.domain_size != table.schema.sensitive_domain_size:
        raise ValueError("spec.domain_size does not match the table's sensitive domain size")
    rng = default_rng(rng)
    if groups is None:
        groups = personal_groups(table)
    codes, records = sps_publish_groups(
        groups, spec, rng, n_public=len(table.schema.public), dtype=code_dtype(table.schema)
    )
    return SPSResult(published=Table(table.schema, codes), records=records, spec=spec)
