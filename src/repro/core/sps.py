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
one sort and one scan over a *run* of consecutive chunks of groups, reading
only each group's non-zero cells.  Each chunk keeps its own spawned
generator, which makes at most one draw per phase, in phase order: sampling
``random(F_c)``, retention ``random(N_c)``, replacement
``integers(0, m, N_c)`` and scaling ``random(K_c)``.  Only those four draws
are split by chunk; the audit, sampling, code expansion, retain/replace
choice and scaling are each one array operation over the run, never one per
group or per chunk.  A chunk's bytes are therefore the
same whatever run it is in.  A run that carries the stage audit's ``s_g``
(:meth:`~repro.dataset.groups.GroupCounts.with_thresholds`) is not audited
again.
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
    group_block,
    personal_groups,
    segment_max,
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
    >>> groups = GroupCounts.from_dense(np.array([[0], [1]]), np.array([[2, 1], [600, 5]]))
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
    n: np.ndarray, rates: np.ndarray, uniforms: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Frequency-preserving sample sizes of the cells ``n`` (phase 1).

    All records of a personal group sharing the same SA value are identical,
    so sampling reduces to choosing how many copies of each value to keep:
    ``floor(count * tau)`` plus one more with probability equal to the
    fractional part, ``tau = rates[c]`` for cell ``c`` (its group's rate).
    ``uniforms(draw)`` returns one uniform per cell where ``draw`` is set
    (a non-zero fractional part), in cell order: group order, then SA code
    — the row-major order of a count matrix, whose zero entries never
    draw.  numpy generators fill array draws from the same stream as
    repeated scalar draws, so this equals stochastic rounding of one cell at
    a time, for any seed.
    """
    scaled = n * rates
    floors = np.floor(scaled)
    fractions = scaled - floors
    sampled = floors.astype(np.int64)
    draw = fractions > 0
    if draw.any():
        sampled[draw] += uniforms(draw) < fractions[draw]
    return np.minimum(sampled, n)


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
       ``F_c`` non-integer cells of ``n * s_g / |g|`` of the chunk's
       sampled groups, in (group, SA code) order.  A sample that rounds to
       zero (``s_g < 1``) keeps one record of the group's dominant value
       (its first maximal cell) and draws nothing more;
    2. ``random(N_c)``: retain or replace, one uniform per perturbed record
       of the chunk (``|g1|`` per sampled group, ``|g|`` per other group),
       in group order;
    3. ``integers(0, m, N_c)``: the replacement values, in the same order;
    4. ``random(K_c)``: the scaling step, over the chunk's sampled groups'
       ``K_c = sum |g1|`` perturbed records.

    A draw of zero values is not made.  Everything else -- ``s_g`` (the
    audit's Equation 10), the code expansion, the retain/replace choice and
    the scaling repeats -- is one array operation over the whole run.  The
    ``s_g`` are the run's ``thresholds`` when it carries them (the stage
    audit's), and are computed here only when it does not.

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
    if groups.m != spec.domain_size or groups.keys.shape[1] != n_public:
        raise ValueError("the chunk's count or key width does not match the spec or n_public")
    sizes = groups.sizes()
    thresholds = groups.thresholds
    if thresholds is None:
        thresholds = audit_groups(spec, groups, 0).thresholds
    sampled = sizes > thresholds
    sample_n = groups.n
    sample_sizes = sizes.copy()
    if sampled.any():
        cells_per_group = np.diff(groups.offsets)
        per_group = cells_per_group[sampled]
        cells = np.flatnonzero(np.repeat(sampled, cells_per_group))
        n = groups.n[cells]

        def uniforms(draw: np.ndarray) -> np.ndarray:
            per_cell = np.zeros(len(groups.n), dtype=np.int64)
            per_cell[cells[draw]] = 1
            return _chunk_draws(rngs, chunk_sums(per_cell, groups.offsets[bounds]), _uniform)

        rates = np.repeat(thresholds[sampled] / sizes[sampled], per_group)
        sample = _sample_counts(n, rates, uniforms)
        bounds_in_sample = np.concatenate(([0], np.cumsum(per_group)))
        totals = chunk_sums(sample, bounds_in_sample)
        emptied = totals == 0
        if emptied.any():
            # s_g < 1: keep one record of the dominant value, so the group is
            # not silently deleted from the published data.  Its first
            # maximal cell is the dense argmax: codes ascend within a group.
            owner = np.repeat(np.arange(totals.size), per_group)
            dominant = n == segment_max(n, bounds_in_sample)[owner]
            hits = np.flatnonzero(dominant & emptied[owner])
            _, first = np.unique(owner[hits], return_index=True)
            sample[hits[first]] = 1
            totals[emptied] = 1
        sample_n = groups.n.copy()
        sample_n[cells] = sample
        sample_sizes[sampled] = totals
    n = int(sample_sizes.sum())
    per_chunk = chunk_sums(sample_sizes, bounds)
    retain = _chunk_draws(rngs, per_chunk, _uniform) < perturbation.retention_probability
    m = perturbation.domain_size
    replacements = _chunk_draws(
        rngs, per_chunk, lambda rng, size: rng.integers(0, m, size), np.int64
    )
    codes = np.where(retain, np.repeat(groups.codes, sample_n), replacements)
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
        thresholds=thresholds,
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
