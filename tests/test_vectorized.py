"""Byte-identity of the vectorized hot paths against their loop baselines.

PR 3 replaced per-record / per-group Python loops with numpy bulk operations
in the SPS sampling step, the personal-group index build, the closed-form MLE
and the naive Bayes training pass.  These tests pin the contract that made
that safe: for a fixed seed the vectorized code consumes the same RNG stream
and produces the same bytes as the loops it replaced.  The loop baselines are
the ones :mod:`repro.bench.micro` ships (imported, not duplicated, so the
micro-benchmarks and this suite always pin the same reference).  The batched
EM is the one documented exception — reassociated matrix products agree to
machine precision, not bit-for-bit.

The columnar :class:`~repro.dataset.groups.GroupCounts` paths (the audit's
Equation (10), the streaming generalize stage's contingency sums and
re-keying, the delta merge and dirty-chunk diff) are pinned the same way,
against the per-group loops they replaced, kept below as test-local oracles
and driven with hypothesis-generated count matrices.  So are the SPS and DP
chunk kernels: same code block, same per-group records and the same final
generator state as a straight-line loop (for SPS, the four draw phases with
scalar draws wherever numpy's stream allows; for DP, one ``add_noise`` per
group).

The columnar CSV decode (column chunks, one first-seen codebook per column,
the running ``(NA key, SA, n)`` pair table) is pinned against the dict-per-row
``IncrementalGroupIndex`` and the per-row ``read_csv`` it replaced, both kept
below as test-local references, over hypothesis-generated CSV text.
"""

import bisect
import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.micro import _reference_group_index, _reference_sample_counts
from repro.core.criterion import PrivacySpec, max_group_size, value_is_private
from repro.core.sps import _sample_counts, sps_publish, sps_publish_groups
from repro.core.testing import audit_groups
from repro.dataset.groups import GroupCounts, _row_codes, _sorted_runs, keys_sorted_unique
from repro.delta.engine import _dirty_chunks, _locate, _merge
from repro.dataset.adult import generate_adult
from repro.dataset.census import generate_census
from repro.dataset.groups import personal_groups
from repro.dataset.loaders import read_csv, write_csv
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table, code_dtype
from repro.perturbation.uniform import perturb_table
from repro.pipeline.strategy import get_strategy
from repro.reconstruction.iterative import iterative_bayes_frequencies
from repro.reconstruction.mle import (
    mle_frequencies,
    mle_frequencies_clipped,
    mle_frequencies_matrix,
    reconstruct_counts,
)
from repro.stream import ChunkedReader, IncrementalGroupIndex
from sps_records import assert_records_equal, record_rows


def _reference_sample_rows(counts, rates, rng):
    """The one-group sampling loop applied row by row, sharing one generator."""
    return np.array(
        [_reference_sample_counts(row, float(rate), rng) for row, rate in zip(counts, rates)],
        dtype=np.int64,
    ).reshape(counts.shape)


def _sample_matrix(counts, rates, rng):
    """``_sample_counts`` over a count matrix's cells, one draw from ``rng``, as a matrix."""
    groups = GroupCounts.from_dense(np.empty((len(counts), 0)), counts)
    sample = _sample_counts(
        groups.n,
        np.repeat(rates, np.diff(groups.offsets)),
        lambda draw: rng.random(int(draw.sum())),
    )
    return GroupCounts(groups.keys, groups.offsets, groups.codes, sample, groups.m).dense()


class TestSampleCountsVectorization:
    def test_byte_identical_to_loop_across_many_cases(self):
        master = np.random.default_rng(0)
        for _ in range(300):
            n_groups, m = int(master.integers(1, 6)), int(master.integers(1, 64))
            counts = master.integers(0, 50, size=(n_groups, m)).astype(np.int64)
            rates = master.random(n_groups)
            seed = int(master.integers(0, 2**31))
            expected = _reference_sample_rows(counts, rates, np.random.default_rng(seed))
            actual = _sample_matrix(counts, rates, np.random.default_rng(seed))
            assert np.array_equal(expected, actual)
            assert actual.dtype == expected.dtype

    def test_rng_stream_position_matches_loop(self):
        # Whatever follows the sampling step must see the same stream state.
        counts = np.array([[10, 0, 3], [7, 0, 25]], dtype=np.int64)
        rates = np.array([0.37, 0.61])
        ref_rng = np.random.default_rng(42)
        vec_rng = np.random.default_rng(42)
        _reference_sample_rows(counts, rates, ref_rng)
        _sample_matrix(counts, rates, vec_rng)
        assert ref_rng.random() == vec_rng.random()

    def test_never_exceeds_counts_and_preserves_zeroes(self):
        counts = np.array([[0, 1, 100, 0, 7]], dtype=np.int64)
        sampled = _sample_matrix(counts, np.array([0.9]), np.random.default_rng(1))
        assert (sampled <= counts).all()
        assert sampled[0, 0] == 0 and sampled[0, 3] == 0


class TestGroupIndexVectorization:
    @pytest.mark.parametrize("table", [generate_adult(3000, seed=5), generate_census(4000, seed=5)])
    def test_identical_keys_and_counts(self, table):
        reference = _reference_group_index(table)
        groups = personal_groups(table)
        assert groups.keys.tolist() == [list(key) for key in reference]
        assert np.array_equal(groups.dense(), np.vstack(list(reference.values())))
        assert groups.keys.dtype == groups.dense().dtype == np.int64
        assert all(counts.dtype == np.int64 for counts in reference.values())


class TestSPSPublishStability:
    def test_published_bytes_depend_only_on_seed(self):
        table = generate_adult(2000, seed=3)
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=2)
        first = sps_publish(table, spec, rng=7)
        second = sps_publish(table, spec, rng=7)
        assert np.array_equal(first.published.codes, second.published.codes)
        assert_records_equal(first.records, second.records)


class TestBatchedMLE:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.counts = rng.integers(0, 80, size=(60, 9)).astype(float)
        self.counts[self.counts.sum(axis=1) == 0, 0] = 1  # every subset non-empty

    @pytest.mark.parametrize(
        "estimator",
        [
            mle_frequencies,
            mle_frequencies_clipped,
            lambda c, p: reconstruct_counts(c, p),
            lambda c, p: reconstruct_counts(c, p, clip=True),
        ],
    )
    def test_batch_rows_bitwise_equal_per_vector_calls(self, estimator):
        batched = estimator(self.counts, 0.5)
        stacked = np.stack([estimator(row, 0.5) for row in self.counts])
        assert np.array_equal(batched, stacked)

    def test_matrix_form_matches_closed_form_in_batch(self):
        batched = mle_frequencies_matrix(self.counts, 0.5)
        closed = mle_frequencies(self.counts, 0.5)
        assert np.allclose(batched, closed, atol=1e-12)

    def test_clipped_batch_zero_row_falls_back_to_uniform(self):
        # A subset whose raw MLE clips entirely to zero gets the uniform fallback.
        counts = np.array([[9.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]])
        single = mle_frequencies_clipped(counts[1], 0.9)
        batched = mle_frequencies_clipped(counts, 0.9)
        assert np.array_equal(batched[1], single)

    def test_rejects_empty_subset_in_batch(self):
        counts = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            mle_frequencies(counts, 0.5)


class TestBatchedEM:
    def test_batch_agrees_with_per_vector_calls_to_machine_precision(self):
        rng = np.random.default_rng(2)
        counts = rng.integers(1, 150, size=(30, 12)).astype(float)
        batched = iterative_bayes_frequencies(counts, 0.5)
        stacked = np.stack([iterative_bayes_frequencies(row, 0.5) for row in counts])
        assert batched.shape == stacked.shape
        assert np.allclose(batched, stacked, atol=1e-12)

    def test_single_vector_path_unchanged_shape_and_simplex(self):
        result = iterative_bayes_frequencies(np.array([40.0, 10.0, 5.0]), 0.6)
        assert result.shape == (3,)
        assert result.min() >= 0 and np.isclose(result.sum(), 1.0)

    def test_batch_preserves_leading_shape(self):
        counts = np.ones((2, 3, 4))
        result = iterative_bayes_frequencies(counts, 0.5)
        assert result.shape == (2, 3, 4)


class TestNaiveBayesVectorizedFit:
    def test_fit_matches_per_group_reference(self):
        from repro.analysis.learning import NaiveBayesOnReconstruction

        table = generate_adult(2500, seed=9)
        perturbed = perturb_table(table, 0.5, rng=4)
        model = NaiveBayesOnReconstruction(0.5).fit(perturbed)

        # Reference: the pre-vectorization per-attribute-value loop.
        schema = perturbed.schema
        m = schema.sensitive_domain_size
        for column, attribute in enumerate(schema.public):
            likelihood = np.zeros((attribute.size, m))
            for value_code in range(attribute.size):
                mask = perturbed.public_codes[:, column] == value_code
                if not mask.any():
                    continue
                counts = perturbed.sensitive_counts(mask)
                frequencies = mle_frequencies_clipped(counts, 0.5, m)
                likelihood[value_code] = frequencies * mask.sum()
            column_totals = likelihood.sum(axis=0, keepdims=True)
            likelihood = (likelihood + 1.0) / (column_totals + 1.0 * attribute.size)
            assert np.array_equal(model._conditionals[column], likelihood)


# --------------------------------------------------------------------- #
# Columnar group paths vs the per-group loops they replaced
# --------------------------------------------------------------------- #

MAX_CODE = 3  # public codes are drawn from 0..MAX_CODE


def _reference_audit(spec, groups):
    """The per-group ``audit_group`` loop: (|g|, s_g, verdict) per group."""
    verdicts = []
    for counts in groups.dense():
        size = int(counts.sum())
        frequency = float(counts.max() / counts.sum()) if size else 0.0
        verdicts.append(
            (size, max_group_size(spec, frequency), value_is_private(spec, size, frequency))
        )
    return verdicts


def _reference_conditional_sa_counts(groups, column, m):
    """``conditional_sa_counts``: SA vectors summed per observed value of ``column``."""
    counts = {}
    for key, vector in zip(groups.keys.tolist(), groups.dense(), strict=True):
        value = key[column]
        if value not in counts:
            counts[value] = np.zeros(m, dtype=np.int64)
        counts[value] += vector
    return counts


def _reference_apply_code_maps(groups, code_maps):
    """``apply_code_maps``: re-key every group, merge collisions, sort by key."""
    merged = {}
    for key, vector in zip(groups.keys.tolist(), groups.dense(), strict=True):
        mapped = tuple(int(code_maps[i][code]) for i, code in enumerate(key))
        merged[mapped] = merged[mapped] + vector if mapped in merged else vector.copy()
    return sorted(merged.items())


def _reference_merge_groups(base, appended):
    """The delta ``_merge_groups`` over value-keyed groups."""
    merged = {key: dict(counts) for key, counts in base}
    for key, counts in appended:
        into = merged.setdefault(key, {})
        for value, count in counts.items():
            into[value] = into.get(value, 0) + count
    return tuple((key, merged[key]) for key in sorted(merged))


def _reference_dirty_chunks(base, merged, chunk_size, n_chunks):
    """The delta ``_dirty_chunks``: position-wise diff of value-keyed groups."""
    dirty = set()
    for i in range(n_chunks):
        lo = i * chunk_size
        hi = min(lo + chunk_size, len(merged))
        for p in range(lo, hi):
            if p >= len(base) or merged[p] != base[p]:
                dirty.add(i)
                break
    return dirty


@st.composite
def group_counts(draw, k=2, max_count=40):
    """Sorted unique keys with non-empty count rows; SA columns may be all zero."""
    m = draw(st.integers(2, 4))
    keys = sorted(draw(st.lists(
        st.tuples(*[st.integers(0, MAX_CODE)] * k), unique=True, max_size=10,
    )))
    rows = draw(st.lists(
        st.lists(st.integers(0, max_count), min_size=m, max_size=m).filter(any),
        min_size=len(keys), max_size=len(keys),
    ))
    return GroupCounts.from_dense(
        np.array(keys, dtype=np.int64).reshape(len(keys), k),
        np.array(rows, dtype=np.int64).reshape(len(keys), m),
    )


def specs(m):
    return st.builds(
        PrivacySpec,
        lam=st.floats(0.05, 1.5),
        delta=st.floats(0.05, 0.95),
        retention_probability=st.floats(0.05, 1.0),
        domain_size=st.just(m),
    )


def _assert_audit_matches_reference(spec, groups):
    audit = audit_groups(spec, groups, int(groups.dense().sum()))
    reference = _reference_audit(spec, groups)
    assert audit.sizes.tolist() == [size for size, _, _ in reference]
    # s_g bit-identical (float ==, infinities included), same verdicts.
    assert audit.thresholds.tolist() == [threshold for _, threshold, _ in reference]
    assert audit.private.tolist() == [verdict for _, _, verdict in reference]
    assert list(zip(
        map(tuple, audit.keys.tolist()), audit.sizes.tolist(), audit.thresholds.tolist(),
        audit.private.tolist(), strict=True,
    )) == [
        (tuple(key), size, threshold, verdict)
        for key, (size, threshold, verdict) in zip(groups.keys.tolist(), reference, strict=True)
    ]
    return audit


class TestColumnarAudit:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_per_group_loop(self, data):
        groups = data.draw(group_counts())
        spec = data.draw(specs(groups.dense().shape[1]))
        _assert_audit_matches_reference(spec, groups)

    def test_boundary_sizes_and_zero_sa_column(self):
        # Every two-value split of every size up to 250, plus an SA column no
        # group uses: crosses |g| == floor(s_g) and floor(s_g) + 1.
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=3)
        counts = np.array(
            [[a, n - a, 0] for n in range(1, 251) for a in range(n + 1)], dtype=np.int64
        )
        groups = GroupCounts.from_dense(np.arange(len(counts)).reshape(-1, 1), counts)
        audit = _assert_audit_matches_reference(spec, groups)
        floors = np.floor(audit.thresholds)
        assert (audit.sizes == floors).any() and (audit.sizes == floors + 1).any()
        assert audit.private[audit.sizes == floors].all()
        assert not audit.private[audit.sizes == floors + 1].any()

    def test_empty_chunk_slice(self):
        groups = GroupCounts.from_dense(np.array([[0, 1], [2, 0]]), np.array([[3, 1], [0, 2]]))
        empty = groups[1:1]
        assert len(empty) == 0 and empty.keys.shape == (0, 2) and empty.dense().shape == (0, 2)
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=2)
        audit = audit_groups(spec, empty, 0)
        assert audit.n_groups == 0 and audit.is_private and audit.keys.shape == (0, 2)
        codes, records = sps_publish_groups(empty, spec, 0, n_public=2, dtype=np.int64)
        assert codes.shape == (0, 3) and len(records) == 0 and records.keys.shape == (0, 2)


class TestColumnarGeneralize:
    @settings(max_examples=60, deadline=None)
    @given(groups=group_counts())
    def test_column_totals_match_conditional_sa_counts(self, groups):
        m = groups.dense().shape[1]
        for column in range(groups.keys.shape[1]):
            totals = groups.column_totals(column)
            reference = _reference_conditional_sa_counts(groups, column, m)
            assert {v: c.tolist() for v, c in totals.items()} == {
                v: c.tolist() for v, c in reference.items()
            }

    @settings(max_examples=60, deadline=None)
    @given(groups=group_counts(), data=st.data())
    def test_recode_matches_apply_code_maps(self, groups, data):
        code_maps = [
            data.draw(st.lists(st.integers(0, 2), min_size=MAX_CODE + 1, max_size=MAX_CODE + 1))
            for _ in range(groups.keys.shape[1])
        ]
        recoded = groups.recode([np.array(code_map) for code_map in code_maps])
        reference = _reference_apply_code_maps(groups, code_maps)
        assert recoded.keys.tolist() == [list(key) for key, _ in reference]
        assert recoded.dense().tolist() == [vector.tolist() for _, vector in reference]


def _dict_sum(entries, m):
    """``{key: SA count list}`` summed over ``(key, counts)`` entries, sorted by key."""
    sums = {}
    for key, counts in entries:
        into = sums.setdefault(tuple(key), [0] * m)
        for code, n in enumerate(counts):
            into[code] += n
    return sorted(sums.items())


class TestGroupCountsReductions:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_aggregate_matches_dict_sum(self, data):
        # Two-column keys over a 4 x 4 domain, so keys repeat inside a part
        # and across parts.
        m = data.draw(st.integers(1, 3))
        entry = st.tuples(
            st.tuples(st.integers(0, MAX_CODE), st.integers(0, MAX_CODE)),
            st.lists(st.integers(0, 9), min_size=m, max_size=m),
        )
        parts = data.draw(st.lists(st.lists(entry, max_size=8), min_size=1, max_size=3))
        aggregated = GroupCounts.aggregate(*(
            GroupCounts.from_dense(
                np.array([key for key, _ in part], dtype=np.int64).reshape(len(part), 2),
                np.array([counts for _, counts in part], dtype=np.int64).reshape(len(part), m),
            )
            for part in parts
        ))
        reference = _dict_sum([entry for part in parts for entry in part], m)
        assert aggregated.keys.tolist() == [list(key) for key, _ in reference]
        assert aggregated.dense().tolist() == [counts for _, counts in reference]

    @settings(max_examples=80, deadline=None)
    @given(rows=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2), st.integers(1, 9)),
        min_size=1, max_size=30,
    ))
    def test_weighted_tabulate_sums_repeated_cells(self, rows):
        table = np.array(rows, dtype=np.int64)
        groups = GroupCounts.tabulate(table[:, :2], table[:, 2], 3, table[:, 3])
        one_hot = [[n if code == sa else 0 for code in range(3)] for *_, sa, n in rows]
        reference = _dict_sum(zip(table[:, :2].tolist(), one_hot, strict=True), 3)
        assert groups.keys.tolist() == [list(key) for key, _ in reference]
        assert groups.dense().tolist() == [counts for _, counts in reference]

    @settings(max_examples=80, deadline=None)
    @given(keys=st.lists(
        st.tuples(st.integers(0, 2**62), st.integers(0, 3), st.integers(0, 2**62)), max_size=8
    ))
    def test_keys_sorted_unique_is_strict_lexicographic_order(self, keys):
        # Codes up to 2**62 overflow any mixed-radix row code.
        def matrix(rows):
            return np.array(rows, dtype=np.int64).reshape(len(rows), 3)

        assert keys_sorted_unique(matrix(keys)) == (keys == sorted(set(keys)))
        assert keys_sorted_unique(matrix(sorted(set(keys))))


BASE_CITIES = ["athens", "bergen", "cairo"]
BASE_JOBS = ["eng", "nurse"]
BASE_DISEASES = ["cold", "flu"]


def value_groups(cities, jobs, diseases):
    """Value-keyed groups sorted by key, as a delta state stores them."""
    return st.dictionaries(
        st.tuples(st.sampled_from(cities), st.sampled_from(jobs)),
        st.dictionaries(st.sampled_from(diseases), st.integers(1, 9), min_size=1),
        min_size=1,
        max_size=8,
    ).map(lambda groups: tuple(sorted(groups.items())))


def _encode_value_keyed(header, sensitive, groups):
    """The schema and :class:`GroupCounts` of value-keyed groups.

    Each domain is the sorted set of values its column takes across the
    groups, as the stream index infers it from the rows themselves.
    """
    entries = [
        (*key, value, n) for key, counts in groups for value, n in counts.items()
    ]
    *columns, weights = zip(*entries)
    names = [*(name for name in header if name != sensitive), sensitive]
    attributes = [
        Attribute(name, tuple(sorted(set(column)))) for name, column in zip(names, columns)
    ]
    codes = np.array(
        [[attr.values.index(value) for value in column] for attr, column in zip(attributes, columns)],
        dtype=np.int64,
    )
    schema = Schema(public=attributes[:-1], sensitive=attributes[-1])
    grouped = GroupCounts.tabulate(
        codes[:-1].T, codes[-1], schema.sensitive_domain_size, np.array(weights, dtype=np.int64)
    )
    return schema, grouped


def _decoded(schema, groups):
    """Value-keyed ``((NA values...), {SA value: count})`` pairs, in group order."""
    sensitive = schema.sensitive.values
    return tuple(
        (
            tuple(attr.values[code] for attr, code in zip(schema.public, key)),
            {sensitive[code]: n for code, n in enumerate(counts) if n},
        )
        for key, counts in zip(groups.keys.tolist(), groups.dense().tolist())
    )


class TestColumnarDeltaMerge:
    @settings(max_examples=80, deadline=None)
    @given(
        base=value_groups(BASE_CITIES, BASE_JOBS, BASE_DISEASES),
        # Appends may introduce new public values and new sensitive values.
        appended=value_groups(BASE_CITIES + ["aachen", "zagreb"], BASE_JOBS + ["pilot"],
                              BASE_DISEASES + ["asthma", "zika"]),
        chunk_size=st.integers(1, 4),
    )
    def test_merge_and_dirty_chunks_match_value_keyed_loops(self, base, appended, chunk_size):
        header = ["City", "Job", "Disease"]
        base_schema, base_groups = _encode_value_keyed(header, "Disease", base)
        appended_schema, appended_groups = _encode_value_keyed(header, "Disease", appended)
        assert _decoded(base_schema, base_groups) == base

        union, merged, positions, new = _merge(
            base_schema, base_groups, appended_schema, appended_groups
        )
        reference = _reference_merge_groups(base, appended)
        assert _decoded(union, merged) == reference
        n_chunks = -(-len(reference) // chunk_size)
        assert _dirty_chunks(positions, new, len(merged), chunk_size) == _reference_dirty_chunks(
            base, reference, chunk_size, n_chunks
        )


    @settings(max_examples=80, deadline=None)
    @given(
        keys=st.lists(st.tuples(st.integers(0, MAX_CODE), st.integers(0, MAX_CODE)), max_size=10),
        probes=st.lists(
            st.tuples(st.integers(0, MAX_CODE), st.integers(0, MAX_CODE)), min_size=1, max_size=6
        ),
    )
    def test_locate_matches_bisect_on_row_codes_and_lexicographic_ranks(self, keys, probes):
        keys, probes = sorted(set(keys)), sorted(set(probes))
        expected_at = [bisect.bisect_left(keys, probe) for probe in probes]
        expected_found = [probe in keys for probe in probes]
        # Radices of 4 code rows as int64; radices of 2**40 overflow it and
        # take the lexicographic fallback.
        for radix in (MAX_CODE + 1, 2**40):
            at, found = _locate(
                np.array(keys, dtype=np.int64).reshape(len(keys), 2),
                np.array(probes, dtype=np.int64),
                [radix, radix],
            )
            assert at.tolist() == expected_at and found.tolist() == expected_found


# --------------------------------------------------------------------- #
# SPS and DP chunk kernels against their per-group loops
# --------------------------------------------------------------------- #


def _stack(blocks, width):
    return np.vstack(blocks) if blocks else np.empty((0, width), dtype=np.int64)


def _keyed(key, codes):
    block = np.empty((codes.size, len(key) + 1), dtype=np.int64)
    block[:, :-1] = key
    block[:, -1] = codes
    return block


def _reference_sps_chunk(groups, spec, rng):
    """SPS over a chunk as a straight-line loop of its four draw phases.

    Phases 1, 2 and 4 draw one scalar ``random()`` at a time, which numpy
    fills from the same stream as the kernel's array draws; the bounded
    integers of phase 3 buffer 32-bit halves across one call, so they stay
    one bulk call.
    """
    p, m = spec.retention_probability, spec.domain_size
    plans = []  # (key, counts, size, threshold, sampled, sample counts)
    # Phase 1: sampling, one draw per non-integer entry, row-major.
    for key, counts in zip(groups.keys.tolist(), groups.dense().tolist(), strict=True):
        size = sum(counts)
        threshold = max_group_size(spec, max(counts) / size)
        if size <= threshold:
            plans.append((key, size, threshold, False, counts))
            continue
        sample = []
        for count in counts:
            scaled = count * (threshold / size)
            kept = math.floor(scaled)
            if scaled - kept > 0 and rng.random() < scaled - kept:
                kept += 1
            sample.append(min(kept, count))
        if sum(sample) == 0:
            sample[counts.index(max(counts))] = 1
        plans.append((key, size, threshold, True, sample))
    # Phase 2: retain or replace, one draw per perturbed record, group order.
    originals = [
        [code for code, n in enumerate(sample) for _ in range(n)] for *_, sample in plans
    ]
    retained = [[rng.random() < p for _ in records] for records in originals]
    # Phase 3: the replacement values, one bulk call, one per record.
    replacements = iter(rng.integers(0, m, sum(map(len, originals))).tolist())
    perturbed = [
        [
            code if keep else replacement
            for code, keep, replacement in zip(records, keeps, replacements)
        ]
        for records, keeps in zip(originals, retained)
    ]
    # Phase 4: scaling, one draw per perturbed record of the sampled groups.
    blocks, records = [], []
    for (key, size, threshold, sampled, _), codes in zip(plans, perturbed):
        published = codes
        if sampled:
            ratio = size / len(codes)
            floor = math.floor(ratio)
            published = [
                code for code in codes
                for _ in range(floor + (rng.random() < ratio - floor))
            ]
        blocks.append(_keyed(key, np.array(published, dtype=np.int64)))
        records.append((tuple(key), size, threshold, sampled, len(codes), len(published)))
    return _stack(blocks, groups.keys.shape[1] + 1), records


def _reference_dp_chunk(mechanism, groups, rng):
    """One ``add_noise`` call per group, the DP kernel's former loop."""
    m = groups.dense().shape[1]
    blocks = []
    for key, counts in zip(groups.keys.tolist(), groups.dense(), strict=True):
        noisy = np.asarray(mechanism.add_noise(counts.astype(float), rng))
        published = np.maximum(0, np.rint(noisy)).astype(np.int64)
        blocks.append(_keyed(key, np.repeat(np.arange(m, dtype=np.int64), published)))
    return _stack(blocks, groups.keys.shape[1] + 1)


def _assert_sps_kernel_matches_loop(groups, spec, seed):
    expected_rng = np.random.default_rng(seed)
    expected_codes, expected_records = _reference_sps_chunk(groups, spec, expected_rng)
    rng = np.random.default_rng(seed)
    codes, records = sps_publish_groups(
        groups, spec, rng, n_public=groups.keys.shape[1], dtype=np.int64
    )
    assert codes.dtype == np.int64 and np.array_equal(codes, expected_codes)
    assert record_rows(records) == expected_records
    assert rng.bit_generator.state == expected_rng.bit_generator.state
    return records


def _chunk(rows, k=1):
    counts = np.array(rows, dtype=np.int64).reshape(len(rows), -1)
    keys = np.arange(len(rows) * k, dtype=np.int64).reshape(len(rows), k)
    return GroupCounts.from_dense(keys, counts)


def _schema(k, m):
    values = tuple(str(v) for v in range(MAX_CODE + 1))
    return Schema(
        public=tuple(Attribute(f"A{i}", values) for i in range(k)),
        sensitive=Attribute("S", tuple(str(v) for v in range(m))),
    )


class TestSPSKernel:
    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_matches_four_phase_loop(self, data, seed):
        groups = data.draw(group_counts(max_count=400))
        spec = data.draw(specs(groups.dense().shape[1]))
        _assert_sps_kernel_matches_loop(groups, spec, seed)

    def test_sampled_groups_with_zero_sa_columns(self):
        # Column 1 is zero in every group; groups 0 and 2 exceed s_g.
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=3)
        groups = _chunk([[400, 0, 20], [3, 0, 1], [0, 0, 250], [7, 0, 7]])
        records = _assert_sps_kernel_matches_loop(groups, spec, 11)
        assert records.sampled.tolist() == [True, False, True, False]
        assert (records.sample_sizes[records.sampled] < records.sizes[records.sampled]).all()

    def test_sample_rounding_to_zero_keeps_one_record(self):
        # s_g ~ 0.05 < 1: the sample rounds to zero unless its one draw hits,
        # and the kernel must then keep one record of the dominant value.
        spec = PrivacySpec(lam=1.5, delta=0.95, retention_probability=1.0, domain_size=2)
        groups = _chunk([[5, 0], [0, 9], [4, 1], [6, 0], [0, 3], [8, 0]])
        records = _assert_sps_kernel_matches_loop(groups, spec, 3)
        assert records.sampled.all() and (records.thresholds < 1).all()
        assert (records.sample_sizes == 1).all()
        assert (records.published_sizes >= 1).all()

    @pytest.mark.parametrize("rows", [[[900, 100]], [[2, 1]]], ids=["sampled", "unsampled"])
    def test_one_group_chunk(self, rows):
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=2)
        records = _assert_sps_kernel_matches_loop(_chunk(rows, k=2), spec, 5)
        assert len(records) == 1

    def test_empty_chunk(self):
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=2)
        empty = GroupCounts.from_dense(np.empty((0, 2)), np.empty((0, 2)))
        records = _assert_sps_kernel_matches_loop(empty, spec, 5)
        assert len(records) == 0 and records.n_sampled_groups == 0

    def test_count_width_must_match_the_spec(self):
        spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=3)
        with pytest.raises(ValueError, match="width"):
            sps_publish_groups(_chunk([[1, 2]]), spec, 0, n_public=1, dtype=np.int64)


class TestDPKernels:
    @pytest.mark.parametrize("name", ["dp-laplace", "dp-gaussian"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), epsilon=st.floats(0.2, 5.0))
    def test_matches_per_group_add_noise_loop(self, name, data, seed, epsilon):
        groups = data.draw(group_counts())
        strategy = get_strategy(name)
        resolved = strategy.resolve({"epsilon": epsilon})
        schema = _schema(groups.keys.shape[1], groups.dense().shape[1])
        kernel = strategy.chunk_publisher(schema, None, resolved)
        expected_rng = np.random.default_rng(seed)
        expected = _reference_dp_chunk(strategy._mechanism(resolved), groups, expected_rng)
        rng = np.random.default_rng(seed)
        codes, sizes, records = kernel(groups, [rng], np.array([0, len(groups)]))
        assert codes.dtype == code_dtype(schema) and np.array_equal(codes, expected)
        assert sizes.sum() == len(codes)
        assert records is None
        assert rng.bit_generator.state == expected_rng.bit_generator.state


# --------------------------------------------------------------------- #
# The columnar CSV decode against the per-row readers it replaced
# --------------------------------------------------------------------- #


class _ReferenceGroupIndex:
    """The dict-per-row ``IncrementalGroupIndex``: one tuple-keyed count per row.

    Takes rows (NA values then the SA value), as the reader yielded before
    it yielded column chunks.
    """

    def __init__(self, public_names, sensitive):
        self._names = list(public_names) + [sensitive]
        self._codebooks = [{} for _ in self._names]
        self._counts = {}
        self._remaps = None

    def update_encoded(self, rows):
        block = np.empty((len(rows), len(self._codebooks)), dtype=np.int64)
        for r, row in enumerate(rows):
            codes = tuple(
                book.setdefault(value, len(book))
                for book, value in zip(self._codebooks, row, strict=True)
            )
            block[r] = codes
            self._counts[codes] = self._counts.get(codes, 0) + 1
        return block

    def remap_block(self, block):
        remapped = np.empty_like(block)
        for i, remap in enumerate(self._remaps):
            remapped[:, i] = remap[block[:, i]]
        return remapped

    def finalize(self):
        remaps, attributes = [], []
        for name, book in zip(self._names, self._codebooks, strict=True):
            values = sorted(book)
            remap = np.empty(len(book), dtype=np.int64)
            remap[[book[value] for value in values]] = np.arange(len(values))
            remaps.append(remap)
            attributes.append(Attribute(name, tuple(values)))
        self._remaps = remaps
        schema = Schema(public=tuple(attributes[:-1]), sensitive=attributes[-1])
        pairs = self.remap_block(np.array(list(self._counts), dtype=np.int64))
        weights = np.fromiter(self._counts.values(), dtype=np.int64, count=len(self._counts))
        groups = GroupCounts.tabulate(
            pairs[:, :-1], pairs[:, -1], schema.sensitive_domain_size, weights
        )
        return schema, groups


def _reference_read_csv(text, sensitive):
    """The per-row ``read_csv``: reorder each row, a per-row schema pass, ``from_records``."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader)
    sensitive_index = header.index(sensitive)
    public_indices = [i for i in range(len(header)) if i != sensitive_index]
    rows = [
        [row[i] for i in public_indices] + [row[sensitive_index]] for row in reader if row
    ]
    seen = [set() for _ in header]
    for row in rows:
        for column, value in enumerate(row):
            seen[column].add(value)
    schema = Schema(
        public=tuple(
            Attribute(header[i], tuple(sorted(seen[j]))) for j, i in enumerate(public_indices)
        ),
        sensitive=Attribute(sensitive, tuple(sorted(seen[-1]))),
    )
    return Table.from_records(schema, rows)


#: Cell values that stress the CSV dialect: empty, delimiter, quote, line
#: breaks inside a quoted field, non-ASCII text.
_CELLS = ["", "a", "a, b", 'say "hi"', "two\nlines", "cr\r\nlf", "Zürich", "東京", " pad "]


@st.composite
def csv_sources(draw):
    """(CSV text, header, sensitive name, rows in file order) with 2-4 columns.

    The last row carries NA and SA values no earlier row has, so with a
    small ``chunk_rows`` they are first seen in a late chunk.
    """
    width = draw(st.integers(2, 4))
    header = [f"C{i}" for i in range(width)]
    sensitive = header[draw(st.integers(0, width - 1))]
    rows = draw(
        st.lists(st.lists(st.sampled_from(_CELLS), min_size=width, max_size=width),
                 min_size=1, max_size=40)
    )
    if draw(st.booleans()):
        rows.append([f"late-{i}-é" for i in range(width)])
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue(), header, sensitive, rows


def _sa_last(rows, header, sensitive):
    at = header.index(sensitive)
    return [[v for i, v in enumerate(row) if i != at] + [row[at]] for row in rows]


def _index_in_chunks(text, sensitive, chunk_rows, seen_pairs=None):
    """Read ``text`` in column chunks; return the index and its provisional blocks.

    With ``seen_pairs`` (the SA-last rows in order), check after every chunk
    that the running pair table holds exactly the distinct pairs seen so far.
    """
    reader = ChunkedReader(io.StringIO(text, newline=""), sensitive, chunk_rows=chunk_rows)
    index, blocks = None, []
    for chunk in reader.chunks():
        if index is None:
            index = IncrementalGroupIndex(reader.public_names, sensitive)
        blocks.append(index.update_encoded(chunk))
        if seen_pairs is not None:
            distinct = {tuple(row) for row in seen_pairs[: reader.rows_read]}
            assert index.n_pairs == len(distinct)
    return index, blocks


class TestColumnarDecode:
    @settings(max_examples=120, deadline=None)
    @given(source=csv_sources(), data=st.data())
    def test_index_matches_dict_per_row_reference(self, source, data):
        text, header, sensitive, rows = source
        chunk_rows = data.draw(st.integers(1, len(rows)))
        ordered = _sa_last(rows, header, sensitive)

        reference = _ReferenceGroupIndex([h for h in header if h != sensitive], sensitive)
        reference_blocks = [
            reference.update_encoded(ordered[start:start + chunk_rows])
            for start in range(0, len(ordered), chunk_rows)
        ]
        expected_schema, expected_groups = reference.finalize()

        index, blocks = _index_in_chunks(text, sensitive, chunk_rows, seen_pairs=ordered)
        schema, groups = index.finalize()
        assert schema == expected_schema
        assert groups == expected_groups
        assert index.n_rows == len(rows)
        assert np.array_equal(
            index.remap_block(np.vstack(blocks)),
            reference.remap_block(np.vstack(reference_blocks)),
        )
        # The decoded cells round-trip: remapped codes decode to the rows.
        decoded = [list(schema.decode_record(r)) for r in index.remap_block(np.vstack(blocks))]
        assert decoded == ordered

    @settings(max_examples=80, deadline=None)
    @given(source=csv_sources(), data=st.data())
    def test_finalize_does_not_depend_on_chunk_rows(self, source, data):
        text, _, sensitive, rows = source
        chunk_rows = data.draw(st.integers(1, len(rows)))
        whole, _ = _index_in_chunks(text, sensitive, len(rows))
        chunked, _ = _index_in_chunks(text, sensitive, chunk_rows)
        assert whole.finalize() == chunked.finalize()

    @settings(max_examples=80, deadline=None)
    @given(source=csv_sources())
    def test_read_csv_matches_per_row_reference(self, source):
        text, _, sensitive, rows = source
        table = read_csv(io.StringIO(text, newline=""), sensitive)
        assert table == _reference_read_csv(text, sensitive)
        index, _ = _index_in_chunks(text, sensitive, 3)
        assert (table.schema, personal_groups(table)) == index.finalize()

    def test_census_read_and_index_match_references(self):
        table = generate_census(3_000, seed=4)
        buffer = io.StringIO(newline="")
        write_csv(table, buffer)
        text = buffer.getvalue()
        sensitive = table.schema.sensitive_name
        loaded = read_csv(io.StringIO(text, newline=""), sensitive)
        assert loaded == _reference_read_csv(text, sensitive)
        assert loaded.records() == table.records()
        index, _ = _index_in_chunks(text, sensitive, 700)
        assert index.finalize() == (loaded.schema, personal_groups(loaded))

    @settings(max_examples=60, deadline=None)
    @given(keys=st.lists(st.lists(st.integers(-1, 6), min_size=3, max_size=3), max_size=50))
    def test_sorted_runs_is_the_stable_lexicographic_order(self, keys):
        keys = np.array(keys, dtype=np.int64).reshape(-1, 3)
        order, starts = _sorted_runs(keys)
        assert np.array_equal(order, np.lexsort(keys.T[::-1]))
        ordered = [tuple(row) for row in keys[order].tolist()]
        assert starts.tolist() == [
            i for i, row in enumerate(ordered) if i == 0 or row != ordered[i - 1]
        ]

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(0, 40),
        tops=st.lists(st.sampled_from([0, 1, 6, 5_000, 2**40, 2**61]), min_size=1, max_size=3),
    )
    def test_sorted_runs_order_is_the_stable_sort(self, data, n, tops):
        # Small codes take the one unstable argsort of distinct keys; codes
        # times n past int64 the stable argsort; radix products past int64
        # the lexsort.  All three must give the stable order.
        keys = np.array(
            [[data.draw(st.integers(0, top)) for top in tops] for _ in range(n)],
            dtype=np.int64,
        ).reshape(n, len(tops))
        order, _ = _sorted_runs(keys)
        codes = _row_codes(keys)
        expected = (
            np.lexsort(keys.T[::-1]) if codes is None else np.argsort(codes, kind="stable")
        )
        assert np.array_equal(order, expected)

    def test_sorted_runs_past_the_overflow_bound(self):
        # Codes fit in int64 but codes * n does not: the stable argsort runs.
        keys = np.array([[2**61], [3], [2**61], [0], [3], [2**61 - 1]], dtype=np.int64)
        assert (int(_row_codes(keys).max()) + 1) * len(keys) >= 2**63
        order, starts = _sorted_runs(keys)
        assert order.tolist() == [3, 1, 4, 5, 0, 2]
        assert starts.tolist() == [0, 1, 3, 4]

    def test_sorted_runs_keeps_equal_keys_in_row_order(self):
        # Many rows over few keys: an unstable sort would reorder ties.
        keys = np.random.default_rng(1).integers(0, 3, size=(5_000, 2))
        order, _ = _sorted_runs(keys)
        assert np.array_equal(order, np.lexsort(keys.T[::-1]))

    def test_wide_keys_fall_back_to_a_column_sort(self):
        # 40 columns of 4,000 distinct values each overflow any int64
        # mixed-radix key; the pair table must still merge and sort them.
        rng = np.random.default_rng(0)
        cells = rng.integers(0, 4_000, size=(60, 41)).astype(str)
        cells[30:] = cells[:30]  # every row appears twice
        header = [f"C{i}" for i in range(41)]
        buffer = io.StringIO(newline="")
        csv.writer(buffer).writerows([header, *cells.tolist()])
        index, _ = _index_in_chunks(buffer.getvalue(), "C40", 7)
        assert index.n_pairs == 30
        _, groups = index.finalize()
        assert groups.sizes().tolist() == [2] * 30
        assert np.array_equal(groups.keys, np.unique(groups.keys, axis=0))
