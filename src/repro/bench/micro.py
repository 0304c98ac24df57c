"""Micro-benchmarks of the vectorized hot paths against their loop baselines.

This PR's optimizations replaced per-record / per-group Python loops with
numpy bulk operations in four places: the SPS sampling step, the
personal-group index build, the closed-form MLE over many groups, and the EM
reconstruction over many groups.  The original loop implementations are kept
here as *reference baselines* so every ``repro-bench run --suite core``:

1. re-verifies that the shipped vectorized path produces the same output as
   the loop it replaced (bit-identical where the operations are elementwise
   or integer; to machine precision for the reassociated EM products), and
2. records the measured before/after seconds in the emitted
   ``BENCH_core.json`` — the perf claims stay attached to the numbers that
   back them.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.sps import _sample_counts
from repro.dataset.adult import generate_adult
from repro.dataset.groups import personal_groups
from repro.dataset.table import Table
from repro.reconstruction.iterative import iterative_bayes_frequencies
from repro.reconstruction.mle import mle_frequencies_clipped
from repro.bench.timing import TimingSpec, time_callable
from repro.utils.rng import default_rng


# --------------------------------------------------------------------- #
# Reference (pre-vectorization) implementations
# --------------------------------------------------------------------- #

def _stochastic_round(value: float, rng: np.random.Generator) -> int:
    """Round ``value`` down, plus one with probability equal to its fractional part."""
    floor = int(np.floor(value))
    fraction = value - floor
    if fraction > 0 and rng.random() < fraction:
        floor += 1
    return floor


def _reference_sample_counts(
    counts: np.ndarray, sampling_rate: float, rng: np.random.Generator
) -> np.ndarray:
    """The original per-SA-value sampling loop of ``repro.core.sps``, for one group."""
    sampled = np.zeros_like(counts)
    for value, count in enumerate(counts):
        if count == 0:
            continue
        sampled[value] = min(int(count), _stochastic_round(count * sampling_rate, rng))
    return sampled


def _reference_group_index(table: Table) -> dict[tuple[int, ...], "PersonalGroup"]:
    """The original ``GroupIndex._build`` loop: one bincount per group."""
    from repro.dataset.groups import PersonalGroup

    groups: dict[tuple[int, ...], PersonalGroup] = {}
    public = table.public_codes
    order = np.lexsort(public.T[::-1])
    sorted_public = public[order]
    change = np.any(np.diff(sorted_public, axis=0) != 0, axis=1)
    boundaries = np.concatenate(([0], np.flatnonzero(change) + 1, [len(table)]))
    m = table.schema.sensitive_domain_size
    sensitive = table.sensitive_codes
    for start, stop in zip(boundaries[:-1], boundaries[1:], strict=True):
        indices = order[start:stop]
        key = tuple(int(c) for c in sorted_public[start])
        counts = np.bincount(sensitive[indices], minlength=m).astype(np.int64)
        groups[key] = PersonalGroup(key=key, indices=indices, sensitive_counts=counts)
    return groups


# --------------------------------------------------------------------- #
# The benchmark entries
# --------------------------------------------------------------------- #

def _entry(
    name: str,
    description: str,
    n: int,
    baseline_seconds: float,
    vectorized_seconds: float,
    max_abs_diff: float,
) -> dict[str, Any]:
    return {
        "name": name,
        "description": description,
        "n": n,
        "baseline_seconds": baseline_seconds,
        "vectorized_seconds": vectorized_seconds,
        "speedup": baseline_seconds / vectorized_seconds if vectorized_seconds > 0 else 0.0,
        "max_abs_diff": float(max_abs_diff),
        "identical": max_abs_diff == 0.0,
    }


def run_micro_benchmarks(
    seed: int, tiny: bool = False, timing: TimingSpec = TimingSpec(warmup=1, repeats=3)
) -> list[dict[str, Any]]:
    """Time each vectorized hot path against its loop baseline.

    Output sizes and operation counts depend only on ``seed`` and ``tiny``;
    both implementations of each pair consume identical RNG streams, so their
    outputs are directly comparable (and compared, every run).
    """
    rng = default_rng(seed)
    entries: list[dict[str, Any]] = []

    # --- SPS sampling step: per-SA-value loop vs one vectorised draw. ------ #
    n_groups = 200 if tiny else 2_000
    m = 64
    count_rows = rng.integers(0, 40, size=(n_groups, m)).astype(np.int64)
    rates = rng.random(n_groups)
    draw_seed = int(rng.integers(0, 2**31))

    def _reference_all() -> np.ndarray:
        draw_rng = default_rng(draw_seed)
        return np.vstack([
            _reference_sample_counts(row, float(rate), draw_rng)
            for row, rate in zip(count_rows, rates, strict=True)
        ])

    baseline, base_time = time_callable(_reference_all, timing)
    vectorized, vec_time = time_callable(
        lambda: _sample_counts(count_rows, rates, default_rng(draw_seed)), timing
    )
    entries.append(
        _entry(
            "sps-sample-counts",
            "SPS Sampling step over personal-group SA histograms "
            f"({n_groups} groups, m={m})",
            n_groups,
            base_time.best,
            vec_time.best,
            float(np.abs(baseline - vectorized).max()),
        )
    )

    # --- Personal-group index build: per-group bincount vs one bincount. --- #
    table_rows = 4_000 if tiny else 30_000
    table = generate_adult(table_rows, seed=seed)
    ref_groups, base_time = time_callable(lambda: _reference_group_index(table), timing)
    new_index, vec_time = time_callable(lambda: personal_groups(table), timing)
    baseline = np.vstack([group.sensitive_counts for group in ref_groups.values()])
    vectorized = new_index.groups.counts
    entries.append(
        _entry(
            "group-index-build",
            f"GroupIndex construction on ADULT ({table_rows} rows)",
            table_rows,
            base_time.best,
            vec_time.best,
            float(np.abs(baseline - vectorized).max()),
        )
    )

    # --- Closed-form MLE: one call per group vs one batched call. ---------- #
    n_subsets = 500 if tiny else 5_000
    mle_m = 50
    counts = rng.integers(1, 200, size=(n_subsets, mle_m)).astype(float)
    baseline, base_time = time_callable(
        lambda: np.vstack([mle_frequencies_clipped(row, 0.5, mle_m) for row in counts]), timing
    )
    vectorized, vec_time = time_callable(lambda: mle_frequencies_clipped(counts, 0.5, mle_m), timing)
    entries.append(
        _entry(
            "mle-batch",
            f"Clipped MLE reconstruction of {n_subsets} aggregate groups (m={mle_m})",
            n_subsets,
            base_time.best,
            vec_time.best,
            float(np.abs(baseline - vectorized).max()),
        )
    )

    # --- EM reconstruction: one call per group vs one batched run. --------- #
    n_em = 50 if tiny else 400
    em_m = 20
    em_counts = rng.integers(1, 200, size=(n_em, em_m)).astype(float)
    baseline, base_time = time_callable(
        lambda: np.vstack([iterative_bayes_frequencies(row, 0.5, em_m) for row in em_counts]),
        timing,
    )
    vectorized, vec_time = time_callable(
        lambda: iterative_bayes_frequencies(em_counts, 0.5, em_m), timing
    )
    entries.append(
        _entry(
            "em-batch",
            f"Iterative Bayesian reconstruction of {n_em} groups (m={em_m})",
            n_em,
            base_time.best,
            vec_time.best,
            float(np.abs(baseline - vectorized).max()),
        )
    )
    return entries
