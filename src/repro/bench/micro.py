"""The ``micro`` suite: vectorized hot paths against the loops they replaced.

Per-record / per-group Python loops were replaced with numpy bulk
operations in four places: the SPS sampling step, the personal-group index
build, the closed-form MLE over many groups, and the EM reconstruction over
many groups.  The original loop implementations are kept here as
*reference baselines* (``tests/test_vectorized.py`` imports them too), so
every ``repro-bench run --suite micro``:

1. re-checks that the shipped vectorized path produces the same output as
   the loop it replaced — the ``matches_reference`` verdict: bit-identical
   where the operations are elementwise or integer, within 1e-12 for the
   reassociated EM products — and
2. records the measured before/after seconds in ``BENCH_micro.json``, so
   the perf claims stay attached to the numbers that back them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.sps import _sample_counts
from repro.dataset.adult import generate_adult
from repro.dataset.groups import GroupCounts, personal_groups
from repro.dataset.table import Table
from repro.reconstruction.iterative import iterative_bayes_frequencies
from repro.reconstruction.mle import mle_frequencies_clipped
from repro.bench.scenarios import Context
from repro.bench.timing import time_callable
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


def _reference_group_index(table: Table) -> dict[tuple[int, ...], np.ndarray]:
    """The original group-index loop: NA key -> SA counts, one bincount per group."""
    groups: dict[tuple[int, ...], np.ndarray] = {}
    public = table.public_codes
    order = np.lexsort(public.T[::-1])
    sorted_public = public[order]
    change = np.any(np.diff(sorted_public, axis=0) != 0, axis=1)
    boundaries = np.concatenate(([0], np.flatnonzero(change) + 1, [len(table)]))
    m = table.schema.sensitive_domain_size
    sensitive = table.sensitive_codes
    for start, stop in zip(boundaries[:-1], boundaries[1:], strict=True):
        key = tuple(int(c) for c in sorted_public[start])
        groups[key] = np.bincount(sensitive[order[start:stop]], minlength=m).astype(np.int64)
    return groups


# --------------------------------------------------------------------- #
# The scenarios: one (reference, vectorized) pair of callables each
# --------------------------------------------------------------------- #

_Pair = tuple[Callable[[], np.ndarray], Callable[[], np.ndarray]]

#: Ops fields every micro-suite entry must report (numbers).
MICRO_REQUIRED_OPS = ("n", "baseline_seconds", "vectorized_seconds", "speedup", "max_abs_diff")

#: The verdict every micro entry carries.
MICRO_VERDICTS = ("matches_reference",)


@dataclass(frozen=True)
class MicroScenario:
    """One hot path at one problem size ``n``."""

    name: str
    title: str
    n: int
    pair: Callable[[int, int], _Pair]  # (seed, n) -> (reference, vectorized)
    tolerance: float | None = None  # None: the outputs must be bit-identical


def _sps_pair(seed: int, n_groups: int) -> _Pair:
    rng = default_rng(seed)
    count_rows = rng.integers(0, 40, size=(n_groups, 64)).astype(np.int64)
    rates = rng.random(n_groups)
    draw_seed = int(rng.integers(0, 2**31))
    groups = GroupCounts.from_dense(np.arange(n_groups)[:, None], count_rows)
    cell_rates = np.repeat(rates, np.diff(groups.offsets))

    def reference() -> np.ndarray:
        draw_rng = default_rng(draw_seed)
        return np.vstack([
            _reference_sample_counts(row, float(rate), draw_rng)
            for row, rate in zip(count_rows, rates, strict=True)
        ])

    def vectorized() -> np.ndarray:
        draw_rng = default_rng(draw_seed)
        sample = _sample_counts(
            groups.n, cell_rates, lambda draw: draw_rng.random(int(draw.sum()))
        )
        return GroupCounts(groups.keys, groups.offsets, groups.codes, sample, groups.m).dense()

    return reference, vectorized


def _group_index_pair(seed: int, rows: int) -> _Pair:
    table = generate_adult(rows, seed=seed)
    return (
        lambda: np.vstack(list(_reference_group_index(table).values())),
        lambda: personal_groups(table).dense(),
    )


def _mle_pair(seed: int, n_subsets: int) -> _Pair:
    counts = default_rng(seed).integers(1, 200, size=(n_subsets, 50)).astype(float)
    return (
        lambda: np.vstack([mle_frequencies_clipped(row, 0.5, 50) for row in counts]),
        lambda: mle_frequencies_clipped(counts, 0.5, 50),
    )


def _em_pair(seed: int, n_em: int) -> _Pair:
    counts = default_rng(seed).integers(1, 200, size=(n_em, 20)).astype(float)
    return (
        lambda: np.vstack([iterative_bayes_frequencies(row, 0.5, 20) for row in counts]),
        lambda: iterative_bayes_frequencies(counts, 0.5, 20),
    )


def micro_scenarios(tiny: bool = False) -> list[MicroScenario]:
    """The four hot paths, at seconds scale when ``tiny``."""
    sizes = (200, 4_000, 500, 50) if tiny else (2_000, 30_000, 5_000, 400)
    n_groups, rows, n_subsets, n_em = sizes
    return [
        MicroScenario(
            "sps-sample-counts",
            f"SPS Sampling step over personal-group SA histograms ({n_groups} groups, m=64)",
            n_groups,
            _sps_pair,
        ),
        MicroScenario(
            "group-index-build", f"Personal-group index construction on ADULT ({rows} rows)", rows, _group_index_pair
        ),
        MicroScenario(
            "mle-batch",
            f"Clipped MLE reconstruction of {n_subsets} aggregate groups (m=50)",
            n_subsets,
            _mle_pair,
        ),
        MicroScenario(
            "em-batch",
            f"Iterative Bayesian reconstruction of {n_em} groups (m=20)",
            n_em,
            _em_pair,
            tolerance=1e-12,
        ),
    ]


def run_micro_scenario(scenario: MicroScenario, ctx: Context) -> dict[str, Any]:
    """Time the loop and the vectorized path; check they agree."""
    reference, vectorized = scenario.pair(ctx.seed, scenario.n)
    expected, base = time_callable(reference, ctx.timing)
    actual, vec = time_callable(vectorized, ctx.timing)
    max_abs_diff = float(np.abs(expected - actual).max())
    if scenario.tolerance is None:
        matches = max_abs_diff == 0.0
    else:
        matches = max_abs_diff < scenario.tolerance
    return {
        "name": scenario.name,
        "title": scenario.title,
        "ops": {
            "n": scenario.n,
            "baseline_seconds": base.best,
            "vectorized_seconds": vec.best,
            "speedup": base.best / vec.best if vec.best > 0 else 0.0,
            "max_abs_diff": max_abs_diff,
        },
        "verdicts": {"matches_reference": matches},
        "seconds": vec.to_json(),
    }
