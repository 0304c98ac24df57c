"""UP-versus-SPS utility comparison (the machinery behind Figures 3 and 5).

For one parameter setting, the comparison publishes the prepared table twice —
once with plain uniform perturbation (UP) and once with the SPS algorithm —
answers the same query workload on both, and reports the average relative
errors and their ratio (the cost of enforcing reconstruction privacy).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.core.criterion import PrivacySpec
from repro.dataset.groups import GroupCounts, personal_groups
from repro.dataset.table import Table
from repro.pipeline import publish
from repro.queries.count_query import CountQuery
from repro.queries.error import evaluate_workload
from repro.utils.rng import default_rng, spawn_rngs


@dataclass(frozen=True)
class UtilityComparison:
    """Average relative errors of UP and SPS for one parameter setting."""

    spec: PrivacySpec
    up_error: float
    sps_error: float
    runs: int

    @property
    def error_increase(self) -> float:
        """Absolute increase in average relative error caused by SPS sampling."""
        return self.sps_error - self.up_error

    @property
    def relative_increase(self) -> float:
        """``(sps - up) / up`` — the headline cost number of Section 6."""
        if self.up_error == 0:
            return 0.0
        return (self.sps_error - self.up_error) / self.up_error


def compare_up_and_sps(
    table: Table,
    spec: PrivacySpec,
    queries: Sequence[CountQuery],
    runs: int = 10,
    rng: int | np.random.Generator | None = None,
    groups: GroupCounts | None = None,
) -> UtilityComparison:
    """Average relative error of UP and SPS over ``runs`` random publications.

    Parameters
    ----------
    table:
        The prepared (generalised) raw table.
    spec:
        The privacy specification; its ``p`` is used for both UP and SPS.
    queries:
        The evaluation workload (true answers are taken on ``table``).
    runs:
        Number of independent publications to average over (the paper uses 10).
    rng:
        Seed or generator.
    groups:
        The table's personal groups, if already built (reused across runs).
    """
    if runs <= 0:
        raise ValueError("runs must be positive")
    if groups is None:
        groups = personal_groups(table)
    rngs = spawn_rngs(default_rng(rng), 2 * runs)
    params = {
        "lam": spec.lam,
        "delta": spec.delta,
        "retention_probability": spec.retention_probability,
    }
    up_errors = []
    sps_errors = []
    for run in range(runs):
        # Both arms drive the shared strategy registry; the audit stage is
        # skipped because only the published tables matter here.
        up_table = publish(
            table, strategy="uniform", rng=rngs[2 * run], groups=groups, audit=False, **params
        ).published
        sps_table = publish(
            table, strategy="sps", rng=rngs[2 * run + 1], groups=groups, audit=False, **params
        ).published
        up_errors.append(
            evaluate_workload(queries, table, up_table, spec.retention_probability).average_error
        )
        sps_errors.append(
            evaluate_workload(
                queries, table, sps_table, spec.retention_probability
            ).average_error
        )
    return UtilityComparison(
        spec=spec,
        up_error=float(np.mean(up_errors)),
        sps_error=float(np.mean(sps_errors)),
        runs=runs,
    )
