"""Data-set level auditing of reconstruction privacy.

Section 6 measures the extent of violation on real data with two rates:

* ``v_g`` — the fraction of personal groups that violate the criterion;
* ``v_r`` — the fraction of *records* contained in a violating group (the
  coverage, i.e. how many individuals are exposed to accurate personal
  reconstruction).

:func:`audit_table` computes both, together with the per-group verdicts and
the ``s_g`` thresholds, in one pass over the personal groups of a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.criterion import PrivacySpec, max_group_size
from repro.dataset.groups import GroupCounts, personal_groups
from repro.dataset.table import Table


@dataclass(frozen=True, eq=False)
class PrivacyAudit:
    """Audit of a whole table against a :class:`PrivacySpec`.

    The verdicts are stored as arrays aligned with the audited groups:
    ``sizes`` (``|g|``), ``thresholds`` (``s_g``) and ``private``.
    """

    spec: PrivacySpec
    keys: np.ndarray
    sizes: np.ndarray
    thresholds: np.ndarray
    private: np.ndarray
    total_records: int

    @property
    def n_groups(self) -> int:
        """``|G|``: number of personal groups."""
        return int(self.sizes.size)

    @property
    def n_violating_groups(self) -> int:
        """Number of personal groups violating reconstruction privacy."""
        return int(np.count_nonzero(~self.private))

    @property
    def group_violation_rate(self) -> float:
        """``v_g``: fraction of personal groups violating reconstruction privacy."""
        if not self.n_groups:
            return 0.0
        return self.n_violating_groups / self.n_groups

    @property
    def record_violation_rate(self) -> float:
        """``v_r``: fraction of records contained in a violating group."""
        if self.total_records == 0:
            return 0.0
        return int(self.sizes[~self.private].sum()) / self.total_records

    @property
    def is_private(self) -> bool:
        """Whether every personal group satisfies the criterion."""
        return bool(self.private.all())

    def summary(self) -> dict[str, Any]:
        """The JSON-compatible digest every report and the service print."""
        return {
            "n_groups": self.n_groups,
            "n_violating_groups": self.n_violating_groups,
            "group_violation_rate": float(self.group_violation_rate),
            "record_violation_rate": float(self.record_violation_rate),
            "is_private": self.is_private,
        }


def audit_groups(spec: PrivacySpec, groups: GroupCounts, total_records: int) -> PrivacyAudit:
    """Audit every group of ``groups`` against ``spec``: Equation (10) over the cells.

    The one audit: :func:`audit_table`, the streaming engine and the delta
    engine all call it, whatever produced their groups.  A group is private
    when ``|g| <= s_g`` (Corollary 4); an empty group has ``f = 0`` and
    ``s_g = inf``.
    """
    sizes = groups.sizes()
    frequencies = groups.max_counts() / np.maximum(sizes, 1)
    # Equation (10) once per distinct frequency, through the scalar form
    # itself: libm's pow(x, 2) and numpy's x * x differ in the last bit for
    # a small share of inputs, and s_g also drives SPS's sampling rate.
    distinct, inverse = np.unique(frequencies, return_inverse=True)
    thresholds = np.array(
        [max_group_size(spec, f) for f in distinct.tolist()], dtype=float
    )[inverse]
    return PrivacyAudit(
        spec=spec,
        keys=groups.keys,
        sizes=sizes,
        thresholds=thresholds,
        private=sizes <= thresholds,
        total_records=total_records,
    )


def audit_table(
    table: Table,
    spec: PrivacySpec,
    groups: GroupCounts | None = None,
) -> PrivacyAudit:
    """Audit every personal group of ``table`` against ``spec``.

    The audit is a property of the *original* data and the planned
    perturbation parameters (the criterion is a property of the perturbation
    matrix, not of a particular perturbed instance), so it takes the raw table
    ``D`` rather than a published ``D*``.

    Parameters
    ----------
    table:
        The raw table ``D`` (after NA generalisation if applicable).
    spec:
        The privacy specification, whose ``domain_size`` must match the
        table's sensitive domain.
    groups:
        The table's personal groups, if already built, to avoid recomputing them.
    """
    if spec.domain_size != table.schema.sensitive_domain_size:
        raise ValueError("spec.domain_size does not match the table's sensitive domain size")
    if groups is None:
        groups = personal_groups(table)
    return audit_groups(spec, groups, len(table))
