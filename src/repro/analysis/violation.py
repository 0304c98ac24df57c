"""Violation-rate analysis (the v_g / v_r measurements of Figures 2 and 4)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.criterion import PrivacySpec
from repro.core.testing import PrivacyAudit, audit_table
from repro.dataset.groups import GroupCounts
from repro.dataset.table import Table


@dataclass(frozen=True)
class ViolationReport:
    """Violation rates of one table under one privacy specification.

    ``group_rate`` is ``v_g`` (fraction of personal groups violating) and
    ``record_rate`` is ``v_r`` (fraction of records covered by a violating
    group).  ``violating_groups`` / ``total_groups`` give the raw counts.
    """

    spec: PrivacySpec
    total_groups: int
    violating_groups: int
    total_records: int
    violating_records: int

    @property
    def group_rate(self) -> float:
        """``v_g``."""
        if self.total_groups == 0:
            return 0.0
        return self.violating_groups / self.total_groups

    @property
    def record_rate(self) -> float:
        """``v_r``."""
        if self.total_records == 0:
            return 0.0
        return self.violating_records / self.total_records


def violation_report(
    table: Table,
    spec: PrivacySpec,
    groups: GroupCounts | None = None,
    audit: PrivacyAudit | None = None,
) -> ViolationReport:
    """Compute v_g and v_r for ``table`` under ``spec``.

    An existing :class:`PrivacyAudit` can be passed to avoid re-auditing.
    """
    if audit is None:
        audit = audit_table(table, spec, groups=groups)
    violating = ~audit.private
    return ViolationReport(
        spec=spec,
        total_groups=audit.n_groups,
        violating_groups=int(violating.sum()),
        total_records=audit.total_records,
        violating_records=int(audit.sizes[violating].sum()),
    )
