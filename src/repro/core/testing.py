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

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.criterion import PrivacySpec, group_is_private, max_group_size
from repro.dataset.groups import GroupIndex, PersonalGroup, personal_groups
from repro.dataset.table import Table


@dataclass(frozen=True)
class GroupAudit:
    """The audit verdict for one personal group."""

    group: PersonalGroup
    max_group_size: float
    is_private: bool

    @property
    def size(self) -> int:
        """``|g|``, the group's record count."""
        return self.group.size

    @property
    def sampling_rate(self) -> float:
        """``tau = s_g / |g|`` — the sampling rate SPS would apply (capped at 1)."""
        if self.group.size == 0:
            return 1.0
        return min(1.0, self.max_group_size / self.group.size)


@dataclass(frozen=True)
class PrivacyAudit:
    """Audit of a whole table against a :class:`PrivacySpec`."""

    spec: PrivacySpec
    groups: tuple[GroupAudit, ...]
    total_records: int

    @property
    def n_groups(self) -> int:
        """``|G|``: number of personal groups."""
        return len(self.groups)

    @property
    def violating_groups(self) -> tuple[GroupAudit, ...]:
        """Audits of the groups that violate the criterion."""
        return tuple(audit for audit in self.groups if not audit.is_private)

    @property
    def group_violation_rate(self) -> float:
        """``v_g``: fraction of personal groups violating reconstruction privacy."""
        if not self.groups:
            return 0.0
        return len(self.violating_groups) / len(self.groups)

    @property
    def record_violation_rate(self) -> float:
        """``v_r``: fraction of records contained in a violating group."""
        if self.total_records == 0:
            return 0.0
        covered = sum(audit.size for audit in self.violating_groups)
        return covered / self.total_records

    @property
    def is_private(self) -> bool:
        """Whether every personal group satisfies the criterion."""
        return not self.violating_groups


def audit_group(spec: PrivacySpec, group: PersonalGroup) -> GroupAudit:
    """Audit a single personal group against ``spec``."""
    threshold = max_group_size(spec, group.max_frequency)
    return GroupAudit(group=group, max_group_size=threshold, is_private=group_is_private(spec, group))


def audit_groups(
    spec: PrivacySpec, groups: Iterable[PersonalGroup], total_records: int
) -> PrivacyAudit:
    """Audit every group of an already-built group list against ``spec``.

    The one audit loop: :func:`audit_table`, the streaming engine and the
    delta engine all call it, whatever produced their groups.
    """
    audits = tuple(audit_group(spec, group) for group in groups)
    return PrivacyAudit(spec=spec, groups=audits, total_records=total_records)


def audit_table(
    table: Table,
    spec: PrivacySpec,
    groups: GroupIndex | None = None,
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
        An optional pre-built :class:`GroupIndex` to avoid recomputing it.
    """
    if spec.domain_size != table.schema.sensitive_domain_size:
        raise ValueError("spec.domain_size does not match the table's sensitive domain size")
    index = groups if groups is not None else personal_groups(table)
    return audit_groups(spec, index, len(table))
