"""Posterior/prior privacy criteria: l-diversity, t-closeness, beta-likeness,
small-count privacy.

These are the criteria the paper cites as "considering NIR a violation"
(Section 1.1).  Each checker audits every personal group (the natural analogue
of a QI-group for our schema) of a table and reports the failing groups, so
they can be compared head-to-head with the reconstruction-privacy audit.

Definitions implemented:

* **distinct l-diversity** — every group contains at least ``l`` distinct SA
  values (Machanavajjhala et al., ICDE 2006).
* **entropy l-diversity** — the entropy of the group's SA distribution is at
  least ``log(l)``.
* **t-closeness** — the distance between the group's SA distribution and the
  global SA distribution is at most ``t`` (Li et al., ICDE 2007); for
  categorical SA the Earth Mover's Distance reduces to total variation
  distance, which is what we use.
* **beta-likeness** — for every SA value, the relative increase of its
  in-group frequency over its global frequency is at most ``beta``
  (Cao & Karras, VLDB 2012; we implement the basic beta-likeness condition).
* **small-count privacy** — every (group, SA value) count is either zero or at
  least ``k`` (the "small sum/count" intuition of Fu et al. 2014): tiny
  non-zero counts pinpoint individuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.dataset.groups import GroupCounts, chunk_sums, personal_groups
from repro.dataset.table import Table


@dataclass(frozen=True)
class CriterionReport:
    """Audit outcome of one classical criterion over a table's personal groups."""

    criterion: str
    parameters: dict[str, float]
    total_groups: int
    failing_groups: tuple[tuple[int, ...], ...]
    total_records: int
    failing_records: int

    @property
    def group_failure_rate(self) -> float:
        """Fraction of personal groups failing the criterion."""
        if self.total_groups == 0:
            return 0.0
        return len(self.failing_groups) / self.total_groups

    @property
    def record_failure_rate(self) -> float:
        """Fraction of records contained in a failing group."""
        if self.total_records == 0:
            return 0.0
        return self.failing_records / self.total_records

    @property
    def is_satisfied(self) -> bool:
        """Whether every personal group satisfies the criterion."""
        return not self.failing_groups


def _report(
    criterion: str,
    parameters: dict[str, float],
    table: Table,
    groups: GroupCounts,
    failing: np.ndarray,
) -> CriterionReport:
    """Report the groups of ``groups`` flagged by the boolean mask ``failing``."""
    return CriterionReport(
        criterion=criterion,
        parameters=parameters,
        total_groups=len(groups),
        failing_groups=tuple(map(tuple, groups.keys[failing].tolist())),
        total_records=len(table),
        failing_records=int(groups.sizes()[failing].sum()),
    )


def _frequencies(groups: GroupCounts) -> np.ndarray:
    """Each group's SA frequency vector, one row per group."""
    return groups.dense() / groups.sizes()[:, None]


# --------------------------------------------------------------------------- #
# l-diversity
# --------------------------------------------------------------------------- #
def _entropy(frequencies: np.ndarray) -> float:
    positive = frequencies[frequencies > 0]
    return float(-(positive * np.log(positive)).sum())


def l_diversity_report(
    table: Table,
    l: int,
    variant: str = "distinct",
    groups: GroupCounts | None = None,
) -> CriterionReport:
    """Audit distinct or entropy l-diversity over the table's personal groups.

    Parameters
    ----------
    table:
        The table to audit.
    l:
        The diversity parameter, at least 1.
    variant:
        ``"distinct"`` (default) or ``"entropy"``.
    groups:
        The table's personal groups, if already built.
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    if variant not in {"distinct", "entropy"}:
        raise ValueError("variant must be 'distinct' or 'entropy'")
    if groups is None:
        groups = personal_groups(table)
    if variant == "distinct":
        failing = np.diff(groups.offsets) < l
    else:
        failing = np.array([_entropy(row) < math.log(l) for row in _frequencies(groups)], dtype=bool)
    return _report(f"{variant}-l-diversity", {"l": float(l)}, table, groups, failing)


# --------------------------------------------------------------------------- #
# t-closeness
# --------------------------------------------------------------------------- #
def total_variation_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance between two categorical distributions.

    For categorical (unordered) SA values the Earth Mover's Distance with the
    uniform ground metric equals the total variation distance, so this is the
    distance used by categorical t-closeness.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same length")
    return 0.5 * float(np.abs(p - q).sum())


def t_closeness_report(
    table: Table,
    t: float,
    groups: GroupCounts | None = None,
) -> CriterionReport:
    """Audit t-closeness (total-variation flavour) over the personal groups."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    if groups is None:
        groups = personal_groups(table)
    global_distribution = table.sensitive_frequencies()
    failing = np.array(
        [total_variation_distance(row, global_distribution) > t for row in _frequencies(groups)],
        dtype=bool,
    )
    return _report("t-closeness", {"t": t}, table, groups, failing)


# --------------------------------------------------------------------------- #
# beta-likeness
# --------------------------------------------------------------------------- #
def beta_likeness_report(
    table: Table,
    beta: float,
    groups: GroupCounts | None = None,
) -> CriterionReport:
    """Audit basic beta-likeness: max relative gain of any SA value is at most beta.

    A group fails if some SA value with global frequency ``q > 0`` has
    in-group frequency ``f`` with ``(f - q) / q > beta``.  Values absent from
    the whole table are ignored (no prior to amplify).
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if groups is None:
        groups = personal_groups(table)
    prior = table.sensitive_frequencies()
    positive = prior > 0
    gains = (_frequencies(groups)[:, positive] - prior[positive]) / prior[positive]
    failing = gains.max(axis=1, initial=0.0) > beta
    return _report("beta-likeness", {"beta": beta}, table, groups, failing)


# --------------------------------------------------------------------------- #
# small-count privacy
# --------------------------------------------------------------------------- #
def small_count_report(
    table: Table,
    k: int,
    groups: GroupCounts | None = None,
) -> CriterionReport:
    """Audit small-count privacy: every non-zero (group, SA value) count is >= k.

    The "small count / small sum" view holds that a published count of, say, 1
    or 2 for a (public profile, disease) pair identifies individuals, whereas
    large counts are population statistics.  The paper argues size thresholds
    alone cannot separate personal from aggregate reconstruction (Section 1.2);
    this checker makes that comparison possible.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if groups is None:
        groups = personal_groups(table)
    failing = chunk_sums(groups.n < k, groups.offsets) > 0
    return _report("small-count", {"k": float(k)}, table, groups, failing)
