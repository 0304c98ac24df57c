"""The unified result of one publishing run.

Whichever entry point ran the pipeline — the library or the service — the
caller gets one :class:`PublishReport`: the published table together with
the audit, the per-group SPS bookkeeping, the generalisation decisions,
per-stage wall-clock timings and the strategy's own metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.criterion import PrivacySpec
from repro.core.sps import SPSRecords
from repro.core.testing import PrivacyAudit
from repro.dataset.table import Table
from repro.generalization.merging import GeneralizationResult


@dataclass(frozen=True)
class PublishReport:
    """Everything one run of a :class:`~repro.pipeline.PublishPipeline` produced.

    Attributes
    ----------
    strategy:
        Name of the strategy that published the data.
    params:
        The resolved (typed, validated, defaults-filled) parameters.
    seed:
        The integer root seed all chunk generators were derived from.
    published:
        The published table handed to the analyst.
    prepared:
        The table the strategy actually enforced on (the generalised table
        when the generalize stage ran, otherwise the input table).
    spec:
        The ``(lambda, delta, p, m)`` privacy spec, when the strategy has one
        (the DP strategies do not).
    generalization:
        The chi-square merge decisions, when the generalize stage ran.
    audit:
        The pre-publication audit of ``prepared``, when the audit stage ran.
    records:
        The SPS bookkeeping of every group as :class:`~repro.core.sps.SPSRecords`
        arrays (``None`` for non-SPS strategies).
    metadata:
        Strategy-specific extras (mechanism scales, sampling stats, merged
        domain sizes, ...).
    timings:
        Wall-clock seconds per pipeline stage.
    group_index_cached:
        Whether the personal-group index was supplied pre-built (e.g. from
        the service's dataset cache) instead of built by this run.
    """

    strategy: str
    params: dict[str, Any]
    seed: int
    published: Table
    prepared: Table
    spec: PrivacySpec | None = None
    generalization: GeneralizationResult | None = None
    audit: PrivacyAudit | None = None
    records: SPSRecords | None = None
    metadata: dict[str, Any] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    group_index_cached: bool = False

    @property
    def n_sampled_groups(self) -> int:
        """How many groups SPS actually sampled (``|g| > s_g``)."""
        return 0 if self.records is None else self.records.n_sampled_groups

    @property
    def sampled_fraction(self) -> float:
        """Fraction of groups that needed sampling."""
        return 0.0 if self.records is None else self.records.sampled_fraction

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time across all recorded stages."""
        return float(sum(self.timings.values()))

    def summary(self) -> dict[str, Any]:
        """A compact JSON-compatible digest (for logs and service responses)."""
        data: dict[str, Any] = {
            "strategy": self.strategy,
            "params": dict(self.params),
            "seed": self.seed,
            "published_records": len(self.published),
            "timings": dict(self.timings),
            "group_index_cached": self.group_index_cached,
            "metadata": dict(self.metadata),
        }
        if self.audit is not None:
            data["audit"] = self.audit.summary()
        if self.records:
            data["n_sampled_groups"] = self.n_sampled_groups
            data["sampled_fraction"] = self.sampled_fraction
        return data
