"""The result bundle of one out-of-core streaming publish."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.criterion import PrivacySpec
from repro.core.sps import SPSRecords
from repro.core.testing import PrivacyAudit
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.generalization.merging import AttributeMerge


@dataclass(frozen=True)
class StreamReport:
    """Everything one :func:`repro.stream.stream_publish` run produced.

    The streaming sibling of :class:`repro.pipeline.report.PublishReport`:
    same strategy/params/seed/audit/records fields, but instead of holding
    the prepared table it records the streaming shape of the run — rows and
    chunks read, groups indexed, where the published rows went.  When an
    ``output`` sink was given, ``published`` is ``None`` (the rows went to
    the sink without ever being resident); without a sink the published
    :class:`~repro.dataset.table.Table` is materialised here, byte-identical
    to the in-memory pipeline's output for the same seed and chunk size.

    Example (illustrative field access)::

        report = stream_publish("big.csv", sensitive="Income", output="out.csv")
        report.n_rows, report.n_groups, report.published_records
    """

    strategy: str
    params: dict[str, Any]
    seed: int
    chunk_rows: int
    chunk_size: int
    n_rows: int
    n_chunks: int
    n_groups: int
    published_records: int
    schema: Schema
    #: Worker count the enforce stage ran with (never affects the bytes).
    workers: int = 1
    spec: PrivacySpec | None = None
    audit: PrivacyAudit | None = None
    records: SPSRecords | None = None
    merges: tuple[AttributeMerge, ...] | None = None
    metadata: dict[str, Any] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    output: str | None = None
    published: Table | None = None
    peak_tracked_bytes: int | None = None

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
        """A compact JSON-compatible digest (for logs, CLI and job records)."""
        data: dict[str, Any] = {
            "strategy": self.strategy,
            "params": dict(self.params),
            "seed": self.seed,
            "chunk_rows": self.chunk_rows,
            "chunk_size": self.chunk_size,
            "workers": self.workers,
            "rows_read": self.n_rows,
            "chunks_read": self.n_chunks,
            "n_groups": self.n_groups,
            "published_records": self.published_records,
            "output": self.output,
            "timings": dict(self.timings),
            "metadata": dict(self.metadata),
        }
        if self.audit is not None:
            data["audit"] = self.audit.summary()
        if self.records:
            data["n_sampled_groups"] = self.n_sampled_groups
            data["sampled_fraction"] = self.sampled_fraction
        if self.peak_tracked_bytes is not None:
            data["peak_tracked_bytes"] = int(self.peak_tracked_bytes)
        return data
