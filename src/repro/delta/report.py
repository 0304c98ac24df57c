"""The result object of a base or delta publish."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.criterion import PrivacySpec
from repro.core.sps import SPSRecords
from repro.core.testing import PrivacyAudit
from repro.dataset.schema import Schema
from repro.delta.state import DeltaState


@dataclass(frozen=True)
class DeltaReport:
    """What a :mod:`repro.delta` publish did, plus the successor state.

    ``mode`` distinguishes the three outcomes: ``"base"`` (initial capture),
    ``"delta"`` (only dirty chunks regenerated and spliced) and ``"full"``
    (the loud fallback: the sensitive domain grew, so every chunk's draws
    changed and all of them were regenerated — still byte-identical to a
    full re-publish, just without the incremental saving).
    """

    mode: str
    strategy: str
    params: dict[str, Any]
    seed: int
    chunk_size: int
    chunk_rows: int
    workers: int
    #: Total input rows after this publish (base plus all appends).
    n_rows: int
    #: Rows this run appended (0 for a base publish).
    rows_appended: int
    #: Personal groups after this publish.
    n_groups: int
    #: Distinct groups the appended rows fell into (0 for a base publish).
    groups_touched: int
    #: Kernel chunks of the published output.
    n_chunks: int
    #: Chunks whose kernels were (re)run — all of them for base/full mode.
    n_chunks_dirty: int
    #: Records in the published CSV.
    published_records: int
    schema: Schema
    spec: PrivacySpec | None
    audit: PrivacyAudit | None
    #: SPS records of the chunks this run executed (``None`` for DP).
    records: SPSRecords | None
    #: Per-stage wall-clock seconds (span-derived).
    timings: dict[str, float] = field(default_factory=dict)
    #: Path of the published CSV.
    output: str = ""
    #: The successor state (feed it to the next ``delta_publish``).
    state: DeltaState | None = None

    @property
    def dirty_fraction(self) -> float:
        """Fraction of chunks that had to be regenerated."""
        if self.n_chunks == 0:
            return 0.0
        return self.n_chunks_dirty / self.n_chunks

    @property
    def total_seconds(self) -> float:
        """Sum of the per-stage timings (the run's wall-clock)."""
        return sum(self.timings.values())

    def summary(self) -> dict[str, Any]:
        """JSON-ready digest (what the ``repro-delta`` CLI prints)."""
        return {
            "mode": self.mode,
            "strategy": self.strategy,
            "params": dict(self.params),
            "seed": self.seed,
            "chunk_size": self.chunk_size,
            "chunk_rows": self.chunk_rows,
            "workers": self.workers,
            "n_rows": self.n_rows,
            "rows_appended": self.rows_appended,
            "n_groups": self.n_groups,
            "groups_touched": self.groups_touched,
            "n_chunks": self.n_chunks,
            "n_chunks_dirty": self.n_chunks_dirty,
            "dirty_fraction": self.dirty_fraction,
            "published_records": self.published_records,
            "audit": None if self.audit is None else self.audit.summary(),
            "timings": dict(self.timings),
            "total_seconds": self.total_seconds,
            "output": self.output,
        }
