"""Wire- and store-level records of the anonymization service.

Everything the service persists or serves over HTTP is one of the dataclasses
here, together with plain-``dict`` codecs (``to_json`` / ``from_json``) built
on stdlib ``json``-compatible types only.  Tables are serialised as their
schema plus the integer code matrix, which round-trips exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.testing import PrivacyAudit
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.pipeline.execution import DEFAULT_CHUNK_SIZE


def schema_to_json(schema: Schema) -> dict[str, Any]:
    """Serialise a :class:`Schema` to JSON-compatible dicts."""
    return {
        "public": [{"name": a.name, "values": list(a.values)} for a in schema.public],
        "sensitive": {"name": schema.sensitive.name, "values": list(schema.sensitive.values)},
    }


def schema_from_json(data: dict[str, Any]) -> Schema:
    """Rebuild a :class:`Schema` from :func:`schema_to_json` output."""
    return Schema(
        public=tuple(Attribute(a["name"], tuple(a["values"])) for a in data["public"]),
        sensitive=Attribute(data["sensitive"]["name"], tuple(data["sensitive"]["values"])),
    )


def table_to_json(table: Table) -> dict[str, Any]:
    """Serialise a :class:`Table` (schema + integer codes) to JSON-compatible dicts."""
    return {
        "schema": schema_to_json(table.schema),
        "codes": table.codes.tolist(),
    }


def table_from_json(data: dict[str, Any]) -> Table:
    """Rebuild a :class:`Table` from :func:`table_to_json` output."""
    schema = schema_from_json(data["schema"])
    codes = np.asarray(data["codes"], dtype=np.int64)
    if codes.size == 0:
        codes = np.empty((0, len(schema.public) + 1), dtype=np.int64)
    return Table(schema, codes)


@dataclass(frozen=True)
class AuditSummary:
    """The serialisable core of a :class:`~repro.core.testing.PrivacyAudit`."""

    n_groups: int
    n_violating_groups: int
    group_violation_rate: float
    record_violation_rate: float
    total_records: int
    is_private: bool

    @classmethod
    def from_audit(cls, audit: PrivacyAudit) -> "AuditSummary":
        """Summarise a full audit into the rates the service reports per job."""
        return cls(**audit.summary(), total_records=audit.total_records)

    def to_json(self) -> dict[str, Any]:
        return dict(vars(self))

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "AuditSummary":
        return cls(
            n_groups=int(data["n_groups"]),
            n_violating_groups=int(data["n_violating_groups"]),
            group_violation_rate=float(data["group_violation_rate"]),
            record_violation_rate=float(data["record_violation_rate"]),
            total_records=int(data["total_records"]),
            is_private=bool(data["is_private"]),
        )


@dataclass(frozen=True)
class JobSpec:
    """What a publish job was asked to do.

    A *stream* job (``stream=True``) publishes straight from a CSV
    ``source`` out-of-core instead of a registered dataset; ``chunk_rows``
    bounds its ingestion memory and ``output`` names the CSV sink the
    published rows streamed to (``None`` when the table was kept in memory).

    A *delta* job (``delta=True``) runs through :mod:`repro.delta`:
    either a base publish that captures a re-publishable dataset's state, or
    an append that splices new rows into the published CSV incrementally.
    ``source`` then names the appended CSV (or ``"<rows>"`` for an inline
    row batch), ``rows_appended`` counts the rows folded in, and ``output``
    is the published CSV the splice rewrote.
    """

    dataset: str
    backend: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    chunk_size: int = DEFAULT_CHUNK_SIZE
    max_workers: int = 1
    stream: bool = False
    source: str | None = None
    sensitive: str | None = None
    chunk_rows: int | None = None
    output: str | None = None
    delta: bool = False
    rows_appended: int | None = None

    def to_json(self) -> dict[str, Any]:
        data = {
            "dataset": self.dataset,
            "backend": self.backend,
            "params": dict(self.params),
            "seed": self.seed,
            "chunk_size": self.chunk_size,
            "max_workers": self.max_workers,
        }
        if self.stream:
            data.update(
                stream=True,
                source=self.source,
                sensitive=self.sensitive,
                chunk_rows=self.chunk_rows,
                output=self.output,
            )
        if self.delta:
            data.update(
                delta=True,
                source=self.source,
                sensitive=self.sensitive,
                chunk_rows=self.chunk_rows,
                output=self.output,
                rows_appended=self.rows_appended,
            )
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "JobSpec":
        chunk_rows = data.get("chunk_rows")
        return cls(
            dataset=str(data["dataset"]),
            backend=str(data["backend"]),
            params=dict(data.get("params", {})),
            seed=int(data.get("seed", 0)),
            chunk_size=int(data.get("chunk_size", DEFAULT_CHUNK_SIZE)),
            max_workers=int(data.get("max_workers", 1)),
            stream=bool(data.get("stream", False)),
            source=data.get("source"),
            sensitive=data.get("sensitive"),
            chunk_rows=int(chunk_rows) if chunk_rows is not None else None,
            output=data.get("output"),
            delta=bool(data.get("delta", False)),
            rows_appended=(
                int(data["rows_appended"])
                if data.get("rows_appended") is not None
                else None
            ),
        )


@dataclass(frozen=True)
class JobTimings:
    """Wall-clock breakdown of one publish job (seconds)."""

    group_index_seconds: float
    publish_seconds: float
    total_seconds: float
    group_index_cached: bool

    def to_json(self) -> dict[str, Any]:
        return {
            "group_index_seconds": self.group_index_seconds,
            "publish_seconds": self.publish_seconds,
            "total_seconds": self.total_seconds,
            "group_index_cached": self.group_index_cached,
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "JobTimings":
        return cls(
            group_index_seconds=float(data["group_index_seconds"]),
            publish_seconds=float(data["publish_seconds"]),
            total_seconds=float(data["total_seconds"]),
            group_index_cached=bool(data["group_index_cached"]),
        )


@dataclass
class JobRecord:
    """One job of any kind and status: its spec, timings, audit and output summary.

    The published :class:`Table` itself is kept in process memory (it can be
    large); the store keeps every other field, so a restarted service still
    knows the full job history.
    """

    job_id: str
    spec: JobSpec
    status: str
    timings: JobTimings | None = None
    audit: AuditSummary | None = None
    published_records: int = 0
    metadata: dict[str, Any] = field(default_factory=dict)
    error: str | None = None
    #: Live progress of a stream job (phase, rows read, records published);
    #: updated while the job runs, so ``GET /jobs/<id>`` shows it mid-flight,
    #: and persisted with the record.
    progress: dict[str, Any] = field(default_factory=dict)
    #: The job's event timeline: one ``{"event", "elapsed", ...}`` dict per
    #: phase transition, in order (consecutive updates of the same phase are
    #: coalesced, so the sequence is deterministic for a given job shape).
    #: Persisted with the record and served by ``GET /jobs/<id>``.
    events: list[dict[str, Any]] = field(default_factory=list)
    published: Table | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "job_id": self.job_id,
            "spec": self.spec.to_json(),
            "status": self.status,
            "timings": self.timings.to_json() if self.timings else None,
            "audit": self.audit.to_json() if self.audit else None,
            "published_records": self.published_records,
            "metadata": dict(self.metadata),
            "error": self.error,
        }
        if self.progress:
            data["progress"] = dict(self.progress)
        if self.events:
            data["events"] = [dict(event) for event in self.events]
        return data

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "JobRecord":
        return cls(
            job_id=str(data["job_id"]),
            spec=JobSpec.from_json(data["spec"]),
            status=str(data["status"]),
            timings=JobTimings.from_json(data["timings"]) if data.get("timings") else None,
            audit=AuditSummary.from_json(data["audit"]) if data.get("audit") else None,
            published_records=int(data.get("published_records", 0)),
            metadata=dict(data.get("metadata", {})),
            error=data.get("error"),
            progress=dict(data.get("progress", {})),
            events=[dict(event) for event in data.get("events", [])],
        )
