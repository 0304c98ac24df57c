"""The anonymization service engine.

:class:`AnonymizationService` is the facade shared by the HTTP front end and
the CLI: it owns the dataset registry, job store and delta registry, executes
publish jobs through the :mod:`repro.pipeline` strategy named by the
request's ``backend`` field (fanning group work out over the shared
thread-pool scheduler of :mod:`repro.parallel` with per-chunk seeded
streams), and runs audits against the cached group indexes.

Every job kind — in-memory, stream, delta base and delta append — runs
under one lifecycle (:meth:`AnonymizationService._job`) of two store write
transactions: one draws the job id and stores the ``running`` record, one
stores the ``completed`` (with a delta job's successor state) or ``failed``
record.  Progress updates the in-process record, which ``GET /jobs/<id>``
serves.

All source-of-truth state persists over one
:class:`~repro.store.sqlite.StorageConnector` (:mod:`repro.store`): dataset
tables, job records, the job-id counter and every delta state.  Restarting
on the same store path resumes with all of it intact — including delta
datasets, which stay appendable across a crash.  Derived data (group
indexes, generalisations, cached responses) lives in process memory and is
rebuilt on first use.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections.abc import Callable, Iterator, Mapping
from contextlib import contextmanager
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.cache import ResponseCache
    from repro.store import StoreTransaction

from repro import __version__
from repro.core.criterion import PrivacySpec
from repro.core.testing import PrivacyAudit, audit_table
from repro.delta.state import DeltaStateStore, StaleDeltaStateError
from repro.dataset.adult import generate_adult
from repro.dataset.census import generate_census
from repro.dataset.loaders import read_csv
from repro.dataset.table import Table
from repro.generalization.chi_square import DEFAULT_SIGNIFICANCE
from repro.pipeline import strategy_descriptions
from repro.pipeline.execution import DEFAULT_CHUNK_SIZE
from repro.pipeline.pipeline import PublishPipeline
from repro.pipeline.strategy import (
    PublishStrategy,
    UnknownStrategyError,
    available_strategies,
    get_strategy,
)
from repro.service.models import AuditSummary, JobRecord, JobSpec, JobTimings
from repro.service.registry import (
    DatasetEntry,
    DatasetRegistry,
    JobStore,
    NotFoundError,
    ServiceError,
)
from repro.store import StorageConnector, VersionConflictError, open_store
from repro.utils.files import replace_file

_SYNTHETIC_GENERATORS = {
    "adult": generate_adult,
    "census": generate_census,
}


def _mark_event(
    events: list[dict[str, Any]], name: str, started: float, **fields: Any
) -> None:
    """Append one timeline event; consecutive updates of a phase coalesce.

    A stream job's ``read``/``enforce`` phases fire once per chunk; keeping
    only the latest update per consecutive phase makes the persisted timeline
    deterministic for a given job shape (``started → read → group_index →
    enforce → done → completed``) while still carrying the final counters of
    each phase.
    """
    event = {"event": name, "elapsed": time.perf_counter() - started, **fields}
    if events and events[-1]["event"] == name:
        events[-1] = event
    else:
        events.append(event)


def _strategy(backend: str) -> PublishStrategy:
    """The registered strategy a request's ``backend`` field names."""
    try:
        return get_strategy(backend)
    except UnknownStrategyError as exc:
        raise ServiceError(f"unknown backend {backend!r}: {exc}") from None


def backend_defaults() -> dict[str, dict[str, Any]]:
    """Backend (strategy) name → its default parameters, for ``/stats`` and the CLI."""
    return {
        name: {param.name: param.default for param in get_strategy(name).params}
        for name in available_strategies()
    }


def _checked(spec: JobSpec) -> JobSpec:
    """Reject non-positive job sizes before any record exists."""
    for name, value in (
        ("chunk_size", spec.chunk_size),
        ("chunk_rows", spec.chunk_rows),
        ("workers", spec.max_workers),
    ):
        if value is not None and value <= 0:
            raise ServiceError(f"{name} must be positive")
    return spec


def _stale_append_spec(
    name: str,
    document: Mapping[str, Any],
    rows: list[list[str]] | None,
    source: str | Path | None,
) -> JobSpec:
    """The spec of an append refused because its stored state predates 8.0.0."""
    return JobSpec(
        dataset=name,
        backend=str(document.get("strategy")),
        seed=int(document.get("seed", 0)),
        chunk_size=int(document.get("chunk_size", DEFAULT_CHUNK_SIZE)),
        delta=True,
        source=str(source) if source is not None else "<rows>",
        sensitive=document.get("sensitive"),
        output=document.get("output"),
        rows_appended=len(rows) if rows is not None else None,
    )


def _reject_engine_options(spec: JobSpec) -> None:
    """Refuse an out-of-core job whose params name a stream-engine keyword.

    The stream and delta-base jobs forward ``params`` as ``**kwargs`` to the
    stream engine, so a key named like one of its own keywords
    (``audit``, ``workers``, ``delimiter``, ...) would silently bind it —
    or collide with the job's own value — instead of reaching the
    strategy's typed validation.  Rejected before any record exists.
    """
    from repro.stream.engine import ENGINE_OPTIONS

    collisions = sorted(ENGINE_OPTIONS & spec.params.keys())
    if collisions:
        raise ServiceError(
            f"{collisions} are stream-job options, not strategy parameters; "
            "a job sets seed, chunk_size, chunk_rows, workers and output as "
            "top-level request fields"
        )


def _chunk_rows(spec: JobSpec) -> dict[str, int]:
    """The ``chunk_rows`` keyword for the stream engines, when the job set one."""
    return {} if spec.chunk_rows is None else {"chunk_rows": spec.chunk_rows}


def _report_metadata(report: Any, **fields: Any) -> dict[str, Any]:
    """Job metadata from a pipeline or stream report."""
    metadata = {"params": dict(report.params), **fields, **report.metadata}
    if report.records:
        metadata.update(
            n_groups=len(report.records),
            n_sampled_groups=report.n_sampled_groups,
            sampled_fraction=report.sampled_fraction,
        )
    return metadata


class _JobRun:
    """One executing job's record (see :meth:`AnonymizationService._job`)."""

    def __init__(self, jobs: JobStore, spec: JobSpec) -> None:
        self._jobs = jobs
        self.start = time.perf_counter()
        self.record = JobRecord(job_id="", spec=spec, status="running")
        _mark_event(self.record.events, "started", self.start, backend=spec.backend)
        jobs.add(self.record)
        #: The file this job published, removed if the job fails: a stream or
        #: delta base output (linked into place, so never a file it replaced)
        #: or an append's spliced temp file.
        self.output: Path | None = None

    def progress(self, event: Mapping[str, Any]) -> None:
        """Engine progress callback: record the phase on the in-process record."""
        self.record.progress = dict(event)
        data = dict(event)
        phase = str(data.pop("phase", "progress"))
        _mark_event(self.record.events, phase, self.start, **data)

    def complete(
        self,
        published_records: int,
        *,
        index_seconds: float = 0.0,
        index_cached: bool = False,
        audit: PrivacyAudit | None = None,
        stage: Callable[[StoreTransaction], object] | None = None,
        **fields: Any,
    ) -> JobRecord:
        """Store the ``completed`` record, with ``stage``'s writes, in one transaction.

        The record is a copy of the running one with ``fields`` set, which
        replaces it once the transaction commits: a failed commit leaves the
        running record to :meth:`fail`.
        """
        events = list(self.record.events)
        _mark_event(events, "completed", self.start, published_records=published_records)
        record = dataclasses.replace(
            self.record,
            status="completed",
            published_records=published_records,
            timings=self._timings(index_seconds, index_cached),
            audit=AuditSummary.from_audit(audit) if audit else None,
            events=events,
            **fields,
        )
        self._jobs.add(record, stage)
        self.record = record
        return record

    def fail(self, exc: BaseException) -> None:
        """Mark the record ``failed`` with the error and store it."""
        record = self.record
        record.status = "failed"
        record.error = str(exc) or type(exc).__name__
        _mark_event(record.events, "failed", self.start, error=record.error)
        record.timings = self._timings()
        self._jobs.add(record)

    def _timings(self, index_seconds: float = 0.0, index_cached: bool = False) -> JobTimings:
        total = time.perf_counter() - self.start
        return JobTimings(index_seconds, total - index_seconds, total, index_cached)


class AnonymizationService:
    """Registry + engine + job history behind one object.

    Parameters
    ----------
    snapshot_path:
        Optional store path, opened as a durable SQLite store by
        :func:`~repro.store.open_store` (which refuses a pre-12.0.0 JSON
        snapshot).  ``None`` keeps all state in an in-memory SQLite store.
    store:
        An already-constructed connector; overrides ``snapshot_path``
        (used by tests and embedders).
    """

    def __init__(
        self,
        snapshot_path: str | Path | None = None,
        store: StorageConnector | None = None,
    ) -> None:
        self._snapshot_path = Path(snapshot_path) if snapshot_path else None
        if store is not None:
            self._store = store.open()
        else:
            self._store = open_store(self._snapshot_path)
        self.datasets = DatasetRegistry(store=self._store)
        self.jobs = JobStore(store=self._store)
        #: Delta-publishable datasets, persisted through the store so a
        #: restarted service resumes appending where it left off.
        self.deltas = DeltaStateStore(self._store)
        self._delta_locks: dict[str, threading.Lock] = {}
        self._delta_locks_guard = threading.Lock()
        self._response_cache: "ResponseCache | None" = None
        self._started = time.perf_counter()

    @property
    def snapshot_path(self) -> Path | None:
        """The configured store path, or ``None`` when persistence is off."""
        return self._snapshot_path

    @property
    def store(self) -> StorageConnector:
        """The storage connector all service state persists through."""
        return self._store

    def close(self) -> None:
        """Release the underlying store (idempotent)."""
        self._store.close()

    def _delta_lock(self, name: str) -> threading.Lock:
        """The per-dataset lock serialising in-process delta mutations."""
        with self._delta_locks_guard:
            return self._delta_locks.setdefault(name, threading.Lock())

    # ------------------------------------------------------------------ #
    # Response cache (serving layer)
    # ------------------------------------------------------------------ #
    @property
    def response_cache(self) -> "ResponseCache | None":
        """The attached serving-layer response cache, if any."""
        return self._response_cache

    def attach_response_cache(self, cache: "ResponseCache") -> None:
        """Bind a :class:`repro.serve.cache.ResponseCache` to this service.

        Once attached, every dataset mutation — re-register, delta base
        publish, delta append — invalidates that dataset's cached responses,
        and :meth:`stats` reports the cache's counters.
        """
        self._response_cache = cache

    def _notify_dataset_changed(self, name: str) -> None:
        """Invalidate cached responses after a dataset-mutating operation."""
        if self._response_cache is not None:
            self._response_cache.invalidate(name)

    # ------------------------------------------------------------------ #
    # Dataset registration
    # ------------------------------------------------------------------ #
    def register_table(self, name: str, table: Table, replace: bool = False) -> DatasetEntry:
        """Register an in-memory :class:`Table` under ``name``."""
        entry = self.datasets.register(name, table, replace=replace)
        self._notify_dataset_changed(name)
        return entry

    def register_csv(
        self,
        name: str,
        source: str | Path | IO[str] | IO[bytes],
        sensitive: str,
        replace: bool = False,
    ) -> DatasetEntry:
        """Register a CSV file or stream (the upload endpoint's entry point)."""
        table = read_csv(source, sensitive=sensitive)
        return self.register_table(name, table, replace=replace)

    def register_synthetic(
        self,
        name: str,
        generator: str = "adult",
        n_records: int = 10_000,
        seed: int = 0,
        replace: bool = False,
    ) -> DatasetEntry:
        """Register a synthetic ADULT or CENSUS table of ``n_records`` rows."""
        try:
            factory = _SYNTHETIC_GENERATORS[generator]
        except KeyError:
            raise ServiceError(
                f"unknown synthetic generator {generator!r}; "
                f"choose from {sorted(_SYNTHETIC_GENERATORS)}"
            ) from None
        if n_records <= 0:
            raise ServiceError("n_records must be positive")
        table = factory(n_records, seed=seed)
        return self.register_table(name, table, replace=replace)

    # ------------------------------------------------------------------ #
    # Jobs
    # ------------------------------------------------------------------ #
    @contextmanager
    def _job(self, spec: JobSpec) -> Iterator[_JobRun]:
        """Run one job under the single lifecycle policy.

        The record is stored as ``running`` before execution, so a restart
        after a crash reloads it as ``interrupted``, never lost.  Any
        exception removes the output file the job created, marks the record
        ``failed`` and stores it; client-level errors (``ValueError``,
        ``OSError``, a version conflict) re-raise as :class:`ServiceError`,
        everything else unchanged.
        """
        job = _JobRun(self.jobs, spec)
        try:
            yield job
        except BaseException as exc:
            if job.output is not None:
                job.output.unlink(missing_ok=True)
            job.fail(exc)
            if isinstance(exc, (ValueError, OSError, VersionConflictError)):
                raise ServiceError(f"job {job.record.job_id} failed: {exc}") from exc
            raise

    def publish(
        self,
        dataset: str,
        backend: str,
        params: Mapping[str, Any] | None = None,
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_workers: int = 1,
    ) -> JobRecord:
        """Execute one publish job and record it in the job store.

        ``backend`` names a registered :mod:`repro.pipeline` strategy, looked
        up on every call so a replaced or unregistered strategy takes effect
        immediately.  The pipeline reuses the dataset's cached group index
        (and, for generalizing strategies, its cached generalisation) and
        fans the enforce stage out over ``max_workers``; for a fixed
        ``(seed, chunk_size)`` the bytes equal :func:`repro.publish`'s.  The
        job is synchronous: the record returned is already completed.
        """
        spec = _checked(JobSpec(
            dataset=dataset,
            backend=backend,
            params=dict(params or {}),
            seed=int(seed),
            chunk_size=int(chunk_size),
            max_workers=int(max_workers),
        ))
        entry = self.datasets.get(dataset)
        strategy = _strategy(backend)
        with self._job(spec) as job:
            resolved = strategy.resolve(spec.params)
            pipeline = (
                PublishPipeline(strategy, **resolved)
                .with_rng(spec.seed)
                .with_chunk_size(spec.chunk_size)
                .with_workers(spec.max_workers)
            )
            if strategy.generalizes:
                generalization, groups, index_seconds, cached = entry.generalized(
                    resolved.get("significance", DEFAULT_SIGNIFICANCE)
                )
                pipeline.with_generalization(generalization)
            else:
                groups, index_seconds, cached = entry.groups()
            report = pipeline.with_groups(groups).run(entry.table)
            return job.complete(
                len(report.published),
                index_seconds=index_seconds,
                index_cached=cached,
                audit=report.audit,
                published=report.published,
                metadata=_report_metadata(report),
            )

    def publish_stream(
        self,
        source: str | Path,
        sensitive: str,
        backend: str,
        params: Mapping[str, Any] | None = None,
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        chunk_rows: int | None = None,
        workers: int = 1,
        output: str | Path | None = None,
    ) -> JobRecord:
        """Publish a CSV source out-of-core as a ``stream=true`` job.

        Unlike :meth:`publish`, the source is never registered as a dataset
        and never fully loaded: the job streams it through
        :func:`repro.stream.stream_publish` in bounded-memory chunks of
        ``chunk_rows`` records, and its record's ``progress`` field is
        updated as chunks flow, so concurrent ``GET /jobs/<id>`` requests to
        this service see rows-read / records-published counters mid-flight.

        When ``output`` is given the published rows stream to that CSV and
        the record holds no table; without it the published table stays in
        memory like a regular job's.  For a fixed ``(seed, chunk_size)`` the
        published bytes equal the in-memory path's — at any ``workers``
        count (the spec records it as ``max_workers``).
        """
        from repro.stream.engine import stream_publish

        spec = _checked(JobSpec(
            dataset=str(source),
            backend=backend,
            params=dict(params or {}),
            seed=int(seed),
            chunk_size=int(chunk_size),
            max_workers=int(workers),
            stream=True,
            source=str(source),
            sensitive=str(sensitive),
            chunk_rows=int(chunk_rows) if chunk_rows is not None else None,
            output=str(output) if output is not None else None,
        ))
        _reject_engine_options(spec)
        strategy = _strategy(backend)
        with self._job(spec) as job:
            report = stream_publish(
                source,
                sensitive=sensitive,
                strategy=strategy,
                rng=spec.seed,
                chunk_size=spec.chunk_size,
                workers=spec.max_workers,
                output=output,
                # Never clobber an existing server-side file, even one
                # another job creates at the same path while this one runs.
                overwrite=False,
                progress=job.progress,
                **_chunk_rows(spec),
                **spec.params,
            )
            job.output = None if output is None else Path(output)
            return job.complete(
                report.published_records,
                index_seconds=report.timings.get("group_index", 0.0),
                audit=report.audit,
                published=report.published,
                metadata=_report_metadata(
                    report,
                    rows_read=report.n_rows,
                    chunks_read=report.n_chunks,
                    chunk_rows=report.chunk_rows,
                    output=report.output,
                ),
            )

    def publish_delta_base(
        self,
        name: str,
        source: str | Path,
        sensitive: str,
        backend: str,
        output: str | Path,
        params: Mapping[str, Any] | None = None,
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        chunk_rows: int | None = None,
        workers: int = 1,
        replace: bool = False,
    ) -> JobRecord:
        """Publish a CSV source as a delta-re-publishable dataset named ``name``.

        Runs :func:`repro.delta.publish_base` as a ``delta=true`` job and
        persists the resulting :class:`~repro.delta.state.DeltaState` in the
        service's delta registry, so later :meth:`append_rows` calls — in
        this process or after a restart on the same store — can splice
        appended rows into the published CSV incrementally.  Raises
        :class:`~repro.service.registry.ServiceError` for strategies that
        declare no delta support (``delta_capable = False``).
        """
        from repro.delta.engine import publish_base

        spec = _checked(JobSpec(
            dataset=name,
            backend=backend,
            params=dict(params or {}),
            seed=int(seed),
            chunk_size=int(chunk_size),
            max_workers=int(workers),
            delta=True,
            source=str(source),
            sensitive=str(sensitive),
            chunk_rows=int(chunk_rows) if chunk_rows is not None else None,
            output=str(output),
            rows_appended=0,
        ))
        _reject_engine_options(spec)
        with self._delta_lock(name):
            state_version = self.deltas.version(name)
            if not replace and state_version:
                raise ServiceError(
                    f"delta dataset {name!r} already exists; pass replace=true to overwrite"
                )
            with self._job(spec) as job:
                report = publish_base(
                    source,
                    sensitive=str(sensitive),
                    output=output,
                    strategy=backend,
                    rng=spec.seed,
                    chunk_size=spec.chunk_size,
                    workers=spec.max_workers,
                    # Never clobber an existing server-side file: the splice
                    # path later rewrites `output` in place, but the *base*
                    # publish must not truncate an arbitrary path a client
                    # named.
                    overwrite=False,
                    progress=job.progress,
                    **_chunk_rows(spec),
                    **spec.params,
                )
                job.output = Path(report.output)
                record = self._finish_delta_job(
                    job, name, report, state_version, report.output
                )
        self._notify_dataset_changed(name)
        return record

    def append_rows(
        self,
        name: str,
        rows: list[list[str]] | None = None,
        source: str | Path | None = None,
        workers: int = 1,
    ) -> JobRecord:
        """Fold appended rows into delta dataset ``name`` as a publish job.

        ``rows`` is an inline batch in the base header's column order (what
        ``POST /datasets/<name>/rows`` sends); ``source`` is a server-side
        CSV path with the same header — exactly one must be given.  The job
        re-runs only the kernel chunks whose personal groups changed and
        splices them into a temp file beside the published CSV; its record
        carries live ``progress`` and the phase timeline (``append_read →
        diff → splice → done``).  The successor state — at the store version
        this job read, so a concurrent append through a shared store fails
        typed instead of losing updates — commits with the ``completed``
        record, and only then does the spliced file replace the published
        one.  A failed job leaves both untouched, so the dataset stays
        appendable; a kill between the commit and the move leaves the state
        ahead of the file and ``<output>.<job id>.tmp`` beside it.
        """
        from repro.delta.engine import delta_publish

        with self._delta_lock(name):
            try:
                found = self.deltas.entry(name)
            except StaleDeltaStateError as exc:
                # Fail a job, so the refusal and its re-base hint are on record;
                # the stored state stays as it is.
                with self._job(_stale_append_spec(name, exc.document, rows, source)):
                    raise
            if found is None:
                raise NotFoundError(
                    f"no delta dataset named {name!r}; create one with a "
                    "delta base publish first"
                )
            state, state_version = found
            if (rows is None) == (source is None):
                raise ServiceError("pass exactly one of rows= or source=")
            spec = _checked(JobSpec(
                dataset=name,
                backend=state.strategy,
                params=dict(state.params),
                seed=state.seed,
                chunk_size=state.chunk_size,
                max_workers=int(workers),
                delta=True,
                source=str(source) if source is not None else "<rows>",
                sensitive=state.sensitive,
                chunk_rows=state.chunk_rows,
                output=state.output,
                rows_appended=len(rows) if rows is not None else None,
            ))
            with self._job(spec) as job:
                spliced = job.output = Path(f"{state.output}.{job.record.job_id}.tmp")
                report = delta_publish(
                    state,
                    rows if rows is not None else source,
                    output=spliced,
                    workers=spec.max_workers,
                    progress=job.progress,
                )
                record = self._finish_delta_job(
                    job, name, report, state_version, state.output
                )
            replace_file(spliced, state.output)
        self._notify_dataset_changed(name)
        return record

    def _finish_delta_job(
        self, job: _JobRun, name: str, report: Any, state_version: int, output: str
    ) -> JobRecord:
        """Complete a delta job: its successor state and record in one transaction.

        The state names ``output`` as its published file and is written at
        the version the job read.  A version conflict means another writer
        (through a shared store) advanced the dataset while this job ran;
        applying our state would drop their group counts, so neither write
        commits and the job fails instead.
        """
        assert report.state is not None
        state = dataclasses.replace(report.state, output=output)
        spec = job.record.spec
        if spec.rows_appended is None:
            # A source-path append only knows its row count after the read.
            spec = dataclasses.replace(spec, rows_appended=report.rows_appended)
        try:
            return job.complete(
                report.published_records,
                index_seconds=report.timings.get("group_index", 0.0),
                audit=report.audit,
                stage=lambda txn: self.deltas.stage(txn, name, state, state_version),
                spec=spec,
                metadata={
                    "mode": report.mode,
                    "params": dict(report.params),
                    "n_rows": report.n_rows,
                    "rows_appended": report.rows_appended,
                    "n_groups": report.n_groups,
                    "groups_touched": report.groups_touched,
                    "n_chunks": report.n_chunks,
                    "n_chunks_dirty": report.n_chunks_dirty,
                    "dirty_fraction": report.dirty_fraction,
                    "output": output,
                },
            )
        except VersionConflictError as exc:
            raise ServiceError(
                f"delta dataset {name!r} was modified concurrently ({exc}); "
                "re-read and retry the operation"
            ) from exc

    def job(self, job_id: str) -> JobRecord:
        """Look one job record up by id."""
        return self.jobs.get(job_id)

    def published_table(self, job_id: str) -> Table:
        """Return the published table of a completed job still held in memory."""
        record = self.jobs.get(job_id)
        if record.published is None:
            raise ServiceError(
                f"job {job_id!r} has no published table in memory (failed job, "
                "record reloaded from the store after a restart, or table "
                "evicted from the in-memory cache); re-run the publish with "
                "the same seed to regenerate it"
            )
        return record.published

    # ------------------------------------------------------------------ #
    # Audit
    # ------------------------------------------------------------------ #
    def audit(
        self,
        dataset: str,
        lam: float = 0.3,
        delta: float = 0.3,
        retention_probability: float = 0.5,
    ) -> dict[str, Any]:
        """Audit a registered dataset against a ``(lambda, delta, p)`` spec.

        Uses the cached personal groups, so repeated audits (and audits
        after a publish) skip the group-building cost.  The five worst
        violations are the violating groups of largest ``|g| / s_g``, ties
        broken towards the later group.
        """
        entry = self.datasets.get(dataset)
        spec = PrivacySpec(
            lam=float(lam),
            delta=float(delta),
            retention_probability=float(retention_probability),
            domain_size=entry.table.schema.sensitive_domain_size,
        )
        groups, index_seconds, cached = entry.groups()
        audit = audit_table(entry.table, spec, groups=groups)
        violating = np.flatnonzero(~audit.private)
        ratios = audit.sizes[violating] / np.maximum(audit.thresholds[violating], 1e-12)
        worst = violating[np.argsort(ratios, kind="stable")[-5:][::-1]]
        public = entry.table.schema.public
        return {
            "dataset": dataset,
            "spec": {
                "lam": spec.lam,
                "delta": spec.delta,
                "retention_probability": spec.retention_probability,
                "domain_size": spec.domain_size,
            },
            "summary": AuditSummary.from_audit(audit).to_json(),
            "group_index_seconds": index_seconds,
            "group_index_cached": cached,
            "worst_violations": [
                {
                    "key": key,
                    "values": [attr.decode(code) for attr, code in zip(public, key, strict=True)],
                    "size": size,
                    "max_group_size": threshold,
                    "sampling_rate": min(1.0, threshold / size),
                }
                for key, size, threshold in zip(
                    audit.keys[worst].tolist(),
                    audit.sizes[worst].tolist(),
                    audit.thresholds[worst].tolist(),
                    strict=True,
                )
            ],
        }

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """Service-level counters: datasets, jobs, cache behaviour, backends."""
        records = self.jobs.records()
        by_backend: dict[str, int] = {}
        for record in records:
            by_backend[record.spec.backend] = by_backend.get(record.spec.backend, 0) + 1
        entries = self.datasets.entries()
        payload: dict[str, Any] = {
            "version": __version__,
            "uptime_seconds": time.perf_counter() - self._started,
            "n_datasets": len(self.datasets),
            "n_jobs": len(records),
            "jobs_by_backend": by_backend,
            "jobs_failed": sum(1 for r in records if r.status == "failed"),
            "published_records_total": sum(r.published_records for r in records),
            "group_index_hits": sum(e.group_index_hits for e in entries),
            "group_index_misses": sum(e.group_index_misses for e in entries),
            "n_delta_datasets": len(self.deltas),
            "store": {
                "backend": self._store.backend,
                "location": self._store.location,
            },
            "backends": backend_defaults(),
            "strategies": strategy_descriptions(),
        }
        if self._response_cache is not None:
            # The serving layer's request-level response cache, when one is
            # attached; existing keys are untouched so /stats consumers keep
            # working unchanged.
            payload["response_cache"] = self._response_cache.stats_payload()
        return payload

    def describe(self) -> dict[str, Any]:
        """One-call overview used by the CLI and the ``/`` endpoint."""
        return {
            "datasets": [entry.to_json() for entry in self.datasets.entries()],
            "jobs": [record.to_json() for record in self.jobs.records()],
            "backends": available_strategies(),
        }

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: str | Path | None = None) -> Path:
        """Ensure all state is on disk at ``path``; returns the path written.

        With no ``path``, the configured store path is used; every mutation
        was already committed write-through, so this is a no-op.  An
        explicit *different* ``path`` gets a SQLite backup of the whole
        store — documents, versions and counters — which replaces whatever
        store was there.
        """
        target = Path(path) if path else self._snapshot_path
        if target is None:
            raise ServiceError("no snapshot path configured")
        if target == self._snapshot_path:
            return target
        exported = open_store(target)
        try:
            self._store.backup(exported)
        finally:
            exported.close()
        return target
