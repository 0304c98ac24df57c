"""The strategy-first publishing pipeline and the top-level ``repro.publish``.

Every publishing run — through the library, the service or the experiment
harness — is the same sequence of explicit stages:

    prepare  →  group_index  →  generalize  →  audit  →  enforce  →  report

* **prepare** resolves and validates the strategy parameters and the seed;
* **group_index** partitions the table into its personal groups;
* **generalize** optionally runs the chi-square merging of Section 3.4 from
  the group counts (strategies declare whether they want it);
* **audit** tests the prepared groups against the strategy's privacy spec
  (Corollary 4) before anything is published;
* **enforce** runs the strategy's kernel over deterministic seeded chunks of
  groups (or, for a row-stream strategy, over the table's rows);
* **report** assembles everything into one :class:`PublishReport`.

generalize, audit and enforce are the stream engine's own stage flow
(:func:`repro.stream.engine._publish_stages`), so the in-memory, streamed and
delta base publishes run the same code.  :class:`PublishPipeline` is a
fluent builder over those stages; callers that hold pre-built artifacts (a
cached group index, a cached generalisation) inject them and the
corresponding stage is skipped, and :meth:`PublishPipeline.with_workers`
fans the enforce stage out over the shared scheduler.  :func:`publish` is
the one-call convenience wrapper exported as ``repro.publish``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.stream.report import StreamReport

from repro.dataset.groups import GroupCounts, personal_groups
from repro.dataset.table import Table
from repro.generalization.merging import GeneralizationResult, apply_merges
from repro.obs.metrics import PUBLISH_RUNS, ROWS_PUBLISHED
from repro.obs.trace import span
from repro.pipeline.execution import DEFAULT_CHUNK_SIZE, coerce_seed
from repro.pipeline.report import PublishReport
from repro.pipeline.strategy import PublishStrategy, get_strategy
from repro.stream.engine import _check_publishable, _publish_stages, _TableRows, _TableSink


class PublishPipeline:
    """Fluent, composable builder for one publishing run.

    Example:

    >>> from repro.dataset.adult import generate_adult
    >>> table = generate_adult(2000, seed=1)
    >>> report = (
    ...     PublishPipeline("sps", lam=0.25, delta=0.3)
    ...     .with_rng(7)
    ...     .with_chunk_size(128)
    ...     .run(table)
    ... )
    >>> report.strategy, report.audit.n_groups == len(report.records)
    ('sps', True)
    >>> sorted(report.timings)
    ['audit', 'enforce', 'generalize', 'group_index', 'prepare', 'report']

    Every ``with_*`` method mutates the builder and returns it, so calls
    chain; :meth:`run` executes the staged pipeline and returns the
    :class:`~repro.pipeline.report.PublishReport`.  A pipeline instance is
    reusable: :meth:`run` does not consume it.
    """

    def __init__(self, strategy: str | PublishStrategy, **params: Any) -> None:
        self._strategy = get_strategy(strategy) if isinstance(strategy, str) else strategy
        self._params: dict[str, Any] = dict(params)
        self._rng: int | np.random.Generator | None = None
        self._chunk_size = DEFAULT_CHUNK_SIZE
        self._groups: GroupCounts | None = None
        self._generalization: GeneralizationResult | None = None
        self._audit = True
        self._workers = 1

    @property
    def strategy(self) -> PublishStrategy:
        """The strategy this pipeline publishes with."""
        return self._strategy

    # ------------------------------------------------------------------ #
    # Fluent configuration
    # ------------------------------------------------------------------ #
    def with_params(self, **params: Any) -> "PublishPipeline":
        """Merge strategy parameters over any set so far."""
        self._params.update(params)
        return self

    def with_rng(self, rng: int | np.random.Generator | None) -> "PublishPipeline":
        """Seed (or generator) all randomness derives from."""
        self._rng = rng
        return self

    def with_chunk_size(self, chunk_size: int) -> "PublishPipeline":
        """Number of personal groups per deterministic work chunk."""
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self._chunk_size = int(chunk_size)
        return self

    def with_workers(self, workers: int) -> "PublishPipeline":
        """Fan the enforce stage out over ``workers`` threads via the shared scheduler.

        The published bytes are identical at any worker count (the
        scheduler's determinism contract); only wall-clock changes.
        """
        if workers <= 0:
            raise ValueError("workers must be positive")
        self._workers = int(workers)
        return self

    def with_groups(self, groups: GroupCounts) -> "PublishPipeline":
        """Reuse the personal groups of the *prepared* table, built already."""
        self._groups = groups
        return self

    def with_generalization(self, generalization: GeneralizationResult) -> "PublishPipeline":
        """Reuse a pre-computed chi-square generalisation (skips the stage)."""
        self._generalization = generalization
        return self

    def with_audit(self, enabled: bool = True) -> "PublishPipeline":
        """Toggle the audit stage (on by default for auditing strategies)."""
        self._audit = bool(enabled)
        return self

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self, table: Table) -> PublishReport:
        """Execute prepare → group_index → generalize → audit → enforce → report.

        After the group index, the stream engine's stage flow runs into an
        in-memory sink.  Every stage runs inside a
        :func:`repro.obs.trace.span`, and the ``timings`` on the returned
        report are those spans' durations — the same numbers whether or not
        a tracer is active, so tracing never changes the report.
        """
        strategy = self._strategy
        timings: dict[str, float] = {}

        with span(
            "publish", kind="publish", path="pipeline", strategy=strategy.name
        ) as root:
            # prepare: typed parameter resolution + seed normalisation.
            with span("prepare", kind="stage") as sp:
                _check_publishable(strategy)
                resolved = strategy.resolve(self._params)
                seed = coerce_seed(self._rng)
                if self._generalization is not None and not strategy.generalizes:
                    raise ValueError(
                        f"strategy {strategy.name!r} has no generalize stage; "
                        "remove with_generalization()"
                    )
                if (
                    strategy.generalizes
                    and self._groups is not None
                    and self._generalization is None
                ):
                    # A caller-supplied group index must match the *prepared*
                    # table; without the matching generalization the raw-table
                    # index would be silently enforced against the generalised
                    # schema.
                    raise ValueError(
                        f"strategy {strategy.name!r} generalizes before grouping; "
                        "with_groups() also requires the matching "
                        "with_generalization()"
                    )
            timings["prepare"] = sp.duration
            root.set(seed=seed, chunk_size=self._chunk_size)

            # group index: of the supplied generalisation's table when there
            # is one, reused when supplied (the service's dataset cache), and
            # skipped when a row-stream strategy runs no audit.
            generalization = self._generalization
            indexed = table if generalization is None else generalization.table
            cached = self._groups is not None
            needs_groups = not strategy.streams_rows or (self._audit and strategy.audits)
            with span("group_index", kind="stage", cached=cached) as sp:
                groups = self._groups
                if groups is None and needs_groups:
                    groups = personal_groups(indexed)
            timings["group_index"] = sp.duration

            staged = _publish_stages(
                strategy, resolved, indexed.schema, groups, len(table),
                _TableSink, timings,
                seed=seed, chunk_size=self._chunk_size, workers=self._workers,
                audit=self._audit,
                rows=_TableRows(indexed) if strategy.streams_rows else None,
                merges=None if generalization is None else generalization.merges,
            )

            # report: assemble the unified result bundle (the published table
            # from its blocks, the generalised table from the merges).
            # Sampling stats are not copied here — PublishReport derives them
            # from the group records.  The stage is booked as the residual of
            # the run so the stage timings sum to the root span's wall-clock.
            published = staged.sink.close()
            if staged.merges is not None and generalization is None:
                generalization = apply_merges(table, staged.merges)
            timings["report"] = max(0.0, root.elapsed() - sum(timings.values()))
            report = PublishReport(
                strategy=strategy.name,
                params=resolved,
                seed=seed,
                published=published,
                prepared=indexed if generalization is None else generalization.table,
                spec=staged.spec,
                generalization=generalization,
                audit=staged.audit,
                records=staged.records,
                metadata=staged.metadata,
                timings=timings,
                group_index_cached=cached,
            )
            root.set(rows=len(report.published))
        PUBLISH_RUNS.inc(path="pipeline", strategy=strategy.name)
        ROWS_PUBLISHED.inc(len(report.published), strategy=strategy.name)
        return report


def publish(
    table: Table | None = None,
    strategy: str | PublishStrategy = "sps",
    *,
    source: Any = None,
    sensitive: str | None = None,
    streaming: bool = False,
    chunk_rows: int | None = None,
    output: Any = None,
    rng: int | np.random.Generator | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    workers: int = 1,
    audit: bool = True,
    groups: GroupCounts | None = None,
    generalization: GeneralizationResult | None = None,
    **params: Any,
) -> "PublishReport | StreamReport":
    """Publish a table or a CSV source with a named strategy — the front door.

    ``repro.publish(table, strategy="sps", lam=0.3, delta=0.3, rng=7)`` runs
    the full prepare → generalize → audit → enforce → report pipeline and
    returns the :class:`~repro.pipeline.report.PublishReport`.  All keyword
    arguments other than the options below are strategy parameters, validated
    against the strategy's typed specs.

    Instead of a table, a CSV ``source`` (path or open text stream) may be
    given together with the ``sensitive`` column name.  With
    ``streaming=False`` the source is simply loaded first; with
    ``streaming=True`` the out-of-core engine
    (:func:`repro.stream.stream_publish`) publishes it in bounded-memory
    chunks of ``chunk_rows`` records and returns a
    :class:`~repro.stream.report.StreamReport` — byte-identical output for
    the same seed and ``chunk_size``.

    Parameters
    ----------
    table:
        The raw table ``D`` (mutually exclusive with ``source``).
    strategy:
        Registered strategy name (see
        :func:`~repro.pipeline.strategy.available_strategies`) or an instance.
    source, sensitive:
        CSV path or stream plus its sensitive column, as an alternative to
        ``table``.
    streaming:
        Publish the source out-of-core (requires ``source``).
    chunk_rows:
        Records per ingestion chunk of the streaming engine (memory knob;
        never affects the published bytes).
    output:
        Streaming only: CSV sink for the published rows (omit to materialise
        the published table on the report).
    rng:
        Seed or generator; a fixed integer seed gives byte-identical output
        through the library, the service and the streaming engine for the
        same ``chunk_size``.
    chunk_size:
        Personal groups per deterministic work chunk.
    workers:
        Fan the enforce stage out over this many workers through the shared
        scheduler (:mod:`repro.parallel`).  Never changes the published
        bytes — for a fixed seed and ``chunk_size`` the output is
        byte-identical at any worker count; only wall-clock changes.
    audit:
        Set ``False`` to skip the pre-publication audit stage.
    groups, generalization:
        Pre-built artifacts (see :class:`PublishPipeline`); in-memory path
        only.
    """
    if source is not None and table is not None:
        raise ValueError("pass either table or source, not both")
    if workers <= 0:
        raise ValueError("workers must be positive")
    if streaming:
        if source is None:
            raise ValueError("streaming=True requires source=")
        if sensitive is None:
            raise ValueError("source= requires sensitive= (the SA column name)")
        if groups is not None or generalization is not None:
            raise ValueError(
                "groups/generalization are in-memory artifacts; "
                "the streaming engine builds its own"
            )
        from repro.stream.engine import ENGINE_OPTIONS, stream_publish

        # Engine-only keywords are not exposed here; a name collision in
        # **params would silently bind them instead of reaching the
        # strategy's typed parameter validation — fail loudly instead.
        collisions = sorted(ENGINE_OPTIONS & params.keys())
        if collisions:
            raise ValueError(
                f"{collisions} are streaming-engine options, not strategy "
                "parameters; call repro.stream_publish directly to set them"
            )
        kwargs: dict[str, Any] = {}
        if chunk_rows is not None:
            kwargs["chunk_rows"] = int(chunk_rows)
        return stream_publish(
            source,
            sensitive=sensitive,
            strategy=strategy,
            rng=rng,
            chunk_size=chunk_size,
            workers=workers,
            audit=audit,
            output=output,
            **kwargs,
            **params,
        )
    if output is not None or chunk_rows is not None:
        raise ValueError("output/chunk_rows are streaming options; pass streaming=True")
    if source is not None:
        if sensitive is None:
            raise ValueError("source= requires sensitive= (the SA column name)")
        from repro.dataset.loaders import read_csv

        table = read_csv(source, sensitive=sensitive)
    if table is None:
        raise ValueError("publish() needs a table or a source")
    pipeline = (
        PublishPipeline(strategy, **params)
        .with_rng(rng)
        .with_chunk_size(chunk_size)
        .with_audit(audit)
    )
    if groups is not None:
        pipeline.with_groups(groups)
    if generalization is not None:
        pipeline.with_generalization(generalization)
    if workers > 1:
        pipeline.with_workers(workers)
    return pipeline.run(table)
