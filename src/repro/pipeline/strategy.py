"""Publishing strategies and the name-based strategy registry.

A :class:`PublishStrategy` is the unit of extension of the publishing stack:
declare a name, typed parameter specs and an ``enforce`` step, register one
instance, and the strategy becomes available to the library
(:func:`repro.publish`), the service, the CLI and the HTTP API —
without touching any of them.

Built-in strategies
-------------------

==================  =========================================================
``sps``             the paper's Sampling-Perturbing-Scaling algorithm
``uniform``         plain uniform perturbation (the paper's UP baseline)
``dp-laplace``      per-group Laplace-noisy SA histogram synthesis
``dp-gaussian``     per-group Gaussian-noisy SA histogram synthesis
``generalize+sps``  chi-square NA generalisation followed by SPS
==================  =========================================================
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from typing import Any, ClassVar

import numpy as np

from repro.core.criterion import PrivacySpec
from repro.core.sps import SPSRecords, sps_publish_groups
from repro.dataset.groups import GroupCounts, GroupIndex, expand_counts, group_block
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.dp.mechanisms import GaussianMechanism, LaplaceMechanism
from repro.perturbation.uniform import UniformPerturbation
from repro.pipeline.execution import ChunkRunner, seeded_rng
from repro.pipeline.params import ParamSpec, resolve_params

#: Signature of a group-batch publishing kernel: ``fn(chunk_of_groups, rng)``
#: returns the published code block plus the chunk's SPS records (``None``
#: for kernels that keep none).
GroupChunkFn = Callable[
    [GroupCounts, np.random.Generator],
    tuple[np.ndarray, SPSRecords | None],
]


class UnknownStrategyError(ValueError):
    """Raised when a strategy name is not in the registry."""


@dataclass(frozen=True)
class StrategyOutcome:
    """What a strategy's enforce stage produced."""

    published: Table
    records: SPSRecords | None = None
    metadata: dict[str, Any] = field(default_factory=dict)


class PublishStrategy(ABC):
    """One publishing strategy, selectable by name.

    Subclasses declare their tunable parameters as typed
    :class:`~repro.pipeline.params.ParamSpec` objects in ``params``, plus
    behaviour flags the pipeline consults: ``generalizes`` (whether the
    chi-square generalize stage runs first), ``audits`` (whether the table is
    audited against the strategy's :class:`PrivacySpec` before enforcing) and
    ``uses_groups`` (whether :meth:`enforce` reads the personal-group index —
    declare ``False`` for whole-table strategies so the pipeline can skip the
    index build when the audit is also skipped).
    """

    name: ClassVar[str]
    summary: ClassVar[str] = ""
    params: ClassVar[tuple[ParamSpec, ...]] = ()
    generalizes: ClassVar[bool] = False
    audits: ClassVar[bool] = True
    uses_groups: ClassVar[bool] = True
    #: Whether the strategy's published bytes are a pure function of the input
    #: *row stream* (row order preserved, one output row per input row).  The
    #: streaming engine drives such strategies through a row spool instead of
    #: the group list; only :class:`UniformStrategy` sets this today.
    streams_rows: ClassVar[bool] = False
    #: Explicit opt-out from the streaming engine.  Every concrete strategy
    #: must take a streaming stance — override :meth:`chunk_publisher`,
    #: declare ``streams_rows = True``, or set this to ``False`` — which the
    #: registry-hygiene lint rule (``RPR005``) enforces; silence is not a
    #: stance.  :func:`repro.stream.engine.stream_publish` refuses strategies
    #: that declare ``streamable = False``.
    streamable: ClassVar[bool] = True
    #: Whether the strategy honours the incremental re-publish contract of
    #: :mod:`repro.delta`: its published bytes for a chunk of groups depend
    #: only on that chunk's (SA count vectors, spec, rng) — never on groups
    #: outside the chunk or on global row order — so appending rows lets the
    #: delta engine regenerate only the affected chunks and splice them into
    #: the published CSV, byte-identical to a full re-publish.  True for the
    #: group-kernel strategies (SPS, the DP histograms); ``uniform`` cannot
    #: honour it (its draws walk one global row spool, so any append shifts
    #: every later draw) and ``generalize+sps`` cannot either (one appended
    #: row can flip a chi-square merge decision for the whole table).
    #: :func:`repro.delta.publish_base` refuses strategies that declare
    #: ``delta_capable = False`` loudly rather than silently diverging.
    delta_capable: ClassVar[bool] = False

    def resolve(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """Validate ``params`` against the declared specs and fill defaults."""
        return resolve_params(self.params, params, owner=f"strategy {self.name!r}")

    def spec_for(self, table: Table, resolved: Mapping[str, Any]) -> PrivacySpec | None:
        """The privacy spec this strategy enforces on ``table`` (``None`` if none)."""
        return None

    def chunk_publisher(
        self,
        schema: Schema,
        spec: PrivacySpec | None,
        resolved: Mapping[str, Any],
    ) -> GroupChunkFn | None:
        """The group-batch publishing kernel, or ``None`` if not streamable.

        When a strategy's published bytes depend only on the ordered list of
        personal groups (their NA keys and SA count vectors) — true for SPS
        and the DP histogram strategies — it returns
        ``fn(chunk_of_groups, rng) -> (codes_block, records)`` here.
        :meth:`enforce` and the out-of-core streaming engine both drive this
        same kernel over deterministic seeded chunks, which is why streaming
        output is byte-identical to the in-memory path for a fixed
        ``(seed, chunk_size)``.  Strategies that need the full table return
        ``None`` (the default) and are rejected by the streaming engine
        unless they declare ``streams_rows``.
        """
        return None

    def metadata_for(self, resolved: Mapping[str, Any]) -> dict[str, Any]:
        """Strategy-specific report metadata (mechanism scales etc.)."""
        return {}

    @abstractmethod
    def enforce(
        self,
        table: Table,
        groups: GroupIndex | None,
        spec: PrivacySpec | None,
        resolved: Mapping[str, Any],
        seed: int,
        runner: ChunkRunner,
        chunk_size: int,
    ) -> StrategyOutcome:
        """Publish ``table`` (the prepared table) and return the outcome.

        ``groups`` is the personal-group index of ``table``; it is ``None``
        only for strategies declaring ``uses_groups = False`` when the audit
        stage was also skipped.  All randomness must flow through generators
        derived from ``seed`` — either via ``runner`` (which hands each chunk
        its own seeded stream) or via ``numpy.random.SeedSequence(seed)``
        directly — so the output is identical however the chunks are executed.
        """


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #

_STRATEGIES: dict[str, PublishStrategy] = {}


def register_strategy(strategy: PublishStrategy, replace: bool = False) -> PublishStrategy:
    """Register a strategy instance under its ``name``."""
    if not getattr(strategy, "name", ""):
        raise ValueError("strategy must declare a non-empty name")
    if strategy.name in _STRATEGIES and not replace:
        raise ValueError(f"strategy {strategy.name!r} is already registered")
    _STRATEGIES[strategy.name] = strategy
    return strategy


def unregister_strategy(name: str) -> None:
    """Remove a strategy from the registry (no-op if absent)."""
    _STRATEGIES.pop(name, None)


def get_strategy(name: str) -> PublishStrategy:
    """Look a strategy up by name (raises :class:`UnknownStrategyError` if absent)."""
    try:
        return _STRATEGIES[name]
    except KeyError:
        raise UnknownStrategyError(
            f"unknown strategy {name!r}; available strategies: {available_strategies()}"
        ) from None


def available_strategies() -> list[str]:
    """Sorted names of all registered strategies."""
    return sorted(_STRATEGIES)


def strategy_descriptions() -> dict[str, dict[str, Any]]:
    """Machine-readable description of every strategy (for ``/stats`` and docs)."""
    return {
        name: {
            "summary": strategy.summary,
            "generalizes": strategy.generalizes,
            "audits": strategy.audits,
            "params": [spec.to_json() for spec in strategy.params],
        }
        for name, strategy in sorted(_STRATEGIES.items())
    }


# ---------------------------------------------------------------------- #
# Shared helpers
# ---------------------------------------------------------------------- #

_SPS_PARAMS = (
    ParamSpec.floating(
        "lam", 0.3, minimum=0.0, min_inclusive=False,
        doc="lambda, the relative-error threshold of Definition 3",
    ),
    ParamSpec.floating(
        "delta", 0.3, minimum=0.0, maximum=1.0, min_inclusive=False, max_inclusive=False,
        doc="delta, the minimum tail-probability bound of Definition 3",
    ),
    ParamSpec.floating(
        "retention_probability", 0.5, minimum=0.0, maximum=1.0, min_inclusive=False,
        doc="p, the uniform-perturbation retention probability",
    ),
)


def _spec_from(table: Table, resolved: Mapping[str, Any]) -> PrivacySpec:
    return PrivacySpec(
        lam=resolved["lam"],
        delta=resolved["delta"],
        retention_probability=resolved["retention_probability"],
        domain_size=table.schema.sensitive_domain_size,
    )


def _run_chunk_publisher(
    strategy: "PublishStrategy",
    table: Table,
    groups: GroupIndex,
    spec: PrivacySpec | None,
    resolved: Mapping[str, Any],
    seed: int,
    runner: ChunkRunner,
    chunk_size: int,
) -> tuple[Table, SPSRecords | None]:
    """Drive a strategy's group-batch kernel through ``runner`` and assemble the table.

    The kernel is wrapped in a picklable :class:`~repro.parallel.kernels.StrategyKernel`
    so the runner may be the process-pool scheduler; calling it is
    byte-identical to calling ``strategy.chunk_publisher(...)`` directly.
    """
    from repro.parallel.kernels import StrategyKernel

    chunk_fn = StrategyKernel(strategy, table.schema, spec, dict(resolved))
    chunk_fn.build()  # fail fast on a kernel-less strategy; caches the closure
    n_public = len(table.schema.public)
    results = runner(groups.groups, chunk_fn, seed, chunk_size)
    blocks = [codes for codes, _ in results if codes.size]
    records = SPSRecords.concat(chunk_records for _, chunk_records in results)
    if blocks:
        codes = np.vstack(blocks)
    else:
        codes = np.empty((0, n_public + 1), dtype=np.int64)
    return Table(table.schema, codes), records


# ---------------------------------------------------------------------- #
# Built-in strategies
# ---------------------------------------------------------------------- #


class SPSStrategy(PublishStrategy):
    """The paper's SPS enforcement algorithm over the personal-group index."""

    name = "sps"
    summary = "Sampling-Perturbing-Scaling enforcement of (lambda, delta)-privacy"
    params = _SPS_PARAMS
    # Per-chunk draws depend only on the chunk's count vectors and the spec,
    # so appends re-run only the touched chunks.
    delta_capable = True

    def spec_for(self, table: Table, resolved: Mapping[str, Any]) -> PrivacySpec:
        return _spec_from(table, resolved)

    def chunk_publisher(
        self,
        schema: Schema,
        spec: PrivacySpec | None,
        resolved: Mapping[str, Any],
    ) -> GroupChunkFn:
        assert spec is not None  # spec_for always returns one for SPS
        perturbation = UniformPerturbation(spec.retention_probability, spec.domain_size)
        n_public = len(schema.public)

        def chunk_fn(
            chunk: GroupCounts, rng: np.random.Generator
        ) -> tuple[np.ndarray, SPSRecords]:
            return sps_publish_groups(chunk, spec, rng, n_public, perturbation)

        return chunk_fn

    def enforce(
        self,
        table: Table,
        groups: GroupIndex | None,
        spec: PrivacySpec | None,
        resolved: Mapping[str, Any],
        seed: int,
        runner: ChunkRunner,
        chunk_size: int,
    ) -> StrategyOutcome:
        assert groups is not None  # uses_groups strategies always get the index
        published, records = _run_chunk_publisher(
            self, table, groups, spec, resolved, seed, runner, chunk_size
        )
        return StrategyOutcome(published=published, records=records)


class GeneralizeSPSStrategy(SPSStrategy):
    """Chi-square generalisation of the public attributes followed by SPS.

    This is the paper's full publishing pipeline (Sections 3.4 + 5): merge
    NA values with the same SA impact first, then enforce the criterion on
    the generalised personal groups.  The generalize stage itself is run by
    the pipeline; this strategy only adds the ``significance`` knob and the
    ``generalizes`` flag.
    """

    name = "generalize+sps"
    summary = "chi-square NA generalisation followed by SPS enforcement"
    generalizes = True
    # One appended row can flip a chi-square merge decision, re-keying every
    # group — incremental splicing cannot bound the affected set.
    delta_capable = False
    params = _SPS_PARAMS + (
        ParamSpec.floating(
            "significance", 0.05, minimum=0.0, maximum=1.0,
            min_inclusive=False, max_inclusive=False,
            doc="significance level of the chi-square merging test",
        ),
    )


class UniformStrategy(PublishStrategy):
    """Plain uniform perturbation (the UP baseline), audited but never sampled.

    Perturbation is a single vectorised whole-table pass, so the chunk runner
    is not used; the output preserves the input row order.
    """

    name = "uniform"
    summary = "plain uniform perturbation of the sensitive attribute (UP baseline)"
    params = _SPS_PARAMS
    uses_groups = False
    streams_rows = True
    # Draws walk one global row spool: appending a row shifts every later
    # draw, so there is no bounded affected set to splice.
    delta_capable = False

    def spec_for(self, table: Table, resolved: Mapping[str, Any]) -> PrivacySpec:
        return _spec_from(table, resolved)

    def enforce(
        self,
        table: Table,
        groups: GroupIndex | None,
        spec: PrivacySpec | None,
        resolved: Mapping[str, Any],
        seed: int,
        runner: ChunkRunner,
        chunk_size: int,
    ) -> StrategyOutcome:
        assert spec is not None  # spec_for always returns one for uniform
        operator = UniformPerturbation(spec.retention_probability, spec.domain_size)
        rng = seeded_rng(seed)
        return StrategyOutcome(published=operator.perturb_table(table, rng))


class _DPHistogramStrategy(PublishStrategy):
    """Shared machinery of the DP strategies: noisy per-group SA histograms.

    For each personal group, add independent noise to its SA count vector,
    clamp to non-negative integers and emit that many records per value.  The
    NA key structure is preserved exactly (as the paper's model requires);
    only the per-group SA histograms are privatised.

    The kernel draws a chunk's noise in one call over its ``G x m`` count
    matrix: numpy fills an array draw from the same stream as consecutive
    per-group draws, so the bytes are those of a per-group loop.
    """

    audits = False
    # Noise is drawn per group from the chunk's generator; appends re-run
    # only the touched chunks.
    delta_capable = True

    def _mechanism(self, resolved: Mapping[str, Any]) -> Any:
        raise NotImplementedError

    def _mechanism_metadata(self, mechanism: Any) -> dict[str, Any]:
        raise NotImplementedError

    def metadata_for(self, resolved: Mapping[str, Any]) -> dict[str, Any]:
        return self._mechanism_metadata(self._mechanism(resolved))

    def chunk_publisher(
        self,
        schema: Schema,
        spec: PrivacySpec | None,
        resolved: Mapping[str, Any],
    ) -> GroupChunkFn:
        mechanism = self._mechanism(resolved)

        def chunk_fn(chunk: GroupCounts, rng: np.random.Generator) -> tuple[np.ndarray, None]:
            noisy = np.asarray(mechanism.add_noise(chunk.counts.astype(float), rng))
            counts = np.maximum(0, np.rint(noisy)).astype(np.int64)
            return group_block(chunk.keys, counts.sum(axis=1), expand_counts(counts)), None

        return chunk_fn

    def enforce(
        self,
        table: Table,
        groups: GroupIndex | None,
        spec: PrivacySpec | None,
        resolved: Mapping[str, Any],
        seed: int,
        runner: ChunkRunner,
        chunk_size: int,
    ) -> StrategyOutcome:
        assert groups is not None  # uses_groups strategies always get the index
        published, _ = _run_chunk_publisher(
            self, table, groups, spec, resolved, seed, runner, chunk_size
        )
        return StrategyOutcome(
            published=published,
            metadata=self.metadata_for(resolved),
        )


class DPLaplaceStrategy(_DPHistogramStrategy):
    """Laplace-mechanism histogram publication (epsilon-DP per count)."""

    name = "dp-laplace"
    summary = "per-group Laplace-noisy SA histogram synthesis (epsilon-DP)"
    params = (
        ParamSpec.floating(
            "epsilon", 1.0, minimum=0.0, min_inclusive=False,
            doc="epsilon, the differential-privacy budget per count",
        ),
        ParamSpec.floating(
            "sensitivity", 1.0, minimum=0.0, min_inclusive=False,
            doc="the count-query sensitivity Delta",
        ),
    )

    def _mechanism(self, resolved: Mapping[str, Any]) -> LaplaceMechanism:
        return LaplaceMechanism(resolved["epsilon"], sensitivity=resolved["sensitivity"])

    def _mechanism_metadata(self, mechanism: Any) -> dict[str, Any]:
        return {"scale": mechanism.scale, "noise_variance": mechanism.variance}


class DPGaussianStrategy(_DPHistogramStrategy):
    """Gaussian-mechanism histogram publication ((epsilon, delta)-DP per count)."""

    name = "dp-gaussian"
    summary = "per-group Gaussian-noisy SA histogram synthesis ((epsilon, delta)-DP)"
    params = (
        ParamSpec.floating(
            "epsilon", 1.0, minimum=0.0, min_inclusive=False,
            doc="epsilon, the differential-privacy budget per count",
        ),
        ParamSpec.floating(
            "dp_delta", 1e-5, minimum=0.0, maximum=1.0,
            min_inclusive=False, max_inclusive=False,
            doc="delta of the (epsilon, delta)-DP guarantee",
        ),
        ParamSpec.floating(
            "sensitivity", 1.0, minimum=0.0, min_inclusive=False,
            doc="the count-query sensitivity Delta",
        ),
    )

    def _mechanism(self, resolved: Mapping[str, Any]) -> GaussianMechanism:
        return GaussianMechanism(
            resolved["epsilon"], resolved["dp_delta"], sensitivity=resolved["sensitivity"]
        )

    def _mechanism_metadata(self, mechanism: Any) -> dict[str, Any]:
        return {"sigma": mechanism.sigma, "noise_variance": mechanism.variance}


for _strategy in (
    SPSStrategy(),
    UniformStrategy(),
    DPLaplaceStrategy(),
    DPGaussianStrategy(),
    GeneralizeSPSStrategy(),
):
    register_strategy(_strategy)
