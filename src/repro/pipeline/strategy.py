"""Publishing strategies and the name-based strategy registry.

A :class:`PublishStrategy` is the unit of extension of the publishing stack:
declare a name, typed parameter specs and a group-batch kernel
(:meth:`PublishStrategy.chunk_publisher`), register one instance, and the
strategy becomes available to the library (:func:`repro.publish`), the
streaming and delta engines, the service, the CLI and the HTTP API —
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

from collections.abc import Callable, Mapping, Sequence
from typing import Any, ClassVar

import numpy as np

from repro.core.criterion import PrivacySpec
from repro.core.sps import SPSRecords, sps_publish_groups
from repro.dataset.groups import GroupCounts, expand_counts, group_block
from repro.dataset.schema import Schema
from repro.dataset.table import Table, code_dtype
from repro.dp.mechanisms import GaussianMechanism, LaplaceMechanism
from repro.perturbation.uniform import UniformPerturbation
from repro.pipeline.params import ParamSpec, resolve_params

#: Signature of a group-run publishing kernel: ``fn(run, rngs, bounds)``
#: publishes a run of consecutive chunks of groups, chunk ``c`` being
#: ``run[bounds[c]:bounds[c + 1]]`` with its own generator ``rngs[c]``.  It
#: returns the published code block, each group's published row count and
#: the run's SPS records (``None`` for kernels that keep none).
GroupRunFn = Callable[
    [GroupCounts, Sequence[np.random.Generator], np.ndarray],
    tuple[np.ndarray, np.ndarray, SPSRecords | None],
]


class UnknownStrategyError(ValueError):
    """Raised when a strategy name is not in the registry."""


class PublishStrategy:
    """One publishing strategy, selectable by name.

    Subclasses declare their tunable parameters as typed
    :class:`~repro.pipeline.params.ParamSpec` objects in ``params``, plus
    behaviour flags the engine consults: ``generalizes`` (whether the
    chi-square generalize stage runs first) and ``audits`` (whether the
    groups are audited against the strategy's :class:`PrivacySpec` before
    enforcing).  A strategy publishes through its group-batch kernel
    (:meth:`chunk_publisher`) or, declaring ``streams_rows``, through the
    engine's row path; one with neither is refused by every publish path.

    A minimal kernel strategy publishes every group's records unchanged (it
    draws nothing, so it never reads ``rngs``):

    >>> from repro.dataset.adult import generate_adult
    >>> from repro.pipeline import publish
    >>> class Identity(PublishStrategy):
    ...     name = "identity-example"
    ...     params = ()
    ...     audits = False
    ...
    ...     def chunk_publisher(self, schema, spec, resolved):
    ...         def run_fn(run, rngs, bounds):
    ...             sizes, sensitive = run.sizes(), run.expand()
    ...             block = group_block(run.keys, sizes, sensitive, code_dtype(schema))
    ...             return block, sizes, None
    ...         return run_fn
    >>> _ = register_strategy(Identity())
    >>> table = generate_adult(500, seed=1)
    >>> report = publish(table, strategy="identity-example", rng=1)
    >>> sorted(report.published.codes.tolist()) == sorted(table.codes.tolist())
    True
    >>> unregister_strategy("identity-example")
    """

    name: ClassVar[str]
    summary: ClassVar[str] = ""
    params: ClassVar[tuple[ParamSpec, ...]] = ()
    generalizes: ClassVar[bool] = False
    audits: ClassVar[bool] = True
    #: Whether the strategy's published bytes are a pure function of the input
    #: *row stream* (row order preserved, one output row per input row).  The
    #: engine drives such strategies through a row source — the table's own
    #: blocks in memory, a row spool out-of-core — instead of the group list;
    #: only :class:`UniformStrategy` sets this today.  Every concrete
    #: strategy must take this stance or override :meth:`chunk_publisher`,
    #: which the registry-hygiene lint rule (``RPR005``) enforces.
    streams_rows: ClassVar[bool] = False
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
        """The privacy spec this strategy enforces on ``table`` (``None`` if none).

        The engine passes an object carrying only the prepared ``schema``.
        """
        return None

    def chunk_publisher(
        self,
        schema: Schema,
        spec: PrivacySpec | None,
        resolved: Mapping[str, Any],
    ) -> GroupRunFn | None:
        """The group-run publishing kernel, or ``None`` if there is none.

        When a strategy's published bytes depend only on the ordered list of
        personal groups (their NA keys and SA count vectors) — true for SPS
        and the DP histogram strategies — it returns
        ``fn(run, rngs, bounds) -> (codes_block, published_sizes, records)``
        here.  ``run`` is a :class:`GroupCounts` of consecutive chunks;
        chunk ``c`` is ``run[bounds[c]:bounds[c + 1]]`` and must draw only
        from ``rngs[c]``, its own spawned generator.  The block holds each
        group's published rows in group order, ``published_sizes`` how many
        each group has.  Every publish path drives this same kernel over
        deterministic seeded chunks, which is why in-memory, streamed and
        delta output are byte-identical for a fixed ``(seed, chunk_size)``.
        How many chunks one run holds is execution-only, like ``workers``:
        a kernel must publish the same bytes for a chunk whatever run it is
        in.  The default returns ``None``: such a strategy can publish only
        if it declares ``streams_rows``.
        """
        return None

    def metadata_for(self, resolved: Mapping[str, Any]) -> dict[str, Any]:
        """Strategy-specific report metadata (mechanism scales etc.)."""
        return {}


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
    ) -> GroupRunFn:
        assert spec is not None  # spec_for always returns one for SPS
        perturbation = UniformPerturbation(spec.retention_probability, spec.domain_size)
        n_public = len(schema.public)
        dtype = code_dtype(schema)

        def run_fn(
            run: GroupCounts, rngs: Sequence[np.random.Generator], bounds: np.ndarray
        ) -> tuple[np.ndarray, np.ndarray, SPSRecords]:
            block, records = sps_publish_groups(
                run, spec, rngs, n_public, perturbation, bounds, dtype=dtype
            )
            return block, records.published_sizes, records

        return run_fn

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

    It declares ``streams_rows``: the engine's row path draws every retain
    bit, then every replacement code, from one generator seeded by the run's
    seed — a whole-table pass chunked over the rows, so the output preserves
    the input row order.
    """

    name = "uniform"
    summary = "plain uniform perturbation of the sensitive attribute (UP baseline)"
    params = _SPS_PARAMS
    streams_rows = True
    # Draws walk one global row spool: appending a row shifts every later
    # draw, so there is no bounded affected set to splice.
    delta_capable = False

    def spec_for(self, table: Table, resolved: Mapping[str, Any]) -> PrivacySpec:
        return _spec_from(table, resolved)


def _noisy_counts(mechanism: Any, counts: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One chunk's counts plus noise, rounded and clamped to non-negative integers."""
    noisy = np.asarray(mechanism.add_noise(counts.astype(float), rng))
    return np.maximum(0, np.rint(noisy)).astype(np.int64)


class _DPHistogramStrategy(PublishStrategy):
    """Shared machinery of the DP strategies: noisy per-group SA histograms.

    For each personal group, add independent noise to its SA count vector,
    clamp to non-negative integers and emit that many records per value.  The
    NA key structure is preserved exactly (as the paper's model requires);
    only the per-group SA histograms are privatised.

    The kernel draws each chunk's noise in one call over its dense
    ``G x m`` count matrix (:meth:`~repro.dataset.groups.GroupCounts.dense`,
    zeros included) from the chunk's generator: numpy fills an array draw
    from the same stream as consecutive per-group draws, so the bytes are
    those of a per-group loop.  Densifying, rounding and clamping stay per
    chunk, so a run holds no dense or float copy of all its counts; the
    expansion and the block are one array pass over the run.
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
    ) -> GroupRunFn:
        mechanism = self._mechanism(resolved)
        dtype = code_dtype(schema)

        def run_fn(
            run: GroupCounts, rngs: Sequence[np.random.Generator], bounds: np.ndarray
        ) -> tuple[np.ndarray, np.ndarray, None]:
            counts = np.concatenate([
                _noisy_counts(mechanism, run[start:stop].dense(), rng)
                for rng, start, stop in zip(rngs, bounds[:-1], bounds[1:], strict=True)
            ])
            sizes = counts.sum(axis=1)
            return group_block(run.keys, sizes, expand_counts(counts), dtype), sizes, None

        return run_fn


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
