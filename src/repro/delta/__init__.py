"""Incremental (delta) re-publishing for living datasets.

Publish once with :func:`publish_base`, then fold appended rows in with
:func:`delta_publish`: only the kernel chunks whose personal groups changed
are re-run, everything else is spliced straight out of the previously
published CSV, and the result is byte-identical to a full re-publish of the
combined data — same CSV bytes, same audit, same per-chunk RNG streams.
See ``docs/delta.md`` for the affected-group model and the determinism
contract, and :class:`repro.pipeline.strategy.PublishStrategy.delta_capable`
for which strategies support it.
"""

from repro.delta.engine import DeltaUnsupportedError, delta_publish, publish_base
from repro.delta.report import DeltaReport
from repro.delta.state import DeltaState, StaleDeltaStateError

__all__ = [
    "DeltaReport",
    "DeltaState",
    "DeltaUnsupportedError",
    "StaleDeltaStateError",
    "delta_publish",
    "publish_base",
]
