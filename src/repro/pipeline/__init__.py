"""repro.pipeline — the strategy-first publishing API.

One composable pipeline (prepare → generalize → audit → enforce → report)
behind one registry of named strategies, shared by the library
(:func:`repro.publish`), the service (whose ``backend`` request field names a
strategy), the CLI/HTTP front ends and the experiment harness.  Registering a
:class:`PublishStrategy` once makes it available everywhere.
"""

from repro.pipeline.execution import (
    DEFAULT_CHUNK_SIZE,
    chunk_items,
    chunk_rngs,
    coerce_seed,
    run_chunks_serial,
)
from repro.pipeline.params import KINDS, ParamError, ParamSpec, resolve_params
from repro.pipeline.pipeline import PublishPipeline, publish
from repro.pipeline.report import PublishReport
from repro.pipeline.strategy import (
    DPGaussianStrategy,
    DPLaplaceStrategy,
    GeneralizeSPSStrategy,
    PublishStrategy,
    SPSStrategy,
    UniformStrategy,
    UnknownStrategyError,
    available_strategies,
    get_strategy,
    register_strategy,
    strategy_descriptions,
    unregister_strategy,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "DPGaussianStrategy",
    "DPLaplaceStrategy",
    "GeneralizeSPSStrategy",
    "KINDS",
    "ParamError",
    "ParamSpec",
    "PublishPipeline",
    "PublishReport",
    "PublishStrategy",
    "SPSStrategy",
    "UniformStrategy",
    "UnknownStrategyError",
    "available_strategies",
    "chunk_items",
    "chunk_rngs",
    "coerce_seed",
    "get_strategy",
    "publish",
    "register_strategy",
    "resolve_params",
    "run_chunks_serial",
    "strategy_descriptions",
    "unregister_strategy",
]
