"""repro.bench — the benchmark and profiling subsystem.

One protocol for every suite (:mod:`repro.bench.scenarios`): a
:class:`Suite` is a fixed-order scenario list plus one function that
measures a scenario in a shared :class:`Context` and returns its report
entry.  :data:`SUITES` (:mod:`repro.bench.runner`) names them all:

* ``core`` / ``service`` — :func:`repro.publish` and
  ``AnonymizationService.publish`` over strategy × dataset size ×
  chunk_size × workers;
* ``micro`` — the vectorized hot paths against the loops they replaced
  (:mod:`repro.bench.micro`);
* ``paper`` — the paper's twelve tables/figures/ablations as named
  scenarios (:mod:`repro.bench.paper`);
* ``stream``, ``delta``, ``serve`` — the out-of-core, incremental and
  served paths (:mod:`repro.bench.stream`, :mod:`repro.bench.delta`,
  :mod:`repro.bench.serve`).

Timers are deterministic warmup/repeat loops — op counts are a pure
function of the seed, only wall-clock moves (:mod:`repro.bench.timing`).
Every entry carries named ``verdicts`` that must all be true, and each run
writes a schema-versioned JSON report, ``BENCH_<suite>.json``, so the perf
trajectory is diffable across PRs (:mod:`repro.bench.schema`).

Front ends: the ``repro-bench`` console script (:mod:`repro.bench.cli`) and
``python -m repro.bench``.
"""

from repro.bench.paper import (
    PaperScenario,
    available_paper_scenarios,
    paper_scenario,
    smoke_config,
)
from repro.bench.runner import (
    DEFAULT_BENCH_SEED,
    SUITES,
    report_path,
    run_suite,
    write_report,
)
from repro.bench.scenarios import Context, Scenario, Suite
from repro.bench.schema import SCHEMA_VERSION, SchemaError, validate_report
from repro.bench.timing import Measurement, TimingSpec, time_callable

__all__ = [
    "DEFAULT_BENCH_SEED",
    "Context",
    "Measurement",
    "PaperScenario",
    "SCHEMA_VERSION",
    "SUITES",
    "Scenario",
    "SchemaError",
    "Suite",
    "TimingSpec",
    "available_paper_scenarios",
    "paper_scenario",
    "report_path",
    "run_suite",
    "smoke_config",
    "time_callable",
    "validate_report",
    "write_report",
]
