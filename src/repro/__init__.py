"""repro — a reproduction of "Reconstruction Privacy: Enabling Statistical
Learning" (Wang, Han, Fu, Wong, Yu; EDBT 2015).

The package implements the paper's privacy criterion and enforcement
algorithm, together with every substrate the evaluation depends on:

* uniform perturbation of a sensitive attribute and MLE reconstruction;
* the (lambda, delta)-reconstruction-privacy criterion, its Chernoff-bound
  test, and the Sampling-Perturbing-Scaling (SPS) enforcement algorithm;
* chi-square generalisation of public attribute values;
* a differential-privacy baseline (Laplace/Gaussian count queries) and the
  ratio attack showing how noisy counts leak rules through non-independent
  reasoning;
* synthetic ADULT/CENSUS generators, count-query workloads, violation-rate
  and utility analyses, and an experiment harness regenerating every table
  and figure of the paper;
* one strategy-first publishing pipeline (:mod:`repro.pipeline`) shared by
  the library, the anonymization service (:mod:`repro.service`) and the
  experiment harness — every registered strategy is reachable from all of
  them by name;
* a benchmark & profiling subsystem (:mod:`repro.bench`, the ``repro-bench``
  CLI) that times those same entry points over a deterministic scenario
  matrix and emits schema-versioned ``BENCH_*.json`` perf reports;
* an out-of-core streaming engine (:mod:`repro.stream`, the ``repro-stream``
  CLI) that publishes CSV sources larger than memory in bounded chunks,
  byte-identical to the in-memory path for the same seed and chunk size;
* a shared multi-worker scheduler (:mod:`repro.parallel`) behind every
  ``workers=`` knob — thread-pool chunk execution, results in chunk order
  from a FIFO of futures, byte-identical output at any worker count;
* an incremental re-publish engine (:mod:`repro.delta`, the ``repro-delta``
  CLI) for living datasets: appended rows re-run only the kernel chunks
  whose personal groups changed, spliced atomically into the published CSV,
  byte-identical to a full re-publish of the combined data;
* durable storage (:mod:`repro.store`) behind the service and delta
  layers: a transactional, optimistically-versioned SQLite store on a file
  or in memory — every mutation commits write-through, so ``kill -9`` loses
  nothing and a restart resumes where the process died.

Quickstart::

    import repro

    table = repro.generate_adult(10_000, seed=0)
    report = repro.publish(table, strategy="sps", lam=0.3, delta=0.3, rng=0)
    print(report.audit.group_violation_rate, len(report.published))
"""

from repro.core.criterion import PrivacySpec, max_group_size, value_is_private
from repro.core.sps import SPSResult, sps_publish
from repro.core.testing import PrivacyAudit, audit_table
from repro.dataset.adult import generate_adult
from repro.dataset.census import generate_census
from repro.dataset.loaders import read_csv, write_csv
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.dataset.groups import personal_groups
from repro.generalization.merging import generalize_table
from repro.perturbation.uniform import UniformPerturbation, perturb_table
from repro.pipeline import (
    ParamError,
    ParamSpec,
    PublishPipeline,
    PublishReport,
    PublishStrategy,
    available_strategies,
    get_strategy,
    publish,
    register_strategy,
)
from repro.reconstruction.mle import mle_frequencies, mle_frequencies_clipped, reconstruct_counts
from repro.stream import ChunkedReader, StreamReport, stream_publish
from repro.delta import (
    DeltaReport,
    DeltaState,
    DeltaUnsupportedError,
    delta_publish,
    publish_base,
)
from repro.queries.workload import WorkloadConfig, generate_workload
from repro.queries.count_query import CountQuery, answer_on_perturbed, answer_on_raw

__version__ = "21.1.0"

__all__ = [
    "PrivacySpec",
    "max_group_size",
    "value_is_private",
    "SPSResult",
    "sps_publish",
    "PrivacyAudit",
    "audit_table",
    "generate_adult",
    "generate_census",
    "read_csv",
    "write_csv",
    "Attribute",
    "Schema",
    "Table",
    "personal_groups",
    "generalize_table",
    "UniformPerturbation",
    "perturb_table",
    "ParamError",
    "ParamSpec",
    "PublishPipeline",
    "PublishReport",
    "PublishStrategy",
    "available_strategies",
    "get_strategy",
    "publish",
    "register_strategy",
    "mle_frequencies",
    "mle_frequencies_clipped",
    "reconstruct_counts",
    "ChunkedReader",
    "StreamReport",
    "stream_publish",
    "DeltaReport",
    "DeltaState",
    "DeltaUnsupportedError",
    "delta_publish",
    "publish_base",
    "WorkloadConfig",
    "generate_workload",
    "CountQuery",
    "answer_on_raw",
    "answer_on_perturbed",
    "__version__",
]
