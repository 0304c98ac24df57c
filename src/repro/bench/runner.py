"""Execute benchmark suites and emit the ``BENCH_*.json`` reports.

Three suites:

* ``core`` — the scenario matrix through :func:`repro.publish` (library
  path), plus the vectorization micro-benchmarks of
  :mod:`repro.bench.micro`;
* ``service`` — the scenario matrix through
  :class:`repro.service.AnonymizationService` (shared-scheduler path, cached
  group indexes);
* ``paper`` — the twelve named paper scenarios of
  :mod:`repro.bench.paper`;
* ``stream`` — out-of-core vs in-memory publishing over ×10 row-growth
  pairs (:mod:`repro.bench.stream`): rows/sec, peak tracked allocation of
  both paths, and a per-scenario byte-identity verdict;
* ``parallel`` — worker-count scaling of the shared scheduler
  (:mod:`repro.bench.parallel`): strategy × workers in {1, 2, 4}, rows/sec,
  ``speedup_vs_w1`` and a per-scenario byte-identity verdict against both
  the sequential stream and the in-memory pipeline;
* ``delta`` — incremental vs full re-publish over shrinking append
  fractions (:mod:`repro.bench.delta`): ``speedup_vs_full``, the
  dirty-chunk fraction and a per-scenario byte-identity verdict of the
  spliced output against a from-scratch re-publish;
* ``serve`` — concurrent clients against a live
  :class:`~repro.serve.frontend.ServingFrontend` (:mod:`repro.bench.serve`):
  throughput, p50/p95/p99 latency, cache hit ratio, ``cache_speedup`` of the
  response cache, queue-rejection counts and a byte-identity verdict across
  cached/uncached/post-invalidation responses.

Determinism contract: for a fixed ``(suite, tiny, seed, filter)`` the
scenario set, every scenario's operation counts and the published bytes
behind them are identical run-to-run — only the wall-clock fields move.
Reports are written to ``BENCH_<suite>.json`` (schema-checked before
writing) so the repo root carries a diffable perf trajectory.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.bench.micro import run_micro_benchmarks
from repro.bench.paper import available_paper_scenarios, paper_scenario, smoke_config
from repro.bench.scenarios import Scenario, matrix_for
from repro.bench.schema import SCHEMA_VERSION, validate_report
from repro.bench.timing import TimingSpec, time_callable
from repro.dataset.adult import generate_adult
from repro.dataset.census import generate_census
from repro.experiments.config import ExperimentConfig
from repro.obs.environment import runtime_environment
from repro.obs.trace import span
from repro.pipeline import publish

_GENERATORS = {"adult": generate_adult, "census": generate_census}

#: Default root seed (the same EDBT-date seed the experiments use).
DEFAULT_BENCH_SEED = 20150323


def default_timing(suite: str) -> TimingSpec:
    """The default timer for a suite — the single source the CLI also reads.

    Paper scenarios are minutes-scale at default sizes, so they get one
    untimed-warmup-free pass; the matrix suites get warmup + best-of-3.
    """
    return TimingSpec(warmup=0, repeats=1) if suite == "paper" else TimingSpec()


class _DatasetCache:
    """Synthetic tables keyed by (generator, rows), built once per run."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._tables: dict[tuple[str, int], Any] = {}

    def get(self, dataset: str, rows: int) -> Any:
        key = (dataset, rows)
        if key not in self._tables:
            self._tables[key] = _GENERATORS[dataset](rows, seed=self._seed)
        return self._tables[key]


def _filter_scenarios(scenarios: list[Scenario], names: Sequence[str] | None) -> list[Scenario]:
    if not names:
        return scenarios
    wanted = set(names)
    kept = [s for s in scenarios if s.name in wanted or s.strategy in wanted]
    missing = wanted - {s.name for s in kept} - {s.strategy for s in kept}
    if missing:
        raise ValueError(
            f"unknown scenario filter(s) {sorted(missing)}; "
            "filters match a scenario name or a strategy name"
        )
    return kept


def run_core_scenario(
    scenario: Scenario, cache: _DatasetCache, seed: int, timing: TimingSpec
) -> dict[str, Any]:
    """Time one library-path scenario and return its report entry."""
    table = cache.get(scenario.dataset, scenario.rows)

    def once() -> Any:
        return publish(
            table,
            strategy=scenario.strategy,
            rng=seed,
            chunk_size=scenario.chunk_size,
            **scenario.params,
        )

    report, measurement = time_callable(once, timing)
    ops: dict[str, Any] = {
        "published_records": len(report.published),
        "prepared_records": len(report.prepared),
        "n_group_records": len(report.records) if report.records else 0,
        "n_sampled_groups": report.n_sampled_groups,
    }
    if report.audit is not None:
        ops["n_groups"] = report.audit.n_groups
        ops["n_violating_groups"] = len(report.audit.violating_groups)
    entry = scenario.to_json()
    entry["ops"] = ops
    entry["seconds"] = measurement.to_json()
    entry["stages"] = {stage: float(s) for stage, s in report.timings.items()}
    return entry


def run_service_scenario(
    scenario: Scenario, service: Any, seed: int, timing: TimingSpec
) -> dict[str, Any]:
    """Time one service-path scenario (cached group index, shared scheduler)."""
    dataset_name = f"{scenario.dataset}-{scenario.rows}"

    def once() -> Any:
        return service.publish(
            dataset_name,
            scenario.strategy,
            params=scenario.params,
            seed=seed,
            chunk_size=scenario.chunk_size,
            max_workers=scenario.workers,
        )

    record, measurement = time_callable(once, timing)
    ops: dict[str, Any] = {
        "published_records": record.published_records,
        "group_index_cached": bool(record.timings.group_index_cached),
    }
    if record.audit is not None:
        ops["n_groups"] = record.audit.n_groups
        ops["n_violating_groups"] = record.audit.n_violating_groups
    entry = scenario.to_json()
    entry["ops"] = ops
    entry["seconds"] = measurement.to_json()
    entry["stages"] = {
        "group_index": float(record.timings.group_index_seconds),
        "publish": float(record.timings.publish_seconds),
        "total": float(record.timings.total_seconds),
    }
    return entry


def _paper_config(tiny: bool) -> ExperimentConfig:
    return smoke_config() if tiny else ExperimentConfig()


def run_paper_entry(name: str, tiny: bool, timing: TimingSpec) -> dict[str, Any]:
    """Run one named paper scenario and return its report entry.

    The scenario's shape checks run whenever the data scale supports them
    (always for closed-form exhibits; the Monte-Carlo sweeps are only
    checked at the default scale — the tiny smoke sizes are below their
    calibration).
    """
    scenario = paper_scenario(name)
    config = _paper_config(tiny)
    result, measurement = time_callable(lambda: scenario.run(config), timing)
    checked = scenario.checks_at_tiny or not tiny
    if checked:
        scenario.check(result, config)
    ops = {str(k): v for k, v in scenario.summarize(result).items()}
    ops["checked"] = checked
    return {
        "name": name,
        "title": scenario.title,
        "ops": ops,
        "seconds": measurement.to_json(),
    }


def run_suite(
    suite: str,
    tiny: bool = False,
    seed: int = DEFAULT_BENCH_SEED,
    timing: TimingSpec | None = None,
    scenario_filter: Sequence[str] | None = None,
    include_micro: bool = True,
) -> dict[str, Any]:
    """Run a whole suite and return the (schema-valid) report document."""
    if timing is None:
        timing = default_timing(suite)
    entries: list[dict[str, Any]] = []
    micro: list[dict[str, Any]] | None = None

    if suite == "paper":
        names = list(scenario_filter) if scenario_filter else available_paper_scenarios()
        unknown = set(names) - set(available_paper_scenarios())
        if unknown:
            raise ValueError(f"unknown paper scenario(s) {sorted(unknown)}")
        for name in names:
            with span(name, kind="scenario", suite=suite):
                entries.append(run_paper_entry(name, tiny, timing))
    elif suite == "core":
        scenarios = _filter_scenarios(matrix_for("core", tiny).expand("core"), scenario_filter)
        cache = _DatasetCache(seed)
        for scenario in scenarios:
            with span(scenario.name, kind="scenario", suite=suite):
                entries.append(run_core_scenario(scenario, cache, seed, timing))
        if include_micro:
            micro = run_micro_benchmarks(seed, tiny=tiny, timing=timing)
    elif suite == "stream":
        import tempfile

        from repro.bench.stream import run_stream_scenario, stream_scenarios
        from repro.dataset.loaders import write_csv

        scenarios = _filter_scenarios(stream_scenarios(tiny), scenario_filter)
        cache = _DatasetCache(seed)
        with tempfile.TemporaryDirectory(prefix="repro-bench-stream-") as tmp:
            workdir = Path(tmp)
            csv_paths: dict[tuple[str, int], Path] = {}
            for scenario in scenarios:
                key = (scenario.dataset, scenario.rows)
                if key not in csv_paths:
                    path = workdir / f"{scenario.dataset}-{scenario.rows}.csv"
                    write_csv(cache.get(scenario.dataset, scenario.rows), path)
                    csv_paths[key] = path
                with span(scenario.name, kind="scenario", suite=suite):
                    entries.append(
                        run_stream_scenario(scenario, csv_paths[key], seed, timing, workdir)
                    )
    elif suite == "parallel":
        import tempfile

        from repro.bench.parallel import parallel_scenarios, run_parallel_scenario
        from repro.dataset.loaders import write_csv

        scenarios = _filter_scenarios(parallel_scenarios(tiny), scenario_filter)
        cache = _DatasetCache(seed)
        with tempfile.TemporaryDirectory(prefix="repro-bench-parallel-") as tmp:
            workdir = Path(tmp)
            csv_paths: dict[tuple[str, int], Path] = {}
            baselines: dict[tuple[str, str, int], dict[str, Any]] = {}
            for scenario in scenarios:
                key = (scenario.dataset, scenario.rows)
                if key not in csv_paths:
                    path = workdir / f"{scenario.dataset}-{scenario.rows}.csv"
                    write_csv(cache.get(scenario.dataset, scenario.rows), path)
                    csv_paths[key] = path
                with span(scenario.name, kind="scenario", suite=suite):
                    entries.append(
                        run_parallel_scenario(
                            scenario, csv_paths[key], seed, timing, workdir, baselines
                        )
                    )
    elif suite == "delta":
        import tempfile

        from repro.bench.delta import delta_scenarios, run_delta_scenario

        scenarios = _filter_scenarios(delta_scenarios(tiny), scenario_filter)
        cache = _DatasetCache(seed)
        with tempfile.TemporaryDirectory(prefix="repro-bench-delta-") as tmp:
            workdir = Path(tmp)
            for scenario in scenarios:
                table = cache.get(scenario.dataset, scenario.rows)
                with span(scenario.name, kind="scenario", suite=suite):
                    entries.append(
                        run_delta_scenario(scenario, table, seed, timing, workdir)
                    )
    elif suite == "serve":
        from repro.bench.serve import run_serve_scenario, serve_scenarios

        scenarios = _filter_scenarios(serve_scenarios(tiny), scenario_filter)
        for scenario in scenarios:
            with span(scenario.name, kind="scenario", suite=suite):
                entries.append(run_serve_scenario(scenario, seed, timing))
    elif suite == "service":
        from repro.service import AnonymizationService, JobStore

        scenarios = _filter_scenarios(matrix_for("service", tiny).expand("service"), scenario_filter)
        service = AnonymizationService()
        # Every timed pass records a job; keep only the latest published
        # table resident so a long matrix doesn't accumulate hundreds of MB.
        service.jobs = JobStore(max_published_tables=1)
        for dataset, rows in sorted({(s.dataset, s.rows) for s in scenarios}):
            service.register_synthetic(f"{dataset}-{rows}", dataset, n_records=rows, seed=seed)
        for scenario in scenarios:
            with span(scenario.name, kind="scenario", suite=suite):
                entries.append(run_service_scenario(scenario, service, seed, timing))
    else:
        raise ValueError(
            f"unknown suite {suite!r}; choose core, service, paper, stream, "
            "parallel, delta or serve"
        )

    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "scale": "tiny" if tiny else "default",
        "seed": int(seed),
        "timing": timing.to_json(),
        # The canonical per-process record from repro.obs — the same dict
        # trace headers and /metrics report, so numbers stay comparable.
        # Worker-scaling numbers (the parallel suite) only mean anything
        # read against the cores the run actually had.
        "environment": dict(runtime_environment()),
        "scenarios": entries,
    }
    if micro is not None:
        report["micro"] = micro
    validate_report(report)
    return report


def report_path(suite: str, output_dir: str | Path = ".") -> Path:
    """The canonical report file for a suite, e.g. ``BENCH_core.json``."""
    return Path(output_dir) / f"BENCH_{suite}.json"


def write_report(report: dict[str, Any], output_dir: str | Path = ".") -> Path:
    """Schema-check ``report`` and write it to ``BENCH_<suite>.json``."""
    validate_report(report)
    path = report_path(report["suite"], output_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return path
