"""Execute benchmark suites and emit the ``BENCH_*.json`` reports.

:data:`SUITES` maps every suite name to its
:class:`~repro.bench.scenarios.Suite`; the core and service suites are
defined here, the others in the module named after them.  :func:`run_suite`
is the one loop over a suite's scenarios.

Determinism contract: for a fixed ``(suite, tiny, seed, filter)`` the
scenario set, every scenario's operation counts and verdicts, and the
published bytes behind them are identical run-to-run — only the wall-clock
fields move.  Reports are written to ``BENCH_<suite>.json`` (schema-checked
before writing) so the repo root carries a diffable perf trajectory.
"""

from __future__ import annotations

import json
import tempfile
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.bench import delta, micro, paper, serve, stream
from repro.bench.scenarios import Context, Scenario, Suite
from repro.bench.schema import SCHEMA_VERSION, validate_report
from repro.bench.timing import TimingSpec, time_callable
from repro.obs.environment import runtime_environment
from repro.obs.trace import span
from repro.pipeline import publish

#: Default root seed (the same EDBT-date seed the experiments use).
DEFAULT_BENCH_SEED = 20150323

def _grid(
    strategies: Sequence[str],
    datasets: Sequence[tuple[str, int]],
    chunk_sizes: Sequence[int],
    workers: Sequence[int] = (1,),
) -> list[Scenario]:
    """The cross product, strategy-major and workers innermost."""
    return [
        Scenario(
            f"{strategy}/{dataset}-{rows}/c{chunk_size}/w{w}", strategy, dataset, rows, chunk_size, w
        )
        for strategy in strategies
        for dataset, rows in datasets
        for chunk_size in chunk_sizes
        for w in workers
    ]


def core_scenarios(tiny: bool = False) -> list[Scenario]:
    """The library path (serial execution, so one worker)."""
    if tiny:
        strategies = ("sps", "uniform", "generalize+sps")
        return _grid(strategies, (("adult", 2_000), ("census", 5_000)), (64, 256))
    strategies = ("sps", "uniform", "dp-laplace", "dp-gaussian", "generalize+sps")
    return _grid(strategies, (("adult", 45_222), ("census", 100_000)), (256, 1024))


def service_scenarios(tiny: bool = False) -> list[Scenario]:
    """The service path (scheduler execution; workers is a real axis)."""
    if tiny:
        # census-50000 sps runs ~0.1 s, over the perf gate's 50 ms floor.
        datasets = (("adult", 2_000), ("census", 50_000))
        return _grid(("sps", "generalize+sps"), datasets, (64,), (1, 4))
    return _grid(
        ("sps", "generalize+sps", "dp-laplace"),
        (("adult", 45_222), ("census", 100_000)),
        (256,),
        (1, 4, 8),
    )


def run_core_scenario(scenario: Scenario, ctx: Context) -> dict[str, Any]:
    """Time one library-path scenario and return its report entry."""
    table = ctx.table(scenario.dataset, scenario.rows)

    def once() -> Any:
        return publish(
            table,
            strategy=scenario.strategy,
            rng=ctx.seed,
            chunk_size=scenario.chunk_size,
            **scenario.params,
        )

    report, measurement = time_callable(once, ctx.timing)
    ops: dict[str, Any] = {
        "published_records": len(report.published),
        "prepared_records": len(report.prepared),
        "n_group_records": len(report.records) if report.records else 0,
        "n_sampled_groups": report.n_sampled_groups,
    }
    if report.audit is not None:
        ops["n_groups"] = report.audit.n_groups
        ops["n_violating_groups"] = report.audit.n_violating_groups
    return scenario.entry(measurement, ops, report.timings)


def _service() -> Any:
    from repro.service import AnonymizationService, JobStore

    service = AnonymizationService()
    # Every timed pass records a job; keep only the latest published
    # table resident so a long matrix doesn't accumulate hundreds of MB.
    service.jobs = JobStore(max_published_tables=1, store=service.store)
    return service


def run_service_scenario(scenario: Scenario, ctx: Context) -> dict[str, Any]:
    """Time one service-path scenario (cached group index, shared scheduler)."""
    service = ctx.once("service", _service)
    dataset_name = f"{scenario.dataset}-{scenario.rows}"
    ctx.once(
        ("registered", dataset_name),
        lambda: service.register_synthetic(
            dataset_name, scenario.dataset, n_records=scenario.rows, seed=ctx.seed
        ),
    )

    def once() -> Any:
        return service.publish(
            dataset_name,
            scenario.strategy,
            params=scenario.params,
            seed=ctx.seed,
            chunk_size=scenario.chunk_size,
            max_workers=scenario.workers,
        )

    record, measurement = time_callable(once, ctx.timing)
    ops: dict[str, Any] = {
        "published_records": record.published_records,
        "group_index_cached": bool(record.timings.group_index_cached),
    }
    if record.audit is not None:
        ops["n_groups"] = record.audit.n_groups
        ops["n_violating_groups"] = record.audit.n_violating_groups
    stages = {
        "group_index": record.timings.group_index_seconds,
        "publish": record.timings.publish_seconds,
        "total": record.timings.total_seconds,
    }
    return scenario.entry(measurement, ops, stages)


#: Every suite, in listing order.  Paper scenarios are minutes-scale at
#: default sizes, so they get one pass and stay out of the perf gate.
SUITES: dict[str, Suite] = {
    "core": Suite(core_scenarios, run_core_scenario),
    "service": Suite(service_scenarios, run_service_scenario),
    "micro": Suite(
        micro.micro_scenarios,
        micro.run_micro_scenario,
        coordinates=False,
        required_ops=micro.MICRO_REQUIRED_OPS,
        verdicts=lambda entry: micro.MICRO_VERDICTS,
    ),
    "paper": Suite(
        paper.paper_scenarios,
        paper.run_paper_scenario,
        timing=TimingSpec(warmup=0, repeats=1),
        coordinates=False,
        gated=False,
    ),
    "stream": Suite(
        stream.stream_scenarios,
        stream.run_stream_scenario,
        verdicts=lambda entry: stream.STREAM_VERDICTS,
    ),
    "delta": Suite(
        delta.delta_scenarios, delta.run_delta_scenario, verdicts=lambda entry: delta.DELTA_VERDICTS
    ),
    "serve": Suite(
        serve.serve_scenarios,
        serve.run_serve_scenario,
        required_ops=serve.SERVE_REQUIRED_OPS,
        verdicts=lambda entry: serve.SERVE_VERDICTS.get(entry.get("strategy"), ()),
    ),
}


def _filter_scenarios(scenarios: list[Any], names: Sequence[str] | None) -> list[Any]:
    """Scenarios whose name, or one ``/``-separated part of it, is in ``names``."""
    if not names:
        return scenarios
    wanted = set(names)
    kept = [s for s in scenarios if wanted & {s.name, *s.name.split("/")}]
    matched = {part for s in kept for part in (s.name, *s.name.split("/"))}
    if wanted - matched:
        raise ValueError(
            f"unknown scenario filter(s) {sorted(wanted - matched)}; "
            "filters match a scenario name or one '/'-separated part of it"
        )
    return kept


def run_suite(
    suite: str,
    tiny: bool = False,
    seed: int = DEFAULT_BENCH_SEED,
    timing: TimingSpec | None = None,
    scenario_filter: Sequence[str] | None = None,
) -> dict[str, Any]:
    """Run a whole suite and return the (schema-valid) report document."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose one of {', '.join(SUITES)}")
    spec = SUITES[suite]
    timing = timing or spec.timing
    scenarios = _filter_scenarios(spec.scenarios(tiny), scenario_filter)
    with tempfile.TemporaryDirectory(prefix=f"repro-bench-{suite}-") as tmp:
        ctx = Context(seed=seed, timing=timing, tiny=tiny, workdir=Path(tmp))
        entries = []
        for scenario in scenarios:
            with span(scenario.name, kind="scenario", suite=suite):
                entries.append(spec.run(scenario, ctx))

    report: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite,
        "scale": "tiny" if tiny else "default",
        "seed": int(seed),
        "timing": timing.to_json(),
        # The canonical per-process record from repro.obs — the same dict
        # trace headers and /metrics report, so numbers stay comparable.
        # Worker-scaling numbers only mean anything read against the cores
        # the run actually had.
        "environment": dict(runtime_environment()),
        "scenarios": entries,
    }
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
