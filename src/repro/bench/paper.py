"""The paper's tables, figures and ablations as named benchmark scenarios.

Each of the twelve ``benchmarks/bench_*.py`` scripts used to carry its own
run / render / assert logic; that logic now lives here as a
:class:`PaperScenario` so the same scenario is reachable three ways:

* ``repro-bench run --suite paper --scenario figure3`` (timed, JSON report);
* ``pytest benchmarks/`` (the scripts are thin wrappers over this registry,
  keeping the pytest-benchmark workflow and the ``benchmarks/results/``
  artifacts);
* programmatically, via :func:`paper_scenario`.

A scenario bundles four callables: ``run(config)`` produces the result,
``render(result)`` the plain-text table/series, ``check(result, config)``
the qualitative shape assertions of the corresponding paper exhibit, and
``summarize(result)`` a small dict of deterministic operation counts for the
JSON report.  ``checks_at_tiny`` declares whether those assertions hold at
any data size (closed-form exhibits) or only from the quick/default scales
up (the Monte-Carlo sweeps) — the runner and the smoke tests skip the
checks at tiny sizes for the latter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.analysis.utility import compare_up_and_sps
from repro.bench.scenarios import Context
from repro.bench.timing import time_callable
from repro.core.criterion import PrivacySpec, smallest_error_bound
from repro.core.sps import sps_publish
from repro.core.testing import audit_table
from repro.criteria.comparison import compare_criteria
from repro.dataset.adult import generate_adult
from repro.dataset.groups import personal_groups
from repro.experiments.aggregation import run_aggregation_impact
from repro.experiments.config import ExperimentConfig
from repro.experiments.error_sweep import run_error_sweep
from repro.experiments.figure1 import run_figure1
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import TABLE2_ANSWERS, TABLE2_SCALES, run_table2
from repro.experiments.violation_sweep import run_violation_sweep
from repro.generalization.merging import generalize_table
from repro.utils.rng import default_rng
from repro.perturbation.uniform import UniformPerturbation, perturb_table
from repro.queries.error import average_relative_error
from repro.queries.workload import WorkloadConfig, generate_workload
from repro.reconstruction.mle import mle_frequencies


class CheckFailed(AssertionError):
    """A paper scenario's qualitative shape assertion did not hold."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class PaperScenario:
    """One paper exhibit, runnable and checkable by name."""

    name: str
    title: str
    run: Callable[[ExperimentConfig], Any]
    render: Callable[[Any], str]
    check: Callable[[Any, ExperimentConfig], None]
    summarize: Callable[[Any], dict[str, Any]]
    checks_at_tiny: bool = False  # True when the checks hold at every data size


_SCENARIOS: dict[str, PaperScenario] = {}


def _register(scenario: PaperScenario) -> PaperScenario:
    _SCENARIOS[scenario.name] = scenario
    return scenario


def paper_scenario(name: str) -> PaperScenario:
    """Look a paper scenario up by name."""
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown paper scenario {name!r}; available: {available_paper_scenarios()}"
        ) from None


def available_paper_scenarios() -> list[str]:
    """Sorted names of every registered paper scenario."""
    return sorted(_SCENARIOS)


def smoke_config() -> ExperimentConfig:
    """A seconds-scale configuration for smoke-testing every scenario."""
    return ExperimentConfig(
        adult_size=1_500,
        census_size=3_000,
        census_sweep_sizes=(1_500, 3_000),
        workload_queries=30,
        runs=1,
        attack_trials=2,
    )


def paper_scenarios(tiny: bool = False) -> list[PaperScenario]:
    """Every registered paper scenario, sorted by name."""
    return [_SCENARIOS[name] for name in available_paper_scenarios()]


def run_paper_scenario(scenario: PaperScenario, ctx: Context) -> dict[str, Any]:
    """Run one paper scenario and return its report entry.

    The scenario's shape checks run whenever the data scale supports them
    (always for closed-form exhibits; the Monte-Carlo sweeps are only
    checked at the default scale — the tiny smoke sizes are below their
    calibration).  A failed check raises :class:`CheckFailed`.
    """
    config = smoke_config() if ctx.tiny else ExperimentConfig()
    result, measurement = time_callable(lambda: scenario.run(config), ctx.timing)
    checked = scenario.checks_at_tiny or not ctx.tiny
    if checked:
        scenario.check(result, config)
    ops = {str(k): v for k, v in scenario.summarize(result).items()}
    ops["checked"] = checked
    return {
        "name": scenario.name,
        "title": scenario.title,
        "ops": ops,
        "verdicts": {},
        "seconds": measurement.to_json(),
    }


# --------------------------------------------------------------------- #
# core-ops: throughput of the individual building blocks
# --------------------------------------------------------------------- #

#: Names of the operations timed by the ``core-ops`` scenario — the single
#: source of truth for its checks and the pytest wrapper's parametrization.
CORE_OP_NAMES = (
    "uniform-perturbation",
    "group-indexing",
    "privacy-audit",
    "sps-publish",
    "mle-reconstruction",
    "adult-generation",
)


def core_op_callables(config: ExperimentConfig) -> dict[str, Callable[[], Any]]:
    """The individual core operations timed by the ``core-ops`` scenario.

    Mirrors the paper's complexity claim that SPS costs a sort plus a single
    scan: every building block on the publish path is timed in isolation.
    """
    n = min(config.adult_size, 20_000)
    table = generate_adult(n, seed=config.seed)
    spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=2)
    groups = personal_groups(table)
    operator = UniformPerturbation(0.5, 50)
    codes = default_rng(0).integers(0, 50, size=10 * n)
    counts = default_rng(1).integers(100, 10_000, size=50).astype(float)
    return {
        "uniform-perturbation": lambda: operator.perturb_codes(codes, 1),
        "group-indexing": lambda: personal_groups(table),
        "privacy-audit": lambda: audit_table(table, spec, groups),
        "sps-publish": lambda: sps_publish(table, spec, 0, groups),
        "mle-reconstruction": lambda: mle_frequencies(counts, 0.5),
        "adult-generation": lambda: generate_adult(n, seed=1),
    }


def _run_core_ops(config: ExperimentConfig) -> dict[str, float]:
    seconds = {}
    for name, op in core_op_callables(config).items():
        start = time.perf_counter()
        op()
        seconds[name] = time.perf_counter() - start
    return seconds


def _render_core_ops(result: dict[str, float]) -> str:
    from repro.utils.textplot import render_table

    rows = [(name, seconds) for name, seconds in result.items()]
    return render_table(("operation", "seconds"), rows, title="Core operation timings")


def _check_core_ops(result: dict[str, float], config: ExperimentConfig) -> None:
    expected = set(CORE_OP_NAMES)
    _require(set(result) == expected, f"core ops changed: {sorted(result)} != {sorted(expected)}")
    _require(all(s >= 0 for s in result.values()), "negative op timing")


_register(
    PaperScenario(
        name="core-ops",
        title="Throughput of the core building blocks (perturb, index, audit, SPS, MLE)",
        run=_run_core_ops,
        render=_render_core_ops,
        check=_check_core_ops,
        summarize=lambda result: {"n_operations": len(result)},
        checks_at_tiny=True,
    )
)


# --------------------------------------------------------------------- #
# Table 1 and Table 2: the DP disclosure exhibits
# --------------------------------------------------------------------- #

def _check_table1(result: Any, config: ExperimentConfig) -> None:
    _require(result.true_confidence > 0.8, "ADULT rule confidence should exceed 0.8")
    low_privacy = result.per_epsilon[0.5]
    high_privacy = result.per_epsilon[0.01]
    _require(low_privacy.confidence_gap < 0.05, "Conf' should be accurate at eps=0.5")
    _require(low_privacy.error_q1_mean < 0.1, "Q1 should be accurate at eps=0.5")
    _require(
        high_privacy.error_q1_mean > 5 * low_privacy.error_q1_mean,
        "eps=0.01 answers should be much noisier than eps=0.5",
    )


_register(
    PaperScenario(
        name="table1",
        title="Table 1: disclosure of the ADULT rule through two Laplace-noisy counts",
        run=run_table1,
        render=lambda result: result.render(),
        check=_check_table1,
        summarize=lambda result: {"n_epsilons": len(result.per_epsilon)},
    )
)


def _check_table2(result: Any, config: ExperimentConfig) -> None:
    for expected, (b, x) in (
        (0.000008, (10.0, 5000)),
        (0.02, (20.0, 200)),
        (0.0128, (40.0, 500)),
        (8.0, (200.0, 100)),
    ):
        _require(
            bool(np.isclose(result.grid[b][x], expected, rtol=1e-6)),
            f"Table 2 cell (b={b}, x={x}) should be {expected}",
        )
    for b in TABLE2_SCALES:
        values = [result.grid[b][x] for x in TABLE2_ANSWERS]
        _require(values == sorted(values), f"Table 2 row b={b} should be monotone in x")


_register(
    PaperScenario(
        name="table2",
        title="Table 2: the 2 (b/x)^2 disclosure-indicator grid",
        run=lambda config: run_table2(),
        render=lambda result: result.render(),
        check=_check_table2,
        summarize=lambda result: {"n_cells": sum(len(row) for row in result.grid.values())},
        checks_at_tiny=True,
    )
)


# --------------------------------------------------------------------- #
# Tables 4 and 5: chi-square aggregation impact
# --------------------------------------------------------------------- #

def _check_tables4_5(impacts: Any, config: ExperimentConfig) -> None:
    adult = impacts["ADULT"]
    census = impacts["CENSUS"]
    _require(
        adult.domain_sizes_after["Education"] < adult.domain_sizes_before["Education"],
        "ADULT Education domain should shrink",
    )
    _require(
        adult.domain_sizes_after["Occupation"] < adult.domain_sizes_before["Occupation"],
        "ADULT Occupation domain should shrink",
    )
    _require(adult.n_groups_after < adult.n_groups_before / 5, "ADULT group count should collapse")
    _require(
        adult.average_group_size_after > adult.average_group_size_before,
        "ADULT average group size should grow",
    )
    _require(census.domain_sizes_after["Age"] == 1, "CENSUS Age should become uninformative")
    for attribute in ("Education", "Marital", "Race"):
        _require(
            census.domain_sizes_after[attribute] == census.domain_sizes_before[attribute],
            f"CENSUS {attribute} domain should survive",
        )
    _require(census.n_groups_after < census.n_groups_before / 10, "CENSUS group count should collapse")


_register(
    PaperScenario(
        name="tables4-5",
        title="Tables 4 and 5: impact of chi-square NA aggregation on ADULT and CENSUS",
        run=run_aggregation_impact,
        render=lambda impacts: "\n\n".join(impact.render() for impact in impacts.values()),
        check=_check_tables4_5,
        summarize=lambda impacts: {
            "datasets": len(impacts),
            "adult_groups_after": impacts["ADULT"].n_groups_after,
            "census_groups_after": impacts["CENSUS"].n_groups_after,
        },
    )
)


# --------------------------------------------------------------------- #
# Figure 1: the s_g curves
# --------------------------------------------------------------------- #

def _check_figure1(panels: Any, config: ExperimentConfig) -> None:
    for panel in panels.values():
        for retention, curve in panel.curves.items():
            _require(
                all(a >= b for a, b in zip(curve, curve[1:], strict=False)),
                f"s_g should decrease in f (p={retention})",
            )
        _require(
            all(low >= high for low, high in zip(panel.curves[0.3], panel.curves[0.7], strict=True)),
            "larger p should give smaller s_g at the same f",
        )
    _require(
        panels["CENSUS"].curves[0.5][0] > max(panels["ADULT"].curves[0.5]),
        "CENSUS small frequencies should blow s_g up past ADULT's",
    )


_register(
    PaperScenario(
        name="figure1",
        title="Figure 1: the maximum group size s_g versus the maximum frequency f",
        run=lambda config: run_figure1(),
        render=lambda panels: "\n\n".join(panel.render() for panel in panels.values()),
        check=_check_figure1,
        summarize=lambda panels: {
            "panels": len(panels),
            "curves": sum(len(panel.curves) for panel in panels.values()),
        },
        checks_at_tiny=True,
    )
)


# --------------------------------------------------------------------- #
# Figures 2 and 4: violation sweeps
# --------------------------------------------------------------------- #

def _sweep_views(dataset: str) -> dict[str, Callable[[Any], Any]]:
    """``render`` and ``summarize`` of a ``{dataset: {axis: sweep}}`` result."""

    def summarize(sweeps: Any) -> dict[str, Any]:
        axes = sweeps[dataset].values()
        return {"sweeps": len(axes), "points": sum(len(s.values) for s in axes)}

    return {
        "render": lambda sweeps: "\n\n".join(s.render() for s in sweeps[dataset].values()),
        "summarize": summarize,
    }


def _check_figure2(sweeps: Any, config: ExperimentConfig) -> None:
    adult = sweeps["ADULT"]
    defaults = adult["p"]
    default_index = defaults.values.index(config.retention)
    _require(
        defaults.record_rates[default_index] > 0.5,
        "most ADULT records should sit in violating groups at the defaults",
    )
    for sweep in adult.values():
        for vg, vr in zip(sweep.group_rates, sweep.record_rates, strict=True):
            _require(vr >= vg - 1e-9, "coverage must dominate the group rate")
    for axis in ("lambda", "delta", "p"):
        rates = adult[axis].group_rates
        _require(rates[-1] >= rates[0], f"violations should grow with {axis}")


_register(
    PaperScenario(
        name="figure2",
        title="Figure 2: reconstruction-privacy violation rates on ADULT under plain UP",
        run=lambda config: run_violation_sweep(
            config=config, datasets=("ADULT",), include_size_sweep=False
        ),
        **_sweep_views("ADULT"),
        check=_check_figure2,
    )
)


def _check_figure4(sweeps: Any, config: ExperimentConfig) -> None:
    census = sweeps["CENSUS"]
    for sweep in census.values():
        for vg, vr in zip(sweep.group_rates, sweep.record_rates, strict=True):
            _require(vr >= vg - 1e-9, "coverage must dominate the group rate")
        _require(max(sweep.group_rates) < 0.6, "CENSUS group violation rate should stay moderate")
    size_sweep = census["|D|"]
    _require(
        size_sweep.record_rates[-1] >= size_sweep.record_rates[0],
        "more data should mean more violating coverage",
    )


_register(
    PaperScenario(
        name="figure4",
        title="Figure 4: reconstruction-privacy violation rates on CENSUS under plain UP",
        run=lambda config: run_violation_sweep(
            config=config, datasets=("CENSUS",), include_size_sweep=True
        ),
        **_sweep_views("CENSUS"),
        check=_check_figure4,
    )
)


# --------------------------------------------------------------------- #
# Figures 3 and 5: relative-error sweeps
# --------------------------------------------------------------------- #

def _figure3_config(config: ExperimentConfig) -> ExperimentConfig:
    """Trim the ADULT error sweep unless a paper-scale run was requested."""
    if config.adult_size <= 20_000:
        return config
    return ExperimentConfig(
        adult_size=20_000,
        workload_queries=min(config.workload_queries, 400),
        runs=min(config.runs, 3),
        seed=config.seed,
    )


def _check_figure3(sweeps: Any, config: ExperimentConfig) -> None:
    adult = sweeps["ADULT"]
    p_sweep = adult["p"]
    _require(p_sweep.up_errors[0] > p_sweep.up_errors[-1], "UP error should fall with p")
    _require(p_sweep.sps_errors[0] > p_sweep.sps_errors[-1], "SPS error should fall with p")
    for sweep in adult.values():
        for up, sps in zip(sweep.up_errors, sweep.sps_errors, strict=True):
            _require(sps >= up - 0.03, "SPS should not beat UP beyond Monte-Carlo noise")
            _require(sps <= 2.5 * up + 0.05, "SPS extra cost on ADULT should stay bounded")


_register(
    PaperScenario(
        name="figure3",
        title="Figure 3: the relative-error cost of SPS versus plain UP on ADULT",
        run=lambda config: run_error_sweep(
            config=_figure3_config(config), datasets=("ADULT",), include_size_sweep=False
        ),
        **_sweep_views("ADULT"),
        check=_check_figure3,
    )
)


def _figure5_config(config: ExperimentConfig) -> ExperimentConfig:
    """Trim the CENSUS error sweep unless a paper-scale run was requested."""
    if config.census_size <= 60_000:
        return config
    return ExperimentConfig(
        census_size=60_000,
        census_sweep_sizes=(30_000, 60_000, 90_000),
        workload_queries=min(config.workload_queries, 300),
        runs=min(config.runs, 2),
        seed=config.seed,
    )


def _check_figure5(sweeps: Any, config: ExperimentConfig) -> None:
    census = sweeps["CENSUS"]
    for sweep in census.values():
        for up, sps in zip(sweep.up_errors, sweep.sps_errors, strict=True):
            _require(sps >= up - 0.03, "SPS should not beat UP beyond Monte-Carlo noise")
            _require(sps <= 1.6 * up + 0.03, "SPS on CENSUS should track UP closely")
    size_sweep = census["|D|"]
    _require(
        size_sweep.sps_errors[-1] < size_sweep.sps_errors[0],
        "relative error should fall as the data grows",
    )
    p_sweep = census["p"]
    _require(p_sweep.up_errors[0] > p_sweep.up_errors[-1], "UP error should fall with p")
    _require(p_sweep.sps_errors[0] > p_sweep.sps_errors[-1], "SPS error should fall with p")


_register(
    PaperScenario(
        name="figure5",
        title="Figure 5: the relative-error cost of SPS versus plain UP on CENSUS",
        run=lambda config: run_error_sweep(
            config=_figure5_config(config), datasets=("CENSUS",), include_size_sweep=True
        ),
        **_sweep_views("CENSUS"),
        check=_check_figure5,
    )
)


# --------------------------------------------------------------------- #
# Ablations
# --------------------------------------------------------------------- #

def violation_rates_by_bound(adult_size: int, seed: int) -> dict[str, float]:
    """Group violation rate of the same ADULT sample under three tail bounds."""
    table = generalize_table(generate_adult(adult_size, seed=seed)).table
    spec = PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=2)
    groups = list(personal_groups(table))

    rates = {}
    chernoff_audit = audit_table(table, spec)
    rates["chernoff"] = chernoff_audit.group_violation_rate
    for method in ("chebyshev", "markov"):
        violations = sum(
            1
            for group in groups
            if smallest_error_bound(spec, group.size, group.max_frequency, method=method)
            < spec.delta
        )
        rates[method] = violations / len(groups)
    return rates


def _check_ablation_bounds(rates: Any, config: ExperimentConfig) -> None:
    _require(
        rates["markov"] <= min(rates["chernoff"], rates["chebyshev"]) + 1e-9,
        "Markov is too loose to certify violations",
    )
    _require(rates["chernoff"] > 0, "Chernoff should flag some ADULT groups")


_register(
    PaperScenario(
        name="ablation-bounds",
        title="Ablation: Chernoff vs Chebyshev vs Markov in the privacy test",
        run=lambda config: violation_rates_by_bound(
            min(config.adult_size, 20_000), config.seed
        ),
        render=lambda rates: (
            "Group violation rate on ADULT by tail bound\n"
            + "\n".join(f"{name:10s}: {rate:.3f}" for name, rate in rates.items())
        ),
        check=_check_ablation_bounds,
        summarize=lambda rates: {"n_bounds": len(rates)},
    )
)


def _largest_private_retention(
    table: Any, lam: float, delta: float, domain_size: int
) -> float:
    """The largest p on a coarse grid for which no personal group violates."""
    for p in np.arange(0.95, 0.009, -0.05):
        spec = PrivacySpec(
            lam=lam, delta=delta, retention_probability=float(p), domain_size=domain_size
        )
        if audit_table(table, spec).is_private:
            return float(p)
    return 0.01


def run_sampling_ablation(adult_size: int, seed: int) -> dict:
    """SPS at the original p versus plain UP at the largest private p."""
    raw = generate_adult(adult_size, seed=seed)
    generalization = generalize_table(raw)
    table = generalization.table
    queries = generate_workload(
        raw, table, WorkloadConfig(n_queries=200), generalization=generalization, rng=seed
    )
    lam = delta = 0.3
    p = 0.5
    spec = PrivacySpec(lam=lam, delta=delta, retention_probability=p, domain_size=2)

    comparison = compare_up_and_sps(table, spec, queries, runs=2, rng=seed)
    reduced_p = _largest_private_retention(table, lam, delta, 2)
    reduced_errors = [
        average_relative_error(
            queries, table, perturb_table(table, reduced_p, rng=seed + i), reduced_p
        )
        for i in range(2)
    ]
    return {
        "sps_error": comparison.sps_error,
        "up_error": comparison.up_error,
        "reduced_p": reduced_p,
        "reduced_p_error": float(np.mean(reduced_errors)),
    }


def _render_ablation_sampling(result: dict) -> str:
    return (
        "SPS at p=0.5 vs global p reduction (ADULT)\n"
        f"UP error at p=0.5          : {result['up_error']:.4f}\n"
        f"SPS error at p=0.5         : {result['sps_error']:.4f}\n"
        f"largest private p          : {result['reduced_p']:.2f}\n"
        f"UP error at that reduced p : {result['reduced_p_error']:.4f}\n"
    )


def _check_ablation_sampling(result: Any, config: ExperimentConfig) -> None:
    _require(result["reduced_p"] <= 0.2, "global privacy should require a very noisy p")
    _require(
        result["reduced_p_error"] > result["sps_error"],
        "lowering p globally should cost more utility than SPS sampling",
    )


_register(
    PaperScenario(
        name="ablation-sampling",
        title="Ablation: SPS sampling versus lowering p globally (Section 5)",
        run=lambda config: run_sampling_ablation(min(config.adult_size, 20_000), config.seed),
        render=_render_ablation_sampling,
        check=_check_ablation_sampling,
        summarize=lambda result: {"reduced_p": result["reduced_p"]},
    )
)


def _check_criteria_comparison(comparison: Any, config: ExperimentConfig) -> None:
    by_name = {report.criterion: report for report in comparison.reports}
    _require(by_name["t-closeness"].group_failure_rate > 0, "t-closeness should flag ADULT groups")
    _require(by_name["beta-likeness"].group_failure_rate > 0, "beta-likeness should flag ADULT groups")
    _require(
        0 < comparison.reconstruction_group_rate < 1,
        "reconstruction privacy should flag some but not all groups",
    )


_register(
    PaperScenario(
        name="criteria-comparison",
        title="Ablation: reconstruction privacy versus the posterior/prior criteria",
        run=lambda config: compare_criteria(
            generalize_table(generate_adult(min(config.adult_size, 20_000), seed=config.seed)).table,
            PrivacySpec(lam=0.3, delta=0.3, retention_probability=0.5, domain_size=2),
            l=2,
            t=0.2,
            beta=1.0,
            k=3,
        ),
        render=lambda comparison: comparison.render(),
        check=_check_criteria_comparison,
        summarize=lambda comparison: {"n_criteria": len(comparison.reports)},
    )
)
