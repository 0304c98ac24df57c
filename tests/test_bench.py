"""Tests for the repro.bench subsystem.

Covers the acceptance surface of the benchmark harness: the fixed order
of the scenario lists, warmup/repeat timer behaviour, report schema
round-trips through JSON, run-to-run determinism of the recorded operation
counts, a tiny run of every suite with all its verdicts true, the
``repro-bench`` CLI, and a tiny-size smoke run of every ported paper
scenario.
"""

import json

import numpy as np
import pytest

from repro.bench.cli import main as bench_main
from repro.bench.paper import (
    available_paper_scenarios,
    paper_scenario,
    smoke_config,
)
from repro.bench.runner import (
    SUITES,
    core_scenarios,
    report_path,
    run_suite,
    service_scenarios,
    write_report,
)
from repro.bench.schema import SCHEMA_VERSION, SchemaError, validate_report
from repro.bench.timing import Measurement, TimingSpec, time_callable
from repro.utils.textplot import render_listing

EXPECTED_PAPER_SCENARIOS = {
    "core-ops",
    "table1",
    "table2",
    "tables4-5",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "ablation-bounds",
    "ablation-sampling",
    "criteria-comparison",
}


class TestScenarioLists:
    def test_core_list_is_the_cross_product_in_fixed_order(self):
        names = [s.name for s in core_scenarios(tiny=True)]
        assert len(names) == len(set(names)) == 12
        # Strategy-major, then dataset, then chunk size.
        assert names[:3] == [
            "sps/adult-2000/c64/w1",
            "sps/adult-2000/c256/w1",
            "sps/census-5000/c64/w1",
        ]
        assert names[-1] == "generalize+sps/census-5000/c256/w1"
        assert names == [s.name for s in core_scenarios(tiny=True)]

    def test_service_list_has_workers_innermost(self):
        names = [s.name for s in service_scenarios(tiny=True)]
        assert names == [
            "sps/adult-2000/c64/w1",
            "sps/adult-2000/c64/w4",
            "sps/census-50000/c64/w1",
            "sps/census-50000/c64/w4",
            "generalize+sps/adult-2000/c64/w1",
            "generalize+sps/adult-2000/c64/w4",
            "generalize+sps/census-50000/c64/w1",
            "generalize+sps/census-50000/c64/w4",
        ]
        default = service_scenarios()
        assert [s.workers for s in default[:3]] == [1, 4, 8]

    def test_presets_cover_both_datasets_and_tiny_is_smaller(self):
        tiny, full = core_scenarios(tiny=True), core_scenarios()
        assert len(tiny) < len(full)
        assert {s.dataset for s in tiny} == {"adult", "census"}
        assert all(s.rows <= 5_000 for s in tiny)
        assert len({s.workers for s in service_scenarios(tiny=True)}) > 1

    def test_every_suite_lists_uniquely_named_scenarios(self):
        for name, suite in SUITES.items():
            for tiny in (True, False):
                names = [s.name for s in suite.scenarios(tiny)]
                assert names and len(names) == len(set(names)), name
                assert all(isinstance(s.title, str) and s.title for s in suite.scenarios(tiny))


@pytest.mark.parametrize("suite", sorted(set(SUITES) - {"paper"}))
def test_tiny_suite_runs_with_every_verdict_true(suite):
    report = run_suite(suite, tiny=True, timing=TimingSpec(warmup=0, repeats=1))
    validate_report(report)
    assert [s["name"] for s in report["scenarios"]] == [
        s.name for s in SUITES[suite].scenarios(True)
    ]
    # validate_report pinned each entry's verdict names to the suite's
    # declaration; every one of them must hold.
    verdicts = {
        (entry["name"], name): value
        for entry in report["scenarios"]
        for name, value in entry["verdicts"].items()
    }
    assert all(value is True for value in verdicts.values()), verdicts


class TestTiming:
    def test_warmup_and_repeats_counts(self):
        calls = []
        spec = TimingSpec(warmup=2, repeats=3)
        result, measurement = time_callable(lambda: calls.append(1) or len(calls), spec)
        assert len(calls) == 5  # 2 discarded + 3 timed
        assert result == 5  # last pass's return value
        assert len(measurement.seconds) == 3
        assert measurement.best <= measurement.mean

    def test_deterministic_work_under_fixed_seed(self):
        def work(seed):
            return int(np.random.default_rng(seed).integers(0, 1000, size=100).sum())

        first, _ = time_callable(lambda: work(7), TimingSpec(warmup=1, repeats=2))
        second, _ = time_callable(lambda: work(7), TimingSpec(warmup=1, repeats=2))
        assert first == second

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            TimingSpec(warmup=-1)
        with pytest.raises(ValueError):
            TimingSpec(repeats=0)

    def test_measurement_json(self):
        measurement = Measurement(seconds=(0.2, 0.1, 0.3))
        data = measurement.to_json()
        assert data["best"] == 0.1
        assert data["repeats"] == [0.2, 0.1, 0.3]


class TestSchema:
    def _tiny_report(self, tmp_path):
        report = run_suite(
            "core",
            tiny=True,
            seed=3,
            timing=TimingSpec(warmup=0, repeats=1),
            scenario_filter=["sps/adult-2000/c64/w1"],
        )
        return report

    def test_round_trip_through_json_stays_valid(self, tmp_path):
        report = self._tiny_report(tmp_path)
        path = write_report(report, tmp_path)
        assert path == report_path("core", tmp_path)
        loaded = json.loads(path.read_text())
        validate_report(loaded)  # must not raise
        assert loaded == report
        assert loaded["schema_version"] == SCHEMA_VERSION

    def test_validator_catches_all_problems_at_once(self):
        with pytest.raises(SchemaError) as excinfo:
            validate_report({"schema_version": 99, "suite": "nope", "scenarios": []})
        message = str(excinfo.value)
        assert "schema_version" in message
        assert "suite" in message
        assert "scenarios" in message
        assert "seed" in message

    def test_validator_rejects_duplicate_scenario_names(self, tmp_path):
        report = self._tiny_report(tmp_path)
        report["scenarios"] = report["scenarios"] * 2
        with pytest.raises(SchemaError, match="duplicate"):
            validate_report(report)

    def test_validator_rejects_non_object(self):
        with pytest.raises(SchemaError):
            validate_report([1, 2, 3])

    def _serve_report(self):
        scenario = {
            "name": "serve/audit/adult-2000/c4",
            "suite": "serve",
            "strategy": "audit",
            "dataset": "adult",
            "rows": 2000,
            "chunk_size": 256,
            "workers": 4,
            "params": {"clients": 4, "requests_per_client": 10, "queue_limit": 64},
            "ops": {
                "throughput_rps": 1000.0,
                "p50_seconds": 0.001,
                "p95_seconds": 0.002,
                "p99_seconds": 0.003,
                "cache_hit_ratio": 1.0,
                "queue_rejections": 0,
            },
            "verdicts": {
                "byte_identical": True,
                "invalidation_observed": True,
                "all_cached_requests_hit": True,
                "hits_faster_than_recompute": True,
            },
            "seconds": {"best": 0.01, "mean": 0.01, "std": 0.0, "repeats": [0.01]},
        }
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": "serve",
            "scale": "tiny",
            "seed": 1,
            "timing": {"warmup": 1, "repeats": 3},
            "environment": {
                "python": "3", "numpy": "2", "platform": "x", "repro_version": "1",
                "cpu_count": 1,
            },
            "scenarios": [scenario],
        }

    def test_serve_report_validates(self):
        validate_report(self._serve_report())  # must not raise

    def test_serve_report_requires_latency_percentiles(self):
        report = self._serve_report()
        del report["scenarios"][0]["ops"]["p95_seconds"]
        with pytest.raises(SchemaError, match="p95_seconds"):
            validate_report(report)

    def test_every_entry_needs_boolean_verdicts(self):
        report = self._serve_report()
        report["scenarios"][0]["verdicts"] = {"byte_identical": 1}
        with pytest.raises(SchemaError, match="verdicts.byte_identical must be a boolean"):
            validate_report(report)
        del report["scenarios"][0]["verdicts"]
        with pytest.raises(SchemaError, match="verdicts must be an object"):
            validate_report(report)

    def test_every_entry_carries_exactly_its_declared_verdicts(self):
        report = self._serve_report()
        del report["scenarios"][0]["verdicts"]["all_cached_requests_hit"]
        with pytest.raises(
            SchemaError, match=r"verdicts\.all_cached_requests_hit is missing \(serve suite\)"
        ):
            validate_report(report)
        report = self._serve_report()
        report["scenarios"][0]["verdicts"]["shed_load"] = True  # a backpressure verdict
        with pytest.raises(SchemaError, match="verdicts.shed_load is not a declared serve verdict"):
            validate_report(report)

    def test_cpu_count_is_required(self):
        report = self._serve_report()
        del report["environment"]["cpu_count"]
        with pytest.raises(SchemaError, match="cpu_count"):
            validate_report(report)


class TestRunnerDeterminism:
    def test_core_suite_same_seed_same_scenarios_and_ops(self):
        kwargs = dict(
            tiny=True,
            seed=123,
            timing=TimingSpec(warmup=0, repeats=1),
            scenario_filter=["sps"],
        )
        first = run_suite("core", **kwargs)
        second = run_suite("core", **kwargs)
        assert [s["name"] for s in first["scenarios"]] == [s["name"] for s in second["scenarios"]]
        assert [s["ops"] for s in first["scenarios"]] == [s["ops"] for s in second["scenarios"]]
        assert all("enforce" in s["stages"] for s in first["scenarios"])

    def test_service_suite_runs_and_reuses_cached_index(self):
        report = run_suite(
            "service", tiny=True, seed=5, timing=TimingSpec(warmup=1, repeats=1)
        )
        validate_report(report)
        assert report["suite"] == "service"
        for entry in report["scenarios"]:
            # The warmup pass populated the dataset's group-index cache.
            assert entry["ops"]["group_index_cached"] is True
            assert entry["ops"]["published_records"] > 0

    def test_unknown_scenario_filter_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_suite("core", tiny=True, scenario_filter=["no-such-scenario"])

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope")


class TestMicroBenchmarks:
    def test_vectorized_paths_match_their_baselines(self):
        report = run_suite("micro", tiny=True, seed=1, timing=TimingSpec(warmup=0, repeats=1))
        by_name = {entry["name"]: entry for entry in report["scenarios"]}
        assert set(by_name) == {"sps-sample-counts", "group-index-build", "mle-batch", "em-batch"}
        # The elementwise/integer rewrites are exact; the EM is machine-precision.
        for name in ("sps-sample-counts", "group-index-build", "mle-batch"):
            assert by_name[name]["ops"]["max_abs_diff"] == 0.0
        assert by_name["em-batch"]["ops"]["max_abs_diff"] < 1e-12
        for entry in report["scenarios"]:
            assert entry["verdicts"] == {"matches_reference": True}
            assert entry["ops"]["n"] > 0 and entry["ops"]["baseline_seconds"] >= 0


class TestPaperScenarios:
    def test_all_twelve_ported_scripts_are_registered(self):
        assert set(available_paper_scenarios()) == EXPECTED_PAPER_SCENARIOS

    @pytest.mark.parametrize("name", sorted(EXPECTED_PAPER_SCENARIOS))
    def test_smoke_run_at_tiny_sizes(self, name):
        scenario = paper_scenario(name)
        config = smoke_config()
        result = scenario.run(config)
        rendered = scenario.render(result)
        assert isinstance(rendered, str) and rendered.strip()
        summary = scenario.summarize(result)
        assert isinstance(summary, dict) and summary
        if scenario.checks_at_tiny:
            scenario.check(result, config)  # closed-form checks hold at any size

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError, match="unknown paper scenario"):
            paper_scenario("figure99")


class TestCLI:
    def test_list_flag(self, capsys):
        assert bench_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "core scenarios" in out
        assert "paper scenarios" in out
        assert "figure3" in out

    def test_run_writes_schema_valid_report(self, tmp_path, capsys):
        code = bench_main(
            [
                "run",
                "--suite", "core",
                "--tiny",
                "--seed", "9",
                "--scenario", "uniform",
                "--warmup", "0",
                "--repeats", "1",
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        path = tmp_path / "BENCH_core.json"
        assert path.exists()
        validate_report(json.loads(path.read_text()))
        assert "BENCH_core.json" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            bench_main(["--version"])
        assert excinfo.value.code == 0


class TestRenderListing:
    def test_mapping_and_pairs_render_identically(self):
        as_mapping = render_listing({"a": "first", "b": "second"}, title="t")
        as_pairs = render_listing([("a", "first"), ("b", "second")], title="t")
        assert as_mapping == as_pairs
        assert as_mapping.splitlines()[0] == "t"
        assert "first" in as_mapping
