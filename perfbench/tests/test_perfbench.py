"""The benchmark's own tests, at tiny sizes.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
They pin the output contract (every declared metric once, with its unit),
the percentile rule, seed determinism, and the refusal to run without the
program under test.
"""

from __future__ import annotations

import json
import multiprocessing
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import steady  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from workloads.delta import copied_rows  # noqa: E402
from workloads.serve import BLOCK, MIN_AUDITS, op_sequence  # noqa: E402

DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(BENCH / "run.py") if cwd == ROOT else "perfbench/run.py",
            "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
            "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_runs() -> dict[tuple[str, int], tuple[dict, dict]]:
    """One untraced and one traced tiny run per workload: (details, result)."""
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run_bench(workload, 7, trace)
            lines = done.stdout.strip().splitlines()
            runs[workload, trace] = (json.loads(lines[-2]), last_json(done))
    return runs


# ---------------------------------------------------------------------- #
# Output contract
# ---------------------------------------------------------------------- #
def test_declaration_names_the_workloads_and_units() -> None:
    assert {w["name"] for w in DECLARATION["workloads"]} == set(WORKLOADS)
    e2e = {m["name"]: m for m in DECLARATION["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    declared_layers = {m["name"] for m in DECLARATION["per_layer"]}
    for cls in WORKLOADS.values():
        assert set(cls.native) <= set(e2e)
        assert set(cls.layers) <= declared_layers


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_declared_metric_is_emitted_once_with_its_unit(tiny_runs, workload, trace) -> None:
    _, result = tiny_runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in DECLARATION[section]}
    assert list(result["metrics"]) == list(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], float)
        if not trace:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_measures_its_own_layers_and_validates_its_trace(tiny_runs, workload) -> None:
    details, result = tiny_runs[workload, 1]
    report = details["layer_report"]
    assert report["trace"]["spans"] > 0
    assert (ROOT / report["trace"]["path"]).is_file()
    for name in WORKLOADS[workload].layers:
        if name.endswith(("_s", "_mb", "groups", "_per_s")):
            assert result["metrics"][name]["value"] > 0, name


def test_untraced_runs_report_environment_and_checks(tiny_runs) -> None:
    for workload in WORKLOADS:
        details, _ = tiny_runs[workload, 0]
        env = details["environment"]
        assert env["seed"] == 7 and env["cpu_count"] >= 1 and env["workload"] == workload
        assert all(count <= env["nproc"] for count in env["load"].values())
        assert details["checks"]
        assert set(details["carried"]).isdisjoint(WORKLOADS[workload].native)
    checks = {w: tiny_runs[w, 0][0]["checks"] for w in WORKLOADS}
    assert checks["batch-census"]["op0_matches_warmup"] is True
    assert checks["delta-census"]["spliced_equals_full_publish"] is True
    assert checks["serve-mixed"]["audit_mismatches"] == 0
    assert checks["serve-mixed"]["csv_mismatches"] == 0
    assert all(rows == published for rows, published in checks["stream-census"]["rows_vs_published_records"])


# ---------------------------------------------------------------------- #
# Percentile rule
# ---------------------------------------------------------------------- #
def test_tail_percentile_needs_ten_samples_beyond_it() -> None:
    with pytest.raises(ValueError):
        harness.tail_percentile([0.1] * 99, 0.9)
    assert harness.tail_percentile([float(i) for i in range(1, 101)], 0.9) == 90.0
    with pytest.raises(ValueError):
        harness.tail_percentile([0.1] * 19, 0.5)


def test_end_to_end_carries_kinds_the_workload_does_not_run() -> None:
    ops = [harness.Op("audit", 0.001 * (i + 1)) for i in range(5)] + [harness.Op("publish", 0.2)]
    metrics = harness.end_to_end(
        ops=ops, wall=1.0, setup_s=1.0, rss_mb=1.0, main_kind="publish", rows_per_op=10
    )
    assert metrics["audit_p50_s"] == pytest.approx(0.003)
    assert metrics["append_p50_s"] == metrics["csv_p50_s"] == pytest.approx(0.2)
    assert metrics["rows_per_s"] == pytest.approx(50.0)


def test_times_and_rates_are_reported_at_the_reference_host_speed() -> None:
    units = {"setup_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB"}
    values = {"setup_s": 2.0, "rows_per_s": 100.0, "peak_rss_mb": 300.0}
    # A host twice as slow as the reference: times halve, rates double.
    scaled = harness.at_reference_speed(values, units, 0.5)
    assert scaled == {"setup_s": 1.0, "rows_per_s": 200.0, "peak_rss_mb": 300.0}
    host = harness.HostSpeed()
    host.samples = [2 * harness.REFERENCE_CALIBRATION_S] * 3
    assert host.factor() == pytest.approx(0.5)


def test_a_wide_host_speed_sample_runs_on_every_core_then_stops() -> None:
    host = harness.HostSpeed(width=2)
    try:
        assert host.sample() > 0
        assert len(multiprocessing.active_children()) == 1
    finally:
        host.close()
    assert multiprocessing.active_children() == []
    host.close()  # idempotent


def test_untraced_runs_record_their_host_speed(tiny_runs) -> None:
    for workload in WORKLOADS:
        details, result = tiny_runs[workload, 0]
        factor = details["host_speed"]["factor"]
        assert details["host_speed"]["width"] == WORKLOADS[workload].cores
        assert len(details["host_speed"]["samples"]) > harness.BURST and factor > 0
        raw = details["raw_metrics"]["setup_s"]
        assert result["metrics"]["setup_s"]["value"] == pytest.approx(raw * factor)


def test_block_median_averages_the_medians_of_blocks() -> None:
    ops = [harness.Op("publish", s) for s in (1.0, 2.0, 9.0)]
    assert harness.block_median(ops) == pytest.approx(2.0)
    ops += [harness.Op("publish", s, block=1) for s in (4.0, 5.0, 6.0)]
    assert harness.block_median(ops) == pytest.approx(3.5)
    ops.append(harness.Op("publish", 0.0, block=2))
    assert harness.block_median(ops) == pytest.approx((3 * 2.0 + 3 * 5.0 + 0.0) / 7)


def test_serve_run_collects_enough_audits_for_its_p90(tiny_runs) -> None:
    details, _ = tiny_runs["serve-mixed", 0]
    assert MIN_AUDITS == 10 * harness.TAIL_SAMPLES
    assert details["ops"]["audit"]["attempted"] >= MIN_AUDITS
    assert details["checks"]["audit_p90_s"] > details["checks"]["audit_hit_p50_s"]


def test_medians_come_from_enough_ops(tiny_runs) -> None:
    for workload, cls in WORKLOADS.items():
        details, _ = tiny_runs[workload, 0]
        assert details["ops"][cls.main_kind]["attempted"] >= harness.MEDIAN_SAMPLES, workload


def test_serve_peak_rss_includes_the_server(tiny_runs) -> None:
    details, result = tiny_runs["serve-mixed", 0]
    server = details["checks"]["server_peak_rss_mb"]
    assert server > 0
    assert result["metrics"]["peak_rss_mb"]["value"] >= server


# ---------------------------------------------------------------------- #
# Determinism
# ---------------------------------------------------------------------- #
def test_seed_fixes_the_op_sequences_and_appended_rows() -> None:
    assert op_sequence(3, 500) == op_sequence(3, 500)
    assert op_sequence(3, 500) != op_sequence(4, 500)
    counts = dict(BLOCK)
    sequence = op_sequence(3, 5 * sum(counts.values()))
    for kind, count in counts.items():
        assert sum(k == kind for k, _ in sequence) == 5 * count
    records = [(str(i), str(i % 3)) for i in range(50)]
    assert copied_rows(records, 8, 2, 11) == copied_rows(records, 8, 2, 11)
    assert len({tuple(row) for row in copied_rows(records, 8, 2, 11)}) == 2
    assert harness.op_seed(5, "publish", 0) == harness.op_seed(5, "publish", 0)
    assert harness.op_seed(5, "publish", 0) != harness.op_seed(6, "publish", 0)


def test_same_seed_gives_the_same_output_digests(tiny_runs) -> None:
    first = tiny_runs["batch-census", 0][0]["checks"]["digests"]
    again = json.loads(run_bench("batch-census", 7, 0).stdout.strip().splitlines()[-2])
    other = json.loads(run_bench("batch-census", 8, 0).stdout.strip().splitlines()[-2])
    n = min(len(first), len(again["checks"]["digests"]))
    assert n >= 1 and first[:n] == again["checks"]["digests"][:n]
    assert other["checks"]["digests"][0] != first[0]


# ---------------------------------------------------------------------- #
# Refusals and the steadiness arithmetic
# ---------------------------------------------------------------------- #
def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("batch-census", 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_refuses_a_load_wider_than_the_machine(monkeypatch, tmp_path: Path) -> None:
    ctx = harness.Context("serve-mixed", 1, 1.0, harness.SCALES["tiny"], ROOT, tmp_path, tmp_path)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(harness.BenchError):
        harness.environment(ctx, {"client_threads": 2})


def test_spread_is_the_quartile_distance_over_the_median() -> None:
    values = [1.0, 1.1, 0.9, 1.2, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert steady.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert steady.disagreement(1.0, 1.2) == pytest.approx(0.2)
    assert steady.disagreement(1.0, 0.8) == pytest.approx(0.2)


def test_sets_must_agree_in_either_direction() -> None:
    first = [1.0, 1.1, 0.9, 1.2, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01]
    assert steady.verdicts("publish_p50_s", 0.25, [first, first])["medians"]
    for factor in (0.5, 2.0):  # set 2 twice as fast, then twice as slow
        second = [v * factor for v in first]
        checks = steady.verdicts("publish_p50_s", 0.25, [first, second])
        assert checks["spread"] and not checks["medians"]
    wide = [1.0, 2.0, 0.5, 1.5, 1.0, 0.7, 1.2, 1.8, 0.6, 1.1]
    assert not steady.verdicts("publish_p50_s", 0.25, [wide, wide])["spread"]
    assert steady.verdicts("setup_s", 0.25, [wide, wide])["spread"]
