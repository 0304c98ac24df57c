#!/usr/bin/env python3
"""The CI perf-gate: run the tiny bench suites and fail on regressions.

Five checks, in order (CI's ``perf-gate`` job runs this on every push, over
every suite of :data:`repro.bench.runner.SUITES` marked ``gated`` — all but
``paper``):

1. **Schema** — every freshly-run tiny report validates against
   :func:`repro.bench.schema.validate_report`, which also requires each
   entry to carry exactly the verdict names its suite declares (so a
   suite that stops computing a verdict fails here).
2. **Verdicts** — every verdict of every scenario is true: byte identity
   of the stream and delta outputs, agreeing delta audits, the serve
   cache and load-shedding verdicts, the micro paths matching their loop
   references.  Each suite computes its own verdicts; the gate only reads
   them.
3. **Worker-count invariance** — scenarios whose names differ only in a
   trailing ``/wN`` must publish identical record/group counts.
4. **Determinism** — the core suite is run twice; scenario names and every
   non-float operation count must be identical (wall-clock fields are free
   to move).
5. **Throughput** — each scenario's best-of-repeats seconds is compared
   against the committed baseline of the same name
   (``benchmarks/baselines/BENCH_<suite>.json``); slower by more than the
   tolerance fails.  The default tolerance is 0.25 (25 % — same-machine
   noise); CI runners are a different machine entirely, so the workflow
   sets ``BENCH_REGRESSION_TOLERANCE`` higher — the gate then catches
   order-of-magnitude blowups, not micro-noise.  A scenario (or suite)
   with no committed baseline fails, so a renamed scenario cannot drop
   out of the gate unnoticed; record its baseline in the same change.
   Scenarios whose baseline runs under ``BENCH_REGRESSION_MIN_SECONDS``
   (default 50 ms) are never gated — relative jitter on a
   sub-millisecond scenario is pure scheduler noise.  The core, service,
   stream and delta tiny lists each hold points sized over that floor;
   micro and serve have none (see ``benchmarks/baselines/README.md``).

Usage::

    python scripts/check_bench_regression.py [--suites core service ...]
        [--baseline-dir benchmarks/baselines] [--output-dir bench-gate]
        [--tolerance 0.25] [--skip-throughput]

Exit status 1 with one diagnostic per line if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.runner import SUITES, run_suite, write_report  # noqa: E402
from repro.bench.schema import validate_report  # noqa: E402
from repro.bench.timing import TimingSpec  # noqa: E402

#: Default throughput tolerance: fail when best-of-repeats is this fraction
#: slower than the committed baseline.
DEFAULT_TOLERANCE = 0.25

#: Scenarios whose baseline best is below this are noted, never gated — a
#: sub-millisecond scenario's relative jitter is pure scheduler noise, and a
#: real regression on one is invisible anyway.  Override with the
#: BENCH_REGRESSION_MIN_SECONDS env var (or --min-seconds).
DEFAULT_MIN_SECONDS = 0.05


def check_verdicts(report: dict) -> list[str]:
    """One problem per false (or non-boolean) verdict of any scenario."""
    suite = report.get("suite", "?")
    return [
        f"{suite}:{entry.get('name', '?')}: verdict {verdict} is {value!r}"
        for entry in report.get("scenarios", [])
        for verdict, value in entry.get("verdicts", {}).items()
        if value is not True
    ]


def _workers_invariant_key(name: str) -> str | None:
    """Collapse a scenario name's ``/wN`` worker suffix (``None`` if absent)."""
    stem, sep, tail = name.rpartition("/w")
    if not sep or not tail.isdigit():
        return None
    return stem


def check_worker_invariance(report: dict) -> list[str]:
    """Problems where op counts differ between scenarios that differ only in workers."""
    problems: list[str] = []
    suite = report.get("suite")
    by_invariant: dict[str, dict] = {}
    for entry in report.get("scenarios", []):
        name = entry.get("name", "?")
        key = _workers_invariant_key(name)
        if key is None:
            continue
        ops = entry.get("ops", {})
        counts = {
            field: ops[field]
            for field in ("published_records", "n_groups", "rows")
            if field in ops
        }
        reference = by_invariant.setdefault(key, {"name": name, "counts": counts})
        if reference["counts"] != counts:
            problems.append(
                f"{suite}:{name}: op counts differ from {reference['name']} "
                f"({counts} != {reference['counts']}); output depends on the worker count"
            )
    return problems


def check_determinism(first: dict, second: dict) -> list[str]:
    """Problems where two same-seed runs disagree on anything but wall-clock."""
    problems: list[str] = []
    names_a = [s.get("name") for s in first.get("scenarios", [])]
    names_b = [s.get("name") for s in second.get("scenarios", [])]
    if names_a != names_b:
        return [f"scenario sets differ between same-seed runs: {names_a} != {names_b}"]
    for a, b in zip(first.get("scenarios", []), second.get("scenarios", [])):
        ops_a = {k: v for k, v in a.get("ops", {}).items() if not isinstance(v, float)}
        ops_b = {k: v for k, v in b.get("ops", {}).items() if not isinstance(v, float)}
        if ops_a != ops_b:
            problems.append(
                f"{a.get('name')}: op counts differ between same-seed runs "
                f"({ops_a} != {ops_b})"
            )
    return problems


def compare_throughput(
    candidate: dict,
    baseline: dict,
    tolerance: float,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> tuple[list[str], list[str]]:
    """(problems, notes) from comparing best-of-repeats seconds per scenario name."""
    problems: list[str] = []
    notes: list[str] = []
    suite = candidate.get("suite", "?")
    baseline_by_name = {
        s.get("name"): s for s in baseline.get("scenarios", [])
    }
    for entry in candidate.get("scenarios", []):
        name = entry.get("name", "?")
        reference = baseline_by_name.get(name)
        if reference is None:
            problems.append(
                f"{suite}:{name}: no committed baseline (record one in the baseline directory)"
            )
            continue
        best = float(entry["seconds"]["best"])
        reference_best = float(reference["seconds"]["best"])
        if reference_best <= 0:
            continue
        if reference_best < min_seconds:
            notes.append(
                f"{suite}:{name}: baseline {reference_best:.4f}s is below the "
                f"{min_seconds:.3f}s gating floor (relative jitter is noise; skipped)"
            )
            continue
        slowdown = best / reference_best - 1.0
        if slowdown > tolerance:
            problems.append(
                f"{suite}:{name}: {best:.4f}s vs baseline {reference_best:.4f}s "
                f"(+{slowdown:.0%} > {tolerance:.0%} tolerance)"
            )
    return problems, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suites", nargs="+", choices=list(SUITES),
        default=[name for name, suite in SUITES.items() if suite.gated],
        help="suites to gate (default: every gated suite)",
    )
    parser.add_argument(
        "--baseline-dir", default=str(REPO_ROOT / "benchmarks" / "baselines"),
        help="directory holding the committed tiny BENCH_<suite>.json baselines",
    )
    parser.add_argument(
        "--output-dir", default="bench-gate",
        help="where the freshly-run tiny reports are written (uploaded as CI artifacts)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="max allowed throughput slowdown vs the baseline "
        f"(default {DEFAULT_TOLERANCE}, or the BENCH_REGRESSION_TOLERANCE env var)",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=None,
        help="baseline best below this is never gated, only noted "
        f"(default {DEFAULT_MIN_SECONDS}, or BENCH_REGRESSION_MIN_SECONDS)",
    )
    parser.add_argument(
        "--skip-throughput", action="store_true",
        help="run schema/verdict/invariance/determinism checks only (no wall-clock comparison)",
    )
    args = parser.parse_args(argv)

    tolerance = args.tolerance
    if tolerance is None:
        tolerance = float(os.environ.get("BENCH_REGRESSION_TOLERANCE", DEFAULT_TOLERANCE))
    min_seconds = args.min_seconds
    if min_seconds is None:
        min_seconds = float(
            os.environ.get("BENCH_REGRESSION_MIN_SECONDS", DEFAULT_MIN_SECONDS)
        )

    problems: list[str] = []
    for suite in args.suites:
        print(f"== {suite}: running tiny matrix")
        report = run_suite(suite, tiny=True)
        write_report(report, args.output_dir)
        try:
            validate_report(report)
        except Exception as exc:  # SchemaError carries one problem per line
            problems.extend(f"{suite}: {line}" for line in str(exc).splitlines())
            continue
        problems.extend(check_verdicts(report))
        problems.extend(check_worker_invariance(report))

        if suite == "core":
            print("== core: re-running for the determinism check")
            second = run_suite(suite, tiny=True, timing=TimingSpec(warmup=0, repeats=1))
            # Only op counts are compared; the first run's timing spec
            # differs, which is exactly the point.
            problems.extend(check_determinism(report, second))

        if not args.skip_throughput:
            baseline_path = Path(args.baseline_dir) / f"BENCH_{suite}.json"
            if not baseline_path.exists():
                problems.append(f"{suite}: no committed baseline at {baseline_path}")
                continue
            baseline = json.loads(baseline_path.read_text())
            suite_problems, notes = compare_throughput(
                report, baseline, tolerance, min_seconds
            )
            problems.extend(suite_problems)
            for note in notes:
                print(f"   {note}")

    if problems:
        print(f"\nperf-gate FAILED ({len(problems)} problem(s), tolerance {tolerance:.0%}):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"\nperf-gate ok (tolerance {tolerance:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
