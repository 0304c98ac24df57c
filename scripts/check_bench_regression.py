#!/usr/bin/env python3
"""The CI perf-gate: run the tiny bench matrices and fail on regressions.

Four checks, in order (CI's ``perf-gate`` job runs this on every push):

1. **Schema** — every freshly-run tiny report validates against
   :func:`repro.bench.schema.validate_report` (also run on write, so this
   guards the validator itself staying importable and strict).
2. **Determinism** — the core suite is run twice; scenario names and every
   operation count must be identical (wall-clock fields are free to move).
3. **Byte identity** — every ``stream``, ``parallel`` and ``delta``
   scenario must report ``ops.byte_identical == true`` (``delta`` scenarios
   additionally ``ops.audits_agree == true``), and scenarios differing only
   in their worker count must publish identical record/group counts.
   ``serve`` audit scenarios must report ``byte_identical`` (cached vs
   uncached vs post-invalidation responses), ``invalidation_observed``, a
   cached phase answered entirely from the response cache (every response
   ``X-Cache: hit``) and hits faster than recomputes; ``serve`` backpressure scenarios
   must shed load (some 429s, zero hangs/unexpected statuses, every
   rejection carrying ``Retry-After``).
4. **Throughput** — each scenario's best-of-repeats seconds is compared
   against the committed baseline of the same name
   (``benchmarks/baselines/BENCH_<suite>.json``); slower by more than the
   tolerance fails.  The default tolerance is 0.25 (25 % — same-machine
   noise); CI runners are a different machine entirely, so the workflow
   sets ``BENCH_REGRESSION_TOLERANCE`` higher — the gate then catches
   order-of-magnitude blowups, not micro-noise.  Scenarios missing from a
   baseline are reported but never fail (new scenarios land before their
   baselines), and scenarios whose baseline runs under
   ``BENCH_REGRESSION_MIN_SECONDS`` (default 50 ms) are never gated —
   relative jitter on a sub-millisecond scenario is pure scheduler noise.

Usage::

    python scripts/check_bench_regression.py [--suites core service stream parallel delta serve]
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

from repro.bench.runner import run_suite, write_report  # noqa: E402
from repro.bench.schema import validate_report  # noqa: E402
from repro.bench.timing import TimingSpec  # noqa: E402

#: Suites the gate runs by default (``paper`` is minutes-scale, not gated).
DEFAULT_SUITES = ("core", "service", "stream", "parallel", "delta", "serve")

#: Share of a serve audit scenario's cached-phase responses that must carry
#: ``X-Cache: hit``.  The cache is filled before that phase and nothing
#: invalidates it during it, so any miss means a request bypassed the cache
#: and recomputed.  This holds at any recompute cost; a latency ratio does
#: not (the tiny audit recompute fell to ~2 ms, so a working cache measured
#: only ~2.5x over it).
SERVE_MIN_CACHE_HIT_RATIO = 1.0

#: A hit must still beat a recompute on mean latency.  A sanity bound only:
#: the hit ratio above is what fails when the cache is bypassed.
SERVE_MIN_CACHE_SPEEDUP = 1.0

#: Default throughput tolerance: fail when best-of-repeats is this fraction
#: slower than the committed baseline.
DEFAULT_TOLERANCE = 0.25

#: Scenarios whose baseline best is below this are noted, never gated — a
#: sub-millisecond scenario's relative jitter is pure scheduler noise, and a
#: real regression on one is invisible anyway.  Override with the
#: BENCH_REGRESSION_MIN_SECONDS env var (or --min-seconds).
DEFAULT_MIN_SECONDS = 0.05


def _workers_invariant_key(name: str) -> str | None:
    """Collapse a scenario name's ``/wN`` worker suffix (``None`` if absent)."""
    stem, sep, tail = name.rpartition("/w")
    if not sep or not tail.isdigit():
        return None
    return stem


def check_identity(report: dict) -> list[str]:
    """Byte-identity and cross-worker-count invariance problems of one report."""
    problems: list[str] = []
    suite = report.get("suite")
    by_invariant: dict[str, dict] = {}
    for entry in report.get("scenarios", []):
        name = entry.get("name", "?")
        ops = entry.get("ops", {})
        if suite in ("stream", "parallel", "delta") and ops.get("byte_identical") is not True:
            problems.append(f"{suite}:{name}: byte_identical is {ops.get('byte_identical')!r}")
        if suite == "delta" and ops.get("audits_agree") is not True:
            problems.append(f"{suite}:{name}: audits_agree is {ops.get('audits_agree')!r}")
        key = _workers_invariant_key(name)
        if key is None:
            continue
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


def check_serve(report: dict) -> tuple[list[str], list[str]]:
    """(problems, notes) enforcing the serve suite's load-benchmark verdicts."""
    problems: list[str] = []
    notes: list[str] = []
    for entry in report.get("scenarios", []):
        name = entry.get("name", "?")
        ops = entry.get("ops", {})
        if entry.get("strategy") == "audit":
            if ops.get("byte_identical") is not True:
                problems.append(
                    f"serve:{name}: byte_identical is {ops.get('byte_identical')!r} "
                    "(cached, uncached and post-invalidation responses diverged)"
                )
            if ops.get("invalidation_observed") is not True:
                problems.append(
                    f"serve:{name}: invalidation_observed is "
                    f"{ops.get('invalidation_observed')!r} (re-register served a stale hit)"
                )
            hit_ratio = ops.get("cache_hit_ratio")
            if not isinstance(hit_ratio, (int, float)) or hit_ratio < SERVE_MIN_CACHE_HIT_RATIO:
                problems.append(
                    f"serve:{name}: cache_hit_ratio {hit_ratio!r} is below "
                    f"{SERVE_MIN_CACHE_HIT_RATIO:g} (cached-phase requests bypassed "
                    "the response cache)"
                )
            speedup = ops.get("cache_speedup")
            if not isinstance(speedup, (int, float)) or speedup <= SERVE_MIN_CACHE_SPEEDUP:
                problems.append(
                    f"serve:{name}: cache_speedup {speedup!r} is not above "
                    f"{SERVE_MIN_CACHE_SPEEDUP:g}x (a hit is no faster than a recompute)"
                )
        elif entry.get("strategy") == "backpressure":
            if ops.get("shed_load") is not True:
                problems.append(
                    f"serve:{name}: shed_load is {ops.get('shed_load')!r} "
                    f"(completed={ops.get('completed')!r} rejected={ops.get('rejected')!r} "
                    f"unexpected={ops.get('unexpected_statuses')!r})"
                )
            if ops.get("all_rejections_have_retry_after") is not True:
                problems.append(
                    f"serve:{name}: a 429 response was missing its Retry-After header"
                )
    cpu_count = report.get("environment", {}).get("cpu_count")
    if cpu_count == 1:
        notes.append(
            "serve: environment.cpu_count is 1 — absolute throughput/latency numbers "
            "come from a single-core container; trust the ratios (cache_speedup, "
            "hit ratio, shed_load), not the rps"
        )
    return problems, notes


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
            notes.append(f"{suite}:{name}: no committed baseline (skipped)")
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
    parser.add_argument("--suites", nargs="+", default=list(DEFAULT_SUITES), help="suites to gate")
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
        help="run schema/determinism/identity checks only (no wall-clock comparison)",
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
        report = run_suite(suite, tiny=True, include_micro=False)
        write_report(report, args.output_dir)
        try:
            validate_report(report)
        except Exception as exc:  # SchemaError carries one problem per line
            problems.extend(f"{suite}: {line}" for line in str(exc).splitlines())
            continue
        problems.extend(check_identity(report))

        if suite == "serve":
            serve_problems, serve_notes = check_serve(report)
            problems.extend(serve_problems)
            for note in serve_notes:
                print(f"   {note}")

        if suite == "core":
            print("== core: re-running for the determinism check")
            second = run_suite(
                suite, tiny=True, include_micro=False, timing=TimingSpec(warmup=0, repeats=1)
            )
            # Only op counts are compared; the first run's timing spec
            # differs, which is exactly the point.
            problems.extend(check_determinism(report, second))

        if not args.skip_throughput:
            baseline_path = Path(args.baseline_dir) / f"BENCH_{suite}.json"
            if not baseline_path.exists():
                print(f"   no baseline at {baseline_path}, throughput not gated")
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
