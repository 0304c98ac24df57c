"""The ``repro-bench`` command line.

Usage (installed console script, or ``python -m repro.bench``)::

    repro-bench run --suite core --tiny          # seconds-scale preset
    repro-bench run --suite service              # scheduler path, full sizes
    repro-bench run --suite paper --scenario figure3
    repro-bench run --suite core --tiny --trace bench-trace.jsonl
    repro-bench run --suite stream --scenario w2 # one part of the names
    repro-bench --list                           # every scenario of every suite

``run`` writes the schema-versioned ``BENCH_<suite>.json`` to ``--output-dir``
(the repo root by default) and prints a per-scenario summary table; see
``docs/benchmarks.md`` for the report schema and how to read a regression.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
from collections.abc import Sequence

from repro import __version__
from repro.obs import Tracer, configure_cli_logging, export
from repro.bench.runner import DEFAULT_BENCH_SEED, SUITES, run_suite, write_report
from repro.bench.timing import TimingSpec
from repro.utils.textplot import render_listing, render_table

_log = logging.getLogger("repro.bench")


def _listing_text(suite: str | None, tiny: bool) -> str:
    """The scenario listing for one suite, or all suites when ``None``."""
    scale = "tiny" if tiny else "default"
    blocks = []
    for name in SUITES if suite is None else (suite,):
        rows = [(s.name, s.title) for s in SUITES[name].scenarios(tiny)]
        blocks.append(
            render_listing(rows, title=f"{name} scenarios ({scale} scale, {len(rows)} scenarios)")
        )
    return "\n\n".join(blocks)


def _summary_table(report: dict) -> str:
    rows = []
    for entry in report["scenarios"]:
        seconds = entry["seconds"]
        failed = [name for name, ok in entry["verdicts"].items() if not ok]
        verdicts = "-" if not entry["verdicts"] else ("FAILED " + ",".join(failed) if failed else "ok")
        rows.append(
            (
                entry["name"],
                f"{seconds['best']:.4f}",
                f"{seconds['mean']:.4f}",
                entry["ops"].get("published_records", "-"),
                verdicts,
            )
        )
    return render_table(
        ("scenario", "best_s", "mean_s", "published", "verdicts"),
        rows,
        title=f"suite={report['suite']} scale={report['scale']} seed={report['seed']}",
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-bench`` console script."""
    parser = argparse.ArgumentParser(prog="repro-bench", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--list", action="store_true", dest="list_all",
        help="list every scenario of every suite and exit",
    )
    subparsers = parser.add_subparsers(dest="command")

    run_parser = subparsers.add_parser("run", help="run a suite and write BENCH_<suite>.json")
    run_parser.add_argument("--suite", choices=list(SUITES), default="core", help="which suite to run")
    run_parser.add_argument(
        "--tiny", action="store_true",
        help="seconds-scale preset (CI bench-smoke); default is the full-size matrix",
    )
    run_parser.add_argument("--seed", type=int, default=DEFAULT_BENCH_SEED, help="root seed")
    run_parser.add_argument(
        "--output-dir", default=".", help="directory for BENCH_<suite>.json (default: cwd)"
    )
    run_parser.add_argument("--warmup", type=int, default=None, help="discarded warmup passes")
    run_parser.add_argument("--repeats", type=int, default=None, help="timed passes per scenario")
    run_parser.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="run only matching scenarios (full name, or one '/'-separated part such as a strategy); repeatable",
    )
    run_parser.add_argument(
        "--trace", metavar="PATH",
        help="record every scenario's spans and write them as a JSONL trace",
    )

    list_parser = subparsers.add_parser("list", help="list scenarios")
    list_parser.add_argument("--suite", choices=list(SUITES), default=None, help="restrict to one suite")
    list_parser.add_argument("--tiny", action="store_true", help="show the tiny presets")

    args = parser.parse_args(argv)
    configure_cli_logging()

    if args.list_all or args.command == "list":
        suite = getattr(args, "suite", None) if args.command == "list" else None
        tiny = getattr(args, "tiny", False)
        sys.stdout.write(_listing_text(suite, tiny) + "\n")
        return 0

    if args.command != "run":
        parser.print_help()
        return 2

    timing = None
    if args.warmup is not None or args.repeats is not None:
        base = SUITES[args.suite].timing
        timing = TimingSpec(
            warmup=base.warmup if args.warmup is None else args.warmup,
            repeats=base.repeats if args.repeats is None else args.repeats,
        )
    tracer = Tracer() if args.trace else None
    with tracer if tracer is not None else contextlib.nullcontext():
        report = run_suite(
            args.suite,
            tiny=args.tiny,
            seed=args.seed,
            timing=timing,
            scenario_filter=args.scenario,
        )
    path = write_report(report, args.output_dir)
    if tracer is not None:
        export.write_trace(tracer, args.trace)
        _log.info("trace written to %s (%d spans)", args.trace, len(tracer.spans))
    sys.stdout.write(_summary_table(report) + "\n")
    sys.stdout.write(f"\nwrote {path}\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
