"""The ``repro-stream`` command line: out-of-core publishing from the shell.

Usage (installed console script, or ``python -m repro.stream``)::

    repro-stream data.csv --sensitive Income --output published.csv
    repro-stream data.csv --sensitive Income --strategy generalize+sps \\
        --seed 7 --chunk-rows 50000 --lam 0.25
    repro-stream data.csv --sensitive Income --output out.csv --progress \\
        --trace trace.jsonl

Prints the run's JSON summary (rows read, groups, audit rates, per-stage
seconds) to stdout; everything human-facing — progress, errors — goes to
stderr through stdlib logging (``--verbose`` for chunk-level detail plus live
logfmt span lines, ``--quiet`` for errors only).  ``--trace PATH`` records
the run's span tree and writes it as a schema-validated JSONL trace.  For a
fixed ``--seed`` and ``--chunk-size`` the output CSV is byte-identical to
loading the table and publishing in memory — with or without tracing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
from collections.abc import Sequence

from repro import __version__
from repro.dataset.schema import SchemaError
from repro.obs import Tracer, configure_cli_logging, export
from repro.pipeline.execution import DEFAULT_CHUNK_ROWS, DEFAULT_CHUNK_SIZE
from repro.pipeline.params import ParamError, add_param_flags, cli_params
from repro.pipeline.strategy import UnknownStrategyError, available_strategies
from repro.stream.engine import stream_publish

_log = logging.getLogger("repro.stream")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-stream`` argument parser (exposed for the docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-stream",
        description="Publish a CSV dataset out-of-core with bounded memory.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("source", help="CSV file to publish")
    parser.add_argument("--sensitive", required=True, help="sensitive column name")
    parser.add_argument(
        "--strategy", default="sps",
        help=f"publishing strategy (default sps; one of {', '.join(available_strategies())})",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    parser.add_argument(
        "--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
        help="personal groups per work chunk (affects the published bytes)",
    )
    parser.add_argument(
        "--chunk-rows", type=int, default=DEFAULT_CHUNK_ROWS,
        help="CSV records per ingestion chunk (the memory knob; "
        "does not affect the published bytes)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="fan the enforce stage out over this many worker threads "
        "(never affects the published bytes)",
    )
    parser.add_argument(
        "--output", metavar="PATH",
        help="write published rows to this CSV (omitted: rows are counted "
        "but discarded, keeping memory bounded, and only stats are reported)",
    )
    parser.add_argument("--delimiter", default=",", help="source field delimiter")
    parser.add_argument("--no-audit", action="store_true", help="skip the audit stage")
    parser.add_argument(
        "--progress", action="store_true", help="log chunk progress to stderr"
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="record the run's spans and write them as a JSONL trace "
        "(never changes the published bytes)",
    )
    volume = parser.add_mutually_exclusive_group()
    volume.add_argument(
        "--verbose", action="store_true",
        help="debug-level logging plus live logfmt span lines on stderr",
    )
    volume.add_argument(
        "--quiet", action="store_true", help="errors only on stderr"
    )
    add_param_flags(parser)
    return parser


def _progress_logger(event: dict) -> None:
    phase = event.get("phase")
    if phase == "read":
        _log.info(
            "read: %s rows (%s chunks)", event["rows_read"], event["chunks_read"]
        )
    elif phase == "enforce":
        done = event.get("groups_done", event.get("rows_done", 0))
        total = event.get("n_groups", event.get("n_rows", 0))
        _log.info(
            "enforce: %s/%s (%s records published)",
            done, total, event["published_records"],
        )


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-stream`` console script.

    Example (non-zero exits: 2 for bad input, schema or parameter errors)::

        repro-stream data.csv --sensitive Income --output published.csv
    """
    args = build_parser().parse_args(argv)
    configure_cli_logging(verbose=args.verbose, quiet=args.quiet)
    # --verbose additionally tails every finished span as a logfmt line.
    tracer = Tracer(live=sys.stderr if args.verbose else None) if (
        args.trace or args.verbose
    ) else None
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            report = stream_publish(
                args.source,
                sensitive=args.sensitive,
                strategy=args.strategy,
                rng=args.seed,
                chunk_size=args.chunk_size,
                chunk_rows=args.chunk_rows,
                workers=args.workers,
                audit=not args.no_audit,
                output=args.output,
                materialize=False,  # CLI never reads the table back; stay bounded
                delimiter=args.delimiter,
                progress=_progress_logger if (args.progress or args.verbose) else None,
                **cli_params(args),
            )
    except (SchemaError, ParamError, UnknownStrategyError, ValueError, OSError) as exc:
        _log.error("error: %s", exc)
        return 2
    if args.trace and tracer is not None:
        export.write_trace(tracer, args.trace)
        _log.info("trace written to %s (%d spans)", args.trace, len(tracer.spans))
    json.dump(report.summary(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    raise SystemExit(main())
