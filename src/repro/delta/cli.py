"""The ``repro-delta`` command line: incremental re-publishing from the shell.

Usage (installed console script, or ``python -m repro.delta``)::

    repro-delta init data.csv --sensitive Income --output published.csv \\
        --state dataset.delta.json --seed 7
    repro-delta append new_rows.csv --state dataset.delta.json

``init`` publishes the base dataset (byte-identical to ``repro-stream`` for
the same seed and chunk size) and writes the delta state file the next
``append`` needs; ``append`` merges the new rows, regenerates only the
affected kernel chunks, splices them into the published CSV atomically, and
rewrites the state file to the successor state.  Both subcommands print the
run's JSON summary to stdout; progress and errors go to stderr through
stdlib logging.  ``--trace PATH`` records the run's span tree as a
schema-validated JSONL trace (never changes the published bytes).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import sys
from collections.abc import Sequence
from typing import Any

from repro import __version__
from repro.dataset.schema import SchemaError
from repro.delta.engine import delta_publish, publish_base
from repro.delta.state import DeltaState
from repro.obs import Tracer, configure_cli_logging, export
from repro.pipeline.execution import DEFAULT_CHUNK_ROWS, DEFAULT_CHUNK_SIZE
from repro.pipeline.params import ParamError, add_param_flags, cli_params
from repro.pipeline.strategy import UnknownStrategyError, available_strategies

_log = logging.getLogger("repro.delta")


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-delta`` argument parser (exposed for the docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-delta",
        description="Incrementally re-publish a living dataset as rows are appended.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    init = sub.add_parser(
        "init", help="publish a base dataset and capture its delta state"
    )
    init.add_argument("source", help="CSV file to publish")
    init.add_argument("--sensitive", required=True, help="sensitive column name")
    init.add_argument(
        "--strategy", default="sps",
        help="delta-capable publishing strategy (default sps; registered: "
        f"{', '.join(available_strategies())})",
    )
    init.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    init.add_argument(
        "--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE,
        help="personal groups per work chunk (affects the published bytes)",
    )
    init.add_argument(
        "--chunk-rows", type=int, default=DEFAULT_CHUNK_ROWS,
        help="CSV records per ingestion chunk (memory knob; "
        "does not affect the published bytes)",
    )
    init.add_argument(
        "--output", metavar="PATH", required=True,
        help="write published rows to this CSV (appends splice it in place)",
    )
    init.add_argument(
        "--state", metavar="PATH", required=True,
        help="write the delta state (JSON) here for later appends",
    )
    add_param_flags(init)

    append = sub.add_parser(
        "append", help="fold appended rows into a published dataset incrementally"
    )
    append.add_argument("source", help="CSV file of appended rows (same header)")
    append.add_argument(
        "--state", metavar="PATH", required=True,
        help="delta state written by a previous init/append (rewritten on success)",
    )
    append.add_argument(
        "--output", metavar="PATH",
        help="write the spliced CSV here instead of replacing in place",
    )

    for cmd in (init, append):
        cmd.add_argument(
            "--workers", type=int, default=1,
            help="fan chunk kernels out over this many worker threads "
            "(never affects the published bytes)",
        )
        cmd.add_argument("--delimiter", default=",", help="source field delimiter")
        cmd.add_argument(
            "--no-audit", action="store_true", help="skip the audit stage"
        )
        cmd.add_argument(
            "--progress", action="store_true", help="log phase progress to stderr"
        )
        cmd.add_argument(
            "--trace", metavar="PATH",
            help="record the run's spans and write them as a JSONL trace "
            "(never changes the published bytes)",
        )
        volume = cmd.add_mutually_exclusive_group()
        volume.add_argument(
            "--verbose", action="store_true",
            help="debug-level logging plus live logfmt span lines on stderr",
        )
        volume.add_argument(
            "--quiet", action="store_true", help="errors only on stderr"
        )
    return parser


def _progress_logger(event: dict[str, Any]) -> None:
    phase = event.get("phase")
    if phase in ("read", "append_read"):
        _log.info(
            "%s: %s rows (%s chunks)",
            phase, event["rows_read"], event["chunks_read"],
        )
    elif phase == "diff":
        _log.info(
            "diff: %s of %s chunks dirty (%s mode)",
            event["n_chunks_dirty"], event["n_chunks"], event["mode"],
        )
    elif phase in ("enforce", "splice"):
        done = event.get("groups_done", event.get("chunks_done", 0))
        total = event.get("n_groups", event.get("n_chunks", 0))
        _log.info(
            "%s: %s/%s (%s records published)",
            phase, done, total, event["published_records"],
        )


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``repro-delta`` console script.

    Example (non-zero exits: 2 for bad input, schema, parameter or
    unsupported-strategy errors)::

        repro-delta init data.csv --sensitive Income \\
            --output published.csv --state dataset.delta.json
        repro-delta append new_rows.csv --state dataset.delta.json
    """
    args = build_parser().parse_args(argv)
    configure_cli_logging(verbose=args.verbose, quiet=args.quiet)
    tracer = Tracer(live=sys.stderr if args.verbose else None) if (
        args.trace or args.verbose
    ) else None
    progress = _progress_logger if (args.progress or args.verbose) else None
    try:
        with tracer if tracer is not None else contextlib.nullcontext():
            if args.command == "init":
                report = publish_base(
                    args.source,
                    sensitive=args.sensitive,
                    output=args.output,
                    strategy=args.strategy,
                    rng=args.seed,
                    chunk_size=args.chunk_size,
                    chunk_rows=args.chunk_rows,
                    workers=args.workers,
                    audit=not args.no_audit,
                    delimiter=args.delimiter,
                    progress=progress,
                    **cli_params(args),
                )
            else:
                state = DeltaState.load(args.state)
                report = delta_publish(
                    state,
                    args.source,
                    output=args.output,
                    workers=args.workers,
                    audit=not args.no_audit,
                    delimiter=args.delimiter,
                    progress=progress,
                )
        assert report.state is not None
        report.state.save(args.state)
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
