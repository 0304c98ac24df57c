"""Command-line front end: the same verbs as the HTTP API.

State persists between invocations through ``--store PATH`` — a durable
SQLite store (see ``docs/storage.md``) — so a shell session can register
once and publish many times, mirroring the service's register-once/
publish-many lifecycle without a running server::

    repro-service register demo --synthetic adult --rows 100000 --store state.db
    repro-service publish --dataset demo --backend sps --seed 7 --store state.db
    repro-service publish --dataset demo --backend sps --trace job-trace.jsonl
    repro-service audit --dataset demo --store state.db
    repro-service serve --store state.db --port 8080

``serve`` runs the same HTTP front end as ``repro-serve``
(:func:`repro.serve.cli.serve`).  Human-facing output (errors, the serve
banner) goes to stderr through stdlib logging — ``--verbose``/``--quiet``
set the level — while command results stay JSON-on-stdout.
``publish --trace PATH`` records the job's span tree as a JSONL trace.
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
from repro.dataset.loaders import write_csv
from repro.obs import Tracer, configure_cli_logging, export
from repro.pipeline.execution import DEFAULT_CHUNK_SIZE
from repro.pipeline.params import add_param_flags, cli_params
from repro.serve.cli import serve
from repro.service.engine import AnonymizationService, backend_defaults
from repro.service.registry import ServiceError
from repro.store import StoreError

_log = logging.getLogger("repro.service")


def _emit(payload: Any) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _add_store(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help=(
            "SQLite state file (a pre-12.0.0 JSON snapshot is refused); "
            "every mutation persists write-through"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Anonymization-as-a-service front end for the repro library.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    volume = parser.add_mutually_exclusive_group()
    volume.add_argument(
        "--verbose", action="store_true", help="debug-level logging on stderr"
    )
    volume.add_argument(
        "--quiet", action="store_true", help="errors only on stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="run the HTTP JSON API")
    _add_store(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)

    p_register = sub.add_parser("register", help="register a dataset")
    _add_store(p_register)
    p_register.add_argument("name", help="dataset name")
    source = p_register.add_mutually_exclusive_group(required=True)
    source.add_argument("--csv", metavar="PATH", help="CSV file to load")
    source.add_argument(
        "--synthetic",
        choices=("adult", "census"),
        help="generate a synthetic table instead of loading a file",
    )
    p_register.add_argument("--sensitive", help="sensitive column name (CSV sources)")
    p_register.add_argument("--rows", type=int, default=10_000, help="synthetic row count")
    p_register.add_argument("--seed", type=int, default=0, help="synthetic generator seed")
    p_register.add_argument("--replace", action="store_true", help="overwrite an existing name")

    p_publish = sub.add_parser("publish", help="run a publish job")
    _add_store(p_publish)
    p_publish.add_argument("--dataset", required=True)
    p_publish.add_argument("--backend", required=True)
    p_publish.add_argument("--seed", type=int, default=0)
    p_publish.add_argument("--chunk-size", type=int, default=DEFAULT_CHUNK_SIZE)
    p_publish.add_argument("--workers", type=int, default=1)
    p_publish.add_argument(
        "--output", metavar="PATH", help="also write the published table as CSV"
    )
    p_publish.add_argument(
        "--trace", metavar="PATH",
        help="record the job's spans and write them as a JSONL trace",
    )
    add_param_flags(p_publish)

    p_audit = sub.add_parser("audit", help="audit a dataset against (lambda, delta, p)")
    _add_store(p_audit)
    p_audit.add_argument("--dataset", required=True)
    p_audit.add_argument("--lam", type=float, default=0.3)
    p_audit.add_argument("--delta", type=float, default=0.3)
    p_audit.add_argument("--retention", type=float, default=0.5)

    p_datasets = sub.add_parser("datasets", help="list registered datasets")
    _add_store(p_datasets)

    p_jobs = sub.add_parser("jobs", help="list job records (or show one)")
    _add_store(p_jobs)
    p_jobs.add_argument("job_id", nargs="?", help="show a single job")

    p_stats = sub.add_parser("stats", help="service counters")
    _add_store(p_stats)

    sub.add_parser("backends", help="list available backends and their parameters")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_cli_logging(
        verbose=getattr(args, "verbose", False), quiet=getattr(args, "quiet", False)
    )
    try:
        return _run(args)
    except ServiceError as exc:
        _log.error("error: %s", exc)
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.command == "backends":
        _emit(backend_defaults())
        return 0
    if args.command == "serve":
        return serve(args.store, args.host, args.port)

    try:
        service = AnonymizationService(snapshot_path=args.store)
    except StoreError as exc:
        _log.error("error: %s", exc)
        return 2
    try:
        return _run_command(service, args)
    finally:
        service.close()


def _run_command(service: AnonymizationService, args: argparse.Namespace) -> int:
    if args.command == "register":
        if args.csv:
            if not args.sensitive:
                raise ServiceError("--csv requires --sensitive COLUMN")
            entry = service.register_csv(
                args.name, args.csv, args.sensitive, replace=args.replace
            )
        else:
            entry = service.register_synthetic(
                args.name,
                generator=args.synthetic,
                n_records=args.rows,
                seed=args.seed,
                replace=args.replace,
            )
        _emit(entry.to_json())
        return 0

    if args.command == "publish":
        tracer = Tracer() if args.trace else None
        with tracer if tracer is not None else contextlib.nullcontext():
            record = service.publish(
                dataset=args.dataset,
                backend=args.backend,
                params=cli_params(args),
                seed=args.seed,
                chunk_size=args.chunk_size,
                max_workers=args.workers,
            )
        if tracer is not None:
            export.write_trace(tracer, args.trace)
            _log.info(
                "trace written to %s (%d spans)", args.trace, len(tracer.spans)
            )
        if args.output:
            write_csv(record.published, args.output)
        _emit(record.to_json())
        return 0

    if args.command == "audit":
        _emit(
            service.audit(
                dataset=args.dataset,
                lam=args.lam,
                delta=args.delta,
                retention_probability=args.retention,
            )
        )
        return 0

    if args.command == "datasets":
        _emit([entry.to_json() for entry in service.datasets.entries()])
        return 0

    if args.command == "jobs":
        if args.job_id:
            _emit(service.job(args.job_id).to_json())
        else:
            _emit([record.to_json() for record in service.jobs.records()])
        return 0

    if args.command == "stats":
        _emit(service.stats())
        return 0

    raise ServiceError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
