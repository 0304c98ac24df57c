"""``repro-serve``: run the service's HTTP front end from the shell.

Starts :class:`~repro.serve.frontend.ServingFrontend` — asyncio
connections, a bounded job queue and worker pool, and an in-memory response
cache — over the service state in ``--store``::

    repro-serve --store state.db --port 8080 --workers 8 --queue-limit 128

``repro-service serve`` runs the same front end through :func:`serve`.

Human-facing output (the listen banner, errors) goes to stderr through
stdlib logging; ``--verbose``/``--quiet`` set the level.
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections.abc import Sequence

from repro import __version__
from repro.obs import configure_cli_logging
from repro.serve.frontend import ServingFrontend
from repro.serve.queue import DEFAULT_QUEUE_LIMIT, DEFAULT_RETRY_AFTER, DEFAULT_WORKERS
from repro.service.engine import AnonymizationService
from repro.service.registry import ServiceError
from repro.store import StoreError

_log = logging.getLogger("repro.serve")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "High-concurrency serving front end for the anonymization service: "
            "asyncio connections, a bounded worker queue (429 + Retry-After on "
            "overload) and an in-memory response cache."
        ),
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
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help=(
            "SQLite state file (a pre-12.0.0 JSON snapshot is refused); "
            "datasets, jobs and delta states persist write-through, "
            "caches refill after a restart"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=DEFAULT_WORKERS,
        help=f"request worker threads (default {DEFAULT_WORKERS})",
    )
    parser.add_argument(
        "--queue-limit",
        type=int,
        default=DEFAULT_QUEUE_LIMIT,
        help=(
            "max requests waiting for a worker before new ones get 429 "
            f"(default {DEFAULT_QUEUE_LIMIT})"
        ),
    )
    parser.add_argument(
        "--retry-after",
        type=int,
        default=DEFAULT_RETRY_AFTER,
        help=f"Retry-After seconds on 429 responses (default {DEFAULT_RETRY_AFTER})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the response cache (every read recomputes)",
    )
    return parser


def serve(
    store: str | None,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    workers: int = DEFAULT_WORKERS,
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
    retry_after: int = DEFAULT_RETRY_AFTER,
    enable_cache: bool = True,
) -> int:
    """Serve the service state in ``store`` until interrupted; returns an exit code.

    Every mutation is persisted write-through as it happens, so shutdown
    only closes the store.
    """
    try:
        service = AnonymizationService(snapshot_path=store)
    except (ServiceError, StoreError) as exc:
        _log.error("error: %s", exc)
        return 2
    frontend = ServingFrontend(
        service,
        host=host,
        port=port,
        workers=workers,
        queue_limit=queue_limit,
        retry_after=retry_after,
        enable_cache=enable_cache,
    )
    try:
        frontend.serve_forever()
    except ServiceError as exc:
        _log.error("error: %s", exc)
        return 2
    finally:
        service.close()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_cli_logging(verbose=args.verbose, quiet=args.quiet)
    return serve(
        args.store,
        args.host,
        args.port,
        workers=args.workers,
        queue_limit=args.queue_limit,
        retry_after=args.retry_after,
        enable_cache=not args.no_cache,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
