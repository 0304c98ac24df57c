"""Transport-agnostic routing for the anonymization service's HTTP API.

:class:`ServiceRouter` is the routing table behind the asyncio serving
front end (:mod:`repro.serve.frontend`).  A request comes in as
``(method, target, body)`` and goes out as a :class:`RouteResult` — status,
rendered body bytes, content type, extra headers and a connection-close
flag — so the transport only moves bytes.

The router is also where the serving layer's
:class:`~repro.serve.cache.ResponseCache` plugs in.  One read endpoint is
cacheable, ``GET/POST /audit``: it is cached under ``("audit", dataset,
resolved spec params)``, but only once the dataset's group index is warm
(``group_index_cached`` true in the payload).  A warm audit is a pure
function of the registered table and the resolved parameters (the
index-lookup time is exactly ``0.0``), so the cached bytes are identical to
any fresh warm response.  The cold first audit, whose payload carries the
real index build time, is served but never stored.

``GET /datasets/<name>`` is never cached: its body carries the entry's live
group-index counters, which audits move without mutating the dataset.

Cacheable responses carry an ``X-Cache: hit|miss`` header.  Mutations
invalidate through the service engine (see
``AnonymizationService.attach_response_cache``), and the generation-stamped
keys make stale entries unreachable even without the active invalidation.
"""

from __future__ import annotations

import io
import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any
from urllib.parse import parse_qs, urlparse

from repro import __version__
from repro.dataset.loaders import write_csv
from repro.obs.environment import record_build_info
from repro.obs.export import render_prometheus
from repro.obs.metrics import SERVE_ERRORS
from repro.service.engine import AnonymizationService
from repro.pipeline.execution import DEFAULT_CHUNK_SIZE
from repro.service.registry import NotFoundError, ServiceError
from repro.serve.cache import CachedResponse, ResponseCache

_log = logging.getLogger("repro.serve")

JSON_TYPE = "application/json"
CSV_TYPE = "text/csv"
METRICS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _as_int(value: Any, name: str) -> int:
    """Coerce a JSON field to int, mapping bad types to a client error."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ServiceError(f"{name!r} must be an integer, got {value!r}") from None


def _as_float(value: Any, name: str) -> float:
    """Coerce a JSON field to float, mapping bad types to a client error."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ServiceError(f"{name!r} must be a number, got {value!r}") from None


def _refuse_renamed(args: dict[str, Any], old: str, new: str) -> None:
    """Reject a field renamed in 12.0.0 rather than silently use the default."""
    if old in args:
        raise ServiceError(f"{old!r} was renamed to {new!r} in 12.0.0")


def _workers_field(body: dict[str, Any]) -> int:
    """The request's worker count (``workers``, default 1)."""
    _refuse_renamed(body, "max_workers", "workers")
    return _as_int(body.get("workers", 1), "workers")


class _LimitedReader(io.RawIOBase):
    """Raw stream exposing at most ``limit`` bytes of an underlying file."""

    def __init__(self, raw: Any, limit: int) -> None:
        self._raw = raw
        self._remaining = max(0, int(limit))

    def readable(self) -> bool:
        return True

    def readinto(self, buffer: Any) -> int:  # type: ignore[override]
        if self._remaining <= 0:
            return 0
        view = memoryview(buffer)[: self._remaining]
        chunk = self._raw.read(len(view))
        if not chunk:
            self._remaining = 0
            return 0
        view[: len(chunk)] = chunk
        self._remaining -= len(chunk)
        return len(chunk)


@dataclass(frozen=True)
class RouteResult:
    """One fully-rendered response, ready for any transport to write out."""

    status: int
    body: bytes
    content_type: str = JSON_TYPE
    headers: tuple[tuple[str, str], ...] = field(default_factory=tuple)
    close: bool = False

    @property
    def content_length(self) -> int:
        return len(self.body)


def _json_result(
    payload: Any,
    status: int = 200,
    headers: tuple[tuple[str, str], ...] = (),
) -> RouteResult:
    return RouteResult(
        status=status,
        body=json.dumps(payload).encode("utf-8"),
        content_type=JSON_TYPE,
        headers=headers,
    )


def error_result(message: str, status: int) -> RouteResult:
    # An error can fire before the request body was consumed (e.g. a CSV
    # upload rejected on its query parameters); a reused keep-alive
    # connection would then parse the leftover body as the next request
    # line.  Closing the connection keeps the protocol state clean.
    return RouteResult(
        status=status,
        body=json.dumps({"error": message}).encode("utf-8"),
        content_type=JSON_TYPE,
        headers=(("Connection", "close"),),
        close=True,
    )


class ServiceRouter:
    """Routes parsed HTTP requests to an :class:`AnonymizationService`."""

    def __init__(self, service: AnonymizationService) -> None:
        self.service = service

    @property
    def cache(self) -> ResponseCache | None:
        """The response cache attached to the service, if any."""
        return self.service.response_cache

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def handle(
        self,
        method: str,
        target: str,
        body: IO[bytes] | None = None,
        content_length: int = 0,
        read_cache: bool = True,
    ) -> RouteResult:
        """Route one request; every outcome (including errors) is a result.

        ``body`` is a binary stream holding the request body;
        ``content_length`` bounds how much of it belongs to this request.
        A handler failure outside the client-error classes is logged with
        its traceback and answered ``500``.  A front end that already ran
        :meth:`probe` passes ``read_cache=False`` so the miss it counted is
        not counted twice; cache *fills* still happen.
        """
        url = urlparse(target)
        parts = [part for part in url.path.split("/") if part]
        query = {key: values[-1] for key, values in parse_qs(url.query).items()}
        try:
            result = self._route(method, parts, query, body, content_length, read_cache)
        except NotFoundError as exc:
            return error_result(str(exc), 404)
        except ServiceError as exc:
            return error_result(str(exc), 400)
        except ValueError as exc:
            return error_result(str(exc), 400)
        except Exception:
            _log.exception("unhandled error serving %s %s", method, url.path)
            SERVE_ERRORS.inc()
            return error_result("internal server error", 500)
        if result is None:
            return error_result(f"no route for {method} {url.path}", 404)
        return result

    def probe(self, method: str, target: str, body: bytes = b"") -> RouteResult | None:
        """A cached response for this request, or ``None``.

        Front ends call this before queueing: a hit is served straight from
        memory without consuming a worker slot.  Any request that is not
        cacheable — or whose parameters fail to resolve — returns ``None``
        and takes the full :meth:`handle` path (where the same bad input
        produces its proper error response).
        """
        cache = self.cache
        if cache is None or not cache.enabled:
            return None
        url = urlparse(target)
        parts = [part for part in url.path.split("/") if part]
        try:
            if method == "GET" and parts == ["audit"]:
                query = {k: v[-1] for k, v in parse_qs(url.query).items()}
                dataset, params = _audit_params(query)
            elif method == "POST" and parts == ["audit"]:
                dataset, params = _audit_params(_parse_json_bytes(body))
            else:
                return None
        except ServiceError:
            return None
        entry = cache.get(cache.key("audit", dataset, params))
        if entry is None:
            return None
        return RouteResult(
            status=entry.status,
            body=entry.body,
            content_type=entry.content_type,
            headers=(("X-Cache", "hit"),),
        )

    # ------------------------------------------------------------------ #
    # Routing table
    # ------------------------------------------------------------------ #
    def _route(
        self,
        method: str,
        parts: list[str],
        query: dict[str, str],
        body: IO[bytes] | None,
        content_length: int,
        read_cache: bool,
    ) -> RouteResult | None:
        if method == "GET":
            if not parts:
                return _json_result(self.service.describe())
            if parts in (["health"], ["healthz"]):
                return _json_result({"status": "ok", "version": __version__})
            if parts == ["stats"]:
                return _json_result(self.service.stats())
            if parts == ["metrics"]:
                return self._metrics()
            if parts == ["datasets"]:
                return _json_result(
                    [entry.to_json() for entry in self.service.datasets.entries()]
                )
            if len(parts) == 2 and parts[0] == "datasets":
                return _json_result(self.service.datasets.get(parts[1]).to_json())
            if parts == ["jobs"]:
                return _json_result(
                    [record.to_json() for record in self.service.jobs.records()]
                )
            if len(parts) == 2 and parts[0] == "jobs":
                return _json_result(self.service.job(parts[1]).to_json())
            if len(parts) == 3 and parts[0] == "jobs" and parts[2] == "table.csv":
                return self._published_csv(parts[1])
            if parts == ["audit"]:
                return self._audit(query, read_cache)
            return None
        if method == "POST":
            if parts == ["datasets"]:
                return self._register(query, body, content_length)
            if len(parts) == 3 and parts[0] == "datasets" and parts[2] == "rows":
                return self._append_rows(
                    parts[1], _read_json_body(body, content_length)
                )
            if parts == ["publish"]:
                return self._publish(_read_json_body(body, content_length))
            if parts == ["audit"]:
                return self._audit(_read_json_body(body, content_length), read_cache)
            return None
        return None

    # ------------------------------------------------------------------ #
    # Endpoint bodies
    # ------------------------------------------------------------------ #
    def _register(
        self, query: dict[str, str], body: IO[bytes] | None, content_length: int
    ) -> RouteResult:
        name = query.get("name")
        sensitive = query.get("sensitive")
        if not name or not sensitive:
            raise ServiceError(
                "POST /datasets requires ?name= and ?sensitive= query parameters "
                "and a CSV request body"
            )
        replace = query.get("replace", "").lower() in {"1", "true", "yes"}
        if body is None or content_length <= 0:
            raise ServiceError("POST /datasets requires a non-empty CSV body")
        # The bounded binary body: read_csv decodes its UTF-8 bytes itself.
        stream = io.BufferedReader(_LimitedReader(body, content_length))
        entry = self.service.register_csv(name, stream, sensitive, replace=replace)
        return _json_result(entry.to_json(), status=201)

    def _append_rows(self, name: str, body: dict[str, Any]) -> RouteResult:
        rows = body.get("rows")
        source = body.get("source")
        if rows is not None:
            if not isinstance(rows, list) or not all(
                isinstance(row, list) and all(isinstance(v, str) for v in row)
                for row in rows
            ):
                raise ServiceError(
                    "'rows' must be a list of rows (lists of strings) in the "
                    "dataset's header column order"
                )
        record = self.service.append_rows(
            name,
            rows=rows,
            source=str(source) if source is not None else None,
            workers=_workers_field(body),
        )
        return _json_result(record.to_json(), status=201)

    def _publish(self, body: dict[str, Any]) -> RouteResult:
        backend = body.get("backend")
        params = body.get("params") or {}
        if not isinstance(params, dict):
            raise ServiceError("'params' must be a JSON object")
        if body.get("delta"):
            # Delta base publish: like a stream job, but the service keeps
            # the resulting DeltaState so POST /datasets/<name>/rows can
            # splice appends into the published CSV incrementally.
            name = body.get("name")
            source = body.get("source")
            sensitive = body.get("sensitive")
            output = body.get("output")
            if not name or not source or not sensitive or not backend or not output:
                raise ServiceError(
                    "delta publish requires 'name', 'source', 'sensitive', "
                    "'backend' and 'output' fields"
                )
            chunk_rows = body.get("chunk_rows")
            record = self.service.publish_delta_base(
                name=str(name),
                source=str(source),
                sensitive=str(sensitive),
                backend=str(backend),
                output=str(output),
                params=params,
                seed=_as_int(body.get("seed", 0), "seed"),
                chunk_size=_as_int(body.get("chunk_size", DEFAULT_CHUNK_SIZE), "chunk_size"),
                chunk_rows=_as_int(chunk_rows, "chunk_rows") if chunk_rows is not None else None,
                workers=_workers_field(body),
                replace=bool(body.get("replace", False)),
            )
            return _json_result(record.to_json(), status=201)
        if body.get("stream"):
            # Out-of-core job mode: publish straight from a server-side CSV
            # path in bounded-memory chunks; GET /jobs/<id> shows progress
            # while the job runs.  Paths resolve on the server with the
            # service's privileges (same trust level as the CLI); at least
            # refuse to clobber existing files so a client cannot truncate
            # an arbitrary path by naming it as 'output'.
            source = body.get("source")
            sensitive = body.get("sensitive")
            if not source or not sensitive or not backend:
                raise ServiceError(
                    "stream publish requires 'source', 'sensitive' and 'backend' fields"
                )
            output = body.get("output")
            if output and Path(output).exists():
                raise ServiceError(
                    f"output path {str(output)!r} already exists on the server; "
                    "stream jobs only write new files"
                )
            chunk_rows = body.get("chunk_rows")
            record = self.service.publish_stream(
                source=str(source),
                sensitive=str(sensitive),
                backend=str(backend),
                params=params,
                seed=_as_int(body.get("seed", 0), "seed"),
                chunk_size=_as_int(body.get("chunk_size", DEFAULT_CHUNK_SIZE), "chunk_size"),
                chunk_rows=_as_int(chunk_rows, "chunk_rows") if chunk_rows is not None else None,
                workers=_workers_field(body),
                output=output,
            )
            return _json_result(record.to_json(), status=201)
        dataset = body.get("dataset")
        if not dataset or not backend:
            raise ServiceError("POST /publish requires 'dataset' and 'backend' fields")
        record = self.service.publish(
            dataset=str(dataset),
            backend=str(backend),
            params=params,
            seed=_as_int(body.get("seed", 0), "seed"),
            chunk_size=_as_int(body.get("chunk_size", DEFAULT_CHUNK_SIZE), "chunk_size"),
            max_workers=_workers_field(body),
        )
        return _json_result(record.to_json(), status=201)

    def _audit(self, args: dict[str, Any], read_cache: bool = True) -> RouteResult:
        dataset, params = _audit_params(args)
        cache = self.cache
        key = cache.key("audit", dataset, params) if cache is not None else None
        if cache is not None and key is not None and read_cache:
            hit = cache.get(key)
            if hit is not None:
                return RouteResult(
                    status=hit.status,
                    body=hit.body,
                    content_type=hit.content_type,
                    headers=(("X-Cache", "hit"),),
                )
        payload = self.service.audit(dataset=dataset, **params)
        result = _json_result(payload)
        if cache is None or key is None:
            return result
        if payload.get("group_index_cached"):
            # A warm audit is deterministic (index lookup time is exactly
            # 0.0), so the stored bytes equal any fresh warm response.  The
            # cold first audit carries the real build time and is never
            # stored — a later hit could not reproduce it byte-for-byte.
            cache.put(
                key,
                CachedResponse(
                    dataset=dataset,
                    status=result.status,
                    content_type=result.content_type,
                    body=result.body,
                ),
            )
        return RouteResult(
            status=result.status,
            body=result.body,
            content_type=result.content_type,
            headers=(("X-Cache", "miss"),),
        )

    def _metrics(self) -> RouteResult:
        """Render the process metrics registry as Prometheus text exposition."""
        # Refresh the info gauge on every scrape: cheap, and it guarantees
        # the environment labels are present even on a cold process.
        record_build_info()
        return RouteResult(
            status=200,
            body=render_prometheus().encode("utf-8"),
            content_type=METRICS_TYPE,
        )

    def _published_csv(self, job_id: str) -> RouteResult:
        buffer = io.BytesIO()
        write_csv(self.service.published_table(job_id), buffer)
        return RouteResult(
            status=200,
            body=buffer.getvalue(),
            content_type=CSV_TYPE,
        )


# ---------------------------------------------------------------------- #
# Shared request parsing
# ---------------------------------------------------------------------- #
def _audit_params(args: dict[str, Any]) -> tuple[str, dict[str, float]]:
    """Resolve an audit request's arguments to ``(dataset, spec params)``.

    The resolved params are the cache key's parameter slot: defaults applied,
    every value coerced to float — so ``?lam=0.3`` and an omitted ``lam`` key
    the same response.
    """
    _refuse_renamed(args, "p", "retention_probability")
    dataset = args.get("dataset")
    if not dataset:
        raise ServiceError("audit requires a 'dataset' argument")
    return str(dataset), {
        "lam": _as_float(args.get("lam", 0.3), "lam"),
        "delta": _as_float(args.get("delta", 0.3), "delta"),
        "retention_probability": _as_float(
            args.get("retention_probability", 0.5), "retention_probability"
        ),
    }


def _parse_json_bytes(raw: bytes) -> dict[str, Any]:
    """Decode a JSON object body, mapping bad input to a client error."""
    if not raw:
        return {}
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServiceError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ServiceError("request body must be a JSON object")
    return data


def _read_json_body(body: IO[bytes] | None, content_length: int) -> dict[str, Any]:
    """Read and decode a JSON object body from a bounded stream."""
    if body is None or content_length <= 0:
        return {}
    return _parse_json_bytes(body.read(content_length))
