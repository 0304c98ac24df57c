"""The asyncio serving front end: bounded concurrency over the service API.

:class:`ServingFrontend` is the service's one HTTP front end (``repro-serve``
and ``repro-service serve`` both run it).  It delegates routing to
:class:`repro.serve.router.ServiceRouter` and adds the scale controls:

- **Connection handling is asyncio.**  One event loop owns every socket,
  so ten thousand idle keep-alive connections cost file descriptors, not
  threads.
- **Work is bounded.**  Requests dispatch to a fixed
  :class:`~repro.serve.queue.BoundedDispatcher` worker pool through a
  bounded queue; when the queue is full the request is answered ``429 Too
  Many Requests`` with a ``Retry-After`` header *immediately* — overload
  sheds at the door instead of stacking threads.
- **Audits are cached.**  An in-memory
  :class:`~repro.serve.cache.ResponseCache` is attached to the service
  (unless disabled); cache hits are answered on the event loop without
  ever touching the queue.
- **Everything is measured.**  ``repro_serve_request_seconds`` (per
  endpoint), ``repro_serve_queue_depth`` and the cache/rejection counters
  are exported by the ``/metrics`` endpoint it serves.

``/health``, ``/healthz`` and ``/metrics`` always bypass the queue: a
saturated service still answers probes and scrapes.
"""

from __future__ import annotations

import asyncio
import io
import json
import logging
import threading
import time
from urllib.parse import urlparse

from repro import __version__
from repro.obs.metrics import SERVE_REQUEST_SECONDS
from repro.serve.cache import ResponseCache
from repro.serve.queue import (
    DEFAULT_QUEUE_LIMIT,
    DEFAULT_RETRY_AFTER,
    DEFAULT_WORKERS,
    BoundedDispatcher,
    QueueFullError,
)
from repro.serve.router import JSON_TYPE, RouteResult, ServiceRouter, error_result
from repro.service.engine import AnonymizationService

_log = logging.getLogger("repro.serve")

#: Endpoints answered on the event loop, never queued.
_BYPASS_PATHS = {"/health", "/healthz", "/metrics"}

#: Known first path segments, used as the request-latency histogram label
#: (anything else collapses to "other" so the label stays bounded).
_ENDPOINT_LABELS = {
    "health", "healthz", "metrics", "stats", "datasets", "jobs", "publish", "audit",
}

#: Largest request body accepted (a declared Content-Length above it is a
#: ``413`` before any of the body is read).  The census-100k CSV register
#: is 4.0 MB.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Most header lines one request may carry (``431`` beyond it).
MAX_HEADER_LINES = 100


class _BadRequest(Exception):
    """Malformed request framing: answered ``status``, then the connection closes."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request-head line; a line over the reader's limit is a ``431``."""
    try:
        return await reader.readline()
    except ValueError:  # StreamReader: "chunk is longer than limit"
        raise _BadRequest("request line or header line too long", 431) from None


async def _linger(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
    """Half-close, then discard what the client still sends, for up to a second.

    Closing a socket with unread input resets the connection, which can
    destroy the error reply before the client reads it.
    """
    writer.write_eof()

    async def discard() -> None:
        while await reader.read(1 << 16):
            pass

    try:
        await asyncio.wait_for(discard(), timeout=1.0)
    except (asyncio.TimeoutError, ConnectionError):
        pass


def _endpoint_label(target: str) -> str:
    parts = [part for part in urlparse(target).path.split("/") if part]
    if not parts:
        return "root"
    return parts[0] if parts[0] in _ENDPOINT_LABELS else "other"


class ServingFrontend:
    """Asyncio HTTP server with a bounded worker pool and response cache.

    Parameters
    ----------
    service:
        The :class:`AnonymizationService` to serve.
    host, port:
        Bind address; ``port=0`` binds an ephemeral port (read it back from
        :attr:`port` after :meth:`start`).
    workers:
        Worker threads executing requests (the service engine is
        thread-safe; a publish job with ``workers > 1`` fans its chunks out
        over that many more threads).
    queue_limit:
        Bound on *waiting* requests; the ``queue_limit + 1``-th concurrent
        request is rejected with 429.
    retry_after:
        The ``Retry-After`` hint (seconds) sent with 429 responses.
    enable_cache:
        ``True`` attaches an in-memory :class:`ResponseCache` unless the
        service already has one; ``False`` serves everything uncached
        (benchmark baseline mode).
    """

    def __init__(
        self,
        service: AnonymizationService,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        workers: int = DEFAULT_WORKERS,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        retry_after: int = DEFAULT_RETRY_AFTER,
        enable_cache: bool = True,
        read_timeout: float = 30.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.router = ServiceRouter(service)
        self.dispatcher = BoundedDispatcher(
            workers=workers, queue_limit=queue_limit, retry_after=retry_after
        )
        self._read_timeout = read_timeout
        if enable_cache and service.response_cache is None:
            ResponseCache().attach(service)
        self._thread: threading.Thread | None = None
        self._thread_error: BaseException | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None

    @property
    def cache(self) -> ResponseCache | None:
        """The response cache attached to the service, if any."""
        return self.service.response_cache

    @property
    def base_url(self) -> str:
        """The server's root URL (valid once started)."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ServingFrontend":
        """Run the server in a background thread; returns once it is bound."""
        if self._thread is not None:
            return self
        self._ready.clear()
        self._thread_error = None
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("serving front end failed to start within 30s")
        if self._thread_error is not None:
            error = self._thread_error
            self._thread = None
            raise RuntimeError(f"serving front end failed to start: {error}")
        return self

    def stop(self) -> None:
        """Stop accepting connections and drain the worker pool (idempotent)."""
        if self._loop is not None and self._thread is not None and self._thread.is_alive():
            loop, stop_event = self._loop, self._stop_event
            if stop_event is not None:
                loop.call_soon_threadsafe(stop_event.set)
            self._thread.join(timeout=30)
        self._thread = None
        self._loop = None
        self.dispatcher.shutdown()

    def __enter__(self) -> "ServingFrontend":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted (the CLI path)."""
        try:
            asyncio.run(self._main())
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
        finally:
            self.dispatcher.shutdown()

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced to start()'s caller
            self._thread_error = exc
            self._ready.set()

    async def _main(self) -> None:
        self.dispatcher.start()
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(self._handle_client, self.host, self.port)
        try:
            sockets = server.sockets
            if sockets:
                self.port = int(sockets[0].getsockname()[1])
            _log.info("repro-serve listening on http://%s:%s", self.host, self.port)
            self._ready.set()
            await self._stop_event.wait()
        finally:
            server.close()
            await server.wait_closed()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader), timeout=self._read_timeout
                    )
                except (asyncio.TimeoutError, asyncio.IncompleteReadError):
                    break
                except _BadRequest as exc:
                    self._write_result(
                        writer, error_result(str(exc), exc.status), keep_alive=False
                    )
                    await writer.drain()
                    await _linger(reader, writer)
                    break
                if request is None:
                    break
                method, target, version, headers, body = request
                if method in ("GET", "POST"):
                    result = await self._respond(method, target, body)
                else:
                    result = error_result(f"method {method} not allowed", 405)
                keep_alive = (
                    version != "HTTP/1.0"
                    and headers.get("connection", "").lower() != "close"
                    and not result.close
                )
                self._write_result(writer, result, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, str, dict[str, str], bytes] | None:
        """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket."""
        request_line = await _read_line(reader)
        if not request_line:
            return None
        pieces = request_line.decode("latin-1").split()
        if len(pieces) != 3:
            shown = request_line[:80].decode("latin-1").strip()
            raise _BadRequest(f"malformed request line {shown!r}")
        method, target, version = pieces
        headers: dict[str, str] = {}
        n_lines = 0
        while True:
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            n_lines += 1
            if n_lines > MAX_HEADER_LINES:
                raise _BadRequest(f"more than {MAX_HEADER_LINES} header lines", 431)
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            encoding = headers["transfer-encoding"]
            raise _BadRequest(
                f"Transfer-Encoding {encoding!r} is not supported; "
                "send the body with a Content-Length",
                501,
            )
        declared = headers.get("content-length") or "0"
        if not (declared.isascii() and declared.isdigit()):
            raise _BadRequest(f"invalid Content-Length {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _BadRequest(
                f"Content-Length {length} exceeds the {MAX_BODY_BYTES}-byte body limit",
                413,
            )
        body = await reader.readexactly(length) if length > 0 else b""
        return method, target, version, headers, body

    async def _respond(self, method: str, target: str, body: bytes) -> RouteResult:
        start = time.perf_counter()
        try:
            path = urlparse(target).path
            if path in _BYPASS_PATHS:
                # Probes and scrapes stay answerable under full overload.
                return self.router.handle(method, target, io.BytesIO(body), len(body))
            probe = self.router.probe(method, target, body)
            if probe is not None:
                return probe
            try:
                future = self.dispatcher.submit(
                    lambda: self.router.handle(
                        method, target, io.BytesIO(body), len(body), read_cache=False
                    )
                )
            except QueueFullError as exc:
                return self._rejection(exc)
            result = await asyncio.wrap_future(future)
            return result
        finally:
            SERVE_REQUEST_SECONDS.observe(
                time.perf_counter() - start, endpoint=_endpoint_label(target)
            )

    @staticmethod
    def _rejection(exc: QueueFullError) -> RouteResult:
        return RouteResult(
            status=429,
            body=json.dumps({"error": str(exc)}).encode("utf-8"),
            content_type=JSON_TYPE,
            headers=(
                ("Retry-After", str(exc.retry_after)),
                ("Connection", "close"),
            ),
            close=True,
        )

    @staticmethod
    def _write_result(
        writer: asyncio.StreamWriter, result: RouteResult, keep_alive: bool
    ) -> None:
        reason = {200: "OK", 201: "Created", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 413: "Content Too Large",
                  429: "Too Many Requests",
                  431: "Request Header Fields Too Large",
                  500: "Internal Server Error", 501: "Not Implemented"}.get(
            result.status, "Response"
        )
        lines = [
            f"HTTP/1.1 {result.status} {reason}",
            f"Server: repro-serve/{__version__}",
            f"Content-Type: {result.content_type}",
            f"Content-Length: {result.content_length}",
        ]
        names = {name.lower() for name, _ in result.headers}
        lines.extend(f"{name}: {value}" for name, value in result.headers)
        if not keep_alive and "connection" not in names:
            lines.append("Connection: close")
        head = "\r\n".join(lines) + "\r\n\r\n"
        writer.write(head.encode("latin-1") + result.body)
