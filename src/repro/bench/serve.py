"""The ``serve`` benchmark suite: concurrent load against a live front end.

Each **audit** scenario boots a :class:`~repro.serve.frontend.ServingFrontend`
on an ephemeral port, registers one synthetic dataset, and drives N
concurrent keep-alive clients at ``GET /audit`` in three phases:

* **uncached** — the response cache disabled (the group index warm, so
  every response is deterministic): per-request latency and throughput of
  the recompute path;
* **cached** — the cache enabled and filled: the same load served from
  memory, plus the cache-hit ratio observed via the ``X-Cache`` headers;
* **invalidation** — the dataset re-registered (same table), which must
  drop the cached entries; the next recomputed response must byte-match
  the reference.

An audit entry's verdicts are the serving acceptance criteria:
``byte_identical`` (cached, uncached and post-invalidation bodies are the
same bytes), ``invalidation_observed``, ``all_cached_requests_hit`` (every
cached-phase response an ``X-Cache: hit``) and
``hits_faster_than_recompute`` (``cache_speedup``, mean uncached latency
over mean cached latency, above 1).

Each **backpressure** scenario floods a deliberately tiny server
(``workers=1``, ``queue_limit=1``) with simultaneous publish requests and
verifies overload is *shed*, not absorbed: some requests complete, some are
rejected (``shed_load``), every rejection is a ``429`` carrying
``Retry-After`` (``all_rejections_have_retry_after``), and none hang.

Both kinds drive their load through one client driver, :func:`_drive`.
``docs/serving.md`` reads the committed ``BENCH_serve.json``.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from email.message import Message
from typing import Any

from repro.bench.scenarios import Context, Scenario
from repro.bench.timing import time_callable
from repro.serve.frontend import ServingFrontend
from repro.service.engine import AnonymizationService

#: Chunk size for the publish jobs the backpressure flood runs (the audit
#: scenarios never publish; the field is part of every scenario's identity).
_CHUNK_SIZE = 256

#: Share of an audit scenario's cached-phase responses that must carry
#: ``X-Cache: hit``.  The cache is filled before that phase and nothing
#: invalidates it during it, so any miss means a request bypassed the cache
#: and recomputed.  This holds at any recompute cost; a latency ratio does
#: not (the tiny audit recompute fell to ~2 ms, so a working cache measured
#: only ~2.5x over it).
MIN_CACHE_HIT_RATIO = 1.0

#: A hit must still beat a recompute on mean latency.  A sanity bound only:
#: the hit ratio above is what fails when the cache is bypassed.
MIN_CACHE_SPEEDUP = 1.0

#: Ops fields every serve-suite scenario must report (numbers).
SERVE_REQUIRED_OPS = (
    "throughput_rps",
    "p50_seconds",
    "p95_seconds",
    "p99_seconds",
    "cache_hit_ratio",
    "queue_rejections",
)

#: The verdicts each kind of serve entry carries, by its ``strategy`` slot.
SERVE_VERDICTS = {
    "audit": (
        "byte_identical",
        "invalidation_observed",
        "all_cached_requests_hit",
        "hits_faster_than_recompute",
    ),
    "backpressure": ("shed_load", "all_rejections_have_retry_after"),
}


def serve_scenarios(tiny: bool = False) -> list[Scenario]:
    """The serve-suite scenario list: audit load points plus a flood.

    The ``strategy`` slot names the driven endpoint (``audit`` or
    ``backpressure``); ``workers`` is the *server's* worker-thread count and
    ``params`` carries the client-side load shape plus the queue bound.
    """
    # (kind, dataset, rows, server workers, queue limit, clients, req/client)
    if tiny:
        points = [
            ("audit", "adult", 2_000, 4, 64, 4, 10),
            ("backpressure", "adult", 2_000, 1, 1, 8, 2),
        ]
    else:
        points = [
            ("audit", "adult", 20_000, 8, 64, 8, 25),
            ("audit", "census", 50_000, 8, 64, 8, 25),
            ("backpressure", "adult", 20_000, 1, 1, 8, 2),
        ]
    return [
        Scenario(
            name=f"serve/{kind}/{dataset}-{rows}/c{clients}",
            strategy=kind,
            dataset=dataset,
            rows=rows,
            chunk_size=_CHUNK_SIZE,
            workers=workers,
            params={
                "clients": clients,
                "requests_per_client": per_client,
                "queue_limit": queue_limit,
            },
        )
        for kind, dataset, rows, workers, queue_limit, clients, per_client in points
    ]


@dataclass(frozen=True)
class _Response:
    latency: float
    status: int
    headers: Message
    body: bytes


@dataclass(frozen=True)
class _Load:
    """One load phase: every response, and the phase's wall time."""

    responses: list[_Response]
    wall_seconds: float

    def mean_latency(self) -> float:
        return sum(r.latency for r in self.responses) / max(1, len(self.responses))

    def percentiles(self, prefix: str = "") -> dict[str, float]:
        """Nearest-rank p50/p95/p99 latencies, as ``{prefix}pNN_seconds``."""
        ranked = sorted(r.latency for r in self.responses)
        return {
            f"{prefix}p{q}_seconds": ranked[max(1, math.ceil(q / 100 * len(ranked))) - 1]
            for q in (50, 95, 99)
        }


def _drive(
    frontend: ServingFrontend,
    clients: int,
    per_client: int,
    method: str,
    path: str,
    body: bytes | None = None,
    keep_alive: bool = True,
) -> _Load:
    """Release ``clients`` threads at once, each sending ``per_client`` requests.

    With ``keep_alive`` a client reuses one connection; without it each
    request opens its own (a ``429`` closes the connection it answers).
    A failed client fails the phase.
    """
    headers = {"Content-Type": "application/json"} if body is not None else {}
    barrier = threading.Barrier(clients)

    def client() -> list[_Response]:
        barrier.wait()
        responses = []
        conn: http.client.HTTPConnection | None = None
        try:
            for _ in range(per_client):
                conn = conn or http.client.HTTPConnection(frontend.host, frontend.port, timeout=60)
                begin = time.perf_counter()
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                latency = time.perf_counter() - begin
                responses.append(_Response(latency, response.status, response.headers, data))
                if not keep_alive:
                    conn.close()
                    conn = None
        finally:
            if conn is not None:
                conn.close()
        return responses

    begin = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        futures = [pool.submit(client) for _ in range(clients)]
        responses = [response for future in futures for response in future.result()]
    return _Load(responses, time.perf_counter() - begin)


def _get(frontend: ServingFrontend, path: str) -> _Response:
    """One request on a fresh connection."""
    (response,) = _drive(frontend, 1, 1, "GET", path).responses
    return response


def run_serve_scenario(scenario: Scenario, ctx: Context) -> dict[str, Any]:
    """Benchmark one serve scenario against a live ephemeral-port server."""
    dataset_name = f"{scenario.dataset}-{scenario.rows}"
    service = AnonymizationService()
    service.register_synthetic(
        dataset_name, scenario.dataset, n_records=scenario.rows, seed=ctx.seed
    )
    frontend = ServingFrontend(
        service,
        port=0,
        workers=scenario.workers,
        queue_limit=int(scenario.params["queue_limit"]),
    )
    phases = {"audit": _run_audit_phases, "backpressure": _run_backpressure}
    if scenario.strategy not in phases:
        raise ValueError(f"unknown serve scenario kind {scenario.strategy!r}")
    try:
        with frontend:
            return phases[scenario.strategy](scenario, frontend, dataset_name, ctx)
    finally:
        service.close()


def _run_audit_phases(
    scenario: Scenario, frontend: ServingFrontend, dataset_name: str, ctx: Context
) -> dict[str, Any]:
    clients = int(scenario.params["clients"])
    per_client = int(scenario.params["requests_per_client"])
    path = f"/audit?dataset={dataset_name}"
    cache = frontend.cache
    assert cache is not None

    # Warm the group index (the cold audit carries the real build time and
    # is not deterministic); every later response is a pure function of the
    # table and the resolved parameters.
    _get(frontend, path)
    warm = _get(frontend, path)
    if warm.status != 200:
        raise RuntimeError(f"audit warmup failed with status {warm.status}")
    reference = warm.body

    def load() -> _Load:
        return _drive(frontend, clients, per_client, "GET", path)

    # Phase A — uncached: every request recomputes on a worker.
    cache.enabled = False
    uncached, uncached_meas = time_callable(load, ctx.timing)

    # Phase B — cached: fill once, then the same load serves from memory.
    cache.enabled = True
    _get(frontend, path)  # miss: fills the cache
    cached, cached_meas = time_callable(load, ctx.timing)

    # Phase C — invalidation: re-registering the same table must drop the
    # cached entries; after re-warming the index, the recomputed response
    # must byte-match the reference.
    frontend.service.register_synthetic(
        dataset_name, scenario.dataset, n_records=scenario.rows, seed=ctx.seed, replace=True
    )
    cold = _get(frontend, path)  # cold rebuild, not stored
    recomputed = _get(frontend, path)  # warm recompute
    if cold.status != 200 or recomputed.status != 200:
        raise RuntimeError("post-invalidation audit failed")

    responses = uncached.responses + cached.responses + [recomputed]
    hits = [r.headers.get("X-Cache") for r in cached.responses].count("hit")
    hit_ratio = hits / max(1, len(cached.responses))
    cache_speedup = uncached.mean_latency() / max(cached.mean_latency(), 1e-9)

    ops = {
        "requests": len(cached.responses),
        "throughput_rps": len(cached.responses) / cached.wall_seconds,
        "uncached_throughput_rps": len(uncached.responses) / uncached.wall_seconds,
        **cached.percentiles(),
        **uncached.percentiles("uncached_"),
        "cache_hit_ratio": hit_ratio,
        "cache_speedup": cache_speedup,
        "queue_rejections": frontend.dispatcher.rejections,
    }
    return scenario.entry(
        cached_meas,
        ops,
        {"cached_load": cached_meas.best, "uncached_load": uncached_meas.best},
        verdicts={
            # Cached, uncached and post-invalidation bodies are the same bytes.
            "byte_identical": all(response.body == reference for response in responses),
            # The re-register dropped the cached entry instead of serving it.
            "invalidation_observed": "hit" not in (
                cold.headers.get("X-Cache"), recomputed.headers.get("X-Cache")
            ),
            "all_cached_requests_hit": hit_ratio >= MIN_CACHE_HIT_RATIO,
            "hits_faster_than_recompute": cache_speedup > MIN_CACHE_SPEEDUP,
        },
    )


def _run_backpressure(
    scenario: Scenario, frontend: ServingFrontend, dataset_name: str, ctx: Context
) -> dict[str, Any]:
    payload = json.dumps({"dataset": dataset_name, "backend": "sps", "seed": ctx.seed})
    load, measurement = time_callable(
        lambda: _drive(
            frontend,
            int(scenario.params["clients"]),
            int(scenario.params["requests_per_client"]),
            "POST",
            "/publish",
            body=payload.encode("utf-8"),
            keep_alive=False,
        ),
        ctx.timing,
    )
    statuses = [response.status for response in load.responses]
    completed = statuses.count(201)
    rejected = [response for response in load.responses if response.status == 429]
    unexpected = len(statuses) - completed - len(rejected)

    ops = {
        "requests": len(statuses),
        "throughput_rps": len(statuses) / load.wall_seconds,
        **load.percentiles(),
        "cache_hit_ratio": 0.0,
        "completed": completed,
        "rejected": len(rejected),
        "unexpected_statuses": unexpected,
        "queue_rejections": frontend.dispatcher.rejections,
    }
    return scenario.entry(
        measurement,
        ops,
        {"flood": measurement.best},
        verdicts={
            # Some requests complete, some get a 429, and nothing else.
            "shed_load": bool(rejected) and completed >= 1 and unexpected == 0,
            "all_rejections_have_retry_after": all(
                response.headers.get("Retry-After") for response in rejected
            ),
        },
    )
