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

The report's verdicts are the serving tentpole's acceptance criteria:
``cache_hit_ratio`` (every cached-phase response an ``X-Cache: hit``),
``cache_speedup`` (mean uncached latency over mean cached latency) and
``byte_identical`` (zero divergence between cached, uncached and
post-invalidation bodies).

Each **backpressure** scenario floods a deliberately tiny server
(``workers=1``, ``queue_limit=1``) with simultaneous publish requests and
verifies overload is *shed*, not absorbed: some requests complete, some are
rejected, every rejection is a ``429`` carrying ``Retry-After``, and none
hang.

The suite writes ``BENCH_serve.json`` through the shared runner/schema
machinery; ``scripts/check_bench_regression.py`` gates its latency and
verdict fields in CI and ``docs/serving.md`` reads its numbers.
"""

from __future__ import annotations

import http.client
import json
import math
import threading
import time
from typing import Any

from repro.bench.scenarios import Scenario
from repro.bench.timing import TimingSpec, time_callable
from repro.serve.frontend import ServingFrontend
from repro.service.engine import AnonymizationService

#: Chunk size for the publish jobs the backpressure flood runs (the audit
#: scenarios never publish; the field is part of every scenario's identity).
_CHUNK_SIZE = 256


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
            suite="serve",
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


def _percentile(latencies: list[float], q: float) -> float:
    """The ``q``-quantile of a non-empty latency sample (nearest-rank)."""
    ranked = sorted(latencies)
    rank = max(1, math.ceil(q * len(ranked)))
    return float(ranked[rank - 1])


class _LoadResult:
    """One load phase's outcome: latencies, bodies, headers, wall time."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.bodies: list[bytes] = []
        self.cache_headers: list[str] = []
        self.statuses: list[int] = []
        self.wall_seconds = 0.0

    @property
    def requests(self) -> int:
        return len(self.latencies)


def _drive_load(
    host: str, port: int, path: str, clients: int, per_client: int
) -> _LoadResult:
    """Drive ``clients`` keep-alive connections at ``path`` simultaneously."""
    result = _LoadResult()
    lock = threading.Lock()
    barrier = threading.Barrier(clients)
    errors: list[BaseException] = []

    def client() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=60)
        local: list[tuple[float, int, str, bytes]] = []
        try:
            barrier.wait()
            for _ in range(per_client):
                begin = time.perf_counter()
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
                local.append(
                    (
                        time.perf_counter() - begin,
                        response.status,
                        response.headers.get("X-Cache", ""),
                        body,
                    )
                )
        except BaseException as exc:  # surfaced after the join
            with lock:
                errors.append(exc)
        finally:
            conn.close()
        with lock:
            for latency, status, cache_header, body in local:
                result.latencies.append(latency)
                result.statuses.append(status)
                result.cache_headers.append(cache_header)
                result.bodies.append(body)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result.wall_seconds = time.perf_counter() - begin
    if errors:
        raise RuntimeError(f"load client failed: {errors[0]}") from errors[0]
    return result


def _get(host: str, port: int, path: str) -> tuple[int, str, bytes]:
    """One request on a fresh connection: (status, X-Cache header, body)."""
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.headers.get("X-Cache", ""), response.read()
    finally:
        conn.close()


def run_serve_scenario(
    scenario: Scenario, seed: int, timing: TimingSpec
) -> dict[str, Any]:
    """Benchmark one serve scenario against a live ephemeral-port server."""
    dataset_name = f"{scenario.dataset}-{scenario.rows}"
    service = AnonymizationService()
    service.register_synthetic(
        dataset_name, scenario.dataset, n_records=scenario.rows, seed=seed
    )
    frontend = ServingFrontend(
        service,
        port=0,
        workers=scenario.workers,
        queue_limit=int(scenario.params["queue_limit"]),
    )
    try:
        with frontend:
            if scenario.strategy == "audit":
                entry = _run_audit_phases(scenario, frontend, dataset_name, seed, timing)
            elif scenario.strategy == "backpressure":
                entry = _run_backpressure(scenario, frontend, dataset_name, seed, timing)
            else:
                raise ValueError(f"unknown serve scenario kind {scenario.strategy!r}")
    finally:
        service.close()
    return entry


def _run_audit_phases(
    scenario: Scenario,
    frontend: ServingFrontend,
    dataset_name: str,
    seed: int,
    timing: TimingSpec,
) -> dict[str, Any]:
    host, port = frontend.host, frontend.port
    clients = int(scenario.params["clients"])
    per_client = int(scenario.params["requests_per_client"])
    path = f"/audit?dataset={dataset_name}"
    cache = frontend.cache
    assert cache is not None

    # Warm the group index (the cold audit carries the real build time and
    # is not deterministic); every later response is a pure function of the
    # table and the resolved parameters.
    _get(host, port, path)
    status, _, reference = _get(host, port, path)
    if status != 200:
        raise RuntimeError(f"audit warmup failed with status {status}")

    # Phase A — uncached: every request recomputes on a worker.
    cache.enabled = False
    uncached, uncached_meas = time_callable(
        lambda: _drive_load(host, port, path, clients, per_client), timing
    )

    # Phase B — cached: fill once, then the same load serves from memory.
    cache.enabled = True
    _get(host, port, path)  # miss: fills the cache
    cached, cached_meas = time_callable(
        lambda: _drive_load(host, port, path, clients, per_client), timing
    )

    # Phase C — invalidation: re-registering the same table must drop the
    # cached entries; after re-warming the index, the recomputed response
    # must byte-match the reference.
    frontend.service.register_synthetic(
        dataset_name, scenario.dataset, n_records=scenario.rows, seed=seed, replace=True
    )
    post_status, post_cache, _ = _get(host, port, path)  # cold rebuild, not stored
    status_2, cache_2, post_body = _get(host, port, path)  # warm recompute
    invalidated = post_cache != "hit" and cache_2 != "hit"
    if post_status != 200 or status_2 != 200:
        raise RuntimeError("post-invalidation audit failed")

    bodies_uncached_ok = all(body == reference for body in uncached.bodies)
    bodies_cached_ok = all(body == reference for body in cached.bodies)
    byte_identical = bodies_uncached_ok and bodies_cached_ok and post_body == reference
    hits = sum(1 for header in cached.cache_headers if header == "hit")
    hit_ratio = hits / max(1, cached.requests)
    uncached_mean = sum(uncached.latencies) / max(1, uncached.requests)
    cached_mean = sum(cached.latencies) / max(1, cached.requests)

    entry = scenario.to_json()
    entry["ops"] = {
        "requests": cached.requests,
        "throughput_rps": cached.requests / cached.wall_seconds,
        "uncached_throughput_rps": uncached.requests / uncached.wall_seconds,
        "p50_seconds": _percentile(cached.latencies, 0.50),
        "p95_seconds": _percentile(cached.latencies, 0.95),
        "p99_seconds": _percentile(cached.latencies, 0.99),
        "uncached_p50_seconds": _percentile(uncached.latencies, 0.50),
        "uncached_p95_seconds": _percentile(uncached.latencies, 0.95),
        "uncached_p99_seconds": _percentile(uncached.latencies, 0.99),
        "cache_hit_ratio": hit_ratio,
        "cache_speedup": uncached_mean / max(cached_mean, 1e-9),
        "queue_rejections": frontend.dispatcher.rejections,
        "invalidation_observed": bool(invalidated),
        "byte_identical": bool(byte_identical),
    }
    entry["seconds"] = cached_meas.to_json()
    entry["stages"] = {
        "cached_load": float(cached_meas.best),
        "uncached_load": float(uncached_meas.best),
    }
    return entry


def _run_backpressure(
    scenario: Scenario,
    frontend: ServingFrontend,
    dataset_name: str,
    seed: int,
    timing: TimingSpec,
) -> dict[str, Any]:
    host, port = frontend.host, frontend.port
    clients = int(scenario.params["clients"])
    per_client = int(scenario.params["requests_per_client"])
    payload = json.dumps(
        {"dataset": dataset_name, "backend": "sps", "seed": seed}
    ).encode("utf-8")

    def flood() -> dict[str, Any]:
        lock = threading.Lock()
        barrier = threading.Barrier(clients)
        outcomes: list[tuple[int, str]] = []
        latencies: list[float] = []

        def client() -> None:
            barrier.wait()
            for _ in range(per_client):
                # 429 responses close the connection, so the flood uses one
                # connection per request.
                conn = http.client.HTTPConnection(host, port, timeout=60)
                try:
                    begin = time.perf_counter()
                    conn.request(
                        "POST",
                        "/publish",
                        body=payload,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    response.read()
                    with lock:
                        latencies.append(time.perf_counter() - begin)
                        outcomes.append(
                            (response.status, response.headers.get("Retry-After", ""))
                        )
                finally:
                    conn.close()

        threads = [threading.Thread(target=client) for _ in range(clients)]
        begin = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return {
            "wall": time.perf_counter() - begin,
            "outcomes": outcomes,
            "latencies": latencies,
        }

    result, measurement = time_callable(flood, timing)
    outcomes: list[tuple[int, str]] = result["outcomes"]
    latencies: list[float] = result["latencies"]
    completed = sum(1 for status, _ in outcomes if status == 201)
    rejected = [(status, retry) for status, retry in outcomes if status == 429]
    hung_or_failed = sum(1 for status, _ in outcomes if status not in (201, 429))
    retry_after_ok = all(retry for _, retry in rejected)

    entry = scenario.to_json()
    entry["ops"] = {
        "requests": len(outcomes),
        "throughput_rps": len(outcomes) / result["wall"],
        "p50_seconds": _percentile(latencies, 0.50),
        "p95_seconds": _percentile(latencies, 0.95),
        "p99_seconds": _percentile(latencies, 0.99),
        "cache_hit_ratio": 0.0,
        "completed": completed,
        "rejected": len(rejected),
        "unexpected_statuses": hung_or_failed,
        "queue_rejections": frontend.dispatcher.rejections,
        "all_rejections_have_retry_after": bool(retry_after_ok),
        "shed_load": bool(rejected and completed >= 1 and hung_or_failed == 0),
    }
    entry["seconds"] = measurement.to_json()
    entry["stages"] = {"flood": float(measurement.best)}
    return entry
