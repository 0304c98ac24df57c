"""serve-mixed: a closed-loop HTTP client against ``repro-serve``.

The server runs as a subprocess over a file-backed SQLite store, so client
and server do not share an interpreter lock.  One keep-alive client works
through a fixed, seeded op sequence and sends the next op when the previous
reply arrived:

* ``audit`` — ``GET /audit`` over a small (lambda, delta) grid on the
  registered adult dataset; mostly response-cache hits;
* ``register`` — re-register that dataset, which invalidates its cached
  audits, so every grid point misses once afterwards;
* ``publish`` — ``POST /publish`` (sps) on the same dataset;
* ``csv`` — ``GET /jobs/<id>/table.csv`` of the latest published job;
* ``append`` — ``POST /datasets/living/rows`` to a living (delta) dataset.

Writes sit beside reads on the serve, service and store layers.  One
waiting client builds no queue; 429s are counted as failed.

Why one client, on the server's core: with two concurrent clients the
server (one interpreter lock, so effectively one core) interleaved their
requests, and each latency depended on which other request it overlapped;
audit, publish and append medians then moved by more than the bounds
between runs.  Client and server share one core because a ping-pong between
two cores ran in a fast or a slow mode, 25% apart, depending on placement.
Each core of this kind of host also drifts in speed on its own, over
seconds, so the pair moves to the next core every block of ops: a run
samples every core alike.
"""

from __future__ import annotations

import http.client
import io
import json
import os
import signal
import socket
import subprocess
import sys
import time
from typing import Any

import numpy as np

from harness import DATASET_SEED, TAIL_SAMPLES, BenchError, Op, TracedOp, median, op_seed, tail_percentile
from workloads.base import Workload
from workloads.delta import copied_rows

#: Op mix per block; every block is shuffled by the seed, so every seed runs
#: the same proportions in a different order.  A register makes the grid
#: miss once afterwards (plus one cold index rebuild): ~14% of audits miss,
#: so the audit p50 falls inside the hits and the p90 inside the misses.
BLOCK = (("audit", 120), ("register", 1), ("publish", 6), ("csv", 6), ("append", 3))
GRID = tuple((lam, delta) for lam in (0.1, 0.2, 0.3, 0.4) for delta in (0.1, 0.2, 0.3, 0.4))
SERVER_WORKERS = 2
#: Audits the load needs before it may stop: its p90 needs TAIL_SAMPLES beyond it.
MIN_AUDITS = TAIL_SAMPLES * 10
SENSITIVE = "Income"
DATASET = "adult"
LIVING = "living"


def op_sequence(seed: int, n: int) -> list[tuple[str, int]]:
    """The first ``n`` ops of the seeded sequence: ``(kind, argument)``."""
    rng = np.random.default_rng(seed)
    block = [kind for kind, count in BLOCK for _ in range(count)]
    kinds: list[str] = []
    while len(kinds) < n:
        kinds.extend(block[k] for k in rng.permutation(len(block)))
    args = rng.integers(0, 2**31 - 1, size=n)
    return [(kind, int(arg)) for kind, arg in zip(kinds[:n], args, strict=True)]


def audit_target(index: int) -> str:
    lam, delta = GRID[index % len(GRID)]
    return f"/audit?dataset={DATASET}&lam={lam}&delta={delta}"


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


def server_peak_mb(pid: int) -> float | None:
    """The server's own peak resident set (``VmHWM``), while it still runs."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            status = handle.read()
    except OSError:
        return None
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


class Client:
    """One keep-alive HTTP connection (reopened after a ``Connection: close``)."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def request(
        self, method: str, target: str, body: bytes | None = None, content_type: str = "application/json"
    ) -> tuple[int, dict[str, str], bytes]:
        headers = {"Content-Type": content_type} if body is not None else {}
        self.conn.request(method, target, body=body, headers=headers)
        response = self.conn.getresponse()
        payload = response.read()
        if response.getheader("Connection", "").lower() == "close":
            self.conn.close()
        return response.status, dict(response.getheaders()), payload

    def json(self, method: str, target: str, data: Any = None) -> Any:
        body = None if data is None else json.dumps(data).encode()
        status, _, payload = self.request(method, target, body)
        if status >= 300:
            raise BenchError(f"{method} {target} -> {status}: {payload[:200]!r}")
        return json.loads(payload)

    def close(self) -> None:
        self.conn.close()


class ServeMixed(Workload):
    name = "serve-mixed"
    main_kind = "publish"
    native = (
        "setup_s",
        "peak_rss_mb",
        "append_p50_s",
        "ops_per_s",
        "audit_p50_s",
        "publish_p50_s",
        "csv_p50_s",
    )
    layers = (
        "serve.router.audit_p50_s",
        "serve.router.publish_p50_s",
        "serve.router.csv_p50_s",
        "serve.router.append_p50_s",
        "serve.health_p50_s",
        "serve.cache_hit_ratio",
        "serve.cache_invalidations",
        "serve.queue_rejections",
        "store.commit_p50_s",
        "store.txns_per_op",
    )
    maps_to = {
        "serve.router.audit": "serve-mixed audit_p50_s",
        "serve.router.publish": "serve-mixed publish_p50_s",
        "serve.router.csv": "serve-mixed csv_p50_s",
        "serve.router.append": "serve-mixed append_p50_s",
    }

    def __init__(self, ctx: Any) -> None:
        super().__init__(ctx)
        self.proc: subprocess.Popen[bytes] | None = None
        self.log: Any = None
        self.jobs: dict[str, int] = {}
        self.latest_job = ""
        self.server_peak_mb: float | None = None

    @property
    def load_shape(self) -> dict[str, int]:
        return {"client_threads": 1, "connections": 1, "server_workers": SERVER_WORKERS}

    @property
    def rows_per_op(self) -> int:
        return self.scale.adult_rows

    # -- server lifecycle --------------------------------------------------- #
    def start_server(self) -> None:
        self.port = free_port()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.ctx.src()), env.get("PYTHONPATH", "")) if p
        )
        self.log = (self.ctx.work / "server.log").open("wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serve",
                "--store", str(self.ctx.work / "state.db"),
                "--port", str(self.port),
                "--workers", str(SERVER_WORKERS),
                "--queue-limit", "64",
                "--quiet",
            ],
            cwd=self.ctx.root,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=self.log,
        )
        self.cores = sorted(os.sched_getaffinity(0))
        self.pin(0)
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"repro-serve exited with {self.proc.returncode}")
            try:
                with socket.create_connection(("127.0.0.1", self.port), timeout=1):
                    return
            except OSError:
                time.sleep(0.05)
        raise BenchError("repro-serve did not start within 60 s")

    def pin(self, block: int) -> None:
        """Put client and every server thread on the block's core (see above)."""
        core = {self.cores[block % len(self.cores)]}
        assert self.proc is not None
        for tid in os.listdir(f"/proc/{self.proc.pid}/task"):
            try:
                os.sched_setaffinity(int(tid), core)
            except ProcessLookupError:
                pass  # a thread that just ended
        os.sched_setaffinity(0, core)

    def close(self) -> None:
        proc, self.proc = self.proc, None
        if proc is not None and proc.poll() is None:
            self.server_peak_mb = server_peak_mb(proc.pid)
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if self.log is not None:
            self.log.close()

    # -- set-up ------------------------------------------------------------- #
    def setup(self) -> None:
        from repro.dataset.adult import generate_adult
        from repro.dataset.loaders import write_csv

        table = generate_adult(self.scale.adult_rows, seed=DATASET_SEED)
        self.records = table.records()
        self.source = self.ctx.work / "adult.csv"
        write_csv(table, self.source)
        self.csv_bytes = self.source.read_bytes()
        self.start_server()
        client = Client(self.port)
        try:
            self.register(client)
            client.json("POST", "/publish", {
                "delta": True,
                "name": LIVING,
                "source": str(self.source),
                "sensitive": SENSITIVE,
                "backend": "sps",
                "output": str(self.ctx.work / "living.csv"),
                "seed": self.ctx.seed_for("living"),
            })
            # Warm-up round: every op kind once, every grid point filled.
            for index in range(len(GRID)):
                for _ in range(2):
                    client.request("GET", audit_target(index))
            for kind, arg in (("publish", 0), ("csv", 0), ("append", 0)):
                op = self.run_op(client, kind, arg)
                if not op.ok:
                    raise BenchError(f"warm-up {kind} failed: {op.error}")
        finally:
            client.close()

    def register(self, client: Client, replace: bool = False) -> tuple[int, bytes]:
        target = f"/datasets?name={DATASET}&sensitive={SENSITIVE}" + ("&replace=true" if replace else "")
        status, _, payload = client.request("POST", target, self.csv_bytes, "text/csv")
        if not replace and status != 201:
            raise BenchError(f"register failed: {status} {payload[:200]!r}")
        return status, payload

    # -- ops ---------------------------------------------------------------- #
    def run_op(self, client: Client, kind: str, arg: int) -> Op:
        begin = time.perf_counter()
        detail: dict[str, Any] = {}
        if kind == "audit":
            status, headers, payload = client.request("GET", audit_target(arg))
            detail.update(grid=arg % len(GRID), body=payload, cache=headers.get("X-Cache", ""))
        elif kind == "publish":
            body = json.dumps({"dataset": DATASET, "backend": "sps", "seed": arg}).encode()
            status, _, payload = client.request("POST", "/publish", body)
        elif kind == "csv":
            job = self.latest_job
            status, _, payload = client.request("GET", f"/jobs/{job}/table.csv")
            detail.update(job=job, rows=payload.count(b"\n") - 1)
        elif kind == "append":
            rows = copied_rows(self.records, self.scale.serve_append_rows, 2, arg)
            body = json.dumps({"rows": rows}).encode()
            status, _, payload = client.request("POST", f"/datasets/{LIVING}/rows", body)
        else:
            status, payload = self.register(client, replace=True)
        op = Op(kind, time.perf_counter() - begin, detail=detail)
        if status == 429:
            op.refused = True
            op.fail("429")
        elif status >= 300:
            op.fail(f"{kind} -> {status}: {payload[:120]!r}")
        elif kind == "publish":
            record = json.loads(payload)
            self.jobs[record["job_id"]] = int(record["published_records"])
            self.latest_job = record["job_id"]
        return op

    def load(self) -> tuple[list[Op], float]:
        ops: list[Op] = []
        audits = 0
        client = Client(self.port)
        block = sum(count for _, count in BLOCK)
        calibrating = 0.0
        start = time.perf_counter()
        try:
            for index, (kind, arg) in enumerate(op_sequence(self.ctx.seed_for("ops"), 1 << 16)):
                if index % block == 0:
                    self.pin(index // block)
                    calibrating += self.ctx.host.sample()
                # Past the deadline the client still finishes its first block
                # (every op kind once) and its minimum number of audits.
                if (
                    time.perf_counter() - start >= self.ctx.seconds
                    and len(ops) >= block
                    and audits >= MIN_AUDITS
                ):
                    break
                op = self.run_op(client, kind, arg)
                op.block = index // block
                ops.append(op)
                audits += kind == "audit"
        finally:
            client.close()
        return ops, time.perf_counter() - start - calibrating

    def reference_audits(self) -> list[bytes]:
        """Uncached recompute of every grid point on an in-process service."""
        from repro.serve.router import ServiceRouter
        from repro.service.engine import AnonymizationService

        service = AnonymizationService()
        try:
            service.register_csv(DATASET, self.source, SENSITIVE)
            router = ServiceRouter(service)
            router.handle("GET", audit_target(0))  # cold: builds the group index
            return [router.handle("GET", audit_target(i)).body for i in range(len(GRID))]
        finally:
            service.close()

    def check(self, ops: list[Op]) -> dict[str, Any]:
        reference = self.reference_audits()
        checked = cold = mismatched = 0
        latency: dict[str, list[float]] = {"hit": [], "miss": []}
        csv_checked = csv_mismatched = 0
        for op in ops:
            if not op.ok:
                continue
            if op.kind == "audit":
                body = op.detail.pop("body")
                latency["hit" if op.detail["cache"] == "hit" else "miss"].append(op.seconds)
                if not json.loads(body)["group_index_cached"]:
                    cold += 1  # cold audits carry the build time; never cached
                    continue
                checked += 1
                if body != reference[op.detail["grid"]]:
                    mismatched += 1
                    op.fail("audit body differs from an uncached recompute")
            elif op.kind == "csv":
                csv_checked += 1
                expected = self.jobs.get(op.detail["job"])
                if op.detail["rows"] != expected:
                    csv_mismatched += 1
                    op.fail(f"csv has {op.detail['rows']} rows, job published {expected}")
        audits = len(latency["hit"]) + len(latency["miss"])
        audit_latencies = [op.seconds for op in ops if op.ok and op.kind == "audit"]
        return {
            # Reported, not gated: its run-to-run spread exceeds any bound
            # the benchmark may set (see perfbench/README.md).
            "audit_p90_s": tail_percentile(audit_latencies, 0.9),
            "audits_checked": checked,
            "audit_hit_share": len(latency["hit"]) / audits if audits else 0.0,
            "audit_hit_p50_s": median(latency["hit"]) if latency["hit"] else None,
            "audit_miss_p50_s": median(latency["miss"]) if latency["miss"] else None,
            "audits_cold": cold,
            "audit_mismatches": mismatched,
            "csv_checked": csv_checked,
            "csv_mismatches": csv_mismatched,
            "server_peak_rss_mb": self.server_peak_mb,
        }

    # -- traced run --------------------------------------------------------- #
    def counters(self, client: Client) -> dict[str, float]:
        from repro.obs import parse_prometheus

        cache = client.json("GET", "/stats")["response_cache"]
        _, _, text = client.request("GET", "/metrics")
        families = parse_prometheus(text.decode())

        def total(family: str) -> float:
            return sum(value for _, value in families.get(family, []))

        return {
            "hits": cache["hits"],
            "misses": cache["misses"],
            "invalidations": cache["invalidations"],
            "rejections": total("repro_serve_queue_rejections_total"),
            "txns": total("repro_store_txns_total"),
        }

    def trace(self, tracer: Any) -> tuple[list[TracedOp], list[TracedOp], dict[str, float]]:
        client = Client(self.port)
        try:
            before = self.counters(client)
            ops, _ = self.load()
            after = self.counters(client)
            health = []
            for _ in range(10 * self.scale.probe_repeats):
                begin = time.perf_counter()
                client.request("GET", "/health")
                health.append(time.perf_counter() - begin)
        finally:
            client.close()
        delta = {key: after[key] - before[key] for key in before}
        lookups = delta["hits"] + delta["misses"]
        plain, traced = self.router_probes(tracer)
        values = {
            f"serve.router.{kind}_p50_s": median([op.layers[f"serve.router.{kind}"] for op in traced])
            for kind in ("audit", "publish", "csv", "append")
        }
        values.update({
            "serve.health_p50_s": median(health),
            "serve.cache_hit_ratio": delta["hits"] / lookups if lookups else 0.0,
            "serve.cache_invalidations": delta["invalidations"],
            "serve.queue_rejections": delta["rejections"],
            "store.commit_p50_s": self.commit_probe(),
            "store.txns_per_op": delta["txns"] / len(ops),
        })
        return plain, traced, values

    def router_probes(self, tracer: Any) -> tuple[list[TracedOp], list[TracedOp]]:
        """In-process ``ServiceRouter.handle`` per op kind, untraced / traced."""
        from repro.obs import span
        from repro.serve.cache import ResponseCache
        from repro.serve.router import ServiceRouter
        from repro.service.engine import AnonymizationService

        service = AnonymizationService(snapshot_path=self.ctx.work / "probe.db")
        ResponseCache().attach(service)
        router = ServiceRouter(service)

        def post(target: str, data: dict[str, Any]) -> Any:
            raw = json.dumps(data).encode()
            result = router.handle("POST", target, io.BytesIO(raw), len(raw))
            if result.status >= 300:
                raise BenchError(f"router POST {target} -> {result.status}: {result.body[:200]!r}")
            return json.loads(result.body)

        try:
            service.register_csv(DATASET, self.source, SENSITIVE)
            post("/publish", {
                "delta": True, "name": LIVING, "source": str(self.source),
                "sensitive": SENSITIVE, "backend": "sps",
                "output": str(self.ctx.work / "probe-living.csv"), "seed": 1,
            })
            for _ in range(2):
                router.handle("GET", audit_target(0))

            def round_(i: int) -> TracedOp:
                seed = op_seed(self.ctx.seed, "probe", i)
                layers: dict[str, float] = {}
                with span("bench.op", workload=self.name, op=i) as root:
                    with span("serve.router.audit") as sp:
                        router.handle("GET", audit_target(0))
                    layers["serve.router.audit"] = sp.duration
                    with span("serve.router.publish") as sp:
                        job = post("/publish", {"dataset": DATASET, "backend": "sps", "seed": seed})
                    layers["serve.router.publish"] = sp.duration
                    with span("serve.router.csv") as sp:
                        router.handle("GET", f"/jobs/{job['job_id']}/table.csv")
                    layers["serve.router.csv"] = sp.duration
                    with span("serve.router.append") as sp:
                        rows = copied_rows(self.records, self.scale.serve_append_rows, 2, seed)
                        post(f"/datasets/{LIVING}/rows", {"rows": rows})
                    layers["serve.router.append"] = sp.duration
                return TracedOp(wall=root.duration, layers=layers)

            plain: list[TracedOp] = []
            traced: list[TracedOp] = []
            for i in range(self.scale.probe_repeats):
                plain.append(round_(2 * i))
                with tracer:
                    traced.append(round_(2 * i + 1))
            return plain, traced
        finally:
            service.close()

    def commit_probe(self) -> float:
        """Median seconds of one write transaction on a file-backed SQLite store."""
        from repro.store import open_store

        store = open_store(self.ctx.work / "commit.db")
        try:
            times = []
            for i in range(10 * self.scale.probe_repeats):
                begin = time.perf_counter()
                with store.transaction(write=True) as txn:
                    txn.put("perfbench", f"k{i}", {"i": i})
                times.append(time.perf_counter() - begin)
            return median(times)
        finally:
            store.close()
