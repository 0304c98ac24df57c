"""End-to-end tests of the asyncio serving front end on an ephemeral port."""

import http.client
import json
import logging
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import ServingFrontend
from repro.serve.frontend import MAX_BODY_BYTES, MAX_HEADER_LINES
from repro.service.engine import AnonymizationService
from repro.store import open_store

CSV_BODY = "Job,City,Income\n" + "\n".join(
    f"{'eng' if i % 2 else 'artist'},c{i % 3},{'high' if i % 4 == 0 else 'low'}"
    for i in range(120)
)


@pytest.fixture()
def frontend():
    service = AnonymizationService()
    service.register_synthetic("adult", "adult", n_records=300, seed=1)
    front = ServingFrontend(service, port=0, workers=2, queue_limit=8)
    front.start()
    try:
        yield front
    finally:
        front.stop()
        service.close()


def get(url: str) -> tuple[int, dict, bytes]:
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


def get_json(url: str):
    status, _, body = get(url)
    return status, json.loads(body)


def post_json(url: str, payload: dict) -> tuple[int, dict, bytes]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers), exc.read()


class TestRoutingParity:
    """The asyncio front end serves the same routing table as the threading one."""

    def test_health_stats_and_describe(self, frontend):
        status, health = get_json(f"{frontend.base_url}/healthz")
        assert status == 200 and health["status"] == "ok"
        status, stats = get_json(f"{frontend.base_url}/stats")
        assert status == 200 and stats["n_datasets"] == 1
        assert stats["response_cache"]["enabled"] is True
        status, describe = get_json(f"{frontend.base_url}/")
        assert status == 200 and "backends" in describe

    def test_datasets_listing(self, frontend):
        status, listing = get_json(f"{frontend.base_url}/datasets")
        assert status == 200
        assert [entry["name"] for entry in listing] == ["adult"]

    def test_unknown_route_is_404(self, frontend):
        status, _, body = get(f"{frontend.base_url}/nope")
        assert status == 404
        assert "error" in json.loads(body)

    def test_unknown_dataset_is_404(self, frontend):
        status, _, _ = get(f"{frontend.base_url}/audit?dataset=ghost")
        assert status == 404

    def test_malformed_json_is_400(self, frontend):
        request = urllib.request.Request(
            f"{frontend.base_url}/audit", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_unsupported_method_is_405(self, frontend):
        request = urllib.request.Request(f"{frontend.base_url}/stats", method="PUT")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 405

    def test_publish_end_to_end(self, frontend):
        status, _, body = post_json(
            f"{frontend.base_url}/publish",
            {"dataset": "adult", "backend": "dp-laplace", "seed": 3},
        )
        assert status == 201
        job = json.loads(body)
        assert job["status"] == "completed"
        status, record = get_json(f"{frontend.base_url}/jobs/{job['job_id']}")
        assert status == 200 and record["job_id"] == job["job_id"]


class TestResponseCaching:
    def test_audit_cache_serves_byte_identical_responses(self, frontend):
        url = f"{frontend.base_url}/audit?dataset=adult"
        _, headers1, _ = get(url)  # cold: builds the group index, not stored
        assert headers1["X-Cache"] == "miss"
        _, headers2, warm_body = get(url)  # warm recompute: fills the cache
        assert headers2["X-Cache"] == "miss"
        _, headers3, cached_body = get(url)
        assert headers3["X-Cache"] == "hit"
        assert cached_body == warm_body

    def test_post_audit_shares_the_get_cache_key(self, frontend):
        url = f"{frontend.base_url}/audit?dataset=adult"
        get(url)
        _, _, warm_body = get(url)
        status, headers, body = post_json(
            f"{frontend.base_url}/audit", {"dataset": "adult"}
        )
        assert status == 200
        assert headers["X-Cache"] == "hit"  # same resolved params, same key
        assert body == warm_body

    @pytest.mark.parametrize("method", ["GET", "POST"])
    def test_spelled_out_retention_probability_shares_the_default_key(
        self, frontend, method
    ):
        url = f"{frontend.base_url}/audit?dataset=adult"
        get(url)
        _, _, warm_body = get(url)
        if method == "GET":
            _, headers, body = get(f"{url}&retention_probability=0.5")
        else:
            _, headers, body = post_json(
                f"{frontend.base_url}/audit",
                {"dataset": "adult", "retention_probability": 0.5},
            )
        assert headers["X-Cache"] == "hit"  # 0.5 is the default: same key
        assert body == warm_body

    def test_distinct_params_get_distinct_entries(self, frontend):
        base = f"{frontend.base_url}/audit?dataset=adult"
        get(base)
        get(base)
        _, headers, _ = get(f"{base}&lam=0.4")
        assert headers["X-Cache"] == "miss"  # different resolved params

    def test_dataset_detail_serves_live_counters(self, frontend):
        url = f"{frontend.base_url}/datasets/adult"
        _, first_headers, before = get(url)
        assert json.loads(before)["group_index_cached"] is False
        get(f"{frontend.base_url}/audit?dataset=adult")
        get(f"{frontend.base_url}/audit?dataset=adult")  # builds, then reuses
        _, headers, after = get(url)
        detail = json.loads(after)
        assert detail == frontend.service.datasets.get("adult").to_json()
        assert detail["n_groups"] is not None
        assert detail["group_index_cached"] is True
        assert detail["group_index_misses"] == 1
        # Dataset detail is never cached, so it carries no X-Cache header.
        assert "X-Cache" not in first_headers and "X-Cache" not in headers

    def test_dataset_detail_follows_a_reregister(self, frontend):
        url = f"{frontend.base_url}/datasets/adult"
        get(f"{frontend.base_url}/audit?dataset=adult")
        assert json.loads(get(url)[2])["group_index_cached"] is True
        frontend.service.register_synthetic(
            "adult", "adult", n_records=400, seed=2, replace=True
        )
        detail = json.loads(get(url)[2])
        assert detail == frontend.service.datasets.get("adult").to_json()
        assert detail["group_index_cached"] is False
        assert detail["group_index_misses"] == 0

    def test_reregister_invalidates_and_recomputes(self, frontend):
        url = f"{frontend.base_url}/audit?dataset=adult"
        get(url)
        get(url)
        _, headers, _ = get(url)
        assert headers["X-Cache"] == "hit"
        frontend.service.register_synthetic(
            "adult", "adult", n_records=300, seed=2, replace=True
        )
        _, headers, _ = get(url)
        assert headers["X-Cache"] == "miss"  # never a stale hit
        assert frontend.cache.invalidations >= 1

    def test_invalidation_leaves_other_datasets_untouched(self, frontend):
        frontend.service.register_synthetic("other", "adult", n_records=300, seed=5)
        for name in ("adult", "other"):
            url = f"{frontend.base_url}/audit?dataset={name}"
            get(url)
            get(url)
        frontend.service.register_synthetic(
            "adult", "adult", n_records=300, seed=2, replace=True
        )
        _, headers, _ = get(f"{frontend.base_url}/audit?dataset=other")
        assert headers["X-Cache"] == "hit"  # the other dataset's entry survived
        _, headers, _ = get(f"{frontend.base_url}/audit?dataset=adult")
        assert headers["X-Cache"] == "miss"

    def test_delta_append_invalidates_the_dataset_keys(self, frontend, tmp_path):
        source = tmp_path / "base.csv"
        source.write_text(CSV_BODY + "\n")
        url = f"{frontend.base_url}/audit?dataset=adult"
        get(url)
        get(url)
        # A delta dataset under the same name: its base publish and every
        # append bump the name's delta version and invalidate its keys.
        frontend.service.publish_delta_base(
            "adult",
            source,
            sensitive="Income",
            backend="sps",
            output=tmp_path / "out.csv",
            seed=7,
        )
        _, headers, _ = get(url)
        assert headers["X-Cache"] == "miss"  # base publish invalidated
        _, headers, _ = get(url)
        assert headers["X-Cache"] == "hit"
        status, _, _ = post_json(
            f"{frontend.base_url}/datasets/adult/rows",
            {"rows": [["eng", "c1", "low"], ["artist", "c2", "high"]]},
        )
        assert status == 201
        _, headers, _ = get(url)
        assert headers["X-Cache"] == "miss"  # the append invalidated again

    def test_stats_counts_cache_traffic(self, frontend):
        url = f"{frontend.base_url}/audit?dataset=adult"
        get(url)
        get(url)
        get(url)
        _, stats = get_json(f"{frontend.base_url}/stats")
        block = stats["response_cache"]
        assert block["hits"] >= 1 and block["misses"] >= 2
        assert block["entries"] >= 1


class TestPersistence:
    def test_restart_rebuilds_the_cache_with_identical_bytes(self, tmp_path):
        path = tmp_path / "serve.db"
        service = AnonymizationService(snapshot_path=path)
        service.register_synthetic("adult", "adult", n_records=300, seed=1)
        with ServingFrontend(service, port=0, workers=2) as front:
            url = f"{front.base_url}/audit?dataset=adult"
            _, _, cold_body = get(url)
            _, _, warm_body = get(url)
        service.close()

        revived = AnonymizationService(snapshot_path=path)
        with ServingFrontend(revived, port=0, workers=2) as front:
            url = f"{front.base_url}/audit?dataset=adult"
            _, headers, body = get(url)
            # The first audit after a restart rebuilds the group index.
            assert headers["X-Cache"] == "miss"
            assert revived.datasets.get("adult").group_index_misses == 1
            assert json.loads(body)["summary"] == json.loads(cold_body)["summary"]
            _, headers, body = get(url)
            assert headers["X-Cache"] == "miss"  # warm recompute: fills the cache
            assert body == warm_body
            _, headers, body = get(url)
            assert headers["X-Cache"] == "hit"
            assert body == warm_body
        revived.close()

    def test_store_holds_only_source_of_truth(self, tmp_path):
        """Caches stay in memory: the store keeps datasets, jobs and deltas."""
        path = tmp_path / "serve.db"
        source = tmp_path / "base.csv"
        source.write_text(CSV_BODY + "\n")
        service = AnonymizationService(snapshot_path=path)
        with ServingFrontend(service, port=0, workers=2) as front:
            base = front.base_url
            request = urllib.request.Request(
                f"{base}/datasets?name=jobs&sensitive=Income",
                data=CSV_BODY.encode(),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 201
            get(f"{base}/audit?dataset=jobs")
            _, headers, _ = get(f"{base}/audit?dataset=jobs")
            assert headers["X-Cache"] == "miss"  # the warm audit filled the cache
            status, _, _ = post_json(
                f"{base}/publish", {"dataset": "jobs", "backend": "sps", "seed": 3}
            )
            assert status == 201
            status, _, _ = post_json(f"{base}/publish", {
                "delta": True, "name": "living", "source": str(source),
                "sensitive": "Income", "backend": "sps",
                "output": str(tmp_path / "living.csv"), "seed": 1,
            })
            assert status == 201
            status, _, _ = post_json(
                f"{base}/datasets/living/rows", {"rows": [["eng", "c1", "low"]]}
            )
            assert status == 201
        service.close()

        store = open_store(path)
        try:
            assert store.namespaces() == ["datasets", "deltas", "jobs"]
            with store.transaction() as txn:
                assert list(txn.counters()) == ["job_ids"]
        finally:
            store.close()

    def test_restart_revalidates_against_dataset_versions(self, tmp_path):
        path = tmp_path / "serve.db"
        service = AnonymizationService(snapshot_path=path)
        service.register_synthetic("adult", "adult", n_records=300, seed=1)
        with ServingFrontend(service, port=0, workers=2) as front:
            url = f"{front.base_url}/audit?dataset=adult"
            get(url)
            get(url)
        service.close()

        # The dataset changes while no server (and no cache) is running.
        mutated = AnonymizationService(snapshot_path=path)
        mutated.register_synthetic(
            "adult", "adult", n_records=300, seed=2, replace=True
        )
        mutated.close()

        revived = AnonymizationService(snapshot_path=path)
        with ServingFrontend(revived, port=0, workers=2) as front:
            _, headers, _ = get(f"{front.base_url}/audit?dataset=adult")
            assert headers["X-Cache"] == "miss"  # the stale entry was dropped
        revived.close()


class TestBackpressure:
    def test_queue_full_is_429_with_retry_after(self):
        service = AnonymizationService()
        service.register_synthetic("adult", "adult", n_records=300, seed=1)
        front = ServingFrontend(
            service, port=0, workers=1, queue_limit=1, retry_after=3
        )
        release = threading.Event()
        with front:
            front.dispatcher.submit(release.wait)  # occupies the single worker
            deadline = time.monotonic() + 5
            while front.dispatcher.depth and time.monotonic() < deadline:
                time.sleep(0.005)
            queued = front.dispatcher.submit(release.wait)  # fills the single queue slot
            status, headers, body = get(f"{front.base_url}/stats")
            assert status == 429
            assert headers["Retry-After"] == "3"
            assert "error" in json.loads(body)
            # Probes and scrapes bypass the queue even under full overload.
            status, _, _ = get(f"{front.base_url}/healthz")
            assert status == 200
            status, _, metrics = get(f"{front.base_url}/metrics")
            assert status == 200
            assert b"repro_serve_queue_rejections_total" in metrics
            release.set()
            # The single worker runs the queued task only after the first, so
            # once it has finished the queue is empty again.
            assert queued.result(timeout=5)
            status, _, _ = get(f"{front.base_url}/stats")  # the queue drained
            assert status == 200
        service.close()

    def test_no_cache_mode_serves_uncached(self):
        service = AnonymizationService()
        service.register_synthetic("adult", "adult", n_records=300, seed=1)
        with ServingFrontend(service, port=0, enable_cache=False) as front:
            url = f"{front.base_url}/audit?dataset=adult"
            get(url)
            _, headers, _ = get(url)
            assert "X-Cache" not in headers
            assert front.cache is None
        service.close()


class TestConnectionHandling:
    def test_keep_alive_reuses_the_connection(self, frontend):
        connection = http.client.HTTPConnection(
            frontend.host, frontend.port, timeout=30
        )
        try:
            for _ in range(3):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()

    def test_server_header_names_the_front_end(self, frontend):
        _, headers, _ = get(f"{frontend.base_url}/healthz")
        assert headers["Server"].startswith("repro-serve/")

    @staticmethod
    def _raw_exchange(frontend, request: bytes) -> tuple[bytes, bytes]:
        """Send raw request bytes; return the reply's head and body."""
        with socket.create_connection((frontend.host, frontend.port), timeout=30) as sock:
            sock.sendall(request)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
        return head, body

    @pytest.mark.parametrize("length", [b"abc", b"-5"])
    def test_malformed_content_length_is_400_and_closes(self, frontend, length):
        head, body = self._raw_exchange(
            frontend,
            b"POST /audit HTTP/1.1\r\nHost: x\r\nContent-Length: " + length + b"\r\n\r\n",
        )
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head.split(b"\r\n")
        assert "Content-Length" in json.loads(body)["error"]

    @pytest.mark.parametrize(
        "request_bytes",
        [b"GARBAGE\r\n\r\n", b"GET /healthz\r\nHost: x\r\n\r\n", b"\r\n\r\n"],
    )
    def test_malformed_request_line_is_400_and_closes(
        self, frontend, caplog, request_bytes
    ):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            head, body = self._raw_exchange(frontend, request_bytes)
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head.split(b"\r\n")
        assert "malformed request line" in json.loads(body)["error"]
        assert not [r for r in caplog.records if r.name == "asyncio"]

    @pytest.mark.parametrize(
        ("request_bytes", "message"),
        [
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nHost: x\r\n\r\n", "too long"),
            (
                b"GET /healthz HTTP/1.1\r\nX-Big: " + b"b" * 70_000 + b"\r\n\r\n",
                "too long",
            ),
            (
                b"GET /healthz HTTP/1.1\r\n"
                + b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADER_LINES + 1))
                + b"\r\n",
                "header lines",
            ),
        ],
        ids=["request-line", "header-line", "header-count"],
    )
    def test_over_limit_head_line_is_431_and_closes(
        self, frontend, caplog, request_bytes, message
    ):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            head, body = self._raw_exchange(frontend, request_bytes)
        assert head.startswith(b"HTTP/1.1 431 Request Header Fields Too Large\r\n")
        assert b"Connection: close" in head.split(b"\r\n")
        assert message in json.loads(body)["error"]
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_oversized_content_length_is_413_before_the_body(self, frontend):
        # The limit admits a census-100k CSV register (4.0 MB) ...
        assert MAX_BODY_BYTES >= 4_000_000
        # ... and a larger declared body is refused without reading any of it.
        declared = str(MAX_BODY_BYTES + 1).encode()
        head, body = self._raw_exchange(
            frontend,
            b"POST /datasets?name=big&sensitive=Income HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: " + declared + b"\r\n\r\n",
        )
        assert head.startswith(b"HTTP/1.1 413 Content Too Large\r\n")
        assert b"Connection: close" in head.split(b"\r\n")
        assert "body limit" in json.loads(body)["error"]
        assert "big" not in frontend.service.datasets.names()

    def test_header_lines_at_the_limit_are_served(self, frontend):
        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADER_LINES - 1))
        head, _ = self._raw_exchange(
            frontend,
            b"GET /healthz HTTP/1.1\r\n" + headers + b"Connection: close\r\n\r\n",
        )
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")

    def test_chunked_transfer_encoding_is_501_and_closes(self, frontend):
        payload = json.dumps({"dataset": "adult"}).encode()
        head, body = self._raw_exchange(
            frontend,
            b"POST /audit HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            + b"%x\r\n" % len(payload) + payload + b"\r\n0\r\n\r\n",
        )
        assert head.startswith(b"HTTP/1.1 501 Not Implemented\r\n")
        assert b"Connection: close" in head.split(b"\r\n")
        assert "Transfer-Encoding" in json.loads(body)["error"]

    def test_unexpected_route_error_is_500_and_logged(self, frontend, monkeypatch):
        def broken_stats():
            raise KeyError("boom")

        monkeypatch.setattr(frontend.service, "stats", broken_stats)
        records: list[logging.LogRecord] = []
        handler = logging.Handler(level=logging.ERROR)
        handler.emit = records.append  # type: ignore[method-assign]
        logger = logging.getLogger("repro.serve")
        logger.addHandler(handler)
        try:
            head, body = self._raw_exchange(
                frontend, b"GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
            )
        finally:
            logger.removeHandler(handler)
        assert head.startswith(b"HTTP/1.1 500 ")
        assert json.loads(body) == {"error": "internal server error"}
        assert [record.exc_info[0] for record in records if record.exc_info] == [KeyError]

    def test_unexpected_route_error_is_counted_in_metrics(self, frontend, monkeypatch):
        def errors_total() -> float:
            status, _, metrics = get(f"{frontend.base_url}/metrics")
            assert status == 200
            for line in metrics.decode().splitlines():
                name, _, value = line.partition(" ")
                if name == "repro_serve_errors_total":
                    return float(value)
            return 0.0

        def broken_stats():
            raise KeyError("boom")

        before = errors_total()
        monkeypatch.setattr(frontend.service, "stats", broken_stats)
        for _ in range(2):
            status, _, _ = get(f"{frontend.base_url}/stats")
            assert status == 500
        status, _, _ = get(f"{frontend.base_url}/stats/nope")  # a 404 is not an error
        assert status == 404
        assert errors_total() == before + 2
