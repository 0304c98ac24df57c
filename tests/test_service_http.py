"""End-to-end test of the HTTP JSON API on an ephemeral port."""

import io
import json
import urllib.error
import urllib.request

import pytest

from repro import publish, read_csv, write_csv
from repro.serve import ServingFrontend
from repro.service.engine import AnonymizationService

CSV_BODY = "Job,City,Income\n" + "\n".join(
    f"{'eng' if i % 2 else 'artist'},c{i % 3},{'high' if i % 4 == 0 else 'low'}"
    for i in range(120)
)


@pytest.fixture()
def server_url():
    service = AnonymizationService()
    with ServingFrontend(service, port=0) as frontend:
        yield frontend.base_url
    service.close()


def get_json(url: str):
    with urllib.request.urlopen(url) as response:
        return json.load(response)


def post(url: str, data: bytes, content_type: str):
    request = urllib.request.Request(
        url, data=data, method="POST", headers={"Content-Type": content_type}
    )
    with urllib.request.urlopen(request) as response:
        return json.load(response)


def post_json(url: str, payload: dict):
    return post(url, json.dumps(payload).encode(), "application/json")


class TestCrossPathIdentity:
    """Library, service and HTTP publish the same bytes for a fixed seed."""

    @pytest.mark.parametrize("backend", ["sps", "generalize+sps", "dp-laplace"])
    def test_library_service_and_http_bytes_agree(self, server_url, backend):
        table = read_csv(io.StringIO(CSV_BODY), sensitive="Income")
        library = io.StringIO()
        write_csv(publish(table, strategy=backend, rng=11, chunk_size=2).published, library)
        expected = library.getvalue().encode()

        service = AnonymizationService()
        service.register_table("t", table)
        post(
            f"{server_url}/datasets?name=t&sensitive=Income",
            CSV_BODY.encode(),
            "text/csv",
        )
        for workers in (1, 2):
            in_process = io.StringIO()
            write_csv(
                service.publish(
                    "t", backend, seed=11, chunk_size=2, max_workers=workers
                ).published,
                in_process,
            )
            assert in_process.getvalue().encode() == expected
            job = post_json(
                f"{server_url}/publish",
                {"dataset": "t", "backend": backend, "seed": 11,
                 "chunk_size": 2, "workers": workers},
            )
            with urllib.request.urlopen(
                f"{server_url}/jobs/{job['job_id']}/table.csv"
            ) as response:
                assert response.read() == expected
        service.close()


class TestEndToEnd:
    def test_register_publish_audit_lifecycle(self, server_url):
        # Register: CSV streamed as the request body.
        created = post(
            f"{server_url}/datasets?name=up&sensitive=Income",
            CSV_BODY.encode(),
            "text/csv",
        )
        assert created["n_records"] == 120
        assert created["sensitive_attribute"] == "Income"

        datasets = get_json(f"{server_url}/datasets")
        assert [d["name"] for d in datasets] == ["up"]

        # Publish through two backends.
        job = post_json(
            f"{server_url}/publish",
            {"dataset": "up", "backend": "sps", "seed": 3, "workers": 2},
        )
        assert job["status"] == "completed"
        assert job["published_records"] > 0
        assert job["audit"]["n_groups"] == 6
        job2 = post_json(
            f"{server_url}/publish", {"dataset": "up", "backend": "dp-laplace", "seed": 3}
        )
        assert job2["status"] == "completed"
        # Second job hits the cached group index.
        assert job2["timings"]["group_index_cached"] is True

        # Job listing and detail agree.
        jobs = get_json(f"{server_url}/jobs")
        assert [j["job_id"] for j in jobs] == [job["job_id"], job2["job_id"]]
        detail = get_json(f"{server_url}/jobs/{job['job_id']}")
        assert detail["spec"]["backend"] == "sps"

        # Published table download.
        with urllib.request.urlopen(
            f"{server_url}/jobs/{job['job_id']}/table.csv"
        ) as response:
            lines = response.read().decode().splitlines()
        assert lines[0] == "Job,City,Income"
        assert len(lines) == job["published_records"] + 1

        # Audit via GET query parameters and POST JSON give the same answer.
        audit_get = get_json(
            f"{server_url}/audit?dataset=up&lam=0.3&delta=0.3&retention_probability=0.5"
        )
        audit_post = post_json(
            f"{server_url}/audit",
            {"dataset": "up", "lam": 0.3, "delta": 0.3, "retention_probability": 0.5},
        )
        assert audit_get["summary"] == audit_post["summary"]
        assert audit_get["group_index_cached"] is True

        # Stats reflect the traffic.
        stats = get_json(f"{server_url}/stats")
        assert stats["n_datasets"] == 1
        assert stats["n_jobs"] == 2
        assert stats["jobs_by_backend"] == {"sps": 1, "dp-laplace": 1}
        assert stats["group_index_hits"] >= 2

    def test_health_and_overview(self, server_url):
        from repro import __version__

        for endpoint in ("health", "healthz"):
            payload = get_json(f"{server_url}/{endpoint}")
            assert payload["status"] == "ok"
            assert payload["version"] == __version__
        overview = get_json(f"{server_url}/")
        assert "sps" in overview["backends"]

    def test_stats_reports_version_and_strategies(self, server_url):
        from repro import __version__

        stats = get_json(f"{server_url}/stats")
        assert stats["version"] == __version__
        # Typed parameter specs are exposed alongside the legacy defaults map.
        assert stats["backends"]["sps"]["lam"] == 0.3
        sps = stats["strategies"]["sps"]
        lam = next(spec for spec in sps["params"] if spec["name"] == "lam")
        assert lam["kind"] == "float"
        assert lam["range"] == "(0, inf)"


class TestErrorHandling:
    def expect_status(self, url: str, status: int, method="GET", data=None, headers=None):
        request = urllib.request.Request(
            url, data=data, method=method, headers=headers or {}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == status
        return json.load(excinfo.value)

    def test_unknown_route_404(self, server_url):
        body = self.expect_status(f"{server_url}/nope", 404)
        assert "error" in body

    def test_unknown_dataset_404(self, server_url):
        self.expect_status(f"{server_url}/datasets/missing", 404)
        self.expect_status(f"{server_url}/jobs/job-0001", 404)

    def test_register_without_params_400(self, server_url):
        self.expect_status(
            f"{server_url}/datasets", 400, method="POST", data=b"a,b\n1,2\n"
        )

    def test_empty_csv_body_400(self, server_url):
        self.expect_status(
            f"{server_url}/datasets?name=x&sensitive=b", 400, method="POST", data=b""
        )

    def test_header_only_csv_400(self, server_url):
        body = self.expect_status(
            f"{server_url}/datasets?name=x&sensitive=b",
            400,
            method="POST",
            data=b"a,b\n",
        )
        assert "no data rows" in body["error"]

    def test_invalid_utf8_csv_400_names_the_line(self, server_url):
        body = self.expect_status(
            f"{server_url}/datasets?name=x&sensitive=b",
            400,
            method="POST",
            data=b"a,b\n1,2\n\xff,2\n",
        )
        assert "line 3" in body["error"]

    def test_publish_bad_backend_400(self, server_url):
        post(
            f"{server_url}/datasets?name=up&sensitive=Income",
            CSV_BODY.encode(),
            "text/csv",
        )
        body = self.expect_status(
            f"{server_url}/publish",
            400,
            method="POST",
            data=json.dumps({"dataset": "up", "backend": "nope"}).encode(),
            headers={"Content-Type": "application/json"},
        )
        assert "unknown backend" in body["error"]

    @pytest.mark.parametrize(
        ("method", "target", "payload", "renamed"),
        [
            ("POST", "/publish", {"dataset": "up", "backend": "sps", "max_workers": 2}, "workers"),
            (
                "POST",
                "/publish",
                {"stream": True, "source": "in.csv", "sensitive": "Income",
                 "backend": "sps", "max_workers": 2},
                "workers",
            ),
            (
                "POST",
                "/publish",
                {"delta": True, "name": "live", "source": "in.csv", "sensitive": "Income",
                 "backend": "sps", "output": "out.csv", "max_workers": 2},
                "workers",
            ),
            (
                "POST",
                "/datasets/up/rows",
                {"rows": [["eng", "c1", "low"]], "max_workers": 2},
                "workers",
            ),
            ("GET", "/audit?dataset=up&p=0.5", None, "retention_probability"),
            ("POST", "/audit", {"dataset": "up", "p": 0.5}, "retention_probability"),
        ],
        ids=[
            "publish-body-max_workers",
            "stream-body-max_workers",
            "delta-body-max_workers",
            "append-body-max_workers",
            "audit-query-p",
            "audit-body-p",
        ],
    )
    def test_field_renamed_in_12_is_400_naming_new_field(
        self, server_url, method, target, payload, renamed
    ):
        # The old spelling must not silently run with the default.
        post(
            f"{server_url}/datasets?name=up&sensitive=Income",
            CSV_BODY.encode(),
            "text/csv",
        )
        body = self.expect_status(
            f"{server_url}{target}",
            400,
            method=method,
            data=json.dumps(payload).encode() if payload is not None else None,
            headers={"Content-Type": "application/json"},
        )
        assert f"renamed to {renamed!r} in 12.0.0" in body["error"]
        assert get_json(f"{server_url}/jobs") == []

    def test_invalid_json_body_400(self, server_url):
        self.expect_status(
            f"{server_url}/publish",
            400,
            method="POST",
            data=b"not json",
            headers={"Content-Type": "application/json"},
        )

    def test_non_numeric_param_400_not_crash(self, server_url):
        post(
            f"{server_url}/datasets?name=up&sensitive=Income",
            CSV_BODY.encode(),
            "text/csv",
        )
        body = self.expect_status(
            f"{server_url}/publish",
            400,
            method="POST",
            data=json.dumps(
                {"dataset": "up", "backend": "sps", "params": {"lam": None}}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        assert "must be a number" in body["error"]
        body = self.expect_status(
            f"{server_url}/publish",
            400,
            method="POST",
            data=json.dumps(
                {"dataset": "up", "backend": "sps", "seed": None}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        assert "must be an integer" in body["error"]

    def test_error_with_unread_body_does_not_corrupt_keepalive(self, server_url):
        """An error fired before the CSV body is consumed must not leave the
        body bytes to be parsed as the next request on a reused connection."""
        import http.client
        from urllib.parse import urlparse

        parsed = urlparse(server_url)
        connection = http.client.HTTPConnection(parsed.hostname, parsed.port)
        try:
            # Missing ?name= triggers a 400 before the body is read.
            connection.request("POST", "/datasets", body=CSV_BODY.encode())
            response = connection.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            response.read()
            # The same client object transparently reconnects; the follow-up
            # request must parse cleanly.
            connection.request("GET", "/health")
            response = connection.getresponse()
            assert response.status == 200
        finally:
            connection.close()
