"""Fault-injection suite: ``kill -9`` a live service, restart, lose nothing.

The service runs as a real subprocess over HTTP with a SQLite store; each
test SIGKILLs it — no shutdown hook, no flush, the unix equivalent of a
power cut — restarts a fresh process on the same store path and asserts the
write-through guarantees:

* every *committed* operation (registered dataset, completed job, applied
  delta append) is still there, byte-for-byte where bytes are pinned;
* a job killed *mid-flight* can never resurface as ``running`` or
  ``completed`` — it either never entered the store or restores as
  ``interrupted``/``failed``;
* the published CSV of a delta dataset always matches an uninterrupted
  reference run with the same sequence of applied appends — a torn append
  is invisible (the splice is atomic), a completed one is durable.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

_LAUNCHER = """
import sys
import threading
from repro.serve import ServingFrontend
from repro.service.engine import AnonymizationService

service = AnonymizationService(snapshot_path=sys.argv[1])
frontend = ServingFrontend(service, port=0).start()
print(frontend.port, flush=True)
threading.Event().wait()
"""

BASE_CSV = "City,Disease\n" + "\n".join(
    f"c{i % 4},d{i % 3}" for i in range(80)
) + "\n"

APPEND_A = [["c0", "d1"], ["c1", "d2"], ["c9", "d0"]]
APPEND_B = [["c2", "d0"], ["c3", "d1"]]


class ServiceProcess:
    """A repro-service subprocess bound to one store path."""

    def __init__(self, store_path: Path) -> None:
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _LAUNCHER, str(store_path)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip():
            raise RuntimeError("service subprocess died before binding a port")
        self.url = f"http://127.0.0.1:{int(line)}"

    def kill9(self) -> None:
        """SIGKILL — no atexit hooks, no flush, no close."""
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)

    def get(self, path: str):
        with urllib.request.urlopen(self.url + path, timeout=30) as response:
            return json.load(response)

    def post(self, path: str, payload: dict):
        request = urllib.request.Request(
            self.url + path,
            data=json.dumps(payload).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=120) as response:
            return json.load(response)

    def post_csv(self, path: str, body: str):
        request = urllib.request.Request(
            self.url + path, data=body.encode(), method="POST",
            headers={"Content-Type": "text/csv"},
        )
        with urllib.request.urlopen(request, timeout=30) as response:
            return json.load(response)


@pytest.fixture()
def service_factory(tmp_path):
    """Start subprocess services on one shared store path; kill all at exit."""
    procs: list[ServiceProcess] = []
    store_path = tmp_path / "service.db"

    def start() -> ServiceProcess:
        svc = ServiceProcess(store_path)
        procs.append(svc)
        return svc

    yield start
    for svc in procs:
        if svc.proc.poll() is None:
            svc.proc.kill()
            svc.proc.wait(timeout=30)


def _delta_base_body(src: Path, out: Path, **extra) -> dict:
    return {
        "delta": True,
        "name": "living",
        "source": str(src),
        "sensitive": "Disease",
        "backend": "sps",
        "output": str(out),
        "seed": 11,
        **extra,
    }


def _reference_bytes(tmp_path: Path, appends: list[list[list[str]]]) -> bytes:
    """The published CSV of an uninterrupted in-process run (same seeds)."""
    from repro.service.engine import AnonymizationService

    src = tmp_path / "ref-base.csv"
    src.write_text(BASE_CSV, newline="")
    out = tmp_path / "ref-published.csv"
    svc = AnonymizationService()
    svc.publish_delta_base("living", src, "Disease", "sps", out, seed=11)
    for rows in appends:
        svc.append_rows("living", rows=rows)
    svc.close()
    return out.read_bytes()


class TestKill9Durability:
    def test_committed_state_survives_sigkill_and_bytes_match(
        self, tmp_path, service_factory
    ):
        src = tmp_path / "base.csv"
        src.write_text(BASE_CSV, newline="")
        out = tmp_path / "published.csv"

        first = service_factory()
        first.post_csv("/datasets?name=up&sensitive=Disease", BASE_CSV)
        publish = first.post("/publish", {"dataset": "up", "backend": "sps", "seed": 3})
        assert publish["status"] == "completed"
        base = first.post("/publish", _delta_base_body(src, out))
        assert base["status"] == "completed"
        append = first.post("/datasets/living/rows", {"rows": APPEND_A})
        assert append["status"] == "completed"
        first.kill9()  # no shutdown save ever runs

        second = service_factory()
        datasets = second.get("/datasets")
        assert [d["name"] for d in datasets] == ["up"]
        jobs = second.get("/jobs")
        assert [j["status"] for j in jobs] == ["completed"] * 3
        assert jobs[-1]["job_id"] == append["job_id"]

        # The delta dataset is still appendable and the bytes line up with an
        # uninterrupted run applying the same appends in the same order.
        append2 = second.post("/datasets/living/rows", {"rows": APPEND_B})
        assert append2["status"] == "completed"
        assert int(append2["job_id"].rsplit("-", 1)[1]) > int(
            append["job_id"].rsplit("-", 1)[1]
        )
        assert out.read_bytes() == _reference_bytes(tmp_path, [APPEND_A, APPEND_B])
        second.kill9()

    def test_sigkill_mid_append_leaves_dataset_consistent(
        self, tmp_path, service_factory
    ):
        src = tmp_path / "base.csv"
        src.write_text(BASE_CSV, newline="")
        out = tmp_path / "published.csv"

        first = service_factory()
        base = first.post("/publish", _delta_base_body(src, out))
        assert base["status"] == "completed"
        base_rows = 80

        # Fire the append from a thread and SIGKILL while it is (likely)
        # in flight.  Whatever the timing, the invariants below must hold.
        big_append = [[f"c{i % 4}", f"d{i % 3}"] for i in range(2000)]

        def do_append():
            try:
                first.post("/datasets/living/rows", {"rows": big_append})
            except (urllib.error.URLError, ConnectionError, OSError):
                pass  # the kill races the response; both outcomes are fine

        thread = threading.Thread(target=do_append)
        thread.start()
        time.sleep(0.10)
        first.kill9()
        thread.join(timeout=30)

        second = service_factory()
        stats = second.get("/stats")
        assert stats["store"]["backend"] == "sqlite"
        # No job may ever resurface as running after a restart.
        jobs = second.get("/jobs")
        assert all(j["status"] != "running" for j in jobs)
        # The dataset is exactly at base or base+append — never in between.
        # A follow-up append reveals which state committed via its row total,
        # and the published file must match the reference run for that state.
        append3 = second.post("/datasets/living/rows", {"rows": APPEND_A})
        assert append3["status"] == "completed"
        n_rows_final = append3["metadata"]["n_rows"]
        assert n_rows_final in {
            base_rows + len(APPEND_A),
            base_rows + len(big_append) + len(APPEND_A),
        }
        applied = [big_append] if n_rows_final > base_rows + len(APPEND_A) else []
        assert out.read_bytes() == _reference_bytes(tmp_path, [*applied, APPEND_A])
        second.kill9()

    def test_sigkill_mid_publish_never_fakes_completion(
        self, tmp_path, service_factory
    ):
        first = service_factory()
        big_csv = "City,Disease\n" + "\n".join(
            f"c{i % 50},d{i % 5}" for i in range(30_000)
        ) + "\n"
        first.post_csv("/datasets?name=big&sensitive=Disease", big_csv)

        def do_publish():
            try:
                first.post("/publish", {"dataset": "big", "backend": "sps", "seed": 1})
            except (urllib.error.URLError, ConnectionError, OSError):
                pass

        thread = threading.Thread(target=do_publish)
        thread.start()
        time.sleep(0.05)
        first.kill9()
        thread.join(timeout=30)

        second = service_factory()
        assert [d["name"] for d in second.get("/datasets")] == ["big"]
        for job in second.get("/jobs"):
            assert job["status"] in {"interrupted", "failed", "completed"}
            if job["status"] == "completed":
                assert job["published_records"] > 0
        # The service is fully operational on the same store.
        record = second.post("/publish", {"dataset": "big", "backend": "uniform"})
        assert record["status"] == "completed"
        second.kill9()
