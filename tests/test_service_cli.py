"""Tests for the ``python -m repro.service`` command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv: str) -> dict | list:
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


class TestCli:
    def test_backends_verb(self, capsys):
        output = run_cli(capsys, "backends")
        assert {"sps", "uniform", "dp-laplace", "dp-gaussian", "generalize+sps"} <= set(output)

    def test_register_publish_audit_lifecycle_with_store(self, capsys, tmp_path):
        store = str(tmp_path / "state.json")
        created = run_cli(
            capsys,
            "register", "demo", "--synthetic", "adult", "--rows", "1500",
            "--seed", "1", "--store", store,
        )
        assert created["n_records"] == 1500

        job = run_cli(
            capsys,
            "publish", "--dataset", "demo", "--backend", "sps",
            "--lam", "0.4", "--seed", "7", "--workers", "2", "--store", store,
        )
        assert job["status"] == "completed"
        assert job["spec"]["params"] == {"lam": 0.4}
        assert job["audit"] is not None

        # A fresh invocation sees the persisted dataset and job history.
        jobs = run_cli(capsys, "jobs", "--store", store)
        assert [j["job_id"] for j in jobs] == [job["job_id"]]
        datasets = run_cli(capsys, "datasets", "--store", store)
        assert [d["name"] for d in datasets] == ["demo"]

        audit = run_cli(capsys, "audit", "--dataset", "demo", "--store", store)
        assert audit["summary"]["n_groups"] > 0

        stats = run_cli(capsys, "stats", "--store", store)
        assert stats["n_datasets"] == 1
        assert stats["n_jobs"] == 1

    def test_publish_writes_output_csv(self, capsys, tmp_path):
        store = str(tmp_path / "state.json")
        output = tmp_path / "published.csv"
        run_cli(
            capsys,
            "register", "demo", "--synthetic", "adult", "--rows", "800", "--store", store,
        )
        job = run_cli(
            capsys,
            "publish", "--dataset", "demo", "--backend", "uniform",
            "--output", str(output), "--store", store,
        )
        lines = output.read_text().splitlines()
        assert lines[0] == "Education,Occupation,Race,Gender,Income"
        assert len(lines) == job["published_records"] + 1

    def test_register_csv_requires_sensitive(self, capsys, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("a,b\nx,y\n")
        assert main(["register", "d", "--csv", str(csv_path)]) == 2
        assert "--sensitive" in capsys.readouterr().err

    def test_register_csv_file(self, capsys, tmp_path):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("Job,Income\neng,high\nartist,low\n")
        created = run_cli(
            capsys, "register", "d", "--csv", str(csv_path), "--sensitive", "Income"
        )
        assert created["n_records"] == 2

    def test_error_exit_code(self, capsys):
        assert main(["publish", "--dataset", "missing", "--backend", "sps"]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_failed_publish_persisted_to_store(self, capsys, tmp_path):
        store = str(tmp_path / "state.json")
        run_cli(
            capsys,
            "register", "demo", "--synthetic", "adult", "--rows", "500", "--store", store,
        )
        assert main(
            ["publish", "--dataset", "demo", "--backend", "sps",
             "--lam", "-1", "--store", store]
        ) == 2
        capsys.readouterr()
        jobs = run_cli(capsys, "jobs", "--store", store)
        assert len(jobs) == 1
        assert jobs[0]["status"] == "failed"
        assert "lambda" in jobs[0]["error"]

    def test_zero_byte_store_file_is_a_new_store(self, capsys, tmp_path):
        path = tmp_path / "fresh.db"
        path.write_bytes(b"")
        assert run_cli(capsys, "datasets", "--store", str(path)) == []
        assert path.read_bytes().startswith(b"SQLite format 3\x00")

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_experiments_runner_version_flag(self, capsys):
        from repro import __version__
        from repro.experiments.runner import main as experiments_main

        with pytest.raises(SystemExit) as excinfo:
            experiments_main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestUnopenableStore:
    """A ``--store`` file that is not a SQLite store is one error line, exit 2."""

    @pytest.mark.parametrize(
        "content",
        [
            b"\x00\x01 not a store",
            json.dumps({"version": 1, "datasets": {}, "jobs": [], "next_job_id": 3}).encode(),
        ],
        ids=["not-sqlite", "v1-snapshot"],
    )
    @pytest.mark.parametrize(
        "command",
        [["repro.service", "datasets"], ["repro.serve", "--port", "0"]],
        ids=["repro-service", "repro-serve"],
    )
    def test_refused_store_is_one_error_line(self, tmp_path, command, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        existing = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + existing if existing else "")}
        result = subprocess.run(
            [sys.executable, "-m", *command, "--store", str(path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith(f"{command[0]}: error: ")
        if content.startswith(b"{"):
            assert "11.2.0" in line
        assert path.read_bytes() == content
        assert [entry.name for entry in tmp_path.iterdir()] == ["bad.json"]
