"""Replacing a published file, and freeing the old one off the caller's path.

:func:`repro.utils.files.replace_file` holds the replaced file open across
the rename and hands the descriptor to :data:`repro.utils.files.RELEASER`,
whose thread closes it.  These tests pin what that may not change: the
descriptor is always closed, at most one release is in flight, a fresh
path opens nothing, and a failed move leaves the directory, the target and
the descriptor table as they were.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.delta import DeltaState, delta_publish, publish_base
from repro.stream import stream_publish
from repro.utils import files
from repro.utils.files import RELEASER, FileReleaser, replace_file

SRC = str(Path(__file__).resolve().parent.parent / "src")

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd"
)


def _open_fds() -> int:
    RELEASER.join()
    return len(os.listdir("/proc/self/fd"))


def _write_csv(path: Path, rows) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows([["City", "Disease"], *rows])


def _rows(cities: str) -> list[list[str]]:
    return [[c, d] for c in cities for d in ("flu", "cold") for _ in range(4)]


@pytest.fixture
def base(tmp_path):
    """A published base: (state, published path)."""
    source = tmp_path / "base.csv"
    _write_csv(source, _rows("abcdefgh"))
    report = publish_base(
        source, sensitive="Disease", output=tmp_path / "published.csv",
        rng=3, chunk_size=1,
    )
    return report.state, Path(report.state.output)


class _Recorder:
    def __init__(self) -> None:
        self.fds: list[int] = []

    def release(self, fd: int) -> None:
        self.fds.append(fd)
        os.close(fd)


class TestReplaceFile:
    def test_descriptor_is_closed_once_the_release_joins(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_bytes(b"old\n")
        baseline = _open_fds()
        for i in range(3):
            temp = tmp_path / f"new{i}.tmp"
            temp.write_bytes(b"new %d\n" % i)
            replace_file(temp, target)
        assert _open_fds() == baseline
        assert target.read_bytes() == b"new 2\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    def test_an_existing_target_is_released_and_a_fresh_path_opens_nothing(
        self, tmp_path, monkeypatch
    ):
        recorder = _Recorder()
        monkeypatch.setattr(files, "RELEASER", recorder)
        source = tmp_path / "census.csv"
        _write_csv(source, _rows("abc"))
        out = tmp_path / "out.csv"
        stream_publish(source, sensitive="Disease", rng=1, output=out)
        assert recorder.fds == []
        stream_publish(source, sensitive="Disease", rng=2, output=out)
        assert len(recorder.fds) == 1

    def test_failed_rename_closes_the_held_descriptor(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()  # a directory: the open succeeds, the rename fails
        temp = tmp_path / "new.tmp"
        temp.write_bytes(b"x")
        baseline = _open_fds()
        with pytest.raises(IsADirectoryError):
            replace_file(temp, target)
        assert _open_fds() == baseline
        assert temp.read_bytes() == b"x"  # the caller still owns the source


class TestReleaser:
    def test_at_most_one_release_is_outstanding(self, tmp_path, monkeypatch):
        gate = threading.Event()
        closing: list[int] = []
        real_close = os.close
        held = [os.open(tmp_path, os.O_RDONLY) for _ in range(2)]

        def blocking_close(fd):
            if fd in held:
                closing.append(fd)
                gate.wait(10)
            real_close(fd)

        monkeypatch.setattr(os, "close", blocking_close)
        releaser = FileReleaser()
        releaser.release(held[0])
        second = threading.Thread(target=releaser.release, args=(held[1],))
        second.start()
        second.join(0.3)
        assert second.is_alive()  # waiting for the first release
        assert closing == [held[0]]
        gate.set()
        second.join(10)
        assert not second.is_alive()
        releaser.join()
        assert closing == held
        for fd in held:
            with pytest.raises(OSError):
                os.fstat(fd)

    def test_many_threads_leak_no_descriptor(self, tmp_path):
        baseline = _open_fds()
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            def replace_many(n: int) -> None:
                target = tmp_path / f"out{n}.csv"
                for i in range(20):
                    temp = tmp_path / f"out{n}.{i}.tmp"
                    temp.write_bytes(b"%d\n" % i)
                    replace_file(temp, target)

            threads = [threading.Thread(target=replace_many, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(switch)
        assert _open_fds() == baseline
        assert all((tmp_path / f"out{n}.csv").read_bytes() == b"19\n" for n in range(6))


class TestDeltaOutputs:
    def test_failed_final_move_leaves_the_directory_as_it_was(
        self, tmp_path, base, monkeypatch
    ):
        state, published = base
        listing = sorted(p.name for p in tmp_path.iterdir())
        base_bytes = published.read_bytes()
        baseline = _open_fds()

        def refuse(source, target):
            raise OSError("rename refused")

        monkeypatch.setattr(files.os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            delta_publish(state, [["h", "flu"]])
        with pytest.raises(OSError, match="rename refused"):
            stream_publish(tmp_path / "base.csv", sensitive="Disease", output=published)
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == listing
        assert published.read_bytes() == base_bytes
        assert _open_fds() == baseline

    def test_output_elsewhere_leaves_the_base_file_and_inode_untouched(
        self, tmp_path, base
    ):
        state, published = base
        before = published.stat()
        base_bytes = published.read_bytes()
        other = tmp_path / "other.csv"
        report = delta_publish(state, [["h", "flu"]], output=other)
        after = published.stat()
        assert (after.st_ino, after.st_size, after.st_mtime_ns) == (
            before.st_ino, before.st_size, before.st_mtime_ns,
        )
        assert published.read_bytes() == base_bytes
        assert report.state.output == str(other)
        assert other.stat().st_ino != before.st_ino

    def test_cli_append_in_a_subprocess_leaves_complete_files(self, tmp_path):
        source = tmp_path / "base.csv"
        appended = tmp_path / "rows.csv"
        _write_csv(source, _rows("abcdefgh"))
        _write_csv(appended, [["h", "flu"], ["i", "cold"]])
        published, state_path = tmp_path / "published.csv", tmp_path / "state.json"
        env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
        for argv in (
            ["init", str(source), "--sensitive", "Disease", "--seed", "3",
             "--output", str(published), "--state", str(state_path)],
            ["append", str(appended), "--state", str(state_path)],
        ):
            run = subprocess.run(
                [sys.executable, "-m", "repro.delta", *argv],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert run.returncode == 0, run.stderr
        summary = json.loads(run.stdout)
        state = DeltaState.load(state_path)
        assert state.n_rows == summary["n_rows"] == 66
        data = published.read_bytes()
        with published.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) - 1 == summary["published_records"] == sum(state.chunk_row_counts)
        assert len(data) == data.index(b"\r\n") + 2 + sum(state.chunk_bytes)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "base.csv", "published.csv", "rows.csv", "state.json",
        ]
