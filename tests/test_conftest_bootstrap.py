"""The root ``conftest.py`` adds ``src/`` only when no ``repro`` is importable.

Each case copies the root conftest into a throwaway checkout whose ``src/``
holds a marker ``repro`` package, then runs pytest there in a subprocess
and asks which ``repro`` the probe test imported.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT_CONFTEST = Path(__file__).resolve().parents[1] / "conftest.py"

PROBE = """\
import repro


def test_which_repro():
    print("WHICH=" + repro.WHICH)
"""


def _package(parent: Path, which: str) -> None:
    package = parent / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(f"WHICH = {which!r}\n")


def _run_probe(tmp_path: Path, pythonpath: str | None) -> str:
    checkout = tmp_path / "checkout"
    _package(checkout / "src", "checkout")
    shutil.copy(ROOT_CONFTEST, checkout / "conftest.py")
    (checkout / "test_probe.py").write_text(PROBE)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if pythonpath is not None:
        env["PYTHONPATH"] = pythonpath
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "test_probe.py"],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    return re.search(r"WHICH=(\w+)", run.stdout).group(1)


def test_repro_on_pythonpath_wins_over_the_checkout_src(tmp_path):
    _package(tmp_path / "stub", "stub")
    assert _run_probe(tmp_path, str(tmp_path / "stub")) == "stub"


def test_checkout_src_is_added_when_no_repro_is_importable(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    probe = subprocess.run(
        [sys.executable, "-c",
         "import importlib.util, sys; sys.exit(importlib.util.find_spec('repro') is not None)"],
        cwd=tmp_path, env=env,
    )
    if probe.returncode != 0:
        pytest.skip("an installed repro is importable without PYTHONPATH")
    assert _run_probe(tmp_path, None) == "checkout"
