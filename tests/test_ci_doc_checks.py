"""The CI-only documentation checks, run in the tier-1 suite too.

CI's "Docs snippet sweep" step imports every module it names with
``--doctest-module``, and its "Docs link check" step runs
``scripts/check_doc_links.py``.  A module deleted while CI still names it, or
a doc still pointing at a removed name, would otherwise only fail in CI.
"""

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
CI_WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"


def _doctest_modules() -> list[str]:
    return re.findall(r"--doctest-module\s+([\w.]+)", CI_WORKFLOW.read_text())


def test_ci_names_doctest_modules():
    assert "repro.dataset.groups" in _doctest_modules()


@pytest.mark.parametrize("module", _doctest_modules())
def test_ci_doctest_module_imports(module):
    importlib.import_module(module)


def test_doc_links_and_references_resolve():
    docs = sorted(str(path.relative_to(REPO_ROOT)) for path in (REPO_ROOT / "docs").glob("*.md"))
    result = subprocess.run(
        [sys.executable, "scripts/check_doc_links.py", "README.md", *docs],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
