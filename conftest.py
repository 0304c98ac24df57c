"""Pytest bootstrap: make ``src/`` importable even without an installed package.

The canonical workflow is ``pip install -e .``; this shim only covers offline
environments where the editable install is unavailable.  A ``repro`` that is
already importable (from ``PYTHONPATH`` or an install) wins, so pointing
``PYTHONPATH`` at another checkout's ``src/`` tests that checkout.
"""

import importlib.util
import sys
from pathlib import Path

_SRC = Path(__file__).parent / "src"
if importlib.util.find_spec("repro") is None:
    sys.path.insert(0, str(_SRC))
