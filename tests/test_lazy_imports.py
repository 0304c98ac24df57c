"""`import repro` and an SPS publish load neither scipy nor networkx.

Only the chi-square critical value needs ``scipy.stats`` and only the
generalize stage's merge graph needs ``networkx``; both are imported where
they are used, so a process that never generalizes never pays for them.
Checked in a fresh interpreter, since this one has long imported both.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

SCRIPT = """
import sys
import repro
from repro.dataset.adult import generate_adult
report = repro.publish(generate_adult(2000, seed=1), strategy="sps", rng=1)
assert report.n_sampled_groups >= 0 and len(report.published)
print(sorted(name for name in sys.modules if name.split(".")[0] in ("scipy", "networkx")))
"""


def test_import_and_sps_publish_leave_scipy_and_networkx_unloaded():
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
