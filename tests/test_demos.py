"""Every fast demo runs to completion, and the deterministic ones print pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# protocol_pipeline.py holds the only ProgramProtocol closure written outside
# the package and its tests, so it runs here too.  Each digest is the SHA-256
# of the demo's stdout; lp_gallery.py has none because it prints HiGHS's float
# gaps and its own timings.
DEMOS = {
    "rectangle_hunt.py": "108da1e88cf3b0920ab56979ad89cb5678aa5d63c6ab5d38bcaab6feb6227bbc",
    "certificate_tour.py": "05a920eaf2bd2241946517be6bfe817b070911eba2aa909e366854fb72a3701a",
    "mu_calculus.py": "af656ef99518577370ed8685192f902727e8dd3b2e6be9128720e8fffb6e2636",
    "lp_gallery.py": None,
    "mass_scan.py": "2c5b56902155cfebf78357399f9a55980c92bb613b12a37a474d260a36e04ab6",
    "protocol_pipeline.py": "b055d6ad645e864d8339bb20d133ab3e08e2883ed2f674ac6d91b629c7c3371c",
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    if DEMOS[demo] is not None:
        assert hashlib.sha256(proc.stdout).hexdigest() == DEMOS[demo]
