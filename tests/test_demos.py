"""Every fast demo runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# protocol_pipeline.py holds the only ProgramProtocol closure written outside
# the package and its tests, so it runs here too.
DEMOS = [
    "rectangle_hunt.py",
    "certificate_tour.py",
    "mu_calculus.py",
    "lp_gallery.py",
    "mass_scan.py",
    "protocol_pipeline.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
