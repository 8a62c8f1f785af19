"""Every span of the benchmark names a function that exists.

`perfbench/spans.py` wraps each layer by module and attribute name, and
only the benchmark's own tests install it.  Resolving every entry here, by
name and without installing anything, makes a rename or a removed binding in
`src` fail this suite as well.
"""

import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.spans import LAYERS  # noqa: E402


def test_every_span_layer_resolves_by_name():
    missing = []
    for layer in LAYERS:
        target = importlib.import_module(layer.module)
        for part in layer.attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{layer.module}.{layer.attr}")
    assert not missing, f"span layers naming nothing callable: {missing}"
