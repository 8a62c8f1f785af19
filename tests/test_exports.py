"""Every name a package lists in `__all__` resolves.

A stale `__all__` entry fails only on `import *`, which no other test does.
"""

import importlib

import pytest


@pytest.mark.parametrize("package", ["rectbound", "rectbound.protocols", "rectbound.lp_bounds"])
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names nothing for {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
