"""The resource limits: their overrides, their one refusal, and the README table."""

from pathlib import Path

import pytest

from rectbound import caps
from rectbound.caps import Limit
from rectbound.errors import CapExceededError, ConvergenceError, ParameterRangeError

LIMITS = {name: value for name, value in vars(caps).items() if isinstance(value, Limit)}


def test_every_limit_keeps_its_value_and_error_type():
    assert {name: (lim.default, lim.env, lim.error) for name, lim in LIMITS.items()} == {
        "SUPPORT_PAIRS": (10**7, "RECTBOUND_SUPPORT_CAP", CapExceededError),
        "ORACLE_SUBSETS": (2**16, "RECTBOUND_ORACLE_SUBSET_CAP", CapExceededError),
        "RECTANGLES": (2**26, "RECTBOUND_RECTANGLE_CAP", CapExceededError),
        "EXACT_PROTOCOL_INPUTS": (2**22, "RECTBOUND_EXACT_PROTOCOL_CAP", CapExceededError),
        "ENUMERATION_CELLS": (2_000_000, None, CapExceededError),
        "SIMPLEX_PIVOTS": (200_000, None, ConvergenceError),
        "EXHAUSTIVE_STEPS": (2**22, None, CapExceededError),
        "SCAN_STRINGS": (4096, None, CapExceededError),
        "EXHAUSTIVE_SCAN_STEPS": (4096, None, CapExceededError),
        "HALVING_BRANCHES": (4096, None, CapExceededError),
        "EXACT_PERMUTATION_WIDTH": (6, None, CapExceededError),
        "MIXTURE_BRANCHES": (32_768, None, CapExceededError),
    }


def test_override_is_read_at_each_use(monkeypatch):
    assert caps.SUPPORT_PAIRS.value == 10**7
    monkeypatch.setenv("RECTBOUND_SUPPORT_CAP", "12")
    assert caps.SUPPORT_PAIRS.value == 12
    assert caps.SUPPORT_PAIRS.fits(12) and not caps.SUPPORT_PAIRS.fits(13)


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "1.5"])
def test_malformed_override_is_a_parameter_error(monkeypatch, raw):
    monkeypatch.setenv("RECTBOUND_ORACLE_SUBSET_CAP", raw)
    with pytest.raises(ParameterRangeError, match="RECTBOUND_ORACLE_SUBSET_CAP"):
        caps.ORACLE_SUBSETS.value


def test_refusal_names_count_limit_and_override(monkeypatch):
    caps.RECTANGLES.check(2**26, "rectangles")
    with pytest.raises(CapExceededError) as exc:
        caps.RECTANGLES.check(2**26 + 1, "rectangles", "shrink the axes")
    assert str(exc.value) == (
        f"{2**26 + 1} rectangles exceed the limit 2^26 "
        "(override: RECTBOUND_RECTANGLE_CAP); shrink the axes"
    )
    monkeypatch.setenv("RECTBOUND_RECTANGLE_CAP", "7")
    with pytest.raises(CapExceededError, match="^2\\^30 rectangles exceed the limit 7 "):
        caps.RECTANGLES.check(2**30, "rectangles")
    with pytest.raises(ConvergenceError, match="^200001 simplex pivots exceed the limit 200000$"):
        caps.SIMPLEX_PIVOTS.check(200_001, "simplex pivots")


def _readme_caps_rows() -> dict[str, list[str]]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Resource caps", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("| `"):
            rows[cells[0].strip("`")] = cells
    return rows


def test_readme_table_lists_every_limit():
    rows = _readme_caps_rows()
    assert set(rows) == set(LIMITS)
    for name, lim in LIMITS.items():
        value, override = rows[name][1], rows[name][2]
        assert value == f"{lim.default:,}", name
        assert override == (f"`{lim.env}`" if lim.env else "none"), name
