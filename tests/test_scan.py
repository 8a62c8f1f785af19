"""Mass-comparison scan: exact counting, determinism, population semantics."""

from fractions import Fraction

import pytest

from rectbound.combinatorics import MuParams
from rectbound.errors import CapExceededError, ParameterRangeError, SupportEmptyError
from rectbound.lp_bounds import ScanConfig, sampling_lemma_scan, scan_to_csv

F = Fraction


def test_exhaustive_scan_row_count():
    # 4 singleton strings -> full row + 15 * 15 subset pairs
    report = sampling_lemma_scan(MuParams(0, 4, 1), 1)
    assert report.mode == "exhaustive"
    assert len(report.rows) == 226


def test_anchor_row_is_the_full_rectangle():
    report = sampling_lemma_scan(MuParams(0, 4, 1), 1)
    full = report.rows[0]
    assert full.label == "full"
    assert full.rows == full.cols == 4
    # the full rectangle holds all the mass of both distributions
    assert full.mass_base == 1
    assert full.mass_target == 1
    assert full.ratio == 1
    assert full.above_bar and not full.flagged


def test_scan_counts_past_62_bits():
    # Strings of a 66-element universe overflow int64 masks; they are counted as Python ints.
    full = sampling_lemma_scan(MuParams(0, 66, 1), 1, ScanConfig(samples=3)).rows[0]
    assert (full.rows, full.count_base, full.count_target) == (66, 66 * 65, 66)
    assert full.mass_base == full.mass_target == 1


def test_sampled_scan_is_reproducible():
    p = MuParams(0, 8, 2)
    cfg = ScanConfig(samples=200, seed=7)
    a = scan_to_csv(sampling_lemma_scan(p, 1, cfg))
    b = scan_to_csv(sampling_lemma_scan(p, 1, cfg))
    assert a == b
    c = scan_to_csv(sampling_lemma_scan(p, 1, ScanConfig(samples=200, seed=8)))
    assert a != c


def test_frozen_sampled_population():
    report = sampling_lemma_scan(MuParams(0, 8, 2), 1, ScanConfig(samples=1000, seed=7))
    assert report.mode == "sampled"
    assert report.above_bar_count == 465
    assert report.min_ratio == F(455, 486)
    assert report.min_ratio > F(2, 3)
    assert report.flagged_count == 0


def test_counts_match_a_direct_recount():
    report = sampling_lemma_scan(MuParams(0, 4, 1), 1)
    # singleton strings over 4 coordinates: base pairs are the 12 off-diagonal
    # ones, target pairs the 4 diagonal ones
    full = report.rows[0]
    assert full.count_base == 12
    assert full.count_target == 4
    for row in report.rows:
        assert 0 <= row.count_base <= row.rows * row.cols
        assert row.count_base + row.count_target <= row.rows * row.cols


def test_negative_gamma_empties_the_population():
    report = sampling_lemma_scan(MuParams(0, 4, 1), 1, ScanConfig(gamma=-2.0))
    assert report.bar == 2.0 ** 8
    assert report.above_bar_count == 0
    assert report.min_ratio is None
    text = scan_to_csv(report)
    assert "# warning: empty population, no scanned rectangle clears the bar" in text
    assert "min_ratio= " in text  # blank field when no row clears the bar


def test_scan_config_validation():
    with pytest.raises(ParameterRangeError):
        ScanConfig(gamma=float("inf"))
    with pytest.raises(ParameterRangeError):
        ScanConfig(delta=float("nan"))
    with pytest.raises(ParameterRangeError):
        ScanConfig(samples=-1)
    with pytest.raises(ParameterRangeError):
        ScanConfig(densities=())
    with pytest.raises(ParameterRangeError):
        ScanConfig(densities=(0.0,))
    with pytest.raises(ParameterRangeError):
        ScanConfig(densities=(1.5,))


def test_scan_config_refuses_a_negative_seed():
    # by name, at construction: also where an exhaustive scan would draw nothing
    for samples in (0, 5):
        with pytest.raises(ParameterRangeError, match="seed must be nonnegative, got -1"):
            ScanConfig(samples=samples, seed=-1)


def test_scan_parameter_guards():
    with pytest.raises(ParameterRangeError):
        sampling_lemma_scan(MuParams(1, 4, 1), 1)  # baseline must be meet zero
    with pytest.raises(ParameterRangeError):
        sampling_lemma_scan(MuParams(0, 4, 1), 0)  # target meet at least 1
    with pytest.raises(SupportEmptyError):
        sampling_lemma_scan(MuParams(0, 4, 3), 1)  # baseline support empty (m > n - m)
    with pytest.raises(CapExceededError):
        sampling_lemma_scan(MuParams(0, 16, 8), 1)  # 12870 strings per side


def test_scan_refuses_a_bar_or_relief_past_the_float_range():
    # 2.0 ** 1600 overflows; the refusal names the exponent.
    for name in ("gamma", "delta"):
        with pytest.raises(ParameterRangeError, match=f"^{name} -200.0 is out of range at n=8"):
            sampling_lemma_scan(MuParams(0, 8, 2), 1, ScanConfig(samples=5, **{name: -200.0}))
    with pytest.raises(ParameterRangeError, match=r"2 \*\* inf"):
        sampling_lemma_scan(MuParams(0, 8, 2), 1, ScanConfig(samples=5, gamma=-1e308))
    # A huge positive exponent only drops the scale to 0.
    assert sampling_lemma_scan(MuParams(0, 4, 1), 1, ScanConfig(gamma=1e308)).bar == 0.0


def test_zero_samples_leaves_only_the_anchor():
    report = sampling_lemma_scan(MuParams(0, 8, 2), 1, ScanConfig(samples=0))
    assert report.mode == "sampled"
    assert len(report.rows) == 1
    assert report.rows[0].label == "full"


def test_csv_shape():
    report = sampling_lemma_scan(MuParams(0, 8, 2), 2, ScanConfig(samples=5, seed=3))
    text = scan_to_csv(report)
    lines = text.splitlines()
    header = [l for l in lines if l.startswith("label,")]
    assert len(header) == 1
    data = lines[lines.index(header[0]) + 1 :]
    assert len(data) == len(report.rows)
    assert all(len(l.split(",")) == 12 for l in data)
    assert text.endswith("\n")
