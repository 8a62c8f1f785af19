"""The block-wise mass scan against the row-by-row scan of tests/row_scan.py,
its memory as the sample count grows, and the benchmark's pinned scan output."""

import sys
import tracemalloc
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

import row_scan  # noqa: E402
from perfbench.checks import csv_digest, load_references  # noqa: E402
from perfbench.jobs import REF_SEED, build_jobs  # noqa: E402
from rectbound import cli  # noqa: E402
from rectbound.combinatorics import MuParams  # noqa: E402
from rectbound.lp_bounds import ScanConfig, sampling_lemma_scan, scan_to_csv  # noqa: E402
from rectbound.lp_bounds.scan import _ROW_BLOCK  # noqa: E402

CASES = {
    "exhaustive-n4-m1": (MuParams(0, 4, 1), 1, ScanConfig()),
    # 3,969 exhaustive rectangles, over several blocks
    "exhaustive-n6-m1": (MuParams(0, 6, 1), 1, ScanConfig()),
    # masks past 62 bits
    "n66-m1": (MuParams(0, 66, 1), 1, ScanConfig(samples=3)),
    "n8-m2-seed7": (MuParams(0, 8, 2), 1, ScanConfig(samples=1000, seed=7)),
    "n8-m2-seed3": (MuParams(0, 8, 2), 2, ScanConfig(samples=5, seed=3)),
    "n12-m3-10000": (MuParams(0, 12, 3), 1, ScanConfig(samples=10_000, seed=5)),
    "negative-gamma": (MuParams(0, 4, 1), 1, ScanConfig(gamma=-2.0)),
    "densities-0.3-1.0": (MuParams(0, 8, 2), 1, ScanConfig(samples=700, seed=1, densities=(0.3, 1.0))),
    "samples-0": (MuParams(0, 8, 2), 1, ScanConfig(samples=0)),
    # not a multiple of the block size, and some rows flagged
    "flagged-777": (MuParams(0, 10, 2), 2, ScanConfig(samples=777, seed=11, gamma=0.3)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_block_scan_matches_the_row_scan(name):
    p, target_k, cfg = CASES[name]
    got = sampling_lemma_scan(p, target_k, cfg)
    want = row_scan.sampling_lemma_scan(p, target_k, cfg)
    assert scan_to_csv(got) == row_scan.scan_to_csv(want)
    assert (got.mode, got.bar, got.relief) == (want.mode, want.bar, want.relief)
    assert (got.flagged_count, got.above_bar_count) == (want.flagged_count, want.above_bar_count)
    assert (got.min_ratio, got.min_slack) == (want.min_ratio, want.min_slack)
    assert len(got.rows) == len(want.rows)
    assert list(got.rows) == list(want.rows)
    assert got.rows[-1] == want.rows[-1]


def test_the_cases_cover_flags_and_a_partial_block():
    assert 777 % _ROW_BLOCK != 0
    assert sampling_lemma_scan(*CASES["flagged-777"]).flagged_count > 0


def _traced_peak(samples: int) -> int:
    tracemalloc.start()
    try:
        scan_to_csv(sampling_lemma_scan(MuParams(0, 12, 3), 1, ScanConfig(samples=samples, seed=5)))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scan_memory_grows_by_the_text_alone():
    # 8,000 more rectangles add 0.7 MB of CSV text, held as block chunks and
    # then joined: 1.2 MB of growth.  Building every membership row and every
    # ScanRow before printing, as the row scan does, grew it by 7.3 MB.
    _traced_peak(10)
    growth = _traced_peak(10_000) - _traced_peak(2_000)
    assert growth < 3 * 10**6, f"peak grew {growth / 1e6:.1f} MB"


def test_scan_text_is_built_by_one_join():
    # One join over the block chunks, the last one empty for the final
    # newline: 2.25 MB traced at 10,000 samples, against 3.16 MB when the
    # joined text was copied once more to append that newline.
    _traced_peak(10)
    peak = _traced_peak(10_000)
    assert peak < 2.6 * 10**6, f"peak {peak / 1e6:.2f} MB"


def test_benchmark_scan_job_matches_its_reference(tmp_path, capsys):
    job = next(j for j in build_jobs("enum-protocols", REF_SEED, tmp_path) if j.name == "scan-n12")
    capsys.readouterr()
    assert cli.main(list(job.argv)) == 0
    expected = load_references("enum-protocols")["outputs"]["scan-n12"]
    assert csv_digest(capsys.readouterr().out) == expected
