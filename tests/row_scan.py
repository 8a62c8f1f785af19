"""The row-by-row mass scan: the reference for `lp_bounds.scan`.

The same draws, counts and CSV as `lp_bounds.scan`, with the whole scan's
membership arrays built at once and one `ScanRow`, with its Fractions, per
rectangle before anything is printed.  It shares only the config and row
types with the block-wise scan, so an equal CSV and equal rows from both
check the block-wise scan's PCG64 stream, its integer tests for the bar,
the flag and the minimum ratio, and its printing of reduced fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from rectbound.caps import EXHAUSTIVE_SCAN_STEPS, SCAN_STRINGS, SUPPORT_PAIRS
from rectbound.combinatorics import MuParams, binom, subset_masks
from rectbound.errors import ParameterRangeError
from rectbound.lp_bounds.scan import MODE_EXHAUSTIVE, MODE_SAMPLED, ScanConfig, ScanRow


@dataclass(frozen=True)
class RowScanReport:
    params: MuParams
    target_k: int
    config: ScanConfig
    mode: str
    bar: float
    relief: float
    rows: tuple[ScanRow, ...] = field(default_factory=tuple)

    @property
    def flagged_count(self) -> int:
        return sum(1 for row in self.rows if row.flagged)

    @property
    def above_bar_count(self) -> int:
        return sum(1 for row in self.rows if row.above_bar)

    @property
    def min_ratio(self) -> Fraction | None:
        """Smallest target/base ratio among rectangles clearing the bar."""
        ratios = [row.ratio for row in self.rows if row.above_bar and row.ratio is not None]
        return min(ratios) if ratios else None

    @property
    def min_slack(self) -> float:
        return min(row.slack for row in self.rows)


_ROW_BLOCK = 1024


def sampling_lemma_scan(p: MuParams, target_k: int, cfg: ScanConfig | None = None) -> RowScanReport:
    """Scan rectangles over the size-m strings, comparing two meet classes.

    `p` fixes the base distribution and must have meet zero; `target_k` picks
    the comparison meet.  Small string sets are swept exhaustively, larger
    ones sampled with seeded density-cycled membership draws, and the full
    rectangle always leads the report as an anchor row.
    """
    cfg = ScanConfig() if cfg is None else cfg
    if p.k != 0:
        raise ParameterRangeError(
            f"the scan baseline is the disjoint distribution; pass meet 0, got {p.k}"
        )
    p.validate()
    if target_k < 1:
        raise ParameterRangeError(f"target meet must be at least 1, got {target_k}")
    target = MuParams(target_k, p.n, p.m)
    target.validate()

    count = binom(p.n, p.m)
    SCAN_STRINGS.check(count, "strings per side")
    SUPPORT_PAIRS.check(count * count, "string pairs")
    arr = np.sort(subset_masks(p.n, p.m))
    meets = np.bitwise_count(arr[:, None] & arr[None, :])
    e_base = (meets == 0).astype(np.float64)
    e_target = (meets == target_k).astype(np.float64)

    labels = ["full"]
    densities = ["full"]
    if EXHAUSTIVE_SCAN_STEPS.fits(1 << (2 * count)):
        mode = MODE_EXHAUSTIVE
        subsets = (1 << count) - 1
        # Row s - 1 marks the strings in the nonempty string set s.
        members = np.arange(1, 1 << count)[:, None] >> np.arange(count) & 1 == 1
        ra = np.ones((1 + subsets * subsets, count), dtype=bool)
        cb = np.ones_like(ra)
        ra[1:] = np.repeat(members, subsets, axis=0)
        cb[1:] = np.tile(members, (subsets, 1))
        labels += [f"exh-{smask}-{cmask}" for smask in range(1, 1 << count) for cmask in range(1, 1 << count)]
        densities += ["exhaustive"] * (subsets * subsets)
    else:
        mode = MODE_SAMPLED
        ra = np.ones((1 + cfg.samples, count), dtype=bool)
        cb = np.ones_like(ra)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        for i in range(cfg.samples):
            d = cfg.densities[i % len(cfg.densities)]
            ra[1 + i] = rng.random(count) < d
            cb[1 + i] = rng.random(count) < d
            labels.append(f"sample-{i:05d}")
            densities.append(repr(d))

    counts_base = np.empty(len(ra))
    counts_target = np.empty(len(ra))
    for start in range(0, len(ra), _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        counts_base[block] = ((ra[block] @ e_base) * cb[block]).sum(axis=1)
        counts_target[block] = ((ra[block] @ e_target) * cb[block]).sum(axis=1)
    n_rows = ra.sum(axis=1)
    n_cols = cb.sum(axis=1)

    bar = 2.0 ** (-cfg.gamma * p.n)
    relief = 2.0 ** (-cfg.delta * p.n)
    two_thirds = Fraction(2, 3)
    rows: list[ScanRow] = []
    for idx, label in enumerate(labels):
        cb_count = int(counts_base[idx])
        ct_count = int(counts_target[idx])
        mass_base = Fraction(cb_count, p.support_size)
        mass_target = Fraction(ct_count, target.support_size)
        ratio = mass_target / mass_base if cb_count else None
        above = mass_base >= bar
        flagged = above and ratio is not None and ratio < two_thirds
        slack = float(mass_target) - (2.0 / 3.0) * float(mass_base) + relief
        rows.append(
            ScanRow(
                label=label,
                density=densities[idx],
                rows=int(n_rows[idx]),
                cols=int(n_cols[idx]),
                count_base=cb_count,
                count_target=ct_count,
                mass_base=mass_base,
                mass_target=mass_target,
                ratio=ratio,
                above_bar=above,
                flagged=flagged,
                slack=slack,
            )
        )
    return RowScanReport(
        params=p,
        target_k=target_k,
        config=cfg,
        mode=mode,
        bar=bar,
        relief=relief,
        rows=tuple(rows),
    )


def scan_to_csv(report: RowScanReport) -> str:
    """Deterministic text form: summary comments, then one line per row."""
    p = report.params
    cfg = report.config
    lines = [
        f"# rectangle mass scan: meet 0 baseline vs meet {report.target_k}, "
        f"n={p.n} m={p.m}",
        f"# mode={report.mode} samples={cfg.samples} seed={cfg.seed} "
        f"densities={','.join(repr(d) for d in cfg.densities)}",
        f"# gamma={cfg.gamma!r} delta={cfg.delta!r} bar={report.bar!r} relief={report.relief!r}",
        f"# flagged={report.flagged_count} above_bar={report.above_bar_count} "
        f"min_ratio={'' if report.min_ratio is None else report.min_ratio} "
        f"min_slack={report.min_slack!r}",
    ]
    if report.above_bar_count == 0:
        lines.append("# warning: empty population, no scanned rectangle clears the bar")
    lines.append(
        "label,density,rows,cols,count_base,count_target,mass_base,mass_target,"
        "ratio,above_bar,flagged,slack"
    )
    for row in report.rows:
        ratio = "" if row.ratio is None else str(row.ratio)
        lines.append(
            f"{row.label},{row.density},{row.rows},{row.cols},"
            f"{row.count_base},{row.count_target},{row.mass_base},{row.mass_target},"
            f"{ratio},{int(row.above_bar)},{int(row.flagged)},{row.slack!r}"
        )
    return "\n".join(lines) + "\n"
