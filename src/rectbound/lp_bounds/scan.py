"""Empirical mass-comparison scans over random rectangles.

The question behind the scan: can a rectangle hold a lot of disjoint-pair
mass while holding much less intersecting-pair mass?  Each scanned rectangle
gets one row comparing its mass under the disjoint base distribution (meet
zero) against the distribution with the target meet, both restricted to
equal-size sets.  Rows flag the combinations the theory rules out for large
rectangles: base mass above the bar 2^(-gamma n) with a target/base ratio
below 2/3.  `slack` softens the same comparison additively by 2^(-delta n).

Counting is exact.  Rectangles are drawn, counted and printed one block
of rows at a time, and the report keeps only four integer columns per
rectangle.  The meet matrices are 0/1 floats and a block's membership rows
are bools, which the matmul promotes to float64; every matmul entry is an
integer far below 2^53, so the float pipeline commits no rounding.  The bar,
the flag and the ratios are tested and printed from the integer counts, and
a fixed seed reproduces the report byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from ..caps import EXHAUSTIVE_SCAN_STEPS, SCAN_STRINGS, SUPPORT_PAIRS
from ..combinatorics import MuParams, binom, subset_masks
from ..errors import ParameterRangeError

MODE_EXHAUSTIVE = "exhaustive"
MODE_SAMPLED = "sampled"


@dataclass(frozen=True)
class ScanConfig:
    gamma: float = 0.1
    delta: float = 0.1
    samples: int = 256
    seed: int = 0
    densities: tuple[float, ...] = (0.9, 0.75, 0.5)

    def __post_init__(self) -> None:
        # negative exponents are legal: they raise the bar past 1, which is
        # how a deliberately empty above-bar population is asked for
        if not (math.isfinite(self.gamma) and math.isfinite(self.delta)):
            raise ParameterRangeError("gamma and delta must be finite")
        if self.samples < 0:
            raise ParameterRangeError("samples must be nonnegative")
        if self.seed < 0:
            raise ParameterRangeError(f"seed must be nonnegative, got {self.seed}")
        if not self.densities or any(not 0 < d <= 1 for d in self.densities):
            raise ParameterRangeError("densities must be probabilities in (0, 1]")


@dataclass(frozen=True)
class ScanRow:
    label: str
    density: str
    rows: int
    cols: int
    count_base: int
    count_target: int
    mass_base: Fraction
    mass_target: Fraction
    ratio: Fraction | None
    above_bar: bool
    flagged: bool
    slack: float


# Rectangles drawn, counted and printed together.  A block's draws and its
# float64 membership copies stay under a MB, and at most one block of
# per-row Python objects (labels, CSV lines) is alive at a time: larger
# blocks free multi-MB buffers, after which glibc raises its mmap threshold
# and later blocks land on, and pin, the heap.
_ROW_BLOCK = 256


@dataclass(frozen=True, eq=False)
class ScanReport:
    """One scan as integer columns, one entry per rectangle, the full rectangle first.

    Entry i of `row_sizes` and `col_sizes` counts rectangle i's strings per
    side, and `count_base` and `count_target` its pairs with meet zero and
    with the target meet.  `rows` reads the same rectangles as `ScanRow`s,
    each built when it is read.
    """

    params: MuParams
    target_k: int
    config: ScanConfig
    mode: str
    bar: float
    relief: float
    row_sizes: np.ndarray
    col_sizes: np.ndarray
    count_base: np.ndarray
    count_target: np.ndarray

    @property
    def rows(self) -> Sequence[ScanRow]:
        return _ScanRows(self)

    @cached_property
    def _support_sizes(self) -> tuple[int, int]:
        p = self.params
        return p.support_size, MuParams(self.target_k, p.n, p.m).support_size

    # Every count is at most SCAN_STRINGS^2 = 2^24, so the products below
    # stay far inside int64 and every count is exact as a float64.
    @cached_property
    def _above(self) -> np.ndarray:
        """Base mass count_base / S_base is at least the bar, tested on integers."""
        return self.count_base >= math.ceil(Fraction(self.bar) * self._support_sizes[0])

    @cached_property
    def _flagged(self) -> np.ndarray:
        """Above the bar with target/base ratio below 2/3, tested on integers."""
        s_base, s_target = self._support_sizes
        cb, ct = self.count_base, self.count_target
        return self._above & (cb > 0) & (3 * ct * s_base < 2 * s_target * cb)

    @cached_property
    def _slack(self) -> np.ndarray:
        s_base, s_target = self._support_sizes
        return self.count_target / s_target - (2.0 / 3.0) * (self.count_base / s_base) + self.relief

    @property
    def flagged_count(self) -> int:
        return int(np.count_nonzero(self._flagged))

    @property
    def above_bar_count(self) -> int:
        return int(np.count_nonzero(self._above))

    @property
    def min_ratio(self) -> Fraction | None:
        """Smallest target/base ratio among rectangles clearing the bar."""
        live = self._above & (self.count_base > 0)
        if not live.any():
            return None
        s_base, s_target = self._support_sizes
        ct, cb = self.count_target[live], self.count_base[live]
        # Correctly rounded division is monotone, so the exact minimum is
        # among the rows whose float quotient is the smallest.
        quotient = ct / cb
        tied = quotient == quotient.min()
        return min(Fraction(t * s_base, s_target * b) for t, b in zip(ct[tied].tolist(), cb[tied].tolist()))

    @property
    def min_slack(self) -> float:
        # argmin keeps the first of equal values, as min() over the rows does.
        return float(self._slack[np.argmin(self._slack)])

    def _labels(self, start: int, stop: int) -> tuple[list[str], list[str]]:
        """Label and density texts of rectangles start..stop-1."""
        labels, densities = (["full"], ["full"]) if start == 0 else ([], [])
        scanned = range(max(start, 1) - 1, stop - 1)
        if self.mode == MODE_EXHAUSTIVE:
            subsets = (1 << binom(self.params.n, self.params.m)) - 1
            labels += [f"exh-{i // subsets + 1}-{i % subsets + 1}" for i in scanned]
            densities += ["exhaustive"] * len(scanned)
        else:
            cycle = self.config.densities
            labels += [f"sample-{i:05d}" for i in scanned]
            densities += [repr(cycle[i % len(cycle)]) for i in scanned]
        return labels, densities

    def _row(self, i: int) -> ScanRow:
        s_base, s_target = self._support_sizes
        cb, ct = int(self.count_base[i]), int(self.count_target[i])
        (label,), (density,) = self._labels(i, i + 1)
        return ScanRow(
            label=label,
            density=density,
            rows=int(self.row_sizes[i]),
            cols=int(self.col_sizes[i]),
            count_base=cb,
            count_target=ct,
            mass_base=Fraction(cb, s_base),
            mass_target=Fraction(ct, s_target),
            ratio=Fraction(ct * s_base, s_target * cb) if cb else None,
            above_bar=bool(self._above[i]),
            flagged=bool(self._flagged[i]),
            slack=float(self._slack[i]),
        )


class _ScanRows(Sequence[ScanRow]):
    """A report's rectangles as `ScanRow`s, each built when it is read."""

    __slots__ = ("_report",)

    def __init__(self, report: ScanReport) -> None:
        self._report = report

    def __len__(self) -> int:
        return len(self._report.count_base)

    def __getitem__(self, i: int | slice):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return self._report._row(range(len(self))[i])


def exponent_scale(name: str, exponent: float, n: int) -> float:
    """2^(-exponent n), the bar for gamma and the relief for delta.

    A negative exponent raises the scale past 1; one that takes it past the
    float range is refused by `name` before any rectangle is drawn.
    """
    try:
        scale = 2.0 ** (-exponent * n)
    except OverflowError:
        scale = math.inf
    if math.isinf(scale):
        raise ParameterRangeError(
            f"{name} {exponent!r} is out of range at n={n}: 2 ** {-exponent * n!r} overflows a float"
        )
    return scale


def sampling_lemma_scan(p: MuParams, target_k: int, cfg: ScanConfig | None = None) -> ScanReport:
    """Scan rectangles over the size-m strings, comparing two meet classes.

    `p` fixes the base distribution and must have meet zero; `target_k` picks
    the comparison meet.  Small string sets are swept exhaustively, larger
    ones sampled with seeded density-cycled membership draws, and the full
    rectangle always leads the report as an anchor row.  Rectangles are
    drawn and counted one block at a time.
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
    bar = exponent_scale("gamma", cfg.gamma, p.n)
    relief = exponent_scale("delta", cfg.delta, p.n)

    count = binom(p.n, p.m)
    SCAN_STRINGS.check(count, "strings per side")
    SUPPORT_PAIRS.check(count * count, "string pairs")
    arr = np.sort(subset_masks(p.n, p.m))
    meets = np.bitwise_count(arr[:, None] & arr[None, :])
    e_base = (meets == 0).astype(np.float64)
    e_target = (meets == target_k).astype(np.float64)

    if EXHAUSTIVE_SCAN_STEPS.fits(1 << (2 * count)):
        mode = MODE_EXHAUSTIVE
        subsets = (1 << count) - 1
        scanned = subsets * subsets
        # Row s - 1 marks the strings in the nonempty string set s.
        members = np.arange(1, 1 << count)[:, None] >> np.arange(count) & 1 == 1

        def draw(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
            picks = np.arange(start, stop)
            return members[picks // subsets], members[picks % subsets]

    else:
        mode = MODE_SAMPLED
        scanned = cfg.samples
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        cycle = np.array(cfg.densities)

        def draw(start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
            # Sample i draws its row strings, then its column strings, at
            # density i mod len(cycle): one stream, however it is blocked.
            density = cycle[np.arange(start, stop) % len(cycle)]
            picks = rng.random((stop - start, 2, count)) < density[:, None, None]
            return picks[:, 0], picks[:, 1]

    row_sizes, col_sizes, count_base, count_target = np.empty((4, 1 + scanned), dtype=np.int64)

    def fill(at: int, ra: np.ndarray, cb: np.ndarray) -> None:
        out = slice(at, at + len(ra))
        row_sizes[out] = ra.sum(axis=1)
        col_sizes[out] = cb.sum(axis=1)
        count_base[out] = ((ra @ e_base) * cb).sum(axis=1)
        count_target[out] = ((ra @ e_target) * cb).sum(axis=1)

    full = np.ones((1, count), dtype=bool)
    fill(0, full, full)
    for start in range(0, scanned, _ROW_BLOCK):
        fill(1 + start, *draw(start, min(start + _ROW_BLOCK, scanned)))

    return ScanReport(
        params=p,
        target_k=target_k,
        config=cfg,
        mode=mode,
        bar=bar,
        relief=relief,
        row_sizes=row_sizes,
        col_sizes=col_sizes,
        count_base=count_base,
        count_target=count_target,
    )


def _fraction_texts(num: np.ndarray, den: np.ndarray | int) -> list[str]:
    """The text of each Fraction(num, den), reduced by one gcd array."""
    g = np.gcd(num, den)
    return [f"{a}/{b}" if b != 1 else str(a) for a, b in zip((num // g).tolist(), (den // g).tolist())]


def scan_to_csv(report: ScanReport) -> str:
    """Deterministic text form: summary comments, then one line per row, printed a block at a time."""
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
    chunks = ["\n".join(lines)]
    s_base, s_target = report._support_sizes
    total = len(report.count_base)
    for start in range(0, total, _ROW_BLOCK):
        block = slice(start, min(start + _ROW_BLOCK, total))
        cb, ct = report.count_base[block], report.count_target[block]
        labels, densities = report._labels(block.start, block.stop)
        # A rectangle with no base pair has no ratio; its denominator is kept nonzero for the gcd.
        ratios = _fraction_texts(ct * s_base, s_target * np.maximum(cb, 1))
        chunks.append("\n".join(
            f"{label},{density},{rows},{cols},{b},{t},{mass_base},{mass_target},"
            f"{ratio if b else ''},{above:d},{flagged:d},{slack!r}"
            for label, density, rows, cols, b, t, mass_base, mass_target, ratio, above, flagged, slack in zip(
                labels,
                densities,
                report.row_sizes[block].tolist(),
                report.col_sizes[block].tolist(),
                cb.tolist(),
                ct.tolist(),
                _fraction_texts(cb, s_base),
                _fraction_texts(ct, s_target),
                ratios,
                report._above[block].tolist(),
                report._flagged[block].tolist(),
                report._slack[block].tolist(),
            )
        ))
    # The empty last chunk ends the text with a newline in the one join.
    chunks.append("")
    return "\n".join(chunks)
