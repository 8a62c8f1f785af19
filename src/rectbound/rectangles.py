"""Combinatorial rectangles, weight matrices, and exact separation oracles.

The max-weight oracle exploits the product structure exactly: for a fixed row
set A the optimal column set is precisely the columns with positive column-sum
over A, so sweeping row subsets of the smaller side (Gray-code order, one row
toggled per step) finds the true maximum.  The sweep is one numpy kernel: it
takes block-wise cumulative sums down the Gray steps, a fixed number of cells
per block, so its working set stays small at any row count.  Weights may be
Fractions, ints or floats.  Exact weights (ints and Fractions) are swept as
ints scaled by their common denominator, int64 where no partial sum can reach
2^62 and Python ints otherwise, which gives the same exact maximum as a
Fraction sweep.  Weights that include a float are swept as float64, each
column sum and each step value added in the order a step-by-step loop adds
them, so the floats are the loop's to the last bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import floor, inf, lcm, nextafter
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from .caps import ORACLE_SUBSETS, RECTANGLES, SUPPORT_PAIRS
from .combinatorics import InputPair, MuParams, enumerate_support, int_dtype, parse_bits
from .errors import DimensionMismatchError, ParameterRangeError

Weight = Fraction | float | int


def string_masks(members: int) -> Iterator[int]:
    """The member masks of a string set, ascending."""
    while members:
        low = members & -members
        yield low.bit_length() - 1
        members ^= low


@dataclass(frozen=True)
class Rectangle:
    """A product set rows x cols of n-bit strings.

    Each side is a string set: an int whose bit s is set when the string
    with mask s is a member, the convention `TruthTable.rows` shares.
    """

    n: int
    rows: int
    cols: int

    def __post_init__(self) -> None:
        for side in (self.rows, self.cols):
            if side < 0 or side >> (1 << self.n):
                raise DimensionMismatchError(
                    f"string set {side:#x} does not live in universe size {self.n}"
                )

    @classmethod
    def from_bits(cls, rows: Iterable[str], cols: Iterable[str], n: int | None = None) -> Rectangle:
        row_strings, col_strings = list(rows), list(cols)
        if n is None:
            if not row_strings and not col_strings:
                raise ParameterRangeError("empty rectangle needs an explicit universe size")
            n = len((row_strings or col_strings)[0])
        for s in row_strings + col_strings:
            if len(s) != n:
                raise DimensionMismatchError(f"member {s} does not live in universe size {n}")
        row_set = sum(1 << m for m in {parse_bits(s) for s in row_strings})
        col_set = sum(1 << m for m in {parse_bits(s) for s in col_strings})
        return cls(n, row_set, col_set)

    @classmethod
    def full(cls, n: int) -> Rectangle:
        everything = (1 << (1 << n)) - 1
        return cls(n, everything, everything)

    @classmethod
    def empty(cls, n: int) -> Rectangle:
        return cls(n, 0, 0)

    @property
    def is_empty(self) -> bool:
        return not self.rows or not self.cols

    @property
    def pair_count(self) -> int:
        return self.rows.bit_count() * self.cols.bit_count()

    def contains(self, pair: InputPair) -> bool:
        return bool(self.rows >> pair.x & 1 and self.cols >> pair.y & 1)

    def pairs(self) -> Iterator[InputPair]:
        for x in string_masks(self.rows):
            for y in string_masks(self.cols):
                yield InputPair(x, y)

    def key(self) -> tuple:
        """Deterministic sort key: the member masks of each side, ascending."""
        return (tuple(string_masks(self.rows)), tuple(string_masks(self.cols)))


@dataclass(frozen=True)
class WitnessSet:
    """A size-k coordinate set contained in x & y for every member pair."""

    n: int
    coords: tuple[int, ...]  # 1-based, ascending

    def __post_init__(self) -> None:
        if any(not 1 <= c <= self.n for c in self.coords):
            raise ParameterRangeError(f"witness coordinates {self.coords} outside 1..{self.n}")
        if tuple(sorted(set(self.coords))) != self.coords:
            raise ParameterRangeError(f"witness coordinates must be sorted and distinct: {self.coords}")

    @property
    def mask(self) -> int:
        m = 0
        for c in self.coords:
            m |= 1 << (c - 1)
        return m

    @property
    def strings(self) -> int:
        """The string set of every string marking all witness coordinates."""
        m = self.mask
        return sum(1 << s for s in range(1 << self.n) if s & m == m)


def witness_sets(n: int, k: int) -> Iterator[WitnessSet]:
    """Every size-k witness set over coordinates 1..n, in lexicographic order."""
    for coords in combinations(range(1, n + 1), k):
        yield WitnessSet(n, coords)


@dataclass(frozen=True)
class WeightMatrix:
    """A finitely supported map from input pairs to signed weights."""

    n: int
    weights: Mapping[InputPair, Weight] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for pair in self.weights:
            if not pair.fits(self.n):
                raise DimensionMismatchError(f"pair {pair} does not live in universe size {self.n}")

    @classmethod
    def from_entries(cls, n: int, entries: Iterable[tuple[str, str, Weight]]) -> WeightMatrix:
        weights = {}
        for x, y, w in entries:
            if len(x) != n:
                raise DimensionMismatchError(f"entry {x!r} does not live in universe size {n}")
            weights[InputPair.from_bits(x, y)] = w
        return cls(n, weights)

    @classmethod
    def from_mu(cls, p: MuParams, scale: Weight = Fraction(1)) -> WeightMatrix:
        """Point masses of mu(p), optionally scaled."""
        mass = scale * p.point_mass()
        return cls(p.n, {pair: mass for pair in enumerate_support(p)})

    def value(self, pair: InputPair) -> Weight:
        return self.weights.get(pair, 0)

    def items(self) -> Iterator[tuple[InputPair, Weight]]:
        return iter(self.weights.items())

    @property
    def support_size(self) -> int:
        return len(self.weights)

    def xs(self) -> list[int]:
        return sorted({pair.x for pair in self.weights})

    def ys(self) -> list[int]:
        return sorted({pair.y for pair in self.weights})

    def total(self) -> Weight:
        return sum(self.weights.values(), Fraction(0))

    def combine(self, other: WeightMatrix) -> WeightMatrix:
        """Pointwise sum of two weight maps."""
        if other.n != self.n:
            raise DimensionMismatchError(f"universe mismatch: {self.n} vs {other.n}")
        merged: dict[InputPair, Weight] = dict(self.weights)
        for pair, w in other.weights.items():
            merged[pair] = merged.get(pair, 0) + w
        return WeightMatrix(self.n, merged)

    def scale(self, factor: Weight) -> WeightMatrix:
        return WeightMatrix(self.n, {pair: factor * w for pair, w in self.weights.items()})

    def restrict(self, keep: Callable[[InputPair], bool]) -> WeightMatrix:
        return WeightMatrix(self.n, {pair: w for pair, w in self.weights.items() if keep(pair)})


def rect_weight(w: WeightMatrix, r: Rectangle) -> Weight:
    """Sum of w over the pairs of r (exact when weights are Fractions)."""
    if w.n != r.n:
        raise DimensionMismatchError(f"universe mismatch: matrix {w.n} vs rectangle {r.n}")
    total: Weight = Fraction(0)
    for pair, value in w.weights.items():
        if r.contains(pair):
            total += value
    return total


# The most cells one block of the oracle's sweep holds in each of its arrays.
# It bounds the sweep's working set at any row count; it refuses nothing.
_BLOCK_CELLS = 1 << 14


@cache
def _gray_schedule(row_count: int) -> np.ndarray:
    """The row of the signed cell matrix each Gray step gathers.

    Step s, from 1 to 2^row_count - 1, toggles row i, the lowest set bit of
    s, so s = (2k + 1) * 2^i.  Bit i of the Gray code s ^ (s >> 1) is then
    set exactly when k is even: the row turns on, and the step gathers row i;
    for odd k it turns off and gathers row i + row_count, the negated cells.
    Entry s - 1 holds step s's row, in int8: a sweep whose steps fit in
    memory has fewer than 64 rows.
    """
    schedule = np.empty((1 << row_count) - 1, dtype=np.int8)
    for i in range(row_count):
        schedule[(1 << i) - 1 :: 1 << (i + 2)] = i
        schedule[(3 << i) - 1 :: 1 << (i + 2)] = i + row_count
    schedule.setflags(write=False)
    return schedule


def _max_rectangle(w: WeightMatrix, avoid_disjoint: bool, above: Weight | None = None) -> tuple:
    """Gray-code sweep over the row subsets of the smaller side.

    For a fixed row set the best columns are exactly the admissible ones with
    positive column sum.  Every column is admissible, unless `avoid_disjoint`
    is set: then a column is admissible only while no member row is disjoint
    from it, which a per-column count of such rows tracks.  The argmax is the
    first row set in Gray order that reaches the best value, so ties keep the
    row set met first.

    The sweep runs on numpy arrays, one block of Gray steps at a time, each
    block at most `_BLOCK_CELLS` cells.  A block gathers the toggled row's
    cells with their sign (+ when the row turns on, - when it turns off) and
    takes `np.cumsum` down the steps, the previous block's last column sums
    added to its first row; the blocked counts are carried the same way.
    `cumsum` adds one step at a time, so each float column sum is the same
    IEEE value as adding and subtracting the cells one step after another.
    A step's value is a `cumsum` across its admissible positive column sums,
    in column order from zero: the left-to-right sum of those floats.

    Returns the argmax rectangle and its value.  Given a threshold `above`,
    it also returns the improving list: an iterator over every row set whose
    value exceeds `above`, as (rectangle, value) with the rectangle built as
    the argmax is, best first (a stable sort of the Gray order, so the argmax
    leads whenever it exceeds `above`).  The iterator works one block of hits
    at a time, as many as a block of steps: it takes the row sets from the
    hits' Gray codes and the column sets from their packed `taken` bits in
    numpy, and builds each `Rectangle` only when it reaches it, so a caller
    that takes a few pays for one block.

    When every weight is exact (an int or a Fraction), each cell is stored as
    the int `value * D`, D the lcm of the weights' denominators, and the best
    sum is divided by D at the end.  Scaling by D > 0 preserves every
    comparison, so the value, the argmax and the tie rule are those of the
    Fraction sweep.  The ints are int64 when the cells' absolute values sum
    below 2^62, which bounds every partial sum, and Python ints (`object`
    arrays) otherwise (`int_dtype`).
    """
    rows = w.xs()
    cols = w.ys()
    if not rows or not cols:
        empty = Rectangle.empty(w.n), Fraction(0)
        return empty if above is None else (*empty, iter(()))
    transposed = len(rows) > len(cols)
    if transposed:
        rows, cols = cols, rows
    ORACLE_SUBSETS.check(2 ** len(rows), "oracle row subsets", "shrink the support")
    exact = all(isinstance(v, (int, Fraction)) for v in w.weights.values())
    scale = lcm(*(v.denominator for v in w.weights.values())) if exact else 1
    row_index = {s: i for i, s in enumerate(rows)}
    col_index = {s: j for j, s in enumerate(cols)}
    cells = np.zeros((len(rows), len(cols)), dtype=object if exact else np.float64)
    for pair, value in w.weights.items():
        x, y = (pair.y, pair.x) if transposed else (pair.x, pair.y)
        cell = value.numerator * (scale // value.denominator) if exact else float(value)
        cells[row_index[x], col_index[y]] = cell
    total = int(np.abs(cells).sum()) if exact else 0
    if exact:
        cells = cells.astype(int_dtype(total), copy=False)
    zero: Weight = 0 if exact else 0.0
    # Row i of `signed` is row i's cells and row i + len(rows) their negation,
    # so one gather by the Gray schedule yields every step's signed delta.
    signed = np.concatenate([cells, -cells])
    if avoid_disjoint:
        disjoint = np.array([[not r & c for c in cols] for r in rows], dtype=np.intp)
        signed_disjoint = np.concatenate([disjoint, -disjoint])
    if above is None:
        bar = None
    elif exact:
        # An int exceeds the bar exactly when it exceeds the bar's floor.
        bar = min(max(floor(above * scale), -1), total)
    else:
        # A float exceeds the bar exactly when it exceeds the largest float
        # at or below it.
        bar = float(above)
        if bar > above:
            bar = nextafter(bar, -inf)

    schedule = _gray_schedule(len(rows))
    block_steps = max(1, _BLOCK_CELLS // len(cols))
    col_sums = np.zeros(len(cols), cells.dtype)
    blocked = np.zeros(len(cols), np.intp)
    best_value = zero
    best_step, best_taken = 0, None
    hit_values, hit_steps, hit_taken = [], [], []
    for start in range(0, len(schedule), block_steps):
        gather = schedule[start:start + block_steps]
        sums = signed[gather]
        sums[0] += col_sums
        np.cumsum(sums, axis=0, out=sums)
        col_sums = sums[-1].copy()
        taken = sums > 0
        if avoid_disjoint:
            counts = signed_disjoint[gather]
            counts[0] += blocked
            np.cumsum(counts, axis=0, out=counts)
            blocked = counts[-1].copy()
            taken &= counts == 0
        sums = np.where(taken, sums, zero)
        values = np.cumsum(sums, axis=1, out=sums)[:, -1]
        top = int(np.argmax(values))
        if values[top] > best_value:
            best_value, best_step, best_taken = values[top], start + top + 1, taken[top]
        if bar is not None:
            hits = np.flatnonzero(values > bar)
            hit_values.append(values[hits])
            hit_steps.append(hits + (start + 1))
            hit_taken.append(np.packbits(taken[hits], axis=1, bitorder="little"))

    row_strings = _singleton_sets(rows)
    col_strings = _singleton_sets(cols)
    row_shifts = np.arange(len(rows))

    def string_sets(steps: np.ndarray, taken: np.ndarray) -> tuple[list[int], list[int]]:
        # The row and column sets of each Gray step, with the columns its
        # line of `taken` marks.  Bit i of a Gray code stands for rows[i].
        gray = steps ^ steps >> 1
        set_rows = np.where(gray[:, None] >> row_shifts & 1, row_strings, 0).sum(axis=1).tolist()
        set_cols = np.where(taken, col_strings, 0).sum(axis=1).tolist()
        return (set_cols, set_rows) if transposed else (set_rows, set_cols)

    def weight(value) -> Weight:
        return Fraction(int(value), scale) if exact else float(value)

    if best_taken is not None:
        (set_rows,), (set_cols,) = string_sets(np.array([best_step]), best_taken[None])
        best = Rectangle(w.n, set_rows, set_cols), weight(best_value)
    else:
        best = Rectangle.empty(w.n), Fraction(0)
    if bar is None:
        return best
    found_values = np.concatenate(hit_values)
    found_steps = np.concatenate(hit_steps)
    found_taken = np.concatenate(hit_taken)
    order = np.argsort(-found_values, kind="stable")

    def improving() -> Iterator[tuple[Rectangle, Weight]]:
        # One block of hits at a time, so a caller that reads a few builds
        # the string sets of a block, not of every hit.
        for start in range(0, len(order), block_steps):
            hits = order[start:start + block_steps]
            taken = np.unpackbits(found_taken[hits], axis=1, count=len(cols), bitorder="little")
            sets = string_sets(found_steps[hits], taken.view(bool))
            for set_rows, set_cols, value in zip(*sets, found_values[hits].tolist()):
                yield Rectangle(w.n, set_rows, set_cols), weight(value)

    return (*best, improving())


def _singleton_sets(strings: list[int]) -> np.ndarray:
    """The string set of each ascending string alone, 1 << s, in an array no sum overflows."""
    return np.array([1 << s for s in strings], dtype=int_dtype(1 << strings[-1]))


def max_weight_rectangle(w: WeightMatrix, above: Weight | None = None) -> tuple:
    """Exact maximum of rect_weight over all rectangles (empty admitted, value 0).

    Given `above`, also returns the improving list of `_max_rectangle`.
    """
    return _max_rectangle(w, False, above)


def max_weight_rectangle_in_rv(w: WeightMatrix, k: int, above: Weight | None = None) -> tuple:
    """Exact maximum over rectangles admitting a size-k witness.

    Iterates candidate witness sets in lexicographic order; within one witness
    the restriction to rows and columns containing it reduces to the plain
    oracle.  Value 0 with the empty rectangle when no member has positive mass.

    Given `above`, also returns an iterator over the improving lists of every
    witness merged lazily, best first, ties in witness order, each rectangle
    once (where it was first found).  A witness's list builds a rectangle
    only when the merge reaches it.
    """
    if not 0 <= k <= w.n:
        raise ParameterRangeError(f"witness size must satisfy 0 <= k <= {w.n}, got {k}")
    best: tuple[Rectangle, Weight, WitnessSet | None] = (Rectangle.empty(w.n), Fraction(0), None)
    found_lists = []
    for witness in witness_sets(w.n, k):
        m = witness.mask
        restricted = w.restrict(lambda pair: pair.x & m == m and pair.y & m == m)
        if restricted.support_size == 0:
            continue
        rect, value, *found = max_weight_rectangle(restricted, above)
        found_lists += found
        if value > best[1]:
            best = (rect, value, witness)
    if above is None:
        return best

    def improving() -> Iterator[tuple[Rectangle, Weight]]:
        seen: set[Rectangle] = set()
        for rect, value in heapq.merge(*found_lists, key=lambda entry: entry[1], reverse=True):
            if rect not in seen:
                seen.add(rect)
                yield rect, value

    return (*best, improving())


def max_weight_rectangle_avoiding_disjoint(w: WeightMatrix, above: Weight | None = None) -> tuple:
    """Exact maximum over rectangles containing no disjoint pair.

    For a fixed row set the admissibility of a column (it must intersect
    every member row) is independent of the other columns, so the greedy
    positive-column rule still applies among admissible columns.  Given
    `above`, also returns the improving list of `_max_rectangle`.
    """
    return _max_rectangle(w, True, above)


def witness_set(r: Rectangle, k: int) -> WitnessSet | None:
    """Lexicographically smallest size-k witness of r, or None.

    A witness is a coordinate set inside x & y for every (x, y) in r.
    """
    if r.is_empty:
        raise ParameterRangeError("witness_set requires a nonempty rectangle")
    if not 0 <= k <= r.n:
        raise ParameterRangeError(f"witness size must satisfy 0 <= k <= {r.n}, got {k}")
    common = (1 << r.n) - 1
    for s in string_masks(r.rows | r.cols):
        common &= s
    coords = tuple(j + 1 for j in range(r.n) if (common >> j) & 1)
    if len(coords) < k:
        return None
    return WitnessSet(r.n, coords[:k])


def mu_mass_of_rectangle(p: MuParams, r: Rectangle) -> Fraction:
    """Exact mu(p) mass of rectangle r."""
    if r.n != p.n:
        raise DimensionMismatchError(f"universe mismatch: rectangle {r.n} vs distribution {p.n}")
    SUPPORT_PAIRS.check(r.pair_count, "rectangle pairs")
    if p.is_empty:
        return Fraction(0)
    mass = Fraction(0)
    unit = p.point_mass()
    rows = [s for s in string_masks(r.rows) if s.bit_count() == p.m]
    cols = [s for s in string_masks(r.cols) if s.bit_count() == p.m]
    for x in rows:
        for y in cols:
            if (x & y).bit_count() == p.k:
                mass += unit
    return mass


@dataclass(frozen=True)
class DecompositionReport:
    """Exact witness decomposition of a rectangle's mass at size k+1.

    The family fixes, for every size-k coordinate set I, the sub-rectangle of
    members marking all of I on both sides; each size-(k+1) intersection pair
    lies in exactly k+1 of these, giving lhs == rhs exactly.
    """

    k: int
    params: MuParams
    lhs: Fraction
    rhs: Fraction
    family: tuple[tuple[WitnessSet, Rectangle], ...]

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs


def decompose_by_witness(r: Rectangle, k: int, p: MuParams) -> DecompositionReport:
    """Check mu(p)(r) == sum_I mu(p)(r_I) / (k+1) over all size-k witness sets I."""
    if p.k != k + 1:
        raise ParameterRangeError(
            f"decomposition at witness size {k} needs intersection size {k + 1}, got {p.k}"
        )
    if r.n != p.n:
        raise DimensionMismatchError(f"universe mismatch: rectangle {r.n} vs distribution {p.n}")
    lhs = mu_mass_of_rectangle(p, r)
    family: list[tuple[WitnessSet, Rectangle]] = []
    total = Fraction(0)
    for witness in witness_sets(r.n, k):
        sub = Rectangle(r.n, r.rows & witness.strings, r.cols & witness.strings)
        family.append((witness, sub))
        total += mu_mass_of_rectangle(p, sub)
    rhs = total / (k + 1)
    return DecompositionReport(k=k, params=p, lhs=lhs, rhs=rhs, family=tuple(family))


def enumerate_rectangles(n: int, xs: Iterable[int], ys: Iterable[int]) -> Iterator[Rectangle]:
    """Every rectangle over the given axis masks of universe size n, empty ones included."""
    rows = sorted(set(xs))
    cols = sorted(set(ys))
    RECTANGLES.check(2 ** len(rows) * 2 ** len(cols), "rectangles", "shrink the axes")
    row_sets, col_sets = [0], [0]
    for s in rows:
        row_sets += [r | 1 << s for r in row_sets]
    for s in cols:
        col_sets += [c | 1 << s for c in col_sets]
    for row_set in row_sets:
        for col_set in col_sets:
            yield Rectangle(n, row_set, col_set)
