"""Combinatorial rectangles, weight matrices, and exact separation oracles.

The max-weight oracle exploits the product structure exactly: for a fixed row
set A the optimal column set is precisely the columns with positive column-sum
over A, so sweeping row subsets of the smaller side (Gray-code order, one row
toggled per step) finds the true maximum.  Weights may be Fractions, ints or
floats.  Exact weights (ints and Fractions) are swept as Python ints scaled by
their common denominator, which gives the same exact maximum as a Fraction
sweep; weights that include a float are swept as given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Callable, Iterable, Iterator, Mapping

from .caps import oracle_subset_cap, rectangle_cap, support_cap
from .combinatorics import BitString, InputPair, MuParams, enumerate_support
from .errors import CapExceededError, DimensionMismatchError, ParameterRangeError

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
        row_strings = [BitString.from_bits(r) for r in rows]
        col_strings = [BitString.from_bits(c) for c in cols]
        if n is None:
            if not row_strings and not col_strings:
                raise ParameterRangeError("empty rectangle needs an explicit universe size")
            n = (row_strings or col_strings)[0].n
        for s in row_strings + col_strings:
            if s.n != n:
                raise DimensionMismatchError(f"member {s} does not live in universe size {n}")
        row_set = sum(1 << s.mask for s in set(row_strings))
        col_set = sum(1 << s.mask for s in set(col_strings))
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
        return bool(self.rows >> pair.x.mask & 1 and self.cols >> pair.y.mask & 1)

    def pairs(self) -> Iterator[InputPair]:
        for x in string_masks(self.rows):
            for y in string_masks(self.cols):
                yield InputPair(BitString(self.n, x), BitString(self.n, y))

    def key(self) -> tuple:
        """Deterministic sort key: the member masks of each side, ascending."""
        return (tuple(string_masks(self.rows)), tuple(string_masks(self.cols)))

    def describe(self) -> str:
        rows = ",".join(BitString(self.n, s).bits() for s in string_masks(self.rows)) or "-"
        cols = ",".join(BitString(self.n, s).bits() for s in string_masks(self.cols)) or "-"
        return f"{{{rows}}}x{{{cols}}}"


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
    def size(self) -> int:
        return len(self.coords)

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
            if pair.n != self.n:
                raise DimensionMismatchError(f"pair {pair} does not live in universe size {self.n}")

    @classmethod
    def from_entries(cls, n: int, entries: Iterable[tuple[str, str, Weight]]) -> WeightMatrix:
        weights = {InputPair.from_bits(x, y): w for x, y, w in entries}
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

    def xs(self) -> list[BitString]:
        return sorted({pair.x for pair in self.weights})

    def ys(self) -> list[BitString]:
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


def _max_rectangle(w: WeightMatrix, avoid_disjoint: bool) -> tuple[Rectangle, Weight]:
    """Gray-code sweep over the row subsets of the smaller side.

    For a fixed row set the best columns are exactly the admissible ones with
    positive column sum.  Every column is admissible, unless `avoid_disjoint`
    is set: then a column is admissible only while no member row is disjoint
    from it, which a per-column count of such rows tracks.  The column set is
    built only when the best value improves, so ties keep the row set met
    first in Gray order.

    When every weight is exact (an int or a Fraction), each cell is stored as
    the int `value * D`, D the lcm of the weights' denominators, and the best
    sum is divided by D at the end.  Scaling by D > 0 preserves every
    comparison, so the value, the argmax and the tie rule are those of the
    Fraction sweep.
    """
    rows = w.xs()
    cols = w.ys()
    if not rows or not cols:
        return Rectangle.empty(w.n), Fraction(0)
    transposed = len(rows) > len(cols)
    if transposed:
        rows, cols = cols, rows
    limit = oracle_subset_cap()
    if 2 ** len(rows) > limit:
        raise CapExceededError(
            f"{2 ** len(rows)} row subsets exceed the oracle cap {limit}; "
            "shrink the support or raise RECTBOUND_ORACLE_SUBSET_CAP"
        )
    exact = all(isinstance(v, (int, Fraction)) for v in w.weights.values())
    scale = lcm(*(v.denominator for v in w.weights.values())) if exact else 1
    zero: Weight = 0 if exact else Fraction(0)
    row_index = {s: i for i, s in enumerate(rows)}
    col_index = {s: j for j, s in enumerate(cols)}
    row_cells: list[list[tuple[int, Weight]]] = [[] for _ in rows]
    for pair, value in w.weights.items():
        x, y = (pair.y, pair.x) if transposed else (pair.x, pair.y)
        cell = value.numerator * (scale // value.denominator) if exact else value
        row_cells[row_index[x]].append((col_index[y], cell))
    row_disjoint = [
        [j for j, c in enumerate(cols) if not r.mask & c.mask] if avoid_disjoint else [] for r in rows
    ]
    col_sums: list[Weight] = [zero] * len(cols)
    blocked = [0] * len(cols)
    row_set = 0
    best_value: Weight = zero
    best_rows = best_cols = 0
    for step in range(1, 1 << len(rows)):
        # Gray code: toggle the lowest set bit position of `step`.
        i = (step & -step).bit_length() - 1
        row_set ^= 1 << i
        if row_set >> i & 1:
            delta = 1
            for j, v in row_cells[i]:
                col_sums[j] += v
        else:
            delta = -1
            for j, v in row_cells[i]:
                col_sums[j] -= v
        for j in row_disjoint[i]:
            blocked[j] += delta
        value = sum([s for s, b in zip(col_sums, blocked) if not b and s > 0], zero)
        if value > best_value:
            best_value = value
            best_rows = sum(1 << r.mask for p, r in enumerate(rows) if row_set >> p & 1)
            best_cols = sum(
                1 << c.mask for c, s, b in zip(cols, col_sums, blocked) if not b and s > 0
            )
    if best_value <= 0:
        return Rectangle.empty(w.n), Fraction(0)
    if transposed:
        best_rows, best_cols = best_cols, best_rows
    if exact:
        best_value = Fraction(best_value, scale)
    return Rectangle(w.n, best_rows, best_cols), best_value


def max_weight_rectangle(w: WeightMatrix) -> tuple[Rectangle, Weight]:
    """Exact maximum of rect_weight over all rectangles (empty admitted, value 0)."""
    return _max_rectangle(w, avoid_disjoint=False)


def max_weight_rectangle_in_rv(
    w: WeightMatrix, k: int
) -> tuple[Rectangle, Weight, WitnessSet | None]:
    """Exact maximum over rectangles admitting a size-k witness.

    Iterates candidate witness sets in lexicographic order; within one witness
    the restriction to rows and columns containing it reduces to the plain
    oracle.  Value 0 with the empty rectangle when no member has positive mass.
    """
    if not 0 <= k <= w.n:
        raise ParameterRangeError(f"witness size must satisfy 0 <= k <= {w.n}, got {k}")
    best: tuple[Rectangle, Weight, WitnessSet | None] = (Rectangle.empty(w.n), Fraction(0), None)
    for witness in witness_sets(w.n, k):
        m = witness.mask
        restricted = w.restrict(lambda pair: pair.x.mask & m == m and pair.y.mask & m == m)
        if restricted.support_size == 0:
            continue
        rect, value = max_weight_rectangle(restricted)
        if value > best[1]:
            best = (rect, value, witness)
    return best


def max_weight_rectangle_avoiding_disjoint(w: WeightMatrix) -> tuple[Rectangle, Weight]:
    """Exact maximum over rectangles containing no disjoint pair.

    For a fixed row set the admissibility of a column (it must intersect
    every member row) is independent of the other columns, so the greedy
    positive-column rule still applies among admissible columns.
    """
    return _max_rectangle(w, avoid_disjoint=True)


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
    limit = support_cap()
    if r.pair_count > limit:
        raise CapExceededError(f"rectangle has {r.pair_count} pairs, cap is {limit}")
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


def enumerate_rectangles(xs: Iterable[BitString], ys: Iterable[BitString]) -> Iterator[Rectangle]:
    """Every rectangle over the given axis labels, empty ones included."""
    rows = sorted(set(xs))
    cols = sorted(set(ys))
    if not rows and not cols:
        raise ParameterRangeError("cannot infer a universe from empty label sets")
    n = (rows or cols)[0].n
    if any(s.n != n for s in rows + cols):
        raise DimensionMismatchError(f"axis labels do not share universe size {n}")
    limit = rectangle_cap()
    count = 2 ** len(rows) * 2 ** len(cols)
    if count > limit:
        raise CapExceededError(
            f"{count} rectangles exceed the enumeration cap {limit}; "
            "shrink the axes or raise RECTBOUND_RECTANGLE_CAP"
        )
    row_sets, col_sets = [0], [0]
    for s in rows:
        row_sets += [r | 1 << s.mask for r in row_sets]
    for s in cols:
        col_sets += [c | 1 << s.mask for c in col_sets]
    for row_set in row_sets:
        for col_set in col_sets:
            yield Rectangle(n, row_set, col_set)
