"""Combinatorial rectangles, weight matrices, and exact separation oracles.

The max-weight oracle exploits the product structure exactly: for a fixed row
set A the optimal column set is precisely the columns with positive column-sum
over A, so sweeping row subsets of the smaller side (Gray-code order, one row
toggled per step) finds the true maximum.  Weights may be Fractions or floats;
with Fractions the maximum is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Iterator, Mapping

from .caps import oracle_subset_cap, rectangle_cap, support_cap
from .combinatorics import BitString, InputPair, MuParams, enumerate_support
from .errors import CapExceededError, DimensionMismatchError, ParameterRangeError

Weight = Fraction | float | int


@dataclass(frozen=True)
class Rectangle:
    """A product set rows x cols of inputs over a common universe."""

    n: int
    rows: frozenset[BitString]
    cols: frozenset[BitString]

    def __post_init__(self) -> None:
        for s in self.rows | self.cols:
            if s.n != self.n:
                raise DimensionMismatchError(f"member {s} does not live in universe size {self.n}")

    @classmethod
    def from_bits(cls, rows: Iterable[str], cols: Iterable[str], n: int | None = None) -> Rectangle:
        row_set = frozenset(BitString.from_bits(r) for r in rows)
        col_set = frozenset(BitString.from_bits(c) for c in cols)
        if n is None:
            any_member = next(iter(row_set | col_set), None)
            if any_member is None:
                raise ParameterRangeError("empty rectangle needs an explicit universe size")
            n = any_member.n
        return cls(n, row_set, col_set)

    @classmethod
    def full(cls, n: int) -> Rectangle:
        everything = frozenset(BitString(n, m) for m in range(1 << n))
        return cls(n, everything, everything)

    @classmethod
    def empty(cls, n: int) -> Rectangle:
        return cls(n, frozenset(), frozenset())

    @property
    def is_empty(self) -> bool:
        return not self.rows or not self.cols

    @property
    def pair_count(self) -> int:
        return len(self.rows) * len(self.cols)

    def contains(self, pair: InputPair) -> bool:
        return pair.x in self.rows and pair.y in self.cols

    def pairs(self) -> Iterator[InputPair]:
        for x in sorted(self.rows):
            for y in sorted(self.cols):
                yield InputPair(x, y)

    def key(self) -> tuple:
        """Deterministic sort key."""
        return (tuple(sorted(s.mask for s in self.rows)), tuple(sorted(s.mask for s in self.cols)))

    def describe(self) -> str:
        rows = ",".join(s.bits() for s in sorted(self.rows)) or "-"
        cols = ",".join(s.bits() for s in sorted(self.cols)) or "-"
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

    def as_float(self) -> WeightMatrix:
        return WeightMatrix(self.n, {pair: float(w) for pair, w in self.weights.items()})


def rect_weight(w: WeightMatrix, r: Rectangle) -> Weight:
    """Sum of w over the pairs of r (exact when weights are Fractions)."""
    if w.n != r.n:
        raise DimensionMismatchError(f"universe mismatch: matrix {w.n} vs rectangle {r.n}")
    total: Weight = Fraction(0)
    for pair, value in w.weights.items():
        if r.contains(pair):
            total += value
    return total


def _max_rectangle(w: WeightMatrix, cap: int | None, avoid_disjoint: bool) -> tuple[Rectangle, Weight]:
    """Gray-code sweep over the row subsets of the smaller side.

    For a fixed row set the best columns are exactly the admissible ones with
    positive column sum.  Every column is admissible, unless `avoid_disjoint`
    is set: then a column is admissible only while no member row is disjoint
    from it, which a per-column count of such rows tracks.  The column set is
    built only when the best value improves, so ties keep the row set met
    first in Gray order.
    """
    rows = w.xs()
    cols = w.ys()
    if not rows or not cols:
        return Rectangle.empty(w.n), Fraction(0)
    transposed = len(rows) > len(cols)
    if transposed:
        rows, cols = cols, rows
    limit = oracle_subset_cap() if cap is None else cap
    if 2 ** len(rows) > limit:
        raise CapExceededError(
            f"{2 ** len(rows)} row subsets exceed the oracle cap {limit}; "
            "shrink the support or raise RECTBOUND_ORACLE_SUBSET_CAP"
        )
    row_index = {s: i for i, s in enumerate(rows)}
    col_index = {s: j for j, s in enumerate(cols)}
    row_cells: list[list[tuple[int, Weight]]] = [[] for _ in rows]
    for pair, value in w.weights.items():
        x, y = (pair.y, pair.x) if transposed else (pair.x, pair.y)
        row_cells[row_index[x]].append((col_index[y], value))
    row_disjoint = [
        [j for j, c in enumerate(cols) if not r.mask & c.mask] if avoid_disjoint else [] for r in rows
    ]
    col_sums: list[Weight] = [Fraction(0)] * len(cols)
    blocked = [0] * len(cols)
    row_set = 0
    best_value: Weight = Fraction(0)
    best_rows = best_cols = frozenset()
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
        value = sum([s for s, b in zip(col_sums, blocked) if not b and s > 0], Fraction(0))
        if value > best_value:
            best_value = value
            best_rows = frozenset(r for p, r in enumerate(rows) if row_set >> p & 1)
            best_cols = frozenset(c for c, s, b in zip(cols, col_sums, blocked) if not b and s > 0)
    if best_value <= 0:
        return Rectangle.empty(w.n), Fraction(0)
    if transposed:
        best_rows, best_cols = best_cols, best_rows
    return Rectangle(w.n, best_rows, best_cols), best_value


def max_weight_rectangle(w: WeightMatrix, cap: int | None = None) -> tuple[Rectangle, Weight]:
    """Exact maximum of rect_weight over all rectangles (empty admitted, value 0)."""
    return _max_rectangle(w, cap, avoid_disjoint=False)


def max_weight_rectangle_in_rv(
    w: WeightMatrix, k: int, cap: int | None = None
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
        rect, value = max_weight_rectangle(restricted, cap=cap)
        if value > best[1]:
            best = (rect, value, witness)
    return best


def max_weight_rectangle_avoiding_disjoint(
    w: WeightMatrix, cap: int | None = None
) -> tuple[Rectangle, Weight]:
    """Exact maximum over rectangles containing no disjoint pair.

    For a fixed row set the admissibility of a column (it must intersect
    every member row) is independent of the other columns, so the greedy
    positive-column rule still applies among admissible columns.
    """
    return _max_rectangle(w, cap, avoid_disjoint=True)


def witness_set(r: Rectangle, k: int) -> WitnessSet | None:
    """Lexicographically smallest size-k witness of r, or None.

    A witness is a coordinate set inside x & y for every (x, y) in r.
    """
    if r.is_empty:
        raise ParameterRangeError("witness_set requires a nonempty rectangle")
    if not 0 <= k <= r.n:
        raise ParameterRangeError(f"witness size must satisfy 0 <= k <= {r.n}, got {k}")
    common = (1 << r.n) - 1
    for s in r.rows:
        common &= s.mask
    for s in r.cols:
        common &= s.mask
    coords = tuple(j + 1 for j in range(r.n) if (common >> j) & 1)
    if len(coords) < k:
        return None
    return WitnessSet(r.n, coords[:k])


def mu_mass_of_rectangle(p: MuParams, r: Rectangle, cap: int | None = None) -> Fraction:
    """Exact mu(p) mass of rectangle r."""
    if r.n != p.n:
        raise DimensionMismatchError(f"universe mismatch: rectangle {r.n} vs distribution {p.n}")
    limit = support_cap() if cap is None else cap
    if r.pair_count > limit:
        raise CapExceededError(f"rectangle has {r.pair_count} pairs, cap is {limit}")
    if p.is_empty:
        return Fraction(0)
    mass = Fraction(0)
    unit = p.point_mass()
    rows = [s for s in r.rows if s.weight == p.m]
    cols = [s for s in r.cols if s.weight == p.m]
    for x in rows:
        for y in cols:
            if (x.mask & y.mask).bit_count() == p.k:
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


def decompose_by_witness(
    r: Rectangle, k: int, p: MuParams, cap: int | None = None
) -> DecompositionReport:
    """Check mu(p)(r) == sum_I mu(p)(r_I) / (k+1) over all size-k witness sets I."""
    if p.k != k + 1:
        raise ParameterRangeError(
            f"decomposition at witness size {k} needs intersection size {k + 1}, got {p.k}"
        )
    if r.n != p.n:
        raise DimensionMismatchError(f"universe mismatch: rectangle {r.n} vs distribution {p.n}")
    lhs = mu_mass_of_rectangle(p, r, cap=cap)
    family: list[tuple[WitnessSet, Rectangle]] = []
    total = Fraction(0)
    for witness in witness_sets(r.n, k):
        mask = witness.mask
        sub = Rectangle(
            r.n,
            frozenset(s for s in r.rows if s.mask & mask == mask),
            frozenset(s for s in r.cols if s.mask & mask == mask),
        )
        family.append((witness, sub))
        total += mu_mass_of_rectangle(p, sub, cap=cap)
    rhs = total / (k + 1)
    return DecompositionReport(k=k, params=p, lhs=lhs, rhs=rhs, family=tuple(family))


def _subsets(items: list[BitString]) -> Iterator[frozenset[BitString]]:
    for count in range(len(items) + 1):
        for combo in combinations(items, count):
            yield frozenset(combo)


def enumerate_rectangles(
    xs: Iterable[BitString], ys: Iterable[BitString], cap: int | None = None
) -> Iterator[Rectangle]:
    """Every rectangle over the given axis labels, empty ones included."""
    rows = sorted(set(xs))
    cols = sorted(set(ys))
    if not rows and not cols:
        raise ParameterRangeError("cannot infer a universe from empty label sets")
    n = (rows or cols)[0].n
    limit = rectangle_cap() if cap is None else cap
    count = 2 ** len(rows) * 2 ** len(cols)
    if count > limit:
        raise CapExceededError(
            f"{count} rectangles exceed the enumeration cap {limit}; "
            "shrink the axes or raise RECTBOUND_RECTANGLE_CAP"
        )
    for row_set in _subsets(rows):
        for col_set in _subsets(cols):
            yield Rectangle(n, row_set, col_set)


def all_strings(n: int) -> list[BitString]:
    return [BitString(n, m) for m in range(1 << n)]
