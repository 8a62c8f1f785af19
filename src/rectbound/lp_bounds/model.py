"""LP instances over rectangle variables, and the builders for each bound.

All programs minimize the total rectangle weight subject to per-pair rows.
Constraint classes:

* cover      coverage >= rhs   (the pairs the program must hit)
* partition  coverage <= rhs   (the pairs whose total weight is capped)
* error      coverage <= rhs   (allowed false mass on 0-pairs)

A pair appears at most once per class.  The variable family is either every
rectangle, the rectangles admitting a size-k witness, or the rectangles
containing no disjoint pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..combinatorics import InputPair
from ..errors import KindMismatchError, ParameterRangeError
from ..rectangles import (
    Rectangle,
    Weight,
    WeightMatrix,
    WitnessSet,
    enumerate_rectangles,
    max_weight_rectangle,
    max_weight_rectangle_avoiding_disjoint,
    max_weight_rectangle_in_rv,
    string_masks,
    witness_set,
    witness_sets,
)
from ..truth_tables import TruthTable

SENSE_GE = ">="
SENSE_LE = "<="

CLASS_COVER = "cover"
CLASS_PARTITION = "partition"
CLASS_ERROR = "error"

KIND_SEARCH = "search"
KIND_LOVASZ = "lovasz"
KIND_SMOOTH = "smooth"

FAMILY_FULL = "full"
FAMILY_WITNESS = "witness"
FAMILY_AVOID_DISJOINT = "avoid-disjoint"


def as_fraction(value, name: str) -> Fraction:
    if isinstance(value, float):
        raise ParameterRangeError(
            f"{name} must be an exact rational (int, Fraction, or 'p/q' string), got float {value}"
        )
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value)
    raise ParameterRangeError(f"{name} must be an exact rational, got {type(value).__name__}")


def error_rate(eps) -> Fraction:
    """eps as an exact rational, refused outside [0, 1/2)."""
    eps_f = as_fraction(eps, "eps")
    if not 0 <= eps_f < Fraction(1, 2):
        raise ParameterRangeError(f"eps must lie in [0, 1/2), got {eps_f}")
    return eps_f


def pow2(exponent: Fraction, what: str) -> Fraction:
    """2^exponent, refused unless the exponent is an integer (so it stays exact)."""
    if exponent.denominator != 1:
        raise ParameterRangeError(
            f"{what} must be an integer so 2^({what}) stays an exact rational, got {exponent}"
        )
    return Fraction(2) ** int(exponent)


@dataclass(frozen=True)
class RectangleFamily:
    """Descriptor of the rectangle variable family of an LP."""

    kind: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (FAMILY_FULL, FAMILY_WITNESS, FAMILY_AVOID_DISJOINT):
            raise ParameterRangeError(f"unknown family kind {self.kind!r}")
        if self.kind == FAMILY_WITNESS:
            if self.k is None or self.k < 0:
                raise ParameterRangeError("witness family needs a nonnegative witness size k")
        elif self.k is not None:
            raise ParameterRangeError(f"family kind {self.kind!r} takes no witness size")

    def describe(self) -> str:
        if self.kind == FAMILY_WITNESS:
            return f"witness({self.k})"
        return self.kind

    def contains(self, r: Rectangle) -> bool:
        if r.is_empty:
            return True
        if self.kind == FAMILY_FULL:
            return True
        if self.kind == FAMILY_WITNESS:
            k = self.k or 0
            return k <= r.n and witness_set(r, k) is not None
        for x in string_masks(r.rows):
            for y in string_masks(r.cols):
                if x & y == 0:
                    return False
        return True

    def blocks(self, n: int) -> list[tuple[WitnessSet | None, int]]:
        """The string sets every member rectangle lies in, on both sides.

        The witness family has one block per size-k witness set, in
        lexicographic order: the strings marking all its coordinates, with
        that witness.  Every other family has one block, the whole universe,
        with no witness.
        """
        if self.kind == FAMILY_WITNESS:
            return [(witness, witness.strings) for witness in witness_sets(n, self.k or 0)]
        return [(None, (1 << (1 << n)) - 1)]

    def members(self, n: int) -> list[Rectangle]:
        """All nonempty member rectangles, deterministically ordered."""
        labels = [list(string_masks(strings)) for _, strings in self.blocks(n)]
        out = {
            rect
            for members in labels
            for rect in enumerate_rectangles(n, members, members)
            if not rect.is_empty and self.contains(rect)
        }
        return sorted(out, key=Rectangle.key)

    def separation_oracle(self, w: WeightMatrix, above: Weight | None = None) -> tuple:
        """Exact max-weight member rectangle for the given dual weights.

        Returns the rectangle, its value and its witness (None outside the
        witness family).  Given a threshold `above`, also returns the
        improving list, an iterator: every member rectangle the oracle's
        sweep meets whose value exceeds `above`, with its value, best first,
        each rectangle built only when the iterator reaches it.
        """
        if self.kind == FAMILY_WITNESS:
            return max_weight_rectangle_in_rv(w, self.k or 0, above)
        if self.kind == FAMILY_FULL:
            rect, value, *improving = max_weight_rectangle(w, above)
        else:
            rect, value, *improving = max_weight_rectangle_avoiding_disjoint(w, above)
        return (rect, value, None, *improving)


FULL_FAMILY = RectangleFamily(FAMILY_FULL)


def witness_family(k: int) -> RectangleFamily:
    return RectangleFamily(FAMILY_WITNESS, k)


def avoid_disjoint_family() -> RectangleFamily:
    return RectangleFamily(FAMILY_AVOID_DISJOINT)


@dataclass(frozen=True)
class PairConstraint:
    pair: InputPair
    sense: str
    rhs: Fraction
    klass: str

    def __post_init__(self) -> None:
        if self.sense not in (SENSE_GE, SENSE_LE):
            raise ParameterRangeError(f"unknown sense {self.sense!r}")
        if self.klass not in (CLASS_COVER, CLASS_PARTITION, CLASS_ERROR):
            raise ParameterRangeError(f"unknown constraint class {self.klass!r}")

    def describe(self) -> str:
        return f"{self.pair} {self.sense} {self.rhs} [{self.klass}]"


@dataclass(frozen=True)
class LPInstance:
    """min sum of rectangle weights subject to per-pair constraint rows."""

    kind: str
    n: int
    family: RectangleFamily
    constraints: tuple[PairConstraint, ...]
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        seen: set[tuple[InputPair, str]] = set()
        for c in self.constraints:
            if not c.pair.fits(self.n):
                raise ParameterRangeError(f"constraint pair {c.pair} outside universe size {self.n}")
            key = (c.pair, c.klass)
            if key in seen:
                raise ParameterRangeError(f"pair {c.pair} appears twice in class {c.klass}")
            seen.add(key)

    def rows_of_class(self, klass: str) -> tuple[PairConstraint, ...]:
        return tuple(c for c in self.constraints if c.klass == klass)

    def param(self, name: str, default=None):
        return self.params.get(name, default)


def coverage_matrix(pairs: Sequence[InputPair], rects: Sequence[Rectangle]) -> np.ndarray:
    """The pairs x rectangles membership: entry (i, j) is True when rects[j] contains pairs[i].

    This is the one coverage routine: the LP rows, their presolve, the
    column-generation master and the residuals all read it.  Each side of
    each rectangle is unpacked into one uint8 bit per string, so a string
    set of any width (past 62 bits from n = 6 on) fits without overflow; a
    pair is covered where the row-set bit at its x and the column-set bit at
    its y are both set.
    """
    if not rects:
        return np.zeros((len(pairs), 0), dtype=bool)
    width = max(1, (1 << rects[0].n) // 8)

    def string_bits(sides: Iterable[int]) -> np.ndarray:
        packed = b"".join(side.to_bytes(width, "little") for side in sides)
        lines = np.frombuffer(packed, np.uint8).reshape(len(rects), width)
        return np.unpackbits(lines, axis=1, bitorder="little").view(bool)

    xs = np.fromiter((pair.x for pair in pairs), np.intp, len(pairs))
    ys = np.fromiter((pair.y for pair in pairs), np.intp, len(pairs))
    rows = string_bits(rect.rows for rect in rects)
    cols = string_bits(rect.cols for rect in rects)
    return (rows[:, xs] & cols[:, ys]).T


# The most pair x rectangle cells `max_violation` covers at once.  It bounds
# the check's working set at any universe size; it refuses nothing.
_COVER_CELLS = 1 << 18


def max_violation(lp: LPInstance, weights: Mapping[Rectangle, object]):
    """The largest amount by which the weighted rectangles miss a row, or 0.

    When every weight is exact (an int or a Fraction), the weights are summed
    exactly, in column order, and the answer is a Fraction; otherwise each
    row's coverage is summed in float64, one matrix product per block of
    rows, and the answer is a float.
    """
    rects = list(weights)
    values = list(weights.values())
    exact = all(isinstance(v, (int, Fraction)) for v in values)
    if not exact:
        values = np.array(values, dtype=np.float64)
    block = max(1, _COVER_CELLS // max(1, len(rects)))
    worst = Fraction(0) if exact else 0.0
    for start in range(0, len(lp.constraints), block):
        rows = lp.constraints[start:start + block]
        cover = coverage_matrix([c.pair for c in rows], rects)
        if exact:
            coverage = [sum(values[j] for j in np.flatnonzero(line).tolist()) for line in cover]
        else:
            coverage = (cover @ values).tolist()
        for c, covered in zip(rows, coverage):
            gap = c.rhs - covered if c.sense == SENSE_GE else covered - c.rhs
            if gap > worst:
                worst = gap
    return worst


def _all_pairs(n: int) -> Iterator[InputPair]:
    for xm in range(1 << n):
        for ym in range(1 << n):
            yield InputPair(xm, ym)


def build_search_lp(n: int, k: int, sigma) -> LPInstance:
    """Cover program for finding a size-k certified intersection.

    Pairs meeting in exactly k coordinates must be covered with weight at
    least sigma; pairs meeting in more than k coordinates carry total weight
    at most 1.  The variables are the size-k witness family, whose
    rectangles hold no pair meeting in fewer than k coordinates, so those
    pairs get no row.
    """
    if not 0 <= k <= n:
        raise ParameterRangeError(f"need 0 <= k <= n, got k={k}, n={n}")
    sigma_f = as_fraction(sigma, "sigma")
    if not 0 <= sigma_f <= 1:
        raise ParameterRangeError(f"sigma must lie in [0, 1], got {sigma_f}")
    constraints: list[PairConstraint] = []
    for pair in _all_pairs(n):
        meet = pair.intersection_size
        if meet == k:
            constraints.append(PairConstraint(pair, SENSE_GE, sigma_f, CLASS_COVER))
        elif meet > k:
            constraints.append(PairConstraint(pair, SENSE_LE, Fraction(1), CLASS_PARTITION))
    return LPInstance(
        kind=KIND_SEARCH,
        n=n,
        family=witness_family(k),
        constraints=tuple(constraints),
        params={"k": k, "sigma": sigma_f},
    )


def build_lovasz_lp(f: TruthTable, eps) -> LPInstance:
    """Rectangle cover of the 1-pairs with error mass eps allowed on 0-pairs."""
    eps_f = error_rate(eps)
    constraints: list[PairConstraint] = []
    for pair, value in f.pairs():
        if value:
            constraints.append(PairConstraint(pair, SENSE_GE, 1 - eps_f, CLASS_COVER))
        else:
            constraints.append(PairConstraint(pair, SENSE_LE, eps_f, CLASS_ERROR))
    return LPInstance(
        kind=KIND_LOVASZ,
        n=f.n,
        family=FULL_FAMILY,
        constraints=tuple(constraints),
        params={"eps": eps_f},
    )


def build_smooth_lp(f: TruthTable, eps) -> LPInstance:
    """Lovasz rows plus a weight cap of 1 on every 1-pair."""
    base = build_lovasz_lp(f, eps)
    extra = [
        PairConstraint(c.pair, SENSE_LE, Fraction(1), CLASS_PARTITION)
        for c in base.constraints
        if c.klass == CLASS_COVER
    ]
    return LPInstance(
        kind=KIND_SMOOTH,
        n=f.n,
        family=FULL_FAMILY,
        constraints=base.constraints + tuple(extra),
        params=dict(base.params),
    )


def apply_ambiguity_variant(lp: LPInstance, eps_rate, k: int) -> LPInstance:
    """Relax the partition rows of a search program to 2^(eps_rate * k).

    eps_rate * k must be a nonnegative integer so the right-hand side stays an
    exact rational power of two.
    """
    if lp.kind != KIND_SEARCH:
        raise KindMismatchError(f"ambiguity variant applies to search programs, got {lp.kind!r}")
    rate = as_fraction(eps_rate, "eps_rate")
    if rate < 0:
        raise ParameterRangeError(f"ambiguity rate must be nonnegative, got {rate}")
    rhs = pow2(rate * k, "eps_rate * k")
    new_rows = tuple(
        replace(c, rhs=rhs) if c.klass == CLASS_PARTITION else c for c in lp.constraints
    )
    params = dict(lp.params)
    params["ambiguity_rate"] = rate
    params["ambiguity_rhs"] = rhs
    return LPInstance(kind=lp.kind, n=lp.n, family=lp.family, constraints=new_rows, params=params)
