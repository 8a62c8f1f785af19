"""LP instances over rectangle variables, and the builders for each bound.

All programs minimize the total rectangle weight subject to per-pair rows.
Constraint classes:

* cover      coverage >= rhs   (the pairs the program must hit)
* partition  coverage <= rhs   (the pairs whose total weight is capped)
* error      coverage <= rhs   (allowed false mass on 0-pairs)
* zero       coverage == 0     (optional exclusion rows over the full family)

A pair appears at most once per class.  The variable family is either every
rectangle, the rectangles admitting a size-k witness, or the rectangles
containing no disjoint pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from numbers import Rational
from typing import Iterator, Mapping, Sequence

from ..combinatorics import BitString, InputPair
from ..errors import KindMismatchError, ParameterRangeError
from ..rectangles import (
    Rectangle,
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
SENSE_EQ = "=="

CLASS_COVER = "cover"
CLASS_PARTITION = "partition"
CLASS_ERROR = "error"
CLASS_ZERO = "zero"

KIND_SEARCH = "search"
KIND_LOVASZ = "lovasz"
KIND_SMOOTH = "smooth"

FAMILY_FULL = "full"
FAMILY_WITNESS = "witness"
FAMILY_AVOID_DISJOINT = "avoid-disjoint"


def _as_fraction(value, name: str) -> Fraction:
    if isinstance(value, float):
        raise ParameterRangeError(
            f"{name} must be an exact rational (int, Fraction, or 'p/q' string), got float {value}"
        )
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value)
    raise ParameterRangeError(f"{name} must be an exact rational, got {type(value).__name__}")


def _pow2(exponent: Fraction, what: str) -> Fraction:
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

    def members(self, n: int) -> list[Rectangle]:
        """All nonempty member rectangles, deterministically ordered."""
        if self.kind == FAMILY_WITNESS:
            string_sets = [witness.strings for witness in witness_sets(n, self.k or 0)]
        else:
            string_sets = [(1 << (1 << n)) - 1]
        labels = [[BitString(n, s) for s in string_masks(strings)] for strings in string_sets]
        out = {
            rect
            for members in labels
            for rect in enumerate_rectangles(members, members)
            if not rect.is_empty and self.contains(rect)
        }
        return sorted(out, key=Rectangle.key)

    def separation_oracle(self, w: WeightMatrix) -> tuple[Rectangle, object, WitnessSet | None]:
        """Exact max-weight member rectangle for the given dual weights."""
        if self.kind == FAMILY_FULL:
            rect, value = max_weight_rectangle(w)
            return rect, value, None
        if self.kind == FAMILY_WITNESS:
            return max_weight_rectangle_in_rv(w, self.k or 0)
        rect, value = max_weight_rectangle_avoiding_disjoint(w)
        return rect, value, None


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
        if self.sense not in (SENSE_GE, SENSE_LE, SENSE_EQ):
            raise ParameterRangeError(f"unknown sense {self.sense!r}")
        if self.klass not in (CLASS_COVER, CLASS_PARTITION, CLASS_ERROR, CLASS_ZERO):
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
            if c.pair.n != self.n:
                raise ParameterRangeError(f"constraint pair {c.pair} outside universe size {self.n}")
            key = (c.pair, c.klass)
            if key in seen:
                raise ParameterRangeError(f"pair {c.pair} appears twice in class {c.klass}")
            seen.add(key)

    def rows_of_class(self, klass: str) -> tuple[PairConstraint, ...]:
        return tuple(c for c in self.constraints if c.klass == klass)

    def param(self, name: str, default=None):
        return self.params.get(name, default)


def covering_columns(pairs: Sequence[InputPair], rects: Sequence[Rectangle]) -> list[list[int]]:
    """For each pair, the ascending indices of the rectangles containing it.

    This is the one coverage routine: the LP rows, their presolve and their
    residuals all read it.  Each string (keyed by its mask, as all pairs and
    rectangles share one universe) maps to the bitmask of rectangles having
    it as a row, or as a column; a pair's cover is the AND of the two.
    """
    row_bits: dict[int, int] = {}
    col_bits: dict[int, int] = {}
    for j, rect in enumerate(rects):
        bit = 1 << j
        for s in string_masks(rect.rows):
            row_bits[s] = row_bits.get(s, 0) | bit
        for s in string_masks(rect.cols):
            col_bits[s] = col_bits.get(s, 0) | bit
    out = []
    for pair in pairs:
        both = row_bits.get(pair.x.mask, 0) & col_bits.get(pair.y.mask, 0)
        cover = []
        while both:
            low = both & -both
            cover.append(low.bit_length() - 1)
            both ^= low
        out.append(cover)
    return out


def max_violation(lp: LPInstance, weights: Mapping[Rectangle, object], zero):
    """The largest amount by which the weighted rectangles miss a row, or `zero`."""
    values = list(weights.values())
    covers = covering_columns([c.pair for c in lp.constraints], list(weights))
    worst = zero
    for c, cover in zip(lp.constraints, covers):
        coverage = sum(values[j] for j in cover)
        if c.sense == SENSE_GE:
            gap = c.rhs - coverage
        elif c.sense == SENSE_LE:
            gap = coverage - c.rhs
        else:
            gap = abs(coverage - c.rhs)
        if gap > worst:
            worst = gap
    return worst


def _all_pairs(n: int) -> Iterator[InputPair]:
    for xm in range(1 << n):
        for ym in range(1 << n):
            yield InputPair(BitString(n, xm), BitString(n, ym))


def build_search_lp(
    n: int,
    k: int,
    sigma,
    family: RectangleFamily | None = None,
    include_zero_class: bool = False,
) -> LPInstance:
    """Cover program for finding a size-k certified intersection.

    Pairs meeting in exactly k coordinates must be covered with weight at
    least sigma; pairs meeting in more than k coordinates carry total weight
    at most 1.  The default variable family is the size-k witness family,
    over which exclusion rows for pairs meeting in fewer than k coordinates
    are vacuous; `include_zero_class` re-enables them for full-family
    cross-checks.
    """
    if not 0 <= k <= n:
        raise ParameterRangeError(f"need 0 <= k <= n, got k={k}, n={n}")
    sigma_f = _as_fraction(sigma, "sigma")
    if not 0 <= sigma_f <= 1:
        raise ParameterRangeError(f"sigma must lie in [0, 1], got {sigma_f}")
    fam = witness_family(k) if family is None else family
    if include_zero_class and fam.kind == FAMILY_WITNESS and (fam.k or 0) >= k:
        raise ParameterRangeError(
            "exclusion rows are vacuous over the witness family; use the full family"
        )
    constraints: list[PairConstraint] = []
    for pair in _all_pairs(n):
        meet = pair.intersection_size
        if meet == k:
            constraints.append(PairConstraint(pair, SENSE_GE, sigma_f, CLASS_COVER))
        elif meet > k:
            constraints.append(PairConstraint(pair, SENSE_LE, Fraction(1), CLASS_PARTITION))
        elif include_zero_class:
            constraints.append(PairConstraint(pair, SENSE_EQ, Fraction(0), CLASS_ZERO))
    return LPInstance(
        kind=KIND_SEARCH,
        n=n,
        family=fam,
        constraints=tuple(constraints),
        params={"k": k, "sigma": sigma_f},
    )


def build_lovasz_lp(f: TruthTable, eps) -> LPInstance:
    """Rectangle cover of the 1-pairs with error mass eps allowed on 0-pairs."""
    eps_f = _as_fraction(eps, "eps")
    if not 0 <= eps_f < Fraction(1, 2):
        raise ParameterRangeError(f"eps must lie in [0, 1/2), got {eps_f}")
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
    rate = _as_fraction(eps_rate, "eps_rate")
    if rate < 0:
        raise ParameterRangeError(f"ambiguity rate must be nonnegative, got {rate}")
    rhs = _pow2(rate * k, "eps_rate * k")
    new_rows = tuple(
        replace(c, rhs=rhs) if c.klass == CLASS_PARTITION else c for c in lp.constraints
    )
    params = dict(lp.params)
    params["ambiguity_rate"] = rate
    params["ambiguity_rhs"] = rhs
    return LPInstance(kind=lp.kind, n=lp.n, family=lp.family, constraints=new_rows, params=params)
