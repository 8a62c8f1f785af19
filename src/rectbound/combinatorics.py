"""Exact calculus for the intersection-size family of input distributions.

mu(k, n, m) is uniform over pairs (x, y) of m-element subsets of an n-element
universe whose intersection has size exactly k: each support pair has
probability 1 / (C(n,m) * C(m,k) * C(n-m,m-k)).  Probabilities are exact
`fractions.Fraction`s; floating point never enters.  The support enumeration
and the lifting sweep work on whole numpy arrays of masks: int64 while every
mask stays below 2^62, else `object` arrays of Python ints (`int_dtype`), so
no mask is ever truncated and every count is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Iterable, Iterator, NamedTuple, Sequence, TypeVar

import numpy as np

from .caps import SUPPORT_PAIRS
from .errors import (
    DimensionMismatchError,
    ParameterRangeError,
    SupportEmptyError,
)


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient over unbounded integers; 0 when k > n."""
    if n < 0 or k < 0:
        raise ParameterRangeError(f"binom arguments must be nonnegative, got ({n}, {k})")
    return math.comb(n, k)


def int_dtype(bound: int) -> type:
    """The array dtype for ints whose absolute values, and every partial sum, stay below `bound`.

    int64 below 2^62, which leaves room for a negation and a carry; past it
    `object`, whose elements are Python ints and never overflow.
    """
    return np.int64 if bound < 1 << 62 else object


# An int mask, or an int64 or object array of masks.
Masks = TypeVar("Masks", int, np.ndarray)


def _bit_count(masks: Masks) -> Masks:
    return masks.bit_count() if isinstance(masks, int) else np.bitwise_count(masks)


def bits(mask: int, n: int) -> str:
    """The display string of an n-bit mask: character j is bit j, coordinate j+1."""
    return "".join("1" if mask >> j & 1 else "0" for j in range(n))


def parse_bits(text: str) -> int:
    """The mask of a display string: ``parse_bits("10")`` marks coordinate 1 only."""
    mask = 0
    for j, ch in enumerate(text):
        if ch == "1":
            mask |= 1 << j
        elif ch != "0":
            raise ParameterRangeError(f"bit strings may contain only 0/1, got {text!r}")
    return mask


class InputPair(NamedTuple):
    """One joint input: the masks x and y of two subsets of one universe.

    Bit j of a mask is coordinate j+1.  A plain ``(x, y)`` tuple equals, and
    hashes like, the same pair, which is how the protocol layer holds it.
    """

    x: int
    y: int

    @classmethod
    def from_bits(cls, x_bits: str, y_bits: str) -> InputPair:
        if len(x_bits) != len(y_bits):
            raise DimensionMismatchError(
                f"pair sides live in different universes: {len(x_bits)} vs {len(y_bits)}"
            )
        return cls(parse_bits(x_bits), parse_bits(y_bits))

    def fits(self, n: int) -> bool:
        """Both sides are subsets of an n-element universe."""
        return not (self.x >> n or self.y >> n)

    @property
    def intersection_size(self) -> int:
        return (self.x & self.y).bit_count()


@dataclass(frozen=True, order=True)
class MuParams:
    """Parameters (k, n, m) of the intersection-size distribution.

    Construction validates only basic sanity (0 <= m <= n, k >= 0); a
    parameter triple whose support is empty (k > m, or m - k > n - m) is
    representable so callers can ask for the support and get an empty one.
    """

    k: int
    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 0 or not 0 <= self.m <= self.n or self.k < 0:
            raise ParameterRangeError(f"invalid distribution parameters {self!r}")

    @cached_property
    def support_size(self) -> int:
        if self.k > self.m or self.m - self.k > self.n - self.m:
            return 0
        return binom(self.n, self.m) * binom(self.m, self.k) * binom(self.n - self.m, self.m - self.k)

    @property
    def is_empty(self) -> bool:
        return self.support_size == 0

    def validate(self) -> None:
        if self.is_empty:
            raise SupportEmptyError(f"distribution {self!r} has empty support")

    def point_mass(self) -> Fraction:
        """Probability of any single support pair, built once per instance."""
        self.validate()
        return self._point_mass

    @cached_property
    def _point_mass(self) -> Fraction:
        return Fraction(1, self.support_size)

    def contains(self, x: Masks, y: Masks) -> bool | np.ndarray:
        """The masks (x, y) form a support pair; a pair outside the universe is refused.

        Takes two int masks, or two mask arrays and then answers pair by pair
        with a bool array.
        """
        outside = (x | y) >> self.n
        if outside.any() if isinstance(outside, np.ndarray) else outside:
            if isinstance(outside, np.ndarray):
                first = np.flatnonzero(outside)[0]
                x, y = int(x[first]), int(y[first])
            raise DimensionMismatchError(f"pair {InputPair(x, y)} does not fit universe size {self.n}")
        return (_bit_count(x) == self.m) & (_bit_count(y) == self.m) & (_bit_count(x & y) == self.k)


def mu_prob(p: MuParams, pair: InputPair) -> Fraction:
    """Exact probability of `pair` under mu(p.k, p.n, p.m)."""
    on = p.contains(pair.x, pair.y)
    mass = p.point_mass()
    return mass if on else Fraction(0)


def _mask(coords: Iterable[int]) -> int:
    m = 0
    for c in coords:
        m |= 1 << c
    return m


@lru_cache(maxsize=128)
def _subset_coords(n: int, m: int) -> np.ndarray:
    """Every m-subset of range(n) as a row of ascending coordinates, rows in lexicographic order."""
    table = np.array(list(combinations(range(n), m)), dtype=np.intp).reshape(binom(n, m), m)
    table.flags.writeable = False
    return table


def _bit_values(n: int) -> np.ndarray:
    return np.array([1 << j for j in range(n)], dtype=int_dtype(1 << n))


def subset_masks(n: int, m: int) -> np.ndarray:
    """The masks of every m-subset of an n-element universe, in lexicographic coordinate order."""
    return _bit_values(n)[_subset_coords(n, m)].sum(axis=1)


class SupportView(Sequence[InputPair]):
    """A read-only sequence of support pairs held as two mask arrays.

    `x` and `y` are the pairs' masks, with `int_dtype` of the universe; the
    view yields them as `InputPair`s of Python ints and compares equal,
    element by element, to any sequence of the same pairs.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        x.flags.writeable = y.flags.writeable = False
        self.x = x
        self.y = y

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, i: int | slice):
        if isinstance(i, slice):
            return SupportView(self.x[i], self.y[i])
        return InputPair(int(self.x[i]), int(self.y[i]))

    def __iter__(self) -> Iterator[InputPair]:
        return map(InputPair._make, zip(self.x.tolist(), self.y.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"SupportView({len(self)} pairs)"


def enumerate_support(p: MuParams) -> SupportView:
    """All support pairs of mu(p), in a fixed deterministic order.

    x runs over the m-subsets in lexicographic order; for each x, y is each
    k-subset of x (lexicographic) joined with each (m-k)-subset of x's
    complement (lexicographic, innermost).  The pairs come as a view over
    their two mask arrays, empty when the support is; raises
    CapExceededError above the support cap (default 10^7,
    RECTBOUND_SUPPORT_CAP to override).
    """
    size = p.support_size
    if size == 0:
        empty = np.empty(0, dtype=int_dtype(1 << p.n))
        return SupportView(empty, empty)
    SUPPORT_PAIRS.check(size, f"support pairs of {p!r}")
    bit_values = _bit_values(p.n)
    x_coords = _subset_coords(p.n, p.m)
    # Complementing reverses the lexicographic order of equal-size subsets,
    # so the i-th m-subset's complement is the i-th (n-m)-subset from the end.
    rest_coords = _subset_coords(p.n, p.n - p.m)[::-1]
    shared = bit_values[x_coords[:, _subset_coords(p.m, p.k)]].sum(axis=2)
    outside = bit_values[rest_coords[:, _subset_coords(p.n - p.m, p.m - p.k)]].sum(axis=2)
    y_masks = shared[:, :, None] | outside[:, None, :]
    x_masks = np.broadcast_to(subset_masks(p.n, p.m)[:, None, None], y_masks.shape)
    out = SupportView(x_masks.ravel(), y_masks.ravel())
    if len(out) != size:
        raise AssertionError(f"support enumeration produced {len(out)} pairs, expected {size}")
    return out


def sample_mu(p: MuParams, rng: Random) -> InputPair:
    """One exact-uniform draw from the support of mu(p)."""
    p.validate()
    x_coords = rng.sample(range(p.n), p.m)
    shared = rng.sample(x_coords, p.k)
    x_set = set(x_coords)
    complement = [c for c in range(p.n) if c not in x_set]
    outside = rng.sample(complement, p.m - p.k)
    return InputPair(_mask(x_coords), _mask(shared) | _mask(outside))


LIFTING_IDENTITIES = ("I", "II", "III", "IV")


@dataclass(frozen=True)
class IdentitySides:
    """Both sides of one lifting identity, fixed by the statement parameters."""

    lhs: MuParams
    rhs: MuParams
    factor: Fraction
    removed: int


def identity_sides(identity: str, p: MuParams) -> IdentitySides:
    """Left/right distribution parameters and the exact relating factor.

    (k, n, m) are the symbols of the identity statement; the left side is the
    distribution whose support gets enumerated, and the right side is
    evaluated at the pair with `removed` shared coordinates deleted.
    """
    k, n, m = p.k, p.n, p.m
    if identity == "I":
        lhs = MuParams(2 * k, n + k, m + k)
        rhs = MuParams(k, n, m)
        factor = Fraction(binom(n, k), binom(n + k, 2 * k))
    elif identity == "II":
        lhs = MuParams(k, n + k, m + k)
        rhs = MuParams(0, n, m)
        factor = Fraction(1, binom(n + k, k))
    elif identity == "III":
        if k > n or k > m:
            raise ParameterRangeError(f"identity III needs k <= m <= n, got {p!r}")
        lhs = MuParams(k, n, m)
        rhs = MuParams(0, n - k, m - k)
        factor = Fraction(1, binom(n, k))
    elif identity == "IV":
        if k + 1 > n or k + 1 > m:
            raise ParameterRangeError(f"identity IV needs k+1 <= m <= n, got {p!r}")
        lhs = MuParams(k + 1, n, m)
        rhs = MuParams(1, n - k, m - k)
        factor = Fraction(n - k, binom(n, k + 1))
    else:
        raise ParameterRangeError(f"unknown identity {identity!r}, expected one of {LIFTING_IDENTITIES}")
    return IdentitySides(lhs=lhs, rhs=rhs, factor=factor, removed=k)


def remove_coords(mask: int, removed: Iterable[int]) -> int:
    """Delete 0-based coordinates from the universe, compacting the rest."""
    gone = _mask(removed)
    return _delete_lowest(mask, gone, gone.bit_count())


def _delete_lowest(mask: Masks, marked: Masks, count: int) -> Masks:
    """Delete the `count` lowest coordinates set in `marked` from `mask`, compacting the rest.

    Lowest first: each step drops the lowest marked bit, shifts the bits
    above it down by one, and shifts the marks with them.  A step with no
    mark left changes nothing, so on arrays every pair takes `count` steps.
    """
    for _ in range(count):
        low = marked & -marked
        mask = mask & low - 1 | mask >> 1 & -low
        marked = (marked ^ low) >> 1
    return mask


@dataclass(frozen=True)
class IdentityReport:
    """Exhaustive check of one lifting identity at fixed parameters."""

    identity: str
    params: MuParams
    lhs_params: MuParams
    rhs_params: MuParams
    factor: Fraction
    pairs_checked: int
    max_abs_diff: Fraction

    @property
    def holds(self) -> bool:
        return self.max_abs_diff == 0


# Support pairs per slice of the lifting check: its temporaries stay near a
# few hundred kB while the per-slice numpy overhead stays small.
_LEMMA4_BLOCK = 8192


def check_lemma4(identity: str, p: MuParams) -> IdentityReport:
    """Verify one lifting identity over every left-side support pair.

    For each pair the `removed` lowest shared coordinates are deleted and
    both sides are evaluated exactly; the identity's distribution values
    depend only on sizes, so any choice of shared coordinates is equivalent.
    Each side's value at a pair is its point mass or 0, so a pair's deviation
    is one of four Fractions, chosen by its two support-membership bits.
    The pairs are checked as slices of the support's two mask arrays,
    `_LEMMA4_BLOCK` pairs at a time, so the temporaries stay small however
    large the support; only the membership codes that occur are looked up.
    """
    sides = identity_sides(identity, p)
    lhs, rhs = sides.lhs, sides.rhs
    if lhs.is_empty or rhs.is_empty:
        raise ParameterRangeError(
            f"identity {identity} is out of range at {p!r}: "
            f"lhs support {lhs.support_size}, rhs support {rhs.support_size}"
        )
    lhs_mass = lhs.point_mass()
    rhs_mass = sides.factor * rhs.point_mass()
    # Indexed by the membership code 2 * (on the left) + (on the right).
    deviation = (Fraction(0), rhs_mass, lhs_mass, abs(lhs_mass - rhs_mass))
    support = enumerate_support(lhs)
    seen = np.zeros(len(deviation), dtype=np.int64)
    for start in range(0, len(support), _LEMMA4_BLOCK):
        x = support.x[start : start + _LEMMA4_BLOCK]
        y = support.y[start : start + _LEMMA4_BLOCK]
        shared = x & y
        removed_x = _delete_lowest(x, shared, sides.removed)
        removed_y = _delete_lowest(y, shared, sides.removed)
        code = 2 * lhs.contains(x, y) + rhs.contains(removed_x, removed_y)
        seen += np.bincount(code, minlength=len(deviation))
    return IdentityReport(
        identity=identity,
        params=p,
        lhs_params=lhs,
        rhs_params=rhs,
        factor=sides.factor,
        pairs_checked=len(support),
        max_abs_diff=max(deviation[code] for code in np.flatnonzero(seen).tolist()),
    )


def intersection_ratio(n: int, k: int) -> Fraction:
    """Exact mass-transfer factor C(n,k)*C(n+k,k) / (C(n+k,2k) * 2^(k+1)).

    This is the factor by which a rectangle's mass under the doubled
    intersection size dominates its mass at size k after lifting; it equals
    C(2k,k)/2^(k+1) for every n >= k and grows like 2^k/sqrt(k).
    """
    if n < 0 or k < 0 or k > n:
        raise ParameterRangeError(f"need 0 <= k <= n, got n={n}, k={k}")
    return Fraction(binom(n, k) * binom(n + k, k), binom(n + k, 2 * k) * 2 ** (k + 1))


def valid_mu_params(max_n: int, max_support: int | None = None) -> Iterator[MuParams]:
    """All nonempty-support (k, n, m) triples with n <= max_n, small first."""
    for n in range(max_n + 1):
        for m in range(n + 1):
            for k in range(m + 1):
                p = MuParams(k, n, m)
                size = p.support_size
                if size == 0:
                    continue
                if max_support is not None and size > max_support:
                    continue
                yield p
