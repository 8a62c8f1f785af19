"""Exact calculus for the intersection-size family of input distributions.

mu(k, n, m) is uniform over pairs (x, y) of m-element subsets of an n-element
universe whose intersection has size exactly k: each support pair has
probability 1 / (C(n,m) * C(m,k) * C(n-m,m-k)).  Everything in this module is
exact `fractions.Fraction` arithmetic; floating point never enters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Iterable, Iterator

from .caps import support_cap
from .errors import (
    CapExceededError,
    DimensionMismatchError,
    ParameterRangeError,
    SupportEmptyError,
)


def binom(n: int, k: int) -> int:
    """Exact binomial coefficient over unbounded integers; 0 when k > n."""
    if n < 0 or k < 0:
        raise ParameterRangeError(f"binom arguments must be nonnegative, got ({n}, {k})")
    return math.comb(n, k)


@dataclass(frozen=True, order=True)
class BitString:
    """An n-bit string identified with the subset of {1..n} it marks.

    Bit j of `mask` is coordinate j+1, i.e. the j-th character (from the
    left) of the display string: ``BitString.from_bits("10")`` marks
    coordinate 1 only.
    """

    n: int
    mask: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ParameterRangeError(f"universe size must be nonnegative, got {self.n}")
        if not 0 <= self.mask < (1 << self.n):
            raise ParameterRangeError(f"mask {self.mask} out of range for n={self.n}")

    @classmethod
    def from_bits(cls, bits: str) -> BitString:
        mask = 0
        for j, ch in enumerate(bits):
            if ch == "1":
                mask |= 1 << j
            elif ch != "0":
                raise ParameterRangeError(f"bit strings may contain only 0/1, got {bits!r}")
        return cls(len(bits), mask)

    @classmethod
    def from_coords(cls, n: int, coords: Iterable[int]) -> BitString:
        """Build from 1-based coordinates."""
        mask = 0
        for c in coords:
            if not 1 <= c <= n:
                raise ParameterRangeError(f"coordinate {c} outside 1..{n}")
            mask |= 1 << (c - 1)
        return cls(n, mask)

    def bits(self) -> str:
        return "".join("1" if (self.mask >> j) & 1 else "0" for j in range(self.n))

    def coords(self) -> tuple[int, ...]:
        """Marked coordinates, 1-based, ascending."""
        return tuple(j + 1 for j in range(self.n) if (self.mask >> j) & 1)

    @property
    def weight(self) -> int:
        """Number of marked coordinates."""
        return self.mask.bit_count()

    def intersection_size(self, other: BitString) -> int:
        if self.n != other.n:
            raise DimensionMismatchError(f"universe mismatch: {self.n} vs {other.n}")
        return (self.mask & other.mask).bit_count()

    def __str__(self) -> str:
        return self.bits()


@dataclass(frozen=True, order=True)
class InputPair:
    """One joint input (x, y) over a shared universe."""

    x: BitString
    y: BitString

    def __post_init__(self) -> None:
        if self.x.n != self.y.n:
            raise DimensionMismatchError(
                f"pair sides live in different universes: {self.x.n} vs {self.y.n}"
            )

    @classmethod
    def from_bits(cls, x_bits: str, y_bits: str) -> InputPair:
        return cls(BitString.from_bits(x_bits), BitString.from_bits(y_bits))

    @property
    def n(self) -> int:
        return self.x.n

    @property
    def intersection_size(self) -> int:
        return (self.x.mask & self.y.mask).bit_count()

    def __str__(self) -> str:
        return f"({self.x.bits()},{self.y.bits()})"


@dataclass(frozen=True, order=True)
class MuParams:
    """Parameters (k, n, m) of the intersection-size distribution.

    Construction validates only basic sanity (0 <= m <= n, k >= 0); a
    parameter triple whose support is empty (k > m, or m - k > n - m) is
    representable so callers can ask for the support and get [].
    """

    k: int
    n: int
    m: int

    def __post_init__(self) -> None:
        if self.n < 0 or not 0 <= self.m <= self.n or self.k < 0:
            raise ParameterRangeError(f"invalid distribution parameters {self!r}")

    @property
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
        """Probability of any single support pair."""
        self.validate()
        return Fraction(1, self.support_size)


def mu_prob(p: MuParams, pair: InputPair) -> Fraction:
    """Exact probability of `pair` under mu(p.k, p.n, p.m)."""
    if pair.n != p.n:
        raise DimensionMismatchError(f"pair universe {pair.n} does not match n={p.n}")
    p.validate()
    if (
        pair.x.weight != p.m
        or pair.y.weight != p.m
        or pair.intersection_size != p.k
    ):
        return Fraction(0)
    return Fraction(1, p.support_size)


def _mask(coords: Iterable[int]) -> int:
    m = 0
    for c in coords:
        m |= 1 << c
    return m


def enumerate_support(p: MuParams) -> list[InputPair]:
    """All support pairs of mu(p), in a fixed deterministic order.

    Returns [] when the support is empty; raises CapExceededError above the
    support cap (default 10^7, RECTBOUND_SUPPORT_CAP to override).
    """
    size = p.support_size
    if size == 0:
        return []
    limit = support_cap()
    if size > limit:
        raise CapExceededError(f"support of {p!r} has {size} pairs, cap is {limit}")
    out: list[InputPair] = []
    universe = range(p.n)
    for x_coords in combinations(universe, p.m):
        x_mask = _mask(x_coords)
        x_set = set(x_coords)
        rest_pool = [c for c in universe if c not in x_set]
        for shared in combinations(x_coords, p.k):
            shared_mask = _mask(shared)
            for outside in combinations(rest_pool, p.m - p.k):
                y_mask = shared_mask | _mask(outside)
                out.append(InputPair(BitString(p.n, x_mask), BitString(p.n, y_mask)))
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
    return InputPair(
        BitString(p.n, _mask(x_coords)),
        BitString(p.n, _mask(shared) | _mask(outside)),
    )


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


def remove_coords(s: BitString, removed: tuple[int, ...]) -> BitString:
    """Delete 0-based coordinates from the universe, compacting the rest."""
    mask = 0
    pos = 0
    removed_set = set(removed)
    for j in range(s.n):
        if j in removed_set:
            continue
        if (s.mask >> j) & 1:
            mask |= 1 << pos
        pos += 1
    return BitString(s.n - len(removed), mask)


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


def check_lemma4(identity: str, p: MuParams) -> IdentityReport:
    """Verify one lifting identity over every left-side support pair.

    For each pair the `removed` lowest shared coordinates are deleted and
    both sides are evaluated exactly; the identity's distribution values
    depend only on sizes, so any choice of shared coordinates is equivalent.
    """
    sides = identity_sides(identity, p)
    if sides.lhs.is_empty or sides.rhs.is_empty:
        raise ParameterRangeError(
            f"identity {identity} is out of range at {p!r}: "
            f"lhs support {sides.lhs.support_size}, rhs support {sides.rhs.support_size}"
        )
    max_diff = Fraction(0)
    count = 0
    for pair in enumerate_support(sides.lhs):
        shared = pair.x.mask & pair.y.mask
        shared_coords = tuple(j for j in range(pair.n) if (shared >> j) & 1)
        removed = shared_coords[: sides.removed]
        reduced = InputPair(remove_coords(pair.x, removed), remove_coords(pair.y, removed))
        lhs_value = mu_prob(sides.lhs, pair)
        rhs_value = sides.factor * mu_prob(sides.rhs, reduced)
        diff = abs(lhs_value - rhs_value)
        if diff > max_diff:
            max_diff = diff
        count += 1
    return IdentityReport(
        identity=identity,
        params=p,
        lhs_params=sides.lhs,
        rhs_params=sides.rhs,
        factor=sides.factor,
        pairs_checked=count,
        max_abs_diff=max_diff,
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


def valid_mu_params(
    max_n: int,
    max_support: int | None = None,
    min_n: int = 0,
) -> Iterator[MuParams]:
    """All nonempty-support (k, n, m) triples with n <= max_n, small first."""
    for n in range(min_n, max_n + 1):
        for m in range(n + 1):
            for k in range(m + 1):
                p = MuParams(k, n, m)
                size = p.support_size
                if size == 0:
                    continue
                if max_support is not None and size > max_support:
                    continue
                yield p
