"""Every resource limit of the package, and the one refusal past them.

Exhaustive paths are guarded so a typo cannot wedge the machine.  Four
limits read an environment override (the RECTBOUND_*_CAP variables) so
oversized but deliberate runs need no code edit; the other eight are fixed.
`Limit.check` is the one refusal: past the limit it raises the limit's
error type, CapExceededError unless the limit says otherwise, with a
message naming the count, the limit and its override variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import CapExceededError, ConvergenceError, ParameterRangeError


@dataclass(frozen=True)
class Limit:
    """A count past which a path refuses, with its optional override variable."""

    default: int
    env: str | None = None
    error: type[Exception] = CapExceededError

    @property
    def value(self) -> int:
        """The default, or the positive integer in the override variable."""
        raw = None if self.env is None else os.environ.get(self.env)
        if raw is None:
            return self.default
        try:
            value = int(raw)
        except ValueError as exc:
            raise ParameterRangeError(f"{self.env} must be an integer, got {raw!r}") from exc
        if value <= 0:
            raise ParameterRangeError(f"{self.env} must be positive, got {value}")
        return value

    def fits(self, count: int) -> bool:
        return count <= self.value

    def check(self, count: int, what: str, hint: str = "") -> None:
        """Refuse `count` of `what` when it is past the limit."""
        if count > (limit := self.value):
            override = f" (override: {self.env})" if self.env else ""
            hint = f"; {hint}" if hint else ""
            raise self.error(f"{_show(count)} {what} exceed the limit {_show(limit)}{override}{hint}")


def _show(count: int) -> str:
    """Powers of two from 2^20 up as 2^e, other counts in digits."""
    if count >= 1 << 20 and count & (count - 1) == 0:
        return f"2^{count.bit_length() - 1}"
    return str(count)


# Pairs in a distribution support that enumerate_support will materialize;
# also bounds the pairs of a rectangle whose mass is summed, the string
# pairs of a scan and the input pairs of a truth table built from a function.
SUPPORT_PAIRS = Limit(10**7, "RECTBOUND_SUPPORT_CAP")
# Row subsets the max-weight rectangle oracle will sweep.
ORACLE_SUBSETS = Limit(2**16, "RECTBOUND_ORACLE_SUBSET_CAP")
# Rectangles enumerate_rectangles will yield.
RECTANGLES = Limit(2**26, "RECTBOUND_RECTANGLE_CAP")
# Input pairs (x, y) that exact protocol analysis and the leaf census run on.
EXACT_PROTOCOL_INPUTS = Limit(2**22, "RECTBOUND_EXACT_PROTOCOL_CAP")
# Columns x rows of an exact full-enumeration LP.
ENUMERATION_CELLS = Limit(2_000_000)
# Pivots of one exact simplex solve.
SIMPLEX_PIVOTS = Limit(200_000, error=ConvergenceError)
# Row x column subsets of one exhaustive certificate sweep.
EXHAUSTIVE_STEPS = Limit(1 << 22)
# Size-m strings per side in the sampling-lemma scan.
SCAN_STRINGS = Limit(4096)
# Row x column subsets the sampling-lemma scan sweeps; past it, it samples.
EXHAUSTIVE_SCAN_STEPS = Limit(4096)
# Coin branches of a halving composition.
HALVING_BRANCHES = Limit(4096)
# Coordinates k*n whose permutations are all enumerated exactly.
EXACT_PERMUTATION_WIDTH = Limit(6)
# Branches (permutations x base coin branches) of a permutation mixture.
MIXTURE_BRANCHES = Limit(32_768)
