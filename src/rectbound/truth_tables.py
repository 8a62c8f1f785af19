"""Two-party truth tables and the named function families the CLI exposes.

A table stores, per row mask x, the bitmask of column masks y with f(x,y)=1.
The text format is: first line n, then 2^n lines of 2^n characters in {0,1};
line i is row x = the i-th n-bit string in lexicographic order, character j in
that line is f(x, y) for the j-th string, and bit strings map to masks with
the leftmost character as coordinate 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .caps import SUPPORT_PAIRS
from .combinatorics import InputPair, parse_bits
from .errors import ParameterRangeError

FAMILIES = ("NDISJ", "DISJ", "EQ", "IP", "AND")


def _check_universe(n: int) -> None:
    if n < 0:
        raise ParameterRangeError(f"universe size must be nonnegative, got {n}")


@dataclass(frozen=True)
class TruthTable:
    n: int
    rows: tuple[int, ...]  # rows[x_mask] bit y_mask set iff f(x, y) = 1

    def __post_init__(self) -> None:
        _check_universe(self.n)
        if len(self.rows) != 1 << self.n:
            raise ParameterRangeError(
                f"table needs {1 << self.n} rows for n={self.n}, got {len(self.rows)}"
            )
        full = (1 << (1 << self.n)) - 1
        for row in self.rows:
            if not 0 <= row <= full:
                raise ParameterRangeError("table row out of range")

    @classmethod
    def from_function(cls, n: int, fn: Callable[[int, int], int]) -> TruthTable:
        """The table of `fn` on every pair of n-bit masks, all 4^n of them."""
        _check_universe(n)
        SUPPORT_PAIRS.check(1 << 2 * n, "input pairs in a truth table")
        rows = []
        for x in range(1 << n):
            row = 0
            for y in range(1 << n):
                if fn(x, y):
                    row |= 1 << y
            rows.append(row)
        return cls(n, tuple(rows))

    def value(self, x: int, y: int) -> int:
        return (self.rows[x] >> y) & 1

    def pairs(self) -> Iterator[tuple[InputPair, int]]:
        for xm in range(1 << self.n):
            for ym in range(1 << self.n):
                yield InputPair(xm, ym), (self.rows[xm] >> ym) & 1

    def one_count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    def to_text(self) -> str:
        lines = [str(self.n)]
        for i in range(1 << self.n):
            xm = _lex_index_to_mask(i, self.n)
            line = []
            for j in range(1 << self.n):
                ym = _lex_index_to_mask(j, self.n)
                line.append("1" if (self.rows[xm] >> ym) & 1 else "0")
            lines.append("".join(line))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> TruthTable:
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if not lines:
            raise ParameterRangeError("empty truth-table text")
        try:
            n = int(lines[0])
        except ValueError as exc:
            raise ParameterRangeError(f"first line must be n, got {lines[0]!r}") from exc
        if n < 0:
            raise ParameterRangeError(f"n must be nonnegative, got {n}")
        size = len(lines) - 1
        # Compared by exponent: a huge n must not become a huge int.
        if size & (size - 1) or size.bit_length() - 1 != n:
            raise ParameterRangeError(f"expected 2^{n} grid lines after the header, got {size}")
        rows = [0] * size
        for i, line in enumerate(lines[1:]):
            if len(line) != size or set(line) - {"0", "1"}:
                raise ParameterRangeError(f"grid line {i} must be {size} characters of 0/1")
            xm = _lex_index_to_mask(i, n)
            row = 0
            for j, ch in enumerate(line):
                if ch == "1":
                    row |= 1 << _lex_index_to_mask(j, n)
            rows[xm] = row
        return cls(n, tuple(rows))


def _lex_index_to_mask(index: int, n: int) -> int:
    """The index-th n-bit string in lexicographic order, as a mask."""
    return parse_bits(format(index, f"0{n}b") if n else "")


def ndisj(n: int) -> TruthTable:
    """1 iff the marked sets intersect."""
    return TruthTable.from_function(n, lambda x, y: x & y != 0)


def disj(n: int) -> TruthTable:
    """1 iff the marked sets are disjoint."""
    return TruthTable.from_function(n, lambda x, y: x & y == 0)


def eq(n: int) -> TruthTable:
    """1 iff both sides are identical."""
    return TruthTable.from_function(n, lambda x, y: x == y)


def ip(n: int) -> TruthTable:
    """Inner product mod 2."""
    return TruthTable.from_function(n, lambda x, y: (x & y).bit_count() & 1)


def and_all(n: int) -> TruthTable:
    """1 iff both sides mark every coordinate; for n=1 this is binary AND."""
    _check_universe(n)  # before the shift below
    full = (1 << n) - 1
    return TruthTable.from_function(n, lambda x, y: x == full and y == full)


def family(name: str, n: int) -> TruthTable:
    table = {
        "NDISJ": ndisj,
        "DISJ": disj,
        "EQ": eq,
        "IP": ip,
        "AND": and_all,
    }
    key = name.upper()
    if key not in table:
        raise ParameterRangeError(f"unknown family {name!r}, expected one of {FAMILIES}")
    return table[key](n)
