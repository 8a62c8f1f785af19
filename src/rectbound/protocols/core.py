"""Deterministic and public-coin two-party protocols.

Inputs are plain bit masks of one width: Alice holds x and Bob holds y, each
over `width` coordinates, bit j marking coordinate j + 1 as in the rest of
the package.  A protocol run produces an output and the transcript of
exchanged bits, packed like the inputs: an int `bits` whose bit t is the t-th bit
spoken (LSB first) and a `length`.  Its cost is the length.

A deterministic protocol is a `ProgramProtocol`: a closure that replays the
conversation and returns (output, bits, length), with its worst cost
declared.  Its checked `run` enforces that contract, and the leaf census
in `analysis` sees the protocol only through that run: it runs every input
and groups the runs by transcript.

Public coins are a `RandomizedProtocol`: finitely many deterministic
branches with exact rational probabilities summing to one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Union

from ..errors import ParameterRangeError, ProtocolContractError


def unpack_transcript(bits: int, length: int) -> tuple[int, ...]:
    """The spoken bits of a packed transcript, first bit first."""
    return tuple((bits >> t) & 1 for t in range(length))


class RunResult(NamedTuple):
    output: object
    bits: int
    length: int

    @property
    def cost(self) -> int:
        return self.length

    @property
    def transcript(self) -> tuple[int, ...]:
        return unpack_transcript(self.bits, self.length)


# The tuple constructor, without NamedTuple's Python-level __new__.
_new_result = tuple.__new__


def _check_input(width: int, x: int, y: int) -> None:
    for side, mask in (("x", x), ("y", y)):
        if not 0 <= mask < (1 << width):
            raise ParameterRangeError(f"{side}={mask} is not a {width}-bit input")


@dataclass(frozen=True)
class ProgramProtocol:
    """A protocol given by its conversation replay function.

    `run_fn(x, y)` returns (output, bits, length): the transcript packed LSB
    first, bit t of `bits` being the t-th bit spoken.  The output must be a
    function of the transcript so that both parties know it; the library
    constructions keep that property, closures supplied from outside are
    trusted.  Bits set at or past `length`, negative `bits` and runs past
    `worst_cost` raise; runs under it are fine.
    """

    width: int
    run_fn: Callable[[int, int], tuple[object, int, int]] = field(repr=False)
    worst_cost: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.width < 0 or self.worst_cost < 0:
            name = self.label or "program"
            raise ParameterRangeError(f"{name}: negative width {self.width} or worst_cost {self.worst_cost}")

    def run(self, x: int, y: int) -> RunResult:
        # A negative mask shifted right stays negative, so one shift of x | y
        # tests both ranges; the messages are built only on failure.
        if (x | y) >> self.width:
            _check_input(self.width, x, y)
        output, bits, length = self.run_fn(x, y)
        if not 0 <= length <= self.worst_cost or bits >> length:
            raise self._broken_contract(bits, length)
        return _new_result(RunResult, (output, bits, length))

    def _broken_contract(self, bits: int, length: int) -> ProtocolContractError:
        name = self.label or "program"
        if length < 0 or bits < 0 or bits >> length:
            return ProtocolContractError(f"{name} returned bits {bits} outside its length {length}")
        return ProtocolContractError(f"{name} used {length} bits, declared at most {self.worst_cost}")


@dataclass(frozen=True)
class RandomizedProtocol:
    """A public-coin mixture of deterministic protocols."""

    branches: tuple[tuple[Fraction, ProgramProtocol], ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise ParameterRangeError("a randomized protocol needs at least one branch")
        total = Fraction(0)
        for prob, proto in self.branches:
            if not isinstance(prob, Fraction) or prob <= 0:
                raise ParameterRangeError(f"branch probability must be a positive Fraction, got {prob!r}")
            total += prob
        if total != 1:
            raise ParameterRangeError(f"branch probabilities sum to {total}, expected 1")
        if len({proto.width for _, proto in self.branches}) != 1:
            raise ParameterRangeError("all branches must share the input width")

    @property
    def width(self) -> int:
        return self.branches[0][1].width

    @property
    def worst_cost(self) -> int:
        return max(proto.worst_cost for _, proto in self.branches)


AnyProtocol = Union[ProgramProtocol, RandomizedProtocol]


def as_randomized(proto: AnyProtocol) -> RandomizedProtocol:
    """Wrap a deterministic protocol as its own single certain branch."""
    if isinstance(proto, RandomizedProtocol):
        return proto
    return RandomizedProtocol(((Fraction(1), proto),))


def constant_protocol(width: int, value: object) -> ProgramProtocol:
    """Zero-bit protocol that outputs `value` on every input."""
    return ProgramProtocol(width, lambda x, y: (value, 0, 0), worst_cost=0)
