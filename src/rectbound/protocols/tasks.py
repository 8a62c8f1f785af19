"""Task specifications and verdict classification for protocol outputs.

A task fixes the input layout, k blocks of n coordinates packed into one
mask with block 0 in the low bits, and says what counts as a correct output:

* ndisj-kfold    output a k-bit mask, bit j set iff block j intersects
* search-kfold   output a k-tuple, entry j either 0 (block j disjoint) or a
                 1-based coordinate both sides mark in block j
* search-choose  output `choose` distinct (block, coordinate) claims, every
                 one genuine; 0 gives up

Rejection is always available: None rejects, a search-kfold tuple rejects if
any entry is None, and search-choose also treats 0 as a reject.  Verdicts
separate giving up from being wrong because the two are priced differently
everywhere rejection appears in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from ..caps import exact_protocol_cap
from ..errors import CapExceededError, ParameterRangeError

KIND_NDISJ_KFOLD = "ndisj-kfold"
KIND_SEARCH_KFOLD = "search-kfold"
KIND_SEARCH_CHOOSE = "search-choose"

TASK_KINDS = (KIND_NDISJ_KFOLD, KIND_SEARCH_KFOLD, KIND_SEARCH_CHOOSE)


class Verdict(Enum):
    CORRECT = "correct"
    REJECT = "reject"
    WRONG = "wrong"


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    n: int
    k: int = 1
    choose: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in TASK_KINDS:
            raise ParameterRangeError(f"unknown task kind {self.kind!r}")
        if self.n < 1 or self.k < 1:
            raise ParameterRangeError(f"need n >= 1 and k >= 1, got n={self.n}, k={self.k}")
        if self.kind == KIND_SEARCH_CHOOSE:
            if self.choose is None or not 1 <= self.choose <= self.k:
                raise ParameterRangeError(
                    f"search-choose needs 1 <= choose <= k, got choose={self.choose}, k={self.k}"
                )
        elif self.choose is not None:
            raise ParameterRangeError(f"{self.kind} takes no choose parameter")

    @property
    def input_bits(self) -> int:
        return self.n * self.k

    def describe(self) -> str:
        if self.kind == KIND_SEARCH_CHOOSE:
            return f"{self.kind}(n={self.n}, k={self.k}, choose={self.choose})"
        return f"{self.kind}(n={self.n}, k={self.k})"


def block(mask: int, j: int, n: int) -> int:
    """Block j of a packed mask, block 0 in the low n bits."""
    return (mask >> (j * n)) & ((1 << n) - 1)


def ndisj_truth(task: TaskSpec, x: int, y: int) -> int:
    """k-bit mask, bit j set iff block j of x and y intersect."""
    out = 0
    for j in range(task.k):
        if block(x, j, task.n) & block(y, j, task.n):
            out |= 1 << j
    return out


def intersecting_blocks(task: TaskSpec, x: int, y: int) -> int:
    return ndisj_truth(task, x, y).bit_count()


def _coordinate_genuine(task: TaskSpec, x: int, y: int, j: int, c: int) -> bool:
    if not 0 <= j < task.k or not 1 <= c <= task.n:
        return False
    bit = 1 << (c - 1)
    return bool(block(x, j, task.n) & bit) and bool(block(y, j, task.n) & bit)


def classify(task: TaskSpec, x: int, y: int, output) -> Verdict:
    """Judge one output for one input."""
    if output is None:
        return Verdict.REJECT
    if task.kind == KIND_NDISJ_KFOLD:
        if not isinstance(output, int):
            return Verdict.WRONG
        return Verdict.CORRECT if output == ndisj_truth(task, x, y) else Verdict.WRONG
    if task.kind == KIND_SEARCH_KFOLD:
        if not isinstance(output, tuple) or len(output) != task.k:
            return Verdict.WRONG
        if any(entry is None for entry in output):
            return Verdict.REJECT
        for j, entry in enumerate(output):
            if entry == 0:
                if block(x, j, task.n) & block(y, j, task.n):
                    return Verdict.WRONG
            elif not _coordinate_genuine(task, x, y, j, entry):
                return Verdict.WRONG
        return Verdict.CORRECT
    # search-choose
    if output == 0:
        return Verdict.REJECT
    if not isinstance(output, tuple) or len(output) != task.choose:
        return Verdict.WRONG
    if len(set(output)) != task.choose:
        return Verdict.WRONG
    for claim in output:
        if not isinstance(claim, tuple) or len(claim) != 2:
            return Verdict.WRONG
        j, c = claim
        if not _coordinate_genuine(task, x, y, j, c):
            return Verdict.WRONG
    return Verdict.CORRECT


def enumerate_inputs(task: TaskSpec) -> Iterator[tuple[int, int]]:
    """Every (x, y), y fastest; refuses spaces past the exact-run cap."""
    limit = exact_protocol_cap()
    side = 1 << task.input_bits
    if side * side > limit:
        raise CapExceededError(
            f"{side * side} input pairs exceed the exact enumeration cap {limit}"
        )
    for x in range(side):
        for y in range(side):
            yield x, y
