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

Every other module reads the task rules here: `TaskSpec` refuses bad n, k and
choose, `check_width` a protocol of the wrong input width, and `ndisj_truth`,
`claims`, `position`, `claim_at` and `marks` say which blocks meet, what a
search output claims, which bit a claim names and back, whether a side marks it.
`measured_inputs` is the one stream of inputs a protocol is measured on.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from random import Random
from typing import Iterator

from ..caps import EXACT_PROTOCOL_INPUTS
from ..errors import ParameterRangeError

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

    @cached_property
    def _block_masks(self) -> tuple[int, ...]:
        """The packed mask of each block, block 0 first."""
        return tuple(((1 << self.n) - 1) << (j * self.n) for j in range(self.k))

    def describe(self) -> str:
        if self.kind == KIND_SEARCH_CHOOSE:
            return f"{self.kind}(n={self.n}, k={self.k}, choose={self.choose})"
        return f"{self.kind}(n={self.n}, k={self.k})"


def block(mask: int, j: int, n: int) -> int:
    """Block j of a packed mask, block 0 in the low n bits."""
    return (mask >> (j * n)) & ((1 << n) - 1)


def ndisj_truth(task: TaskSpec, x: int, y: int) -> int:
    """k-bit mask, bit j set iff block j of x and y intersect."""
    meet = x & y
    if not meet:
        return 0
    out = 0
    for j, mask in enumerate(task._block_masks):
        if meet & mask:
            out |= 1 << j
    return out


def intersecting_blocks(task: TaskSpec, x: int, y: int) -> int:
    return ndisj_truth(task, x, y).bit_count()


def check_width(task: TaskSpec, proto) -> None:
    """Refuse a protocol whose inputs are not the task's packed blocks."""
    if proto.width != task.input_bits:
        raise ParameterRangeError(f"protocol inputs are {proto.width} bits, task needs {task.input_bits}")


# Fills every slot of an output of the wrong shape; block -1 is marked by no side.
_FAILED = (-1, 0)


def claims(task: TaskSpec, output) -> list:
    """The claim in each slot of a search output, None where a slot claims nothing.

    search-kfold slot j holds (j, entry j) unless the entry is 0 or None;
    search-choose has one slot per claim, all empty when the output gives up.
    An output that is not a tuple of one entry per slot fails every slot, and
    `marks` fails a claim that is not a (block, coordinate) pair in range.
    """
    count = task.choose or task.k
    if output is None or (task.kind == KIND_SEARCH_CHOOSE and output == 0):
        return [None] * count
    if not isinstance(output, tuple) or len(output) != count:
        return [_FAILED] * count
    if task.kind == KIND_SEARCH_CHOOSE:
        return list(output)
    return [None if entry is None or entry == 0 else (j, entry) for j, entry in enumerate(output)]


def position(task: TaskSpec, claim) -> int:
    """The packed bit position a (block, 1-based coordinate) claim names, -1 for anything else."""
    if isinstance(claim, tuple) and len(claim) == 2:
        j, c = claim
        if isinstance(j, int) and isinstance(c, int) and 0 <= j < task.k and 1 <= c <= task.n:
            return j * task.n + c - 1
    return -1


def claim_at(task: TaskSpec, pos: int) -> tuple[int, int]:
    """The (block, 1-based coordinate) claim naming packed bit `pos`; the inverse of `position`."""
    if not 0 <= pos < task.input_bits:
        raise ParameterRangeError(f"bit {pos} is outside the {task.input_bits}-bit input")
    return pos // task.n, pos % task.n + 1


def marks(task: TaskSpec, held: int, claim) -> int:
    """1 when `held` contains the coordinate a (block, 1-based coordinate) claim
    names, 0 for anything else; a claim is genuine when marks(task, x & y, claim)."""
    pos = position(task, claim)
    return (held >> pos) & 1 if pos >= 0 else 0


def classify(task: TaskSpec, x: int, y: int, output) -> Verdict:
    """Judge one output for one input.

    The verdict reads the input only through `x & y`: which blocks meet and
    which coordinates both sides mark.  So on inputs with the same meet,
    outputs equal in value and in type, entry by entry for a tuple, get the
    same verdict, which `success_probability` relies on.  Equal values of
    other types need not: `1.0` and `(1.0, 0)` are WRONG where `1` and
    `(1, 0)` may be CORRECT.
    """
    if output is None:
        return Verdict.REJECT
    if task.kind == KIND_NDISJ_KFOLD:
        if not isinstance(output, int):
            return Verdict.WRONG
        return Verdict.CORRECT if output == ndisj_truth(task, x, y) else Verdict.WRONG
    meet = x & y
    if task.kind == KIND_SEARCH_KFOLD:
        slots = claims(task, output)
        if _FAILED not in slots and None in output:
            return Verdict.REJECT
        for j, claim in enumerate(slots):
            if claim is None:  # entry 0 declares block j disjoint
                if block(meet, j, task.n):
                    return Verdict.WRONG
            elif not marks(task, meet, claim):
                return Verdict.WRONG
        return Verdict.CORRECT
    # search-choose
    if output == 0:
        return Verdict.REJECT
    for claim in claims(task, output):
        if not marks(task, meet, claim):
            return Verdict.WRONG
    return Verdict.CORRECT if len(set(output)) == task.choose else Verdict.WRONG


def measured_inputs(
    task: TaskSpec, samples: int | None = None, seed: int | None = None
) -> tuple[Iterator[tuple[int, int]], bool]:
    """The inputs a protocol is measured on, as a lazy stream, and whether they are a sample.

    Every (x, y), y fastest, when the input space fits the exact cap, and
    always for search-choose, which yields only its promise: the pairs where
    at least `choose` blocks intersect (outside it no output is correct).
    Past the cap, `samples` uniform draws (x first, then y) from
    Random(seed), so fewer samples with the same seed are a prefix of more;
    without both, a refusal raised here, at the call, before any pair.
    """
    side = 1 << task.input_bits
    choose = task.choose if task.kind == KIND_SEARCH_CHOOSE else 0
    if choose or samples is None or seed is None or EXACT_PROTOCOL_INPUTS.fits(side * side):
        sampling = "past it, only a seeded sample is measured (samples= and seed=, --samples and --seed)"
        hint = "search-choose is measured on its promise, never sampled" if choose else sampling
        EXACT_PROTOCOL_INPUTS.check(side * side, "input pairs", hint)
        return _pairs(task, side, choose), False
    rng = Random(seed)
    return ((rng.randrange(side), rng.randrange(side)) for _ in range(samples)), True


def _pairs(task: TaskSpec, side: int, choose: int) -> Iterator[tuple[int, int]]:
    for x in range(side):
        for y in range(side):
            if not choose or intersecting_blocks(task, x, y) >= choose:
                yield x, y
