"""Measurement tools: success probability, leaf census, LP bridge.

The leaf census is the load-bearing piece.  A deterministic protocol splits
the input space into one combinatorial rectangle per conversation, and that
observation is the whole route from protocols to the rectangle LPs: the
accepting rectangles of each branch, weighted by branch probability, form a
feasible point whose total weight is at most 2^cost.

The census runs each input pair through the protocol's own checked `run`
and groups the runs by transcript, so only conversations that happen
appear.  Transcripts are prefix-free, so their lexicographic order is the
depth-first order of the protocol tree.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, sqrt
from typing import Callable, Mapping

from ..caps import EXACT_PROTOCOL_INPUTS
from ..errors import ParameterRangeError
from ..rectangles import Rectangle
from .core import (
    AnyProtocol,
    ProgramProtocol,
    as_randomized,
    unpack_transcript,
)
from .tasks import TaskSpec, Verdict, check_width, classify, measured_inputs

MODE_EXACT = "exact-rational"
MODE_MONTE_CARLO = "monte-carlo-ci"

# Normal quantile of the two-sided 95% Wilson interval.
WILSON_Z = 1.96


@dataclass(frozen=True)
class SuccessReport:
    mode: str
    worst: Fraction
    average: Fraction
    rejected: Fraction
    wrong: Fraction
    inputs_checked: int
    worst_input: tuple[int, int]
    # Each input's shortest and longest branch transcript, in input order.
    shortest: array = field(repr=False)
    longest: array = field(repr=False)
    wilson: tuple[float, float] | None = None


def _wilson(successes: int, trials: int) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    z = WILSON_Z
    phat = successes / trials
    denom = 1 + z * z / trials
    center = phat + z * z / (2 * trials)
    spread = z * sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(0.0, (center - spread) / denom), min(1.0, (center + spread) / denom)


def _exact_tuple(output) -> bool:
    """The output is a tuple whose entries are each None or an exact int.

    Such tuples, exact ints and None are the outputs whose value alone fixes
    their verdict, so equal ones may share one judgement.  Any other output,
    a bool, a float, a list or a nested tuple, is judged afresh: `1 == 1.0 ==
    True` hash alike, yet `classify` judges `1.0` and `(1.0, 0)` WRONG where
    `1` and `(1, 0)` may be CORRECT.
    """
    if type(output) is not tuple:
        return False
    for entry in output:
        if entry is not None and type(entry) is not int:
            return False
    return True


def _same_output(a, b) -> bool:
    """Equal outputs that `classify` cannot tell apart: equal, of one type,
    and for tuples of one type entry by entry (`_exact_tuple`'s reason)."""
    if type(a) is not type(b) or a != b:
        return False
    return type(a) is not tuple or all(_same_output(p, q) for p, q in zip(a, b))


def success_probability(
    proto: AnyProtocol,
    task: TaskSpec,
    inputs=None,
    samples: int | None = None,
    seed: int | None = None,
) -> SuccessReport:
    """Exact per-input success, enumerated or sampled over the input space.

    Branches are always enumerated exactly, so per-input success is an exact
    rational.  The input side is enumerated when the space fits the cap or
    when an explicit probe list is given; otherwise `samples` and `seed`
    drive a uniform sample and the 95% Wilson interval covers the probability
    that a uniform input is answered correctly on every branch.  The same
    runs record each input's transcript lengths for `cost_profile`.  Branch
    probabilities are summed as integers over their lcm denominator, and
    Fractions are built once, for the report.  An output whose value fixes
    its verdict is judged once per (x & y, output) in a pass.  The inputs
    are read once, in order, as a stream: only the length arrays grow with
    them.
    """
    rand = as_randomized(proto)
    check_width(task, rand)
    pairs, sampled = (inputs, False) if inputs is not None else measured_inputs(task, samples, seed)

    denom = lcm(*(prob.denominator for prob, _ in rand.branches))
    weighted = [(prob.numerator * (denom // prob.denominator), det) for prob, det in rand.branches]
    # classify reads (x, y) only through x & y, so an output whose value
    # fixes its verdict is judged once per (x & y, output) in this pass.
    judged: dict[tuple[int, object], Verdict] = {}
    correct, reject = Verdict.CORRECT, Verdict.REJECT
    # Every run's length is in [0, worst_cost], which `run` checks.
    most = rand.worst_cost
    # p_ok never exceeds denom, so the first input sets the worst.
    worst, worst_input = denom + 1, None
    total = total_reject = perfect = 0
    shortest, longest = array("I"), array("I")
    for x, y in pairs:
        p_ok = p_reject = 0
        low, high = most, 0
        for weight, det in weighted:
            output, _, length = det.run(x, y)
            if length < low:
                low = length
            if length > high:
                high = length
            if type(output) is int or output is None or _exact_tuple(output):
                key = (x & y, output)
                verdict = judged.get(key)
                if verdict is None:
                    verdict = judged[key] = classify(task, x, y, output)
            else:
                verdict = classify(task, x, y, output)
            if verdict is correct:
                p_ok += weight
            elif verdict is reject:
                p_reject += weight
        if p_ok < worst:
            worst, worst_input = p_ok, (x, y)
        total += p_ok
        total_reject += p_reject
        if p_ok == denom:
            perfect += 1
        shortest.append(low)
        longest.append(high)
    count = len(longest)
    if not count:
        raise ParameterRangeError("no inputs to evaluate")
    return SuccessReport(
        mode=MODE_MONTE_CARLO if sampled else MODE_EXACT,
        worst=Fraction(worst, denom),
        average=Fraction(total, denom * count),
        rejected=Fraction(total_reject, denom * count),
        # The weights of one input's branches sum to denom: what is neither
        # correct nor rejected is wrong.
        wrong=Fraction(denom * count - total - total_reject, denom * count),
        inputs_checked=count,
        worst_input=worst_input,
        shortest=shortest,
        longest=longest,
        wilson=_wilson(perfect, count) if sampled else None,
    )


@dataclass(frozen=True)
class LeafRectangle:
    """The inputs reaching one leaf, the transcript's length as its depth."""

    output: object
    rect: Rectangle
    depth: int


@dataclass(frozen=True)
class LeafReport:
    width: int
    leaves: tuple[LeafRectangle, ...]
    partition_ok: bool

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)


def leaf_rectangle_check(proto: ProgramProtocol) -> LeafReport:
    """Census of conversation rectangles, one leaf per transcript that occurs.

    Every input pair runs through `proto.run`, so the transcript contract is
    checked as in any other run.
    `partition_ok` holds when each group is a product rectangle with one
    output: equal outputs of different types, such as `1` and `1.0`, are two.
    """
    if not isinstance(proto, ProgramProtocol):
        raise ParameterRangeError("census runs on a deterministic protocol; pass one branch of a mixture")
    width = proto.width
    EXACT_PROTOCOL_INPUTS.check(1 << 2 * width, "input pairs in a leaf census")
    groups: dict[tuple[int, int], dict] = {}
    partition_ok = True
    for x in range(1 << width):
        for y in range(1 << width):
            output, bits, length = proto.run(x, y)
            g = groups.setdefault((bits, length), {"output": output, "xs": 0, "ys": 0, "pairs": 0})
            if not _same_output(g["output"], output):
                partition_ok = False
            g["xs"] |= 1 << x
            g["ys"] |= 1 << y
            g["pairs"] += 1
    leaves = []
    # Leaves in lexicographic order of the spoken bits, first bit first.
    for bits, length in sorted(groups, key=lambda key: unpack_transcript(*key)):
        g = groups[bits, length]
        rect = Rectangle(width, g["xs"], g["ys"])
        if g["pairs"] != rect.pair_count:
            partition_ok = False
        leaves.append(LeafRectangle(g["output"], rect, length))
    return LeafReport(width=width, leaves=tuple(leaves), partition_ok=partition_ok)


def accepting_rectangle_weights(
    proto: AnyProtocol, accept: Callable[[object], bool]
) -> dict[Rectangle, Fraction]:
    """Branch-probability mass of every accepting leaf rectangle."""
    weights: dict[Rectangle, Fraction] = {}
    for prob, det in as_randomized(proto).branches:
        for leaf in leaf_rectangle_check(det).leaves:
            if accept(leaf.output):
                weights[leaf.rect] = weights.get(leaf.rect, Fraction(0)) + prob
    return weights


@dataclass(frozen=True)
class BridgeReport:
    feasible: bool
    family_ok: bool
    max_violation: Fraction
    total_weight: Fraction
    weight_cap: Fraction
    within_cap: bool

    @property
    def ok(self) -> bool:
        return self.feasible and self.family_ok and self.within_cap


def check_weights_against_lp(lp, weights: Mapping[Rectangle, Fraction], cost: int) -> BridgeReport:
    """Do these protocol-derived weights satisfy the LP rows and 2^cost cap?"""
    from ..lp_bounds.model import max_violation

    worst = max_violation(lp, weights)
    family_ok = all(lp.family.contains(rect) for rect in weights)
    total = sum(weights.values(), Fraction(0))
    cap = Fraction(2) ** cost
    return BridgeReport(
        feasible=worst <= 0,
        family_ok=family_ok,
        max_violation=worst,
        total_weight=total,
        weight_cap=cap,
        within_cap=total <= cap,
    )


@dataclass(frozen=True)
class CostProfile:
    declared: int
    observed_max: int
    observed_min: int
    uniform: bool
    # transcript length -> how many inputs hit it on their longest branch
    histogram: Mapping[int, int] = field(default_factory=dict)


def cost_profile(report: SuccessReport, declared: int, first: int | None = None) -> CostProfile:
    """The transcript lengths a success pass recorded, over its first inputs (default all)."""
    shortest, longest = report.shortest[:first], report.longest[:first]
    if not longest:
        raise ParameterRangeError("no inputs to profile")
    low, high = min(shortest), max(longest)
    return CostProfile(
        declared=declared,
        observed_max=high,
        observed_min=low,
        uniform=low == high,
        histogram=dict(sorted(Counter(longest).items())),
    )
