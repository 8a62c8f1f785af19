"""Measurement tools: success probability, leaf census, LP bridge.

The leaf census is the load-bearing piece.  A deterministic protocol splits
the input space into one combinatorial rectangle per conversation, and that
observation is the whole route from protocols to the rectangle LPs: the
accepting rectangles of each branch, weighted by branch probability, form a
feasible point whose total weight is at most 2^cost.

Census semantics differ by representation, deliberately.  An explicit tree
is walked structurally, so leaves that no input can reach still appear with
empty rectangles; a replayed program only shows the conversations that
actually happen, grouped by transcript.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt
from random import Random
from typing import Callable, Mapping

from ..caps import exact_protocol_cap
from ..errors import CapExceededError, ParameterRangeError
from ..rectangles import Rectangle, string_masks
from .core import (
    ALICE,
    AnyProtocol,
    Leaf,
    ProgramProtocol,
    TreeProtocol,
    as_randomized,
)
from .tasks import TaskSpec, Verdict, classify

MODE_EXACT = "exact-rational"
MODE_MONTE_CARLO = "monte-carlo-ci"

CENSUS_STRUCTURAL = "structural"
CENSUS_TRANSCRIPT = "transcript"


@dataclass(frozen=True)
class SuccessReport:
    mode: str
    worst: Fraction
    average: Fraction
    rejected: Fraction
    wrong: Fraction
    inputs_checked: int
    worst_input: tuple[int, int]
    wilson: tuple[float, float] | None = None

    def describe(self) -> str:
        out = (
            f"success >= {self.worst} (avg {self.average}) over "
            f"{self.inputs_checked} inputs [{self.mode}]"
        )
        if self.wilson is not None:
            out += f", all-branch-correct rate CI [{self.wilson[0]:.4f}, {self.wilson[1]:.4f}]"
        return out


def _wilson(successes: int, trials: int, z: float) -> tuple[float, float]:
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1 + z * z / trials
    center = phat + z * z / (2 * trials)
    spread = z * sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(0.0, (center - spread) / denom), min(1.0, (center + spread) / denom)


def success_probability(
    proto: AnyProtocol,
    task: TaskSpec,
    inputs=None,
    samples: int | None = None,
    seed: int | None = None,
    z: float = 1.96,
) -> SuccessReport:
    """Exact per-input success, enumerated or sampled over the input space.

    Branches are always enumerated exactly, so per-input success is an exact
    rational.  The input side is enumerated when the space fits the cap or
    when an explicit probe list is given; otherwise `samples` and `seed`
    drive a uniform sample and the Wilson interval covers the probability
    that a uniform input is answered correctly on every branch.
    """
    rand = as_randomized(proto)
    if rand.n_alice != task.input_bits or rand.n_bob != task.input_bits:
        raise ParameterRangeError(
            f"protocol inputs are {rand.n_alice}x{rand.n_bob} bits, task needs {task.input_bits}"
        )
    side = 1 << task.input_bits
    wilson = None
    if inputs is not None:
        pairs = list(inputs)
        mode = MODE_EXACT
    elif side * side <= exact_protocol_cap():
        pairs = [(x, y) for x in range(side) for y in range(side)]
        mode = MODE_EXACT
    else:
        if samples is None or seed is None:
            raise CapExceededError(
                f"{side * side} input pairs exceed the exact cap; pass samples= and seed="
            )
        rng = Random(seed)
        pairs = [(rng.randrange(side), rng.randrange(side)) for _ in range(samples)]
        mode = MODE_MONTE_CARLO
    if not pairs:
        raise ParameterRangeError("no inputs to evaluate")

    worst = None
    worst_input = pairs[0]
    total = Fraction(0)
    total_reject = Fraction(0)
    total_wrong = Fraction(0)
    perfect = 0
    for x, y in pairs:
        p_ok = Fraction(0)
        p_reject = Fraction(0)
        p_wrong = Fraction(0)
        for prob, det in rand.branches:
            verdict = classify(task, x, y, det.run(x, y).output)
            if verdict is Verdict.CORRECT:
                p_ok += prob
            elif verdict is Verdict.REJECT:
                p_reject += prob
            else:
                p_wrong += prob
        if worst is None or p_ok < worst:
            worst = p_ok
            worst_input = (x, y)
        total += p_ok
        total_reject += p_reject
        total_wrong += p_wrong
        if p_ok == 1:
            perfect += 1
    count = len(pairs)
    if mode == MODE_MONTE_CARLO:
        wilson = _wilson(perfect, count, z)
    return SuccessReport(
        mode=mode,
        worst=worst,
        average=total / count,
        rejected=total_reject / count,
        wrong=total_wrong / count,
        inputs_checked=count,
        worst_input=worst_input,
        wilson=wilson,
    )


@dataclass(frozen=True)
class LeafRectangle:
    """The inputs reaching one leaf; rows and cols are string sets over input masks."""

    output: object
    rows: int
    cols: int
    depth: int

    @property
    def reachable(self) -> bool:
        return bool(self.rows) and bool(self.cols)

    @property
    def pair_count(self) -> int:
        return self.rows.bit_count() * self.cols.bit_count()


@dataclass(frozen=True)
class LeafReport:
    mode: str
    n_alice: int
    n_bob: int
    leaves: tuple[LeafRectangle, ...]
    partition_ok: bool

    @property
    def leaf_count(self) -> int:
        return len(self.leaves)

    def count_outputs(self, accept: Callable[[object], bool]) -> int:
        """Leaves whose output the predicate accepts, unreachable ones included."""
        return sum(1 for leaf in self.leaves if accept(leaf.output))


def _census_cap_check(n_alice: int, n_bob: int) -> None:
    if 1 << (n_alice + n_bob) > exact_protocol_cap():
        raise CapExceededError(
            f"leaf census over 2^{n_alice + n_bob} inputs exceeds the exact cap"
        )


def _structural_census(proto: TreeProtocol) -> LeafReport:
    _census_cap_check(proto.n_alice, proto.n_bob)
    leaves: list[LeafRectangle] = []

    def walk(node, xs: int, ys: int, depth: int) -> None:
        if isinstance(node, Leaf):
            leaves.append(LeafRectangle(node.value, xs, ys, depth))
            return
        held = xs if node.owner == ALICE else ys
        sides = [0, 0]
        for v in string_masks(held):
            sides[node.message(v)] |= 1 << v
        for bit in (0, 1):
            new_xs = sides[bit] if node.owner == ALICE else xs
            new_ys = ys if node.owner == ALICE else sides[bit]
            walk(node.children[bit], new_xs, new_ys, depth + 1)

    walk(proto.root, (1 << (1 << proto.n_alice)) - 1, (1 << (1 << proto.n_bob)) - 1, 0)

    covered = sum(leaf.pair_count for leaf in leaves)
    partition_ok = covered == 1 << (proto.n_alice + proto.n_bob)
    if partition_ok:
        for leaf in leaves:
            if not leaf.reachable:
                continue
            x = next(string_masks(leaf.rows))
            y = next(string_masks(leaf.cols))
            if proto.run(x, y).output != leaf.output:
                partition_ok = False
                break
    return LeafReport(
        mode=CENSUS_STRUCTURAL,
        n_alice=proto.n_alice,
        n_bob=proto.n_bob,
        leaves=tuple(leaves),
        partition_ok=partition_ok,
    )


def _transcript_census(proto: ProgramProtocol) -> LeafReport:
    _census_cap_check(proto.n_alice, proto.n_bob)
    groups: dict[tuple[int, ...], dict] = {}
    consistent = True
    for x in range(1 << proto.n_alice):
        for y in range(1 << proto.n_bob):
            res = proto.run(x, y)
            g = groups.setdefault(
                res.transcript, {"output": res.output, "xs": 0, "ys": 0, "pairs": 0}
            )
            if g["output"] != res.output:
                consistent = False
            g["xs"] |= 1 << x
            g["ys"] |= 1 << y
            g["pairs"] += 1
    leaves = []
    product_ok = consistent
    for transcript in sorted(groups):
        g = groups[transcript]
        if g["pairs"] != g["xs"].bit_count() * g["ys"].bit_count():
            product_ok = False
        leaves.append(LeafRectangle(g["output"], g["xs"], g["ys"], len(transcript)))
    return LeafReport(
        mode=CENSUS_TRANSCRIPT,
        n_alice=proto.n_alice,
        n_bob=proto.n_bob,
        leaves=tuple(leaves),
        partition_ok=product_ok,
    )


def leaf_rectangle_check(proto) -> LeafReport:
    """Census of conversation rectangles; see the module docstring for modes."""
    if isinstance(proto, TreeProtocol):
        return _structural_census(proto)
    if isinstance(proto, ProgramProtocol):
        return _transcript_census(proto)
    raise ParameterRangeError(
        "census runs on a deterministic protocol; pass one branch of a mixture"
    )


def accepting_rectangle_weights(
    proto: AnyProtocol, accept: Callable[[object], bool]
) -> dict[Rectangle, Fraction]:
    """Branch-probability mass of every reachable accepting leaf rectangle."""
    rand = as_randomized(proto)
    if rand.n_alice != rand.n_bob:
        raise ParameterRangeError("rectangle weights need a square universe")
    n = rand.n_alice
    weights: dict[Rectangle, Fraction] = {}
    for prob, det in rand.branches:
        for leaf in leaf_rectangle_check(det).leaves:
            if not leaf.reachable or not accept(leaf.output):
                continue
            rect = Rectangle(n, leaf.rows, leaf.cols)
            weights[rect] = weights.get(rect, Fraction(0)) + prob
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

    worst = max_violation(lp, weights, Fraction(0))
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


def cost_profile(proto: AnyProtocol, inputs) -> CostProfile:
    """Observed transcript lengths across the given inputs and all branches."""
    rand = as_randomized(proto)
    seen: list[int] = []
    hist: dict[int, int] = {}
    for x, y in inputs:
        per_input = [det.run(x, y).cost for _, det in rand.branches]
        seen.extend(per_input)
        worst = max(per_input)
        hist[worst] = hist.get(worst, 0) + 1
    if not seen:
        raise ParameterRangeError("no inputs to profile")
    return CostProfile(
        declared=rand.worst_cost,
        observed_max=max(seen),
        observed_min=min(seen),
        uniform=min(seen) == max(seen),
        histogram=dict(sorted(hist.items())),
    )
