"""Protocol compositions: intersection finding from deciding, and choosing
K verified intersections from a k-fold searcher.

Both constructions take a base protocol as a black box and pay for it only
through repeated calls, so every cost below is an exact bit count in terms
of the base cost, and both come with the analytic success bound they are
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import factorial, prod
from random import Random

from ..caps import EXACT_PERMUTATION_WIDTH, HALVING_BRANCHES, MIXTURE_BRANCHES
from ..errors import ParameterRangeError
from .core import AnyProtocol, ProgramProtocol, RandomizedProtocol, as_randomized
from .library import index_bits, name_lowest
from .tasks import KIND_SEARCH_CHOOSE, KIND_SEARCH_KFOLD, TaskSpec, check_width, claims, position


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class CostBreakdown:
    """Exact bill for the halving reduction, term by term."""

    base_cost: int
    calls: int
    echo_bits: int
    final_alice_bits: int
    final_bob_bits: int
    window: int

    @property
    def total(self) -> int:
        return (
            self.calls * self.base_cost
            + self.echo_bits
            + self.final_alice_bits
            + self.final_bob_bits
        )


def _mixture(width: int, label: str, branches) -> RandomizedProtocol:
    """One branch per (probability, run_fn, worst_cost), in order, all on `width`-bit inputs."""
    return RandomizedProtocol(
        tuple(
            (prob, ProgramProtocol(width, width, run_fn, worst_cost, label))
            for prob, run_fn, worst_cost in branches
        )
    )


def ndisj_to_search_cost(n: int, k: int, s: int, base_cost: int) -> CostBreakdown:
    """s + 1 base calls, k echoed directions per round, then one window dump."""
    window = _ceil_div(n, 1 << s)
    return CostBreakdown(
        base_cost=base_cost,
        calls=s + 1,
        echo_bits=s * k,
        final_alice_bits=k * window,
        final_bob_bits=k * (1 + index_bits(window)),
        window=window,
    )


def reduce_ndisj_to_search(
    base: AnyProtocol, n: int, k: int, s: int
) -> tuple[RandomizedProtocol, CostBreakdown]:
    """Find a shared coordinate per block using a decider for all k blocks.

    One call on the raw input marks the live blocks.  Each of the s halving
    rounds calls the base on inputs masked to the left halves (ceiling
    splits) of the current windows and Alice echoes the k answers, making
    the window evolution common knowledge.  Whatever windows remain, at most
    ceil(n / 2^s) wide, Alice ships hers padded and Bob names the lowest
    shared coordinate per block with a validity bit plus an index.

    When every call answers correctly the result is correct, so a base
    that succeeds with probability sigma on every input gives at least
    sigma^(s+1).  When any call gives up (answers anything but an int mask),
    the run still speaks the same transcript, reading that answer as 0, and
    gives up too.  Coins multiply: the mixture runs one independent base
    draw per call.
    """
    task = TaskSpec(KIND_SEARCH_KFOLD, n, k)
    if s < 0 or s > 30:
        raise ParameterRangeError(f"need 0 <= s <= 30 halving rounds, got {s}")
    rand = as_randomized(base)
    check_width(task, rand)
    breakdown = ndisj_to_search_cost(n, k, s, rand.worst_cost)
    wsize = breakdown.window
    idx_width = index_bits(wsize)
    HALVING_BRANCHES.check(
        len(rand.branches) ** (s + 1), f"coin branches ({len(rand.branches)}^{s + 1})"
    )

    answer_mask = (1 << k) - 1

    def make_run(draws):
        first, rounds = draws[0], draws[1:]

        def run_fn(x: int, y: int):
            live, bits, length = first.run(x, y)
            gave_up = not isinstance(live, int)
            if gave_up:
                live = 0
            # Block j's window is the interval of `size` positions from bit `lo`.
            windows = [(j * n, n) for j in range(k)]
            for det in rounds:
                mask = 0
                for lo, size in windows:
                    mask |= ((1 << ((size + 1) >> 1)) - 1) << lo  # the left half, ceiling split
                answers, sub_bits, sub_length = det.run(x & mask, y & mask)
                if not isinstance(answers, int):
                    gave_up, answers = True, 0
                bits |= (sub_bits | (answers & answer_mask) << sub_length) << length
                length += sub_length + k
                for j, (lo, size) in enumerate(windows):
                    half = (size + 1) >> 1
                    windows[j] = (lo, half) if (answers >> j) & 1 else (lo + half, size - half)
            dumps = [(lo, (x >> lo) & ((1 << size) - 1)) for lo, size in windows]
            for _, sent in dumps:
                bits |= sent << length  # zero-padded to wsize
                length += wsize
            out = []
            for j, (lo, sent) in enumerate(dumps):
                found, bits, length = name_lowest(sent & (y >> lo), bits, length, idx_width)
                out.append(lo - j * n + found if found and (live >> j) & 1 else 0)
            return None if gave_up else tuple(out), bits, length

        return run_fn

    branches = (
        (prod(p for p, _ in combo), make_run(tuple(det for _, det in combo)), breakdown.total)
        for combo in product(rand.branches, repeat=s + 1)
    )
    return _mixture(task.input_bits, f"halving-search(s={s})", branches), breakdown


def _apply_permutation(perm: tuple[int, ...], mask: int) -> int:
    out = 0
    for new_pos, old_pos in enumerate(perm):
        if (mask >> old_pos) & 1:
            out |= 1 << new_pos
    return out


@dataclass(frozen=True)
class ChooseBound:
    """sigma (1 - alpha/4)^K under both parenthesizations."""

    sigma: Fraction
    alpha: Fraction
    choose: int
    scaled_outside: Fraction
    scaled_inside: Fraction


def choose_success_bound(sigma, k: int, choose: int) -> ChooseBound:
    """The bound at alpha = 4 choose / k, which 1 <= choose <= k keeps in (0, 4]."""
    sigma_f = Fraction(sigma)
    if not 0 <= sigma_f <= 1:
        raise ParameterRangeError(f"sigma must be a probability, got {sigma_f}")
    if not 1 <= choose <= k:
        raise ParameterRangeError(f"need 1 <= choose <= k, got choose={choose}, k={k}")
    alpha_f = Fraction(4 * choose, k)
    damp = 1 - alpha_f / 4
    return ChooseBound(
        sigma=sigma_f,
        alpha=alpha_f,
        choose=choose,
        scaled_outside=sigma_f * damp**choose,
        scaled_inside=(sigma_f * damp) ** choose,
    )


def reduce_search_from_kfold(
    base: AnyProtocol,
    n: int,
    k: int,
    choose: int,
    perm_samples: int | None = None,
    seed: int | None = None,
) -> RandomizedProtocol:
    """Turn a k-fold searcher into a chooser of `choose` verified claims.

    A public random permutation scrambles all k*n coordinate positions, the
    base searches the scrambled blocks, and every surviving nonzero claim
    maps back through the permutation to a genuine shared position.  With at
    least `choose` claims the protocol answers the lexicographically first
    ones, otherwise it gives up.  No extra communication: the permutation is
    shared coins and the unscrambling is local.

    All (k n)! permutations are enumerated exactly up to k*n = 6; beyond
    that pass perm_samples and seed for a uniform sample.  The chooser's
    success is measured on its whole promise, never on a sample, so it can
    be measured only up to k*n = 11: 2^(2kn) input pairs must fit
    EXACT_PROTOCOL_INPUTS (2^22).
    """
    width = TaskSpec(KIND_SEARCH_CHOOSE, n, k, choose).input_bits
    if perm_samples is not None and perm_samples < 1:
        raise ParameterRangeError(f"need perm_samples >= 1, got {perm_samples}")
    kfold = TaskSpec(KIND_SEARCH_KFOLD, n, k)
    rand = as_randomized(base)
    check_width(kfold, rand)
    if perm_samples is not None and seed is not None and not EXACT_PERMUTATION_WIDTH.fits(width):
        rng = Random(seed)
        perms = []
        for _ in range(perm_samples):
            perm = list(range(width))
            rng.shuffle(perm)
            perms.append(tuple(perm))
        perm_prob = Fraction(1, perm_samples)
    else:
        hint = "sample permutations with perm_samples= and seed= (--perm-samples, --seed)"
        EXACT_PERMUTATION_WIDTH.check(width, "coordinates to permute exactly", hint)
        perms = list(permutations(range(width)))
        perm_prob = Fraction(1, factorial(width))
    MIXTURE_BRANCHES.check(
        len(perms) * len(rand.branches),
        f"mixture branches ({len(perms)} permutations x {len(rand.branches)} coin branches)",
    )

    def make_run(perm, det):
        def run_fn(x: int, y: int):
            res = det.run(_apply_permutation(perm, x), _apply_permutation(perm, y))
            found = []
            for claim in claims(kfold, res.output):
                pos = position(kfold, claim)
                if pos >= 0:
                    j, c = divmod(perm[pos], n)
                    found.append((j, c + 1))
            if len(found) >= choose:
                found.sort()
                return tuple(found[:choose]), res.bits, res.length
            return 0, res.bits, res.length

        return run_fn

    branches = (
        (perm_prob * prob, make_run(perm, det), det.worst_cost)
        for perm in perms
        for prob, det in rand.branches
    )
    return _mixture(width, f"choose-{choose}", branches)
