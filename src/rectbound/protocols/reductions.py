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
from math import factorial
from random import Random

from ..errors import CapExceededError, ParameterRangeError
from .core import AnyProtocol, ProgramProtocol, RandomizedProtocol, as_randomized
from .library import index_bits

_BRANCH_LIMIT = 4096
_EXACT_PERMUTATION_LIMIT = 6


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
    sigma^(s+1).  Coins multiply: the mixture runs one independent base
    draw per call.
    """
    if n < 1 or k < 1:
        raise ParameterRangeError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if s < 0 or s > 30:
        raise ParameterRangeError(f"need 0 <= s <= 30 halving rounds, got {s}")
    rand = as_randomized(base)
    width = n * k
    if rand.n_alice != width or rand.n_bob != width:
        raise ParameterRangeError(
            f"base inputs are {rand.n_alice}x{rand.n_bob} bits, expected {width}"
        )
    breakdown = ndisj_to_search_cost(n, k, s, rand.worst_cost)
    if len(rand.branches) ** (s + 1) > _BRANCH_LIMIT:
        raise CapExceededError(
            f"{len(rand.branches)}^{s + 1} coin branches exceed the limit {_BRANCH_LIMIT}"
        )

    def make_run(draws):
        def run_fn(x: int, y: int):
            transcript: list[int] = []
            res = draws[0].run(x, y)
            transcript.extend(res.transcript)
            live = res.output if isinstance(res.output, int) else 0
            windows = [list(range(n)) for _ in range(k)]
            for t in range(1, s + 1):
                lefts = [w[: _ceil_div(len(w), 2)] for w in windows]
                mask = 0
                for j, left in enumerate(lefts):
                    for pos in left:
                        mask |= 1 << (j * n + pos)
                res = draws[t].run(x & mask, y & mask)
                answers = res.output if isinstance(res.output, int) else 0
                transcript.extend(res.transcript)
                for j in range(k):
                    bit = (answers >> j) & 1
                    transcript.append(bit)
                    windows[j] = lefts[j] if bit else windows[j][len(lefts[j]):]
            wsize = breakdown.window
            shared: list[list[int]] = []
            for j in range(k):
                w = windows[j]
                sent = []
                for i in range(wsize):
                    bit = (x >> (j * n + w[i])) & 1 if i < len(w) else 0
                    sent.append(bit)
                    transcript.append(bit)
                shared.append(
                    [
                        i
                        for i in range(len(w))
                        if sent[i] and (y >> (j * n + w[i])) & 1
                    ]
                )
            idx_width = index_bits(wsize)
            out = []
            for j in range(k):
                found = bool(shared[j])
                idx = shared[j][0] if found else 0
                transcript.append(1 if found else 0)
                transcript.extend((idx >> t) & 1 for t in range(idx_width))
                if not (live >> j) & 1:
                    out.append(0)
                elif found:
                    out.append(windows[j][idx] + 1)
                else:
                    out.append(0)
            return tuple(out), tuple(transcript)

        return run_fn

    branches = []
    for combo in product(rand.branches, repeat=s + 1):
        prob = Fraction(1)
        draws = []
        for p, det in combo:
            prob *= p
            draws.append(det)
        branches.append(
            (
                prob,
                ProgramProtocol(
                    n_alice=width,
                    n_bob=width,
                    run_fn=make_run(tuple(draws)),
                    worst_cost=breakdown.total,
                    label=f"halving-search(s={s})",
                ),
            )
        )
    return RandomizedProtocol(tuple(branches)), breakdown


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


def choose_success_bound(sigma, k: int, choose: int, alpha=None) -> ChooseBound:
    sigma_f = Fraction(sigma)
    if not 0 <= sigma_f <= 1:
        raise ParameterRangeError(f"sigma must be a probability, got {sigma_f}")
    if not 1 <= choose <= k:
        raise ParameterRangeError(f"need 1 <= choose <= k, got choose={choose}, k={k}")
    alpha_f = Fraction(4 * choose, k) if alpha is None else Fraction(alpha)
    if not 0 <= alpha_f <= 4:
        raise ParameterRangeError(f"need 0 <= alpha <= 4, got {alpha_f}")
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
    that pass perm_samples and seed for a uniform sample.
    """
    if n < 1 or k < 1 or not 1 <= choose <= k:
        raise ParameterRangeError(
            f"need n, k >= 1 and 1 <= choose <= k, got n={n}, k={k}, choose={choose}"
        )
    rand = as_randomized(base)
    width = n * k
    if rand.n_alice != width or rand.n_bob != width:
        raise ParameterRangeError(
            f"base inputs are {rand.n_alice}x{rand.n_bob} bits, expected {width}"
        )
    if width <= _EXACT_PERMUTATION_LIMIT:
        perms = list(permutations(range(width)))
        perm_prob = Fraction(1, factorial(width))
    else:
        if perm_samples is None or seed is None:
            raise CapExceededError(
                f"{width}! permutations exceed the exact limit; pass perm_samples= and seed="
            )
        rng = Random(seed)
        perms = []
        for _ in range(perm_samples):
            perm = list(range(width))
            rng.shuffle(perm)
            perms.append(tuple(perm))
        perm_prob = Fraction(1, perm_samples)
    if len(perms) * len(rand.branches) > _BRANCH_LIMIT * 8:
        raise CapExceededError(
            f"{len(perms)} x {len(rand.branches)} branches exceed the mixture limit"
        )

    def make_run(perm, det):
        def run_fn(x: int, y: int):
            res = det.run(_apply_permutation(perm, x), _apply_permutation(perm, y))
            claims = []
            if isinstance(res.output, tuple):
                for j, entry in enumerate(res.output):
                    if isinstance(entry, int) and entry >= 1:
                        original = perm[j * n + (entry - 1)]
                        claims.append((original // n, original % n + 1))
            if len(claims) >= choose:
                claims.sort()
                return tuple(claims[:choose]), res.transcript
            return 0, res.transcript

        return run_fn

    branches = []
    for perm in perms:
        for prob, det in rand.branches:
            branches.append(
                (
                    perm_prob * prob,
                    ProgramProtocol(
                        n_alice=width,
                        n_bob=width,
                        run_fn=make_run(perm, det),
                        worst_cost=det.worst_cost,
                        label=f"choose-{choose}",
                    ),
                )
            )
    return RandomizedProtocol(tuple(branches))
