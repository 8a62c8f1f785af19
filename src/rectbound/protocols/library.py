"""Baseline protocols the reductions and tests build on.

All of them are one-way and brute force: Alice ships her whole input, Bob
answers.  Their value is that the costs are exact, the behavior is obvious,
and the k-fold versions exercise the packed block layout end to end.
"""

from __future__ import annotations

from ..errors import ParameterRangeError
from .core import ProgramProtocol
from .tasks import block


def index_bits(n: int) -> int:
    """Bits needed to name one of n items; 0 when there is nothing to pick."""
    if n < 1:
        raise ParameterRangeError(f"need a positive range, got {n}")
    return (n - 1).bit_length()


def trivial_ndisj_kfold(n: int, k: int) -> ProgramProtocol:
    """Alice sends all k blocks, Bob answers one bit per block: kn + k bits."""
    if n < 1 or k < 1:
        raise ParameterRangeError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    width = n * k

    def run_fn(x: int, y: int):
        answers = 0
        meet = x & y
        for j in range(k):
            if block(meet, j, n):
                answers |= 1 << j
        return answers, x | answers << width, width + k

    return ProgramProtocol(
        n_alice=width,
        n_bob=width,
        run_fn=run_fn,
        worst_cost=width + k,
        label=f"trivial-ndisj-{k}fold(n={n})",
    )


def trivial_search_kfold(n: int, k: int) -> ProgramProtocol:
    """Alice sends everything, Bob names the lowest shared coordinate per block.

    Per block Bob spends one validity bit plus an index of ceil(log2 n) bits,
    zero-padded when the block is disjoint: kn + k(1 + ceil(log2 n)) total.
    """
    if n < 1 or k < 1:
        raise ParameterRangeError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    width = n * k
    idx_bits = index_bits(n)

    def run_fn(x: int, y: int):
        bits, length = x, width
        shared = x & y
        out = []
        for j in range(k):
            meet = block(shared, j, n)
            if meet:
                lowest = (meet & -meet).bit_length() - 1
                bits |= (1 | lowest << 1) << length  # validity bit, then the index
                out.append(lowest + 1)
            else:
                out.append(0)
            length += 1 + idx_bits
        return tuple(out), bits, length

    return ProgramProtocol(
        n_alice=width,
        n_bob=width,
        run_fn=run_fn,
        worst_cost=width + k * (1 + idx_bits),
        label=f"trivial-search-{k}fold(n={n})",
    )
