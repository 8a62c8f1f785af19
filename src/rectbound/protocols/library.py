"""Baseline protocols the reductions and tests build on.

All of them are one-way and brute force: Alice ships her whole input, Bob
answers.  Their value is that the costs are exact, the behavior is obvious,
and the k-fold versions exercise the packed block layout end to end.
"""

from __future__ import annotations

from ..errors import ParameterRangeError
from .core import ProgramProtocol
from .tasks import KIND_NDISJ_KFOLD, KIND_SEARCH_KFOLD, TaskSpec, block, ndisj_truth


def index_bits(n: int) -> int:
    """Bits needed to name one of n items; 0 when there is nothing to pick."""
    if n < 1:
        raise ParameterRangeError(f"need a positive range, got {n}")
    return (n - 1).bit_length()


def name_lowest(shared: int, bits: int, length: int, idx_bits: int) -> tuple[int, int, int]:
    """Bob's validity bit, then the index of `shared`'s lowest position in `idx_bits`
    bits (zero-padded when empty): the 1-based position or 0, and the new transcript."""
    if not shared:
        return 0, bits, length + 1 + idx_bits
    lowest = (shared & -shared).bit_length() - 1
    return lowest + 1, bits | (1 | lowest << 1) << length, length + 1 + idx_bits


def trivial_ndisj_kfold(n: int, k: int) -> ProgramProtocol:
    """Alice sends all k blocks, Bob answers one bit per block: kn + k bits."""
    task = TaskSpec(KIND_NDISJ_KFOLD, n, k)
    width = task.input_bits

    def run_fn(x: int, y: int):
        answers = ndisj_truth(task, x, y)
        return answers, x | answers << width, width + k

    return ProgramProtocol(
        width=width,
        run_fn=run_fn,
        worst_cost=width + k,
        label=f"trivial-ndisj-{k}fold(n={n})",
    )


def trivial_search_kfold(n: int, k: int) -> ProgramProtocol:
    """Alice sends everything, Bob names the lowest shared coordinate per block.

    Per block Bob spends one validity bit plus an index of ceil(log2 n) bits,
    zero-padded when the block is disjoint: kn + k(1 + ceil(log2 n)) total.
    """
    width = TaskSpec(KIND_SEARCH_KFOLD, n, k).input_bits
    idx_bits = index_bits(n)

    def run_fn(x: int, y: int):
        bits, length = x, width
        shared = x & y
        out = []
        for j in range(k):
            found, bits, length = name_lowest(block(shared, j, n), bits, length, idx_bits)
            out.append(found)
        return tuple(out), bits, length

    return ProgramProtocol(
        width=width,
        run_fn=run_fn,
        worst_cost=width + k * (1 + idx_bits),
        label=f"trivial-search-{k}fold(n={n})",
    )
