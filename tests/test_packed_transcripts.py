"""Packed transcripts: the bit layout, the census order, and differential
checks of the packed constructions against list-based references."""

from fractions import Fraction
from itertools import product
from random import Random

import pytest

from rectbound.protocols import (
    ProgramProtocol,
    RandomizedProtocol,
    TaskSpec,
    as_randomized,
    block,
    index_bits,
    leaf_rectangle_check,
    make_verified,
    ndisj_truth,
    reduce_ndisj_to_search,
    reduce_search_from_kfold,
    trivial_ndisj_kfold,
    trivial_search_kfold,
)

F = Fraction


def _spoken(bits: int, length: int) -> list[int]:
    return [(bits >> t) & 1 for t in range(length)]


def _pairs(width: int, samples: int | None = None, seed: int = 0):
    """Every (x, y) over `width` bits, or a seeded uniform sample of them."""
    if samples is None:
        return product(range(1 << width), repeat=2)
    rng = Random(seed)
    return [(rng.getrandbits(width), rng.getrandbits(width)) for _ in range(samples)]


# --- list-based references: the per-bit replays the packed ones replaced ---


def _reference_halving(draws, n: int, k: int, s: int, wsize: int):
    """Halving replay with windows as lists of positions and a list transcript."""

    def ceil_half(m: int) -> int:
        return -(-m // 2)

    def run_fn(x: int, y: int):
        transcript: list[int] = []
        res = draws[0].run(x, y)
        transcript.extend(res.transcript)
        outputs = [res.output]
        live = res.output if isinstance(res.output, int) else 0
        windows = [list(range(n)) for _ in range(k)]
        for t in range(1, s + 1):
            lefts = [w[: ceil_half(len(w))] for w in windows]
            mask = 0
            for j, left in enumerate(lefts):
                for pos in left:
                    mask |= 1 << (j * n + pos)
            res = draws[t].run(x & mask, y & mask)
            outputs.append(res.output)
            answers = res.output if isinstance(res.output, int) else 0
            transcript.extend(res.transcript)
            for j in range(k):
                bit = (answers >> j) & 1
                transcript.append(bit)
                windows[j] = lefts[j] if bit else windows[j][len(lefts[j]):]
        shared: list[list[int]] = []
        for j in range(k):
            w = windows[j]
            sent = []
            for i in range(wsize):
                bit = (x >> (j * n + w[i])) & 1 if i < len(w) else 0
                sent.append(bit)
                transcript.append(bit)
            shared.append([i for i in range(len(w)) if sent[i] and (y >> (j * n + w[i])) & 1])
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
        # A base that gives up on any call makes the whole run give up.
        if not all(isinstance(o, int) for o in outputs):
            return None, tuple(transcript)
        return tuple(out), tuple(transcript)

    return run_fn


def _slot_claims(task: TaskSpec, output) -> list[tuple[int, int] | None]:
    """One (block, coordinate) entry per audit slot; None marks a vacuous slot.

    Kept apart from `tasks.claims` so the reference shares no claim logic with
    the code it checks; it reads well-formed outputs only.
    """
    slots: list[tuple[int, int] | None] = [None] * (task.choose if task.kind == "search-choose" else task.k)
    if output is None or output == 0:
        return slots
    if task.kind == "search-kfold":
        for j, entry in enumerate(output):
            if isinstance(entry, int) and entry >= 1:
                slots[j] = (j, entry)
    else:
        for pos, claim in enumerate(output[: len(slots)]):
            slots[pos] = claim
    return slots


def _membership(task: TaskSpec, held: int, claim: tuple[int, int] | None) -> int:
    if claim is None:
        return 1
    j, c = claim
    if not 0 <= j < task.k or not 1 <= c <= task.n:
        return 0
    return (block(held, j, task.n) >> (c - 1)) & 1


def _reference_verified(base, task: TaskSpec, mode: str):
    """make_verified's audit with a list transcript."""

    def run_fn(x: int, y: int):
        res = base.run(x, y)
        transcript = list(res.transcript)
        claims = _slot_claims(task, res.output)
        alice_bits = [_membership(task, x, claim) for claim in claims]
        bob_bits = [_membership(task, y, claim) for claim in claims]
        if mode == "explicit":
            transcript.extend(alice_bits)
            transcript.extend(bob_bits)
        a_ok = 1 if all(alice_bits) else 0
        b_ok = 1 if all(bob_bits) else 0
        transcript.extend((a_ok, b_ok))
        output = res.output
        if output is not None and output != 0:
            if mode == "explicit":
                ok = [a and b for a, b in zip(alice_bits, bob_bits)]
                if task.kind == "search-kfold":
                    output = tuple(
                        entry if claims[j] is None or ok[j] else None
                        for j, entry in enumerate(output)
                    )
                elif not all(ok):
                    output = None
            elif not (a_ok and b_ok):
                output = None
        return output, tuple(transcript)

    return run_fn


# --- bases that steer the halving windows both ways ---


def _flaky_decider(n: int, k: int) -> ProgramProtocol:
    """Sends x, then answers wrongly on many inputs and rejects when x == y != 0."""
    width = n * k
    task = TaskSpec("ndisj-kfold", n, k)

    def run_fn(x: int, y: int):
        if x == y and x:
            return None, x, width
        answers = ndisj_truth(task, x, y) ^ ((x ^ (y >> 1)) & ((1 << k) - 1))
        return answers, x | answers << width, width + k

    return ProgramProtocol(width, width, run_fn, worst_cost=width + k, label="flaky")


def _honest_or_flaky(n: int, k: int) -> RandomizedProtocol:
    return RandomizedProtocol(
        ((F(1, 3), trivial_ndisj_kfold(n, k)), (F(2, 3), _flaky_decider(n, k)))
    )


def _check_halving(base, n: int, k: int, s: int, pairs) -> None:
    reduced, breakdown = reduce_ndisj_to_search(base, n, k, s)
    combos = list(product(as_randomized(base).branches, repeat=s + 1))
    assert len(combos) == len(reduced.branches)
    checked = []
    for combo, (prob, det) in zip(combos, reduced.branches):
        expected_prob = Fraction(1)
        for p, _ in combo:
            expected_prob *= p
        assert prob == expected_prob
        reference = _reference_halving(tuple(d for _, d in combo), n, k, s, breakdown.window)
        checked.append((det, reference))
    for x, y in pairs:
        for det, reference in checked:
            res = det.run(x, y)
            assert (res.output, res.transcript) == reference(x, y), (x, y)


# (1,3,2) and (5,2,3) halve past log2 n, into empty windows; (4,2,0) has no
# rounds; (3,2,1) and (7,1,2) split odd windows unevenly.
@pytest.mark.parametrize("n,k,s", [(1, 3, 2), (3, 2, 1), (4, 2, 0), (7, 1, 2)])
@pytest.mark.parametrize("decider", [trivial_ndisj_kfold, _flaky_decider])
def test_halving_matches_list_reference_on_every_input(n, k, s, decider):
    _check_halving(decider(n, k), n, k, s, _pairs(n * k))


@pytest.mark.parametrize("decider", [trivial_ndisj_kfold, _flaky_decider])
def test_halving_matches_list_reference_sampled_at_width_10(decider):
    # 2^20 input pairs take over a minute on both replays, so a seeded sample
    _check_halving(decider(5, 2), 5, 2, 3, _pairs(10, samples=10_000, seed=5))


@pytest.mark.parametrize("n,k,s", [(1, 3, 2), (3, 2, 1)])
def test_halving_over_a_mixture_matches_list_reference(n, k, s):
    # every combination of coin branches, in the reduction's branch order
    _check_halving(_honest_or_flaky(n, k), n, k, s, _pairs(n * k))


def _liar(n: int, k: int) -> ProgramProtocol:
    width = n * k
    # claims coordinate 1 in every block without looking
    return ProgramProtocol(
        width, width, lambda x, y: (tuple(1 for _ in range(k)), 0, 0), worst_cost=0
    )


@pytest.mark.parametrize("mode", ["explicit", "two_bit"])
@pytest.mark.parametrize(
    "task,base",
    [
        (TaskSpec("search-kfold", 2, 2), trivial_search_kfold(2, 2)),
        (TaskSpec("search-kfold", 3, 2), _liar(3, 2)),
        (TaskSpec("search-kfold", 2, 2), reduce_ndisj_to_search(_flaky_decider(2, 2), 2, 2, 1)[0]),
        (TaskSpec("search-choose", 2, 2, choose=1), reduce_search_from_kfold(_liar(2, 2), 2, 2, 1)),
    ],
)
def test_verified_matches_list_reference_on_every_input(task, base, mode):
    bases = [det for _, det in as_randomized(base).branches]
    wrapped = [det for _, det in as_randomized(make_verified(base, task, mode)).branches]
    for det, ver in zip(bases, wrapped):
        reference = _reference_verified(det, task, mode)
        for x, y in _pairs(task.input_bits):
            res = ver.run(x, y)
            assert (res.output, res.transcript) == reference(x, y), (x, y)


# --- the packed layout ---


def test_search_kfold_bits_are_spoken_lsb_first():
    n, k = 3, 2
    idx_width = index_bits(n)
    proto = trivial_search_kfold(n, k)
    for x, y in _pairs(n * k):
        # Alice's coordinates in order, then per block a validity bit and the index
        spoken = [(x >> i) & 1 for i in range(n * k)]
        for j in range(k):
            shared = [c for c in range(n) if (x >> (j * n + c)) & 1 and (y >> (j * n + c)) & 1]
            idx = shared[0] if shared else 0
            spoken.append(1 if shared else 0)
            spoken.extend((idx >> t) & 1 for t in range(idx_width))
        res = proto.run(x, y)
        assert _spoken(res.bits, res.length) == spoken
        assert res.transcript == tuple(spoken)
        assert res.bits >> res.length == 0


def _short_on_odd_x(x: int, y: int):
    """x's low bit alone on odd x, else all of x and Bob's answer: lengths vary."""
    answer = 1 if x & y else 0
    if x & 1:
        return answer, 1, 1
    return answer, x | answer << 2, 3


@pytest.mark.parametrize(
    "proto",
    [
        trivial_ndisj_kfold(2, 1),
        trivial_search_kfold(2, 2),
        ProgramProtocol(2, 2, _short_on_odd_x, worst_cost=3),
    ],
)
def test_census_leaves_in_lexicographic_transcript_order(proto):
    report = leaf_rectangle_check(proto)
    transcripts = []
    for leaf in report.leaves:
        x = (leaf.rows & -leaf.rows).bit_length() - 1
        y = (leaf.cols & -leaf.cols).bit_length() - 1
        res = proto.run(x, y)
        assert res.length == leaf.depth
        transcripts.append(res.transcript)
    assert transcripts == sorted(transcripts)
    assert len(set(transcripts)) == len(transcripts)
