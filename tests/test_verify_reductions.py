"""Verification wrappers and the two protocol compositions."""

import re
from fractions import Fraction
from random import Random

import pytest

from rectbound.errors import (
    CapExceededError,
    KindMismatchError,
    ParameterRangeError,
    ProtocolContractError,
)
from rectbound.protocols import (
    ProgramProtocol,
    RandomizedProtocol,
    TaskSpec,
    Verdict,
    choose_success_bound,
    classify,
    constant_protocol,
    leaf_rectangle_check,
    make_verified,
    ndisj_to_search_cost,
    reduce_ndisj_to_search,
    reduce_search_from_kfold,
    success_probability,
    trivial_ndisj_kfold,
    trivial_search_kfold,
)

F = Fraction


def _liar(n: int, k: int) -> ProgramProtocol:
    # claims coordinate 1 in every block without looking
    width = n * k
    return ProgramProtocol(
        width=width,
        run_fn=lambda x, y: (tuple(1 for _ in range(k)), 0, 0),
        worst_cost=0,
        label="liar",
    )


def test_verified_cost_overhead():
    task = TaskSpec("search-kfold", 2, 2)
    base = trivial_search_kfold(2, 2)
    assert make_verified(base, task, "explicit").worst_cost == base.worst_cost + 2 * 2 + 2
    assert make_verified(base, task, "two_bit").worst_cost == base.worst_cost + 2
    ch = TaskSpec("search-choose", 2, 3, choose=2)
    lied = _liar(2, 3)
    assert make_verified(lied, ch, "explicit").worst_cost == 2 * 2 + 2


_CHOOSE_1 = TaskSpec("search-choose", 2, 2, choose=1)
_KFOLD = TaskSpec("search-kfold", 2, 2)


@pytest.mark.parametrize("mode", ["explicit", "two_bit"])
@pytest.mark.parametrize(
    "task, output",
    [
        (_CHOOSE_1, (5,)),  # the claim is not a pair
        (_CHOOSE_1, ((5,),)),
        (_CHOOSE_1, ((0, 1), (1, 1))),  # one claim too many
        (_CHOOSE_1, ((0, 3),)),  # past the block
        (_KFOLD, 7),  # not a tuple
        (_KFOLD, 0),
        (_KFOLD, (1, 1, 1)),  # one entry too many
        (_KFOLD, ("a", 0)),
        (_KFOLD, (-1, 0)),
    ],
)
def test_malformed_search_output_is_wrong_and_audited_away(task, output, mode):
    # One claim rule for both: classify judges the output WRONG on every
    # input, and the audit fails it instead of raising, so nothing wrong survives.
    for x in range(1 << task.input_bits):
        for y in range(1 << task.input_bits):
            assert classify(task, x, y, output) is Verdict.WRONG
    base = constant_protocol(task.input_bits, output)
    report = success_probability(make_verified(base, task, mode), task)
    assert report.wrong == 0
    assert report.rejected == 1


def test_chooser_drops_claims_that_name_no_coordinate():
    # Block 0's entry is past the block and block 1's is not a coordinate:
    # neither maps through the permutation, so the chooser gives up.
    chooser = reduce_search_from_kfold(constant_protocol(4, (3, "a")), 2, 2, 1)
    assert success_probability(chooser, _CHOOSE_1).rejected == 1


def test_verified_honest_protocol_stays_correct():
    task = TaskSpec("search-kfold", 2, 2)
    wrapped = make_verified(trivial_search_kfold(2, 2), task)
    report = success_probability(wrapped, task)
    assert report.worst == 1
    assert report.wrong == 0


@pytest.mark.parametrize("mode", ["explicit", "two_bit"])
def test_verified_liar_never_wrong(mode):
    task = TaskSpec("search-kfold", 2, 2)
    liar = _liar(2, 2)
    raw = success_probability(liar, task)
    assert raw.wrong > 0
    wrapped = make_verified(liar, task, mode)
    report = success_probability(wrapped, task)
    assert report.wrong == 0
    # the wrapper only removes claims, it cannot invent them
    assert report.average <= raw.average + raw.rejected


def test_verified_explicit_salvages_good_slots():
    # input where the liar's block-0 claim happens to be genuine
    task = TaskSpec("search-kfold", 2, 2)
    liar = _liar(2, 2)
    x = y = 0b0001  # coordinate 1 shared in block 0, block 1 empty
    explicit = make_verified(liar, task, "explicit").run(x, y).output
    two_bit = make_verified(liar, task, "two_bit").run(x, y).output
    # explicit keeps the surviving slot, rejecting only the broken one
    assert explicit == (1, None)
    assert classify(task, x, y, explicit) is Verdict.REJECT
    # the aggregate bits can only reject everything
    assert two_bit is None


def test_verified_kind_and_mode_guards():
    base = trivial_search_kfold(2, 1)
    with pytest.raises(KindMismatchError):
        make_verified(base, TaskSpec("ndisj-kfold", 2, 1))
    with pytest.raises(ParameterRangeError):
        make_verified(base, TaskSpec("search-kfold", 2, 1), mode="triple")
    with pytest.raises(ParameterRangeError):
        make_verified(base, TaskSpec("search-kfold", 3, 1))


def test_verified_distributes_over_mixtures():
    task = TaskSpec("search-kfold", 2, 1)
    mix = RandomizedProtocol(
        ((F(1, 2), trivial_search_kfold(2, 1)), (F(1, 2), _liar(2, 1)))
    )
    wrapped = make_verified(mix, task)
    assert isinstance(wrapped, RandomizedProtocol)
    assert len(wrapped.branches) == 2
    report = success_probability(wrapped, task)
    assert report.wrong == 0
    assert report.worst >= F(1, 2)


def test_halving_cost_formula():
    bd = ndisj_to_search_cost(8, 1, 2, 10)
    assert bd.calls == 3
    assert bd.window == 2
    assert bd.echo_bits == 2
    assert bd.final_alice_bits == 2
    assert bd.final_bob_bits == 2  # validity + 1 index bit
    assert bd.total == 3 * 10 + 2 + 2 + 2
    # window uses ceiling splits
    assert ndisj_to_search_cost(5, 2, 1, 7).window == 3


def test_halving_reduction_exact_success():
    n, k, s = 4, 1, 1
    base = trivial_ndisj_kfold(n, k)
    reduced, bd = reduce_ndisj_to_search(base, n, k, s)
    assert reduced.worst_cost == bd.total
    task = TaskSpec("search-kfold", n, k)
    report = success_probability(reduced, task)
    assert report.worst == 1
    assert report.inputs_checked == 256


def test_halving_reduction_two_blocks():
    n, k, s = 2, 2, 1
    reduced, bd = reduce_ndisj_to_search(trivial_ndisj_kfold(n, k), n, k, s)
    report = success_probability(reduced, TaskSpec("search-kfold", n, k))
    assert report.worst == 1
    assert report.wrong == 0


def test_halving_reduction_gives_up_when_its_base_gives_up():
    # Read as the mask 0, "every block disjoint", a rejection would make the
    # halving answer all-zero claims: wrong on 7 of the 16 inputs.
    n, k, s = 2, 1, 1
    refuser = ProgramProtocol(n * k, lambda x, y: (None, 0, 0), worst_cost=0, label="refuser")
    reduced, _ = reduce_ndisj_to_search(refuser, n, k, s)
    report = success_probability(reduced, TaskSpec("search-kfold", n, k))
    assert (report.rejected, report.wrong) == (1, 0)


def test_halving_reduction_guards():
    base = trivial_ndisj_kfold(2, 1)
    with pytest.raises(ParameterRangeError):
        reduce_ndisj_to_search(base, 2, 1, -1)
    with pytest.raises(ParameterRangeError):
        reduce_ndisj_to_search(base, 2, 1, 31)
    with pytest.raises(ParameterRangeError):
        reduce_ndisj_to_search(base, 3, 1, 1)  # size mismatch
    # coin branches multiply per call; 3 branches over 7 calls is too many
    mix = RandomizedProtocol(
        (
            (F(1, 3), trivial_ndisj_kfold(2, 1)),
            (F(1, 3), trivial_ndisj_kfold(2, 1)),
            (F(1, 3), trivial_ndisj_kfold(2, 1)),
        )
    )
    with pytest.raises(CapExceededError):
        reduce_ndisj_to_search(mix, 2, 1, 7)


def test_choose_success_bound_values():
    b = choose_success_bound(F(1), 2, 1)
    assert b.alpha == 2
    assert b.scaled_outside == F(1, 2)
    assert b.scaled_inside == F(1, 2)
    b = choose_success_bound(F(1, 2), 4, 2)
    assert b.alpha == 2
    assert b.scaled_outside == F(1, 2) * F(1, 4)
    assert b.scaled_inside == F(1, 16)
    with pytest.raises(ParameterRangeError):
        choose_success_bound(F(3, 2), 2, 1)
    with pytest.raises(ParameterRangeError):
        choose_success_bound(F(1), 2, 3)


def test_permutation_reduction_exact():
    n, k, choose = 2, 2, 1
    base = trivial_search_kfold(n, k)
    reduced = reduce_search_from_kfold(base, n, k, choose)
    assert len(reduced.branches) == 24  # 4! permutations, one base branch
    task = TaskSpec("search-choose", n, k, choose=choose)
    report = success_probability(reduced, task)  # the promise: 175 pairs meet in a block
    assert report.inputs_checked == 175
    bound = choose_success_bound(F(1), k, choose)
    assert report.wrong == 0
    assert report.worst >= bound.scaled_outside
    assert report.worst >= bound.scaled_inside


def test_permutation_reduction_needs_samples_past_limit():
    base = trivial_search_kfold(4, 2)  # 8 positions, 8! too many
    with pytest.raises(CapExceededError):
        reduce_search_from_kfold(base, 4, 2, 1)
    reduced = reduce_search_from_kfold(base, 4, 2, 1, perm_samples=10, seed=5)
    assert len(reduced.branches) == 10
    # seeded, so the same call gives the same mixture
    again = reduce_search_from_kfold(base, 4, 2, 1, perm_samples=10, seed=5)
    probe = [(0b1111_0000, 0b0101_0101)]
    a = success_probability(reduced, TaskSpec("search-choose", 4, 2, choose=1), inputs=probe)
    b = success_probability(again, TaskSpec("search-choose", 4, 2, choose=1), inputs=probe)
    assert a.worst == b.worst


@pytest.mark.parametrize("perm_samples", [0, -3])
def test_permutation_reduction_refuses_fewer_than_one_sample(monkeypatch, perm_samples):
    from rectbound.protocols import reductions

    def no_draws(seed):
        raise AssertionError("drew permutations before checking perm_samples")

    monkeypatch.setattr(reductions, "Random", no_draws)
    base = trivial_search_kfold(4, 2)
    with pytest.raises(ParameterRangeError, match="perm_samples"):
        reduce_search_from_kfold(base, 4, 2, 1, perm_samples=perm_samples, seed=1)


def test_permutation_reduction_guards():
    base = trivial_search_kfold(2, 2)
    with pytest.raises(ParameterRangeError):
        reduce_search_from_kfold(base, 2, 2, 3)
    with pytest.raises(ParameterRangeError):
        reduce_search_from_kfold(base, 3, 2, 1)  # size mismatch
    big = trivial_search_kfold(4, 2)
    with pytest.raises(CapExceededError):
        reduce_search_from_kfold(big, 4, 2, 1, perm_samples=40000, seed=1)


# Two ways a base breaks its contract on every input: its label, the bits
# and length it returns, and the message its own checked run raises.  At
# width 2 it fits n=1, k=2 and n=2, k=1.
_BROKEN_BASES = {
    "bits-past-length": ("loose", 0b100, 2, "loose returned bits 4 outside its length 2"),
    "past-worst-cost": ("long", 0, 3, "long used 3 bits, declared at most 2"),
}


def _broken_base(case: str, output) -> ProgramProtocol:
    label, bits, length, _ = _BROKEN_BASES[case]
    return ProgramProtocol(2, lambda x, y: (output, bits, length), worst_cost=2, label=label)


def _composed(kind: str, base_case: str):
    """A composition over a broken base, the task it is measured on, and one deterministic branch."""
    if kind == "verified":
        task = TaskSpec("search-kfold", 1, 2)
        proto = make_verified(_broken_base(base_case, (0, 0)), task)
        return proto, task, proto
    if kind == "halving":
        mix, _ = reduce_ndisj_to_search(_broken_base(base_case, 0), 2, 1, 1)
        return mix, TaskSpec("search-kfold", 2, 1), mix.branches[0][1]
    mix = reduce_search_from_kfold(_broken_base(base_case, (0, 0)), 1, 2, 1)
    return mix, TaskSpec("search-choose", 1, 2, choose=1), mix.branches[0][1]


@pytest.mark.parametrize("base_case", list(_BROKEN_BASES))
@pytest.mark.parametrize("kind", ["verified", "halving", "chooser"])
def test_nested_runs_still_check_their_contract(kind, base_case):
    proto, task, branch = _composed(kind, base_case)
    message = re.escape(_BROKEN_BASES[base_case][3])
    with pytest.raises(ProtocolContractError, match=message):
        success_probability(proto, task)
    with pytest.raises(ProtocolContractError, match=message):
        leaf_rectangle_check(branch)


@pytest.mark.parametrize("kind", ["verified", "halving", "chooser"])
def test_composed_runs_refuse_inputs_out_of_range(kind):
    _, _, branch = _composed(kind, "past-worst-cost")
    for x, y, message in (
        (-1, 0, "x=-1 is not a 2-bit input"),
        (4, 0, "x=4 is not a 2-bit input"),
        (0, -1, "y=-1 is not a 2-bit input"),
        (0, 4, "y=4 is not a 2-bit input"),
        (-8, -8, "x=-8 is not a 2-bit input"),
    ):
        with pytest.raises(ParameterRangeError, match=f"^{re.escape(message)}$"):
            branch.run(x, y)
