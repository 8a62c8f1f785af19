"""Protocol mechanics: programs, mixtures, tasks, and measurement."""

import tracemalloc
from array import array
from fractions import Fraction
from random import Random

import pytest

from rectbound.errors import (
    CapExceededError,
    ParameterRangeError,
    ProtocolContractError,
)
from rectbound.protocols import (
    ProgramProtocol,
    RandomizedProtocol,
    TaskSpec,
    Verdict,
    analysis,
    as_randomized,
    classify,
    constant_protocol,
    cost_profile,
    intersecting_blocks,
    leaf_rectangle_check,
    make_verified,
    measured_inputs,
    ndisj_truth,
    reduce_ndisj_to_search,
    reduce_search_from_kfold,
    success_probability,
    trivial_ndisj_kfold,
    trivial_search_kfold,
)

F = Fraction


def test_tree_run_and_transcript():
    proto = trivial_ndisj_kfold(3, 1)
    res = proto.run(0b101, 0b100)
    assert res.output == 1
    assert res.transcript == (1, 0, 1, 1)  # x low bit first, then Bob's answer
    assert res.cost == 4
    assert proto.worst_cost == 4


def test_tree_size_guard():
    with pytest.raises(ParameterRangeError):
        trivial_ndisj_kfold(0, 1)


def test_input_range_checked():
    proto = trivial_ndisj_kfold(2, 1)
    with pytest.raises(ParameterRangeError):
        proto.run(4, 0)
    with pytest.raises(ParameterRangeError):
        proto.run(0, -1)


def test_program_contract_enforced():
    lying = ProgramProtocol(
        n_alice=1, n_bob=1, run_fn=lambda x, y: (0, 0, 3), worst_cost=2, label="liar"
    )
    with pytest.raises(ProtocolContractError):
        lying.run(0, 0)
    # bits set at the length, past it, beyond an empty transcript, and negative bits
    for bits, length in ((0b100, 2), (0b1000, 2), (1, 0), (-1, 2)):
        loose = ProgramProtocol(
            n_alice=1,
            n_bob=1,
            run_fn=lambda x, y, b=bits, n=length: (0, b, n),
            worst_cost=2,
            label="loose",
        )
        with pytest.raises(ProtocolContractError):
            loose.run(0, 0)


def test_randomized_validation():
    p = constant_protocol(1, 1, 0)
    with pytest.raises(ParameterRangeError):
        RandomizedProtocol(())
    with pytest.raises(ParameterRangeError):
        RandomizedProtocol(((F(1, 2), p),))  # probabilities must sum to 1
    with pytest.raises(ParameterRangeError):
        RandomizedProtocol(((0.5, p), (0.5, p)))  # floats rejected
    q = constant_protocol(2, 2, 0)
    with pytest.raises(ParameterRangeError):
        RandomizedProtocol(((F(1, 2), p), (F(1, 2), q)))  # mismatched sizes


def test_randomized_cost_and_wrapping():
    mix = RandomizedProtocol(
        ((F(1, 2), constant_protocol(1, 1, 0)), (F(1, 2), constant_protocol(1, 1, 1)))
    )
    assert mix.worst_cost == 0
    assert as_randomized(mix) is mix


def test_kfold_costs():
    assert trivial_ndisj_kfold(3, 2).worst_cost == 8  # kn + k
    assert trivial_search_kfold(3, 2).worst_cost == 12  # kn + k(1 + index bits)
    assert trivial_search_kfold(1, 2).worst_cost == 4  # index of 1 item is free
    assert trivial_ndisj_kfold(4, 1).worst_cost == 5


def test_kfold_outputs():
    task = TaskSpec("ndisj-kfold", 2, 2)
    proto = trivial_ndisj_kfold(2, 2)
    # blocks: low two bits, then high two bits
    x, y = 0b0110, 0b0010
    assert ndisj_truth(task, x, y) == 0b01
    assert intersecting_blocks(task, x, y) == 1
    assert proto.run(x, y).output == 0b01
    search = trivial_search_kfold(2, 2)
    assert search.run(x, y).output == (2, 0)  # coordinate 2 shared in block 0


def test_classify_semantics():
    nd = TaskSpec("ndisj-kfold", 2, 2)
    assert classify(nd, 0b0110, 0b0010, 0b01) is Verdict.CORRECT
    assert classify(nd, 0b0110, 0b0010, 0b11) is Verdict.WRONG
    assert classify(nd, 0b0110, 0b0010, None) is Verdict.REJECT
    assert classify(nd, 0, 0, "0") is Verdict.WRONG

    se = TaskSpec("search-kfold", 2, 2)
    assert classify(se, 0b0110, 0b0010, (2, 0)) is Verdict.CORRECT
    assert classify(se, 0b0110, 0b0010, (1, 0)) is Verdict.WRONG  # coord 1 not shared
    assert classify(se, 0b0110, 0b0010, (2, None)) is Verdict.REJECT
    assert classify(se, 0b0110, 0b0010, (2,)) is Verdict.WRONG  # wrong arity
    assert classify(se, 0b0110, 0b0010, (2, 1)) is Verdict.WRONG  # block 1 is disjoint

    ch = TaskSpec("search-choose", 2, 2, choose=1)
    assert classify(ch, 0b0110, 0b0010, ((0, 2),)) is Verdict.CORRECT
    assert classify(ch, 0b0110, 0b0010, 0) is Verdict.REJECT
    assert classify(ch, 0b0110, 0b0010, ((1, 1),)) is Verdict.WRONG
    two = TaskSpec("search-choose", 2, 2, choose=2)
    assert classify(two, 0b1111, 0b1111, ((0, 1), (0, 1))) is Verdict.WRONG  # duplicate claim
    assert classify(two, 0b1111, 0b1111, ((0, 1), (1, 2))) is Verdict.CORRECT


def test_task_validation():
    with pytest.raises(ParameterRangeError):
        TaskSpec("mystery", 2)
    with pytest.raises(ParameterRangeError):
        TaskSpec("ndisj-kfold", 0)
    with pytest.raises(ParameterRangeError):
        TaskSpec("ndisj-kfold", 2, 1, choose=1)
    with pytest.raises(ParameterRangeError):
        TaskSpec("search-choose", 2, 2, choose=3)
    with pytest.raises(ParameterRangeError):
        TaskSpec("search-choose", 2, 2)


def test_enumerate_inputs_cap(monkeypatch):
    task = TaskSpec("ndisj-kfold", 2, 1)
    pairs = list(measured_inputs(task)[0])
    assert len(pairs) == 16
    assert pairs[0] == (0, 0) and pairs[-1] == (3, 3)
    monkeypatch.setenv("RECTBOUND_EXACT_PROTOCOL_CAP", "15")
    with pytest.raises(CapExceededError):
        measured_inputs(task)


def test_measured_inputs_enumerates_within_the_cap_and_samples_past_it():
    small = TaskSpec("ndisj-kfold", 2, 1)
    pairs, sampled = measured_inputs(small, samples=3, seed=1)
    assert (list(pairs), sampled) == ([(x, y) for x in range(4) for y in range(4)], False)
    big = TaskSpec("ndisj-kfold", 6, 2)  # 2^24 pairs, past the exact cap
    with pytest.raises(CapExceededError, match="--samples and --seed"):
        measured_inputs(big, samples=5)
    pairs, sampled = measured_inputs(big, samples=600, seed=11)
    assert iter(pairs) is pairs  # a lazy stream, not a list
    pairs = list(pairs)
    rng = Random(11)
    assert sampled
    assert pairs == [(rng.randrange(4096), rng.randrange(4096)) for _ in range(600)]
    prefix, sampled = measured_inputs(big, samples=512, seed=11)
    assert (list(prefix), sampled) == (pairs[:512], True)


def test_search_choose_is_measured_on_its_promise(monkeypatch):
    task = TaskSpec("search-choose", 2, 2, choose=1)
    kfold = TaskSpec("search-kfold", 2, 2)
    promise = [
        (x, y) for x, y in measured_inputs(kfold)[0] if intersecting_blocks(kfold, x, y) >= 1
    ]
    assert len(promise) == 175
    assert list(measured_inputs(task)[0]) == promise
    # never sampled, whatever samples and seed say
    pairs, sampled = measured_inputs(task, samples=5, seed=1)
    assert (list(pairs), sampled) == (promise, False)
    both = TaskSpec("search-choose", 2, 2, choose=2)
    assert list(measured_inputs(both)[0]) == [
        (x, y) for x, y in promise if intersecting_blocks(kfold, x, y) == 2
    ]
    monkeypatch.setenv("RECTBOUND_EXACT_PROTOCOL_CAP", "255")  # the space has 256 pairs
    with pytest.raises(CapExceededError, match="never sampled"):
        measured_inputs(task, samples=5, seed=1)
    pairs, sampled = measured_inputs(kfold, samples=5, seed=1)
    assert sampled and len(list(pairs)) == 5


def test_census_refuses_bits_past_the_length():
    # One bit declared, but bit 1 of the packed transcript is set as well.
    bad = ProgramProtocol(1, 1, lambda x, y: (0, 0b10, 1), worst_cost=1, label="bad")
    with pytest.raises(ProtocolContractError, match="outside its length"):
        leaf_rectangle_check(bad)


def test_transcript_census_groups_by_conversation():
    report = leaf_rectangle_check(trivial_ndisj_kfold(1, 1))
    assert report.partition_ok
    assert report.leaf_count == 3  # x=0 always answers 0; x=1 splits on y
    census_pairs = sum(leaf.pair_count for leaf in report.leaves)
    assert census_pairs == 4


@pytest.mark.parametrize(
    "first, second", [(1, 1.0), (1, True), ((1, 0), (1.0, 0))], ids=["float", "bool", "tuple-entry"]
)
def test_census_tells_equal_outputs_of_different_types_apart(first, second):
    # One transcript for every input, answered `first` when x is set and
    # `second` otherwise: equal under ==, yet not one output.
    proto = ProgramProtocol(1, 1, lambda x, y: (first if x else second, 0, 0), 0)
    assert first == second
    report = leaf_rectangle_check(proto)
    assert not report.partition_ok
    assert report.leaf_count == 1
    assert leaf_rectangle_check(constant_protocol(1, 1, first)).partition_ok


@pytest.mark.parametrize(
    "proto",
    [
        trivial_ndisj_kfold(2, 1),
        trivial_search_kfold(2, 1),
        make_verified(trivial_search_kfold(1, 2), TaskSpec("search-kfold", 1, 2)),
        reduce_ndisj_to_search(trivial_ndisj_kfold(2, 1), 2, 1, 1)[0].branches[0][1],
        reduce_search_from_kfold(trivial_search_kfold(1, 2), 1, 2, 1).branches[1][1],
    ],
    ids=["ndisj", "search", "verified", "halving", "chooser"],
)
def test_census_keeps_the_leaves_of_honest_protocols(proto):
    # Every transcript's inputs share one output, tuples of tuples included.
    report = leaf_rectangle_check(proto)
    assert report.partition_ok
    assert sum(leaf.pair_count for leaf in report.leaves) == 1 << (proto.n_alice + proto.n_bob)
    for leaf in report.leaves:
        x = (leaf.rows & -leaf.rows).bit_length() - 1
        y = (leaf.cols & -leaf.cols).bit_length() - 1
        assert proto.run(x, y).output == leaf.output


def test_census_rejects_mixtures():
    mix = as_randomized(constant_protocol(1, 1, 0))
    with pytest.raises(ParameterRangeError):
        leaf_rectangle_check(mix)


def test_success_probability_exact():
    task = TaskSpec("ndisj-kfold", 3, 1)
    report = success_probability(trivial_ndisj_kfold(3, 1), task)
    assert report.mode == "exact-rational"
    assert report.worst == 1
    assert report.average == 1
    assert report.wrong == 0
    assert report.inputs_checked == 64
    assert report.wilson is None


def test_success_probability_counts_failures():
    task = TaskSpec("ndisj-kfold", 1, 1)
    always_zero = constant_protocol(1, 1, 0)
    report = success_probability(always_zero, task)
    assert report.worst == 0
    assert report.average == F(3, 4)
    assert report.wrong == F(1, 4)
    assert report.worst_input == (1, 1)
    rejecter = constant_protocol(1, 1, None)
    report = success_probability(rejecter, task)
    assert report.average == 0
    assert report.rejected == 1
    assert report.wrong == 0


def test_success_probability_mixture_is_exact_per_input():
    task = TaskSpec("ndisj-kfold", 1, 1)
    mix = RandomizedProtocol(
        (
            (F(3, 4), trivial_ndisj_kfold(1, 1)),
            (F(1, 4), constant_protocol(1, 1, None)),
        )
    )
    report = success_probability(mix, task)
    assert report.worst == F(3, 4)
    assert report.rejected == F(1, 4)
    assert report.wrong == 0


def _disagreeing_mixture(task):
    """Three branches, 1/3, 1/4 and 5/12, that are right, wrong or silent on different inputs."""
    bits = task.input_bits

    def parity_of_x(x, y):  # right on even x, wrong on odd x
        truth = ndisj_truth(task, x, y)
        return (truth if x % 2 == 0 else truth ^ 1), x & 1, 1

    def silent_on_y(x, y):  # rejects when 3 divides y
        return (None if y % 3 == 0 else ndisj_truth(task, x, y)), int(y % 3 == 0), 1

    def bit_two(x, y):  # right when bit 2 of x ^ y is set, else answers 0
        hit = (x ^ y) >> 2 & 1
        return (ndisj_truth(task, x, y) if hit else 0), hit, 1

    return RandomizedProtocol(
        tuple(
            (prob, ProgramProtocol(bits, bits, fn, worst_cost=1))
            for prob, fn in ((F(1, 3), parity_of_x), (F(1, 4), silent_on_y), (F(5, 12), bit_two))
        )
    )


def _reference_report(mix, task, pairs, sampled=False):
    """The report of a plain per-input loop in Fractions, every output judged by classify
    afresh, and the count of inputs right on every branch."""
    worst = worst_input = None
    total = {verdict: F(0) for verdict in Verdict}
    perfect = 0
    shortest, longest = array("I"), array("I")
    for x, y in pairs:
        mass = {verdict: F(0) for verdict in Verdict}
        lengths = []
        for prob, det in mix.branches:
            run = det.run(x, y)
            mass[classify(task, x, y, run.output)] += prob
            lengths.append(run.length)
        if worst is None or mass[Verdict.CORRECT] < worst:
            worst, worst_input = mass[Verdict.CORRECT], (x, y)
        for verdict in Verdict:
            total[verdict] += mass[verdict]
        perfect += mass[Verdict.CORRECT] == 1
        shortest.append(min(lengths))
        longest.append(max(lengths))
    count = len(pairs)
    report = analysis.SuccessReport(
        mode="monte-carlo-ci" if sampled else "exact-rational",
        worst=worst,
        average=total[Verdict.CORRECT] / count,
        rejected=total[Verdict.REJECT] / count,
        wrong=total[Verdict.WRONG] / count,
        inputs_checked=count,
        worst_input=worst_input,
        shortest=shortest,
        longest=longest,
        wilson=analysis._wilson(perfect, count) if sampled else None,
    )
    return report, perfect


def test_success_probability_integer_sums_match_a_fraction_loop():
    task = TaskSpec("ndisj-kfold", 3, 1)
    mix = _disagreeing_mixture(task)
    report = success_probability(mix, task)
    want, _ = _reference_report(mix, task, [(x, y) for x in range(8) for y in range(8)])
    assert report == want
    # The branches disagree: the figures are neither all 0 nor all 1.
    assert report.worst < report.average < 1 and report.rejected > 0 and report.wrong > 0
    assert report.worst_input != (0, 0)
    assert report.inputs_checked == 64


def test_success_probability_sampled_integer_sums_and_perfect_count_match_a_fraction_loop():
    task = TaskSpec("ndisj-kfold", 6, 2)  # 2^24 pairs: sampled
    mix = _disagreeing_mixture(task)
    report = success_probability(mix, task, samples=300, seed=4)
    pairs, sampled = measured_inputs(task, 300, 4)
    pairs = list(pairs)
    assert sampled and report.mode == "monte-carlo-ci"
    want, perfect = _reference_report(mix, task, pairs, sampled)
    assert report == want
    assert 0 < perfect < len(pairs)
    assert report.wilson == analysis._wilson(perfect, len(pairs))


# 1 == True == 1.0 and (1, 0) == (True, 0) == (1.0, 0), each group hashing
# alike, yet classify judges 1.0 and (1.0, 0) WRONG wherever 1 and (1, 0)
# are right; the list is unhashable.
_LOOKALIKE_OUTPUTS = (1, True, 1.0, (1, 0), (1.0, 0), (True, 0), [1], None)


def _lookalike_mixture(width):
    """Eight branches, weights 1/36 to 8/36; on every input each branch gives one of
    the look-alike outputs, all eight once, after 0 to 2 bits."""

    def branch(i):
        return lambda x, y: (_LOOKALIKE_OUTPUTS[(i + x + y) % 8], 0, i % 3)

    return RandomizedProtocol(
        tuple((F(i + 1, 36), ProgramProtocol(width, width, branch(i), worst_cost=2)) for i in range(8))
    )


@pytest.mark.parametrize("kind", ["ndisj-kfold", "search-kfold"])
@pytest.mark.parametrize("n, samples", [(2, None), (6, 300)], ids=["exact", "sampled"])
def test_success_probability_matches_judging_every_output_afresh(kind, n, samples):
    task = TaskSpec(kind, n, 2)
    mix = _lookalike_mixture(task.input_bits)
    report = success_probability(mix, task, samples=samples, seed=5)
    pairs, sampled = measured_inputs(task, samples, 5)
    pairs = list(pairs)
    assert sampled == (samples is not None)
    want, _ = _reference_report(mix, task, pairs, sampled)
    assert report == want
    assert 0 < want.average < 1 and 0 < want.rejected < 1 and want.wrong > 0


def test_success_probability_sampling_contract():
    task = TaskSpec("ndisj-kfold", 6, 2)  # 2^24 pairs, past the exact cap
    proto = trivial_ndisj_kfold(6, 2)
    with pytest.raises(CapExceededError):
        success_probability(proto, task)
    report = success_probability(proto, task, samples=50, seed=9)
    assert report.mode == "monte-carlo-ci"
    assert report.inputs_checked == 50
    assert report.worst == 1
    assert report.wilson is not None
    lo, hi = report.wilson
    assert 0 <= lo <= hi <= 1
    again = success_probability(proto, task, samples=50, seed=9)
    assert again.wilson == report.wilson
    # explicit probes stay exact no matter the space
    probed = success_probability(proto, task, inputs=[(0, 0), (4095, 4095)])
    assert probed.mode == "exact-rational"
    assert probed.inputs_checked == 2


def test_success_probability_refuses_a_space_past_the_cap_before_any_run():
    task = TaskSpec("ndisj-kfold", 6, 2)  # 2^24 pairs, past the exact cap
    calls = []

    def counted(x, y):
        calls.append((x, y))
        return 0, 0, 0

    proto = ProgramProtocol(12, 12, counted, worst_cost=0)
    with pytest.raises(CapExceededError):
        measured_inputs(task)  # refused at the call, not at the first pair
    with pytest.raises(CapExceededError):
        success_probability(proto, task)
    with pytest.raises(CapExceededError):
        success_probability(proto, task, samples=50)
    assert calls == []


def test_success_probability_refuses_an_empty_input_stream():
    proto = trivial_ndisj_kfold(2, 1)
    task = TaskSpec("ndisj-kfold", 2, 1)
    for inputs in ([], iter([])):
        with pytest.raises(ParameterRangeError, match="no inputs to evaluate"):
            success_probability(proto, task, inputs=inputs)
    big = TaskSpec("ndisj-kfold", 6, 2)
    with pytest.raises(ParameterRangeError, match="no inputs to evaluate"):
        success_probability(trivial_ndisj_kfold(6, 2), big, samples=0, seed=1)


def test_success_probability_reads_an_input_stream_once_in_order():
    task = TaskSpec("ndisj-kfold", 2, 1)
    proto = trivial_ndisj_kfold(2, 1)
    pairs = [(3, 1), (0, 0), (2, 2), (1, 2)]
    streamed = success_probability(proto, task, inputs=iter(pairs))
    assert streamed == success_probability(proto, task, inputs=pairs)
    assert streamed.inputs_checked == 4
    assert streamed.worst_input == (3, 1)
    assert list(streamed.longest) == [proto.run(x, y).length for x, y in pairs]


def test_success_probability_holds_no_input_list():
    # 65,536 inputs: the pass keeps two 4-byte lengths per input, 0.5 MB,
    # where a list of the input tuples peaked at 4.5 MB.
    proto, task = trivial_ndisj_kfold(8, 1), TaskSpec("ndisj-kfold", 8, 1)
    success_probability(proto, task, inputs=[(0, 0)])
    tracemalloc.start()
    try:
        report = success_probability(proto, task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.inputs_checked == 1 << 16
    assert peak < 1.5 * 10**6, f"peak {peak / 1e6:.2f} MB"


def test_success_probability_size_mismatch():
    with pytest.raises(ParameterRangeError):
        success_probability(trivial_ndisj_kfold(2, 1), TaskSpec("ndisj-kfold", 3, 1))
    with pytest.raises(ParameterRangeError):
        success_probability(trivial_ndisj_kfold(2, 1), TaskSpec("ndisj-kfold", 2, 1), inputs=[])


def test_cost_profile_histogram():
    proto = trivial_ndisj_kfold(2, 1)
    rep = success_probability(
        proto, TaskSpec("ndisj-kfold", 2, 1), inputs=[(x, y) for x in range(4) for y in range(4)]
    )
    assert list(rep.shortest) == list(rep.longest) == [3] * 16
    prof = cost_profile(rep, proto.worst_cost)
    assert prof.declared == 3
    assert prof.observed_max == prof.observed_min == 3
    assert prof.uniform
    assert prof.histogram == {3: 16}
    assert cost_profile(rep, proto.worst_cost, first=5).histogram == {3: 5}
    with pytest.raises(ParameterRangeError):
        cost_profile(rep, proto.worst_cost, first=0)


def test_cost_profile_of_a_mixture_whose_branches_differ_in_length():
    mix = RandomizedProtocol(
        ((F(1, 2), constant_protocol(2, 2, 0)), (F(1, 2), trivial_ndisj_kfold(2, 1)))
    )
    rep = success_probability(mix, TaskSpec("ndisj-kfold", 2, 1))
    assert list(rep.shortest) == [0] * 16
    assert list(rep.longest) == [3] * 16
    prof = cost_profile(rep, mix.worst_cost)
    assert prof.declared == 3
    assert prof.observed_min == 0
    assert prof.observed_max == 3
    assert prof.uniform is False
    assert prof.histogram == {3: 16}  # every input's longest branch, not its shortest


def test_cost_profile_histogram_counts_each_inputs_longest_branch():
    # A branch that stops after x's low bit on odd x: lengths vary by input.
    def short_on_odd_x(x, y):
        return (1 if x & y else 0), x & 1, (1 if x & 1 else 3)

    cut = ProgramProtocol(2, 2, short_on_odd_x, worst_cost=3)
    mix = RandomizedProtocol(((F(1, 2), cut), (F(1, 2), constant_protocol(2, 2, 0))))
    rep = success_probability(mix, TaskSpec("ndisj-kfold", 2, 1))
    assert list(rep.longest) == [3 if x % 2 == 0 else 1 for x in range(4) for y in range(4)]
    prof = cost_profile(rep, mix.worst_cost)
    assert (prof.observed_min, prof.observed_max, prof.uniform) == (0, 3, False)
    assert prof.histogram == {1: 8, 3: 8}
    assert cost_profile(rep, mix.worst_cost, first=4).histogram == {3: 4}  # x = 0 only
