"""Protocol mechanics: trees, programs, mixtures, tasks, and measurement."""

from fractions import Fraction
from random import Random

import pytest

from rectbound.errors import (
    CapExceededError,
    MalformedTreeError,
    ParameterRangeError,
    ProtocolContractError,
)
from rectbound.protocols import (
    Leaf,
    Node,
    ProgramProtocol,
    RandomizedProtocol,
    TaskSpec,
    TreeProtocol,
    Verdict,
    as_randomized,
    classify,
    constant_protocol,
    cost_profile,
    enumerate_inputs,
    intersecting_blocks,
    leaf_rectangle_check,
    ndisj_truth,
    run_protocol,
    success_probability,
    tree_from_records,
    tree_records,
    trivial_ndisj,
    trivial_ndisj_kfold,
    trivial_search_kfold,
)

F = Fraction


def test_tree_run_and_transcript():
    proto = trivial_ndisj(3)
    res = proto.run(0b101, 0b100)
    assert res.output == 1
    assert res.transcript == (1, 0, 1, 1)  # x low bit first, then Bob's answer
    assert res.cost == 4
    assert proto.worst_cost == 4


def test_tree_correct_on_all_inputs():
    proto = trivial_ndisj(3)
    for x in range(8):
        for y in range(8):
            want = 1 if x & y else 0
            assert proto.run(x, y).output == want


def test_tree_size_guard():
    with pytest.raises(ParameterRangeError):
        trivial_ndisj(0)
    with pytest.raises(ParameterRangeError):
        trivial_ndisj(13)


def test_input_range_checked():
    proto = trivial_ndisj(2)
    with pytest.raises(ParameterRangeError):
        proto.run(4, 0)
    with pytest.raises(ParameterRangeError):
        proto.run(0, -1)


def test_malformed_trees_rejected():
    with pytest.raises(MalformedTreeError):
        Node(owner="carol", message=lambda v: 0, children=(Leaf(0), Leaf(1)))
    with pytest.raises(MalformedTreeError):
        Node(owner="alice", message=lambda v: 0, children=(Leaf(0),))
    with pytest.raises(MalformedTreeError):
        Node(owner="alice", message=lambda v: 0, children=(Leaf(0), "oops"))
    bad = TreeProtocol(1, 1, Node(owner="alice", message=lambda v: 2, children=(Leaf(0), Leaf(1))))
    with pytest.raises(MalformedTreeError):
        bad.run(0, 0)


def test_program_contract_enforced():
    lying = ProgramProtocol(
        n_alice=1, n_bob=1, run_fn=lambda x, y: (0, (0, 0, 0)), worst_cost=2, label="liar"
    )
    with pytest.raises(ProtocolContractError):
        lying.run(0, 0)
    nonbit = ProgramProtocol(
        n_alice=1, n_bob=1, run_fn=lambda x, y: (0, (2,)), worst_cost=2, label="nonbit"
    )
    with pytest.raises(ProtocolContractError):
        nonbit.run(0, 0)


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


def test_randomized_run_needs_rng():
    mix = RandomizedProtocol(
        ((F(1, 2), constant_protocol(1, 1, 0)), (F(1, 2), constant_protocol(1, 1, 1)))
    )
    assert mix.worst_cost == 0
    with pytest.raises(ParameterRangeError):
        run_protocol(mix, 0, 0)
    out = run_protocol(mix, 0, 0, Random(3)).output
    assert out in (0, 1)
    assert as_randomized(mix) is mix


def test_kfold_costs():
    assert trivial_ndisj_kfold(3, 2).worst_cost == 8  # kn + k
    assert trivial_search_kfold(3, 2).worst_cost == 12  # kn + k(1 + index bits)
    assert trivial_search_kfold(1, 2).worst_cost == 4  # index of 1 item is free
    assert trivial_ndisj(4).worst_cost == 5


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
    pairs = list(enumerate_inputs(task))
    assert len(pairs) == 16
    assert pairs[0] == (0, 0) and pairs[-1] == (3, 3)
    monkeypatch.setenv("RECTBOUND_EXACT_PROTOCOL_CAP", "15")
    with pytest.raises(CapExceededError):
        list(enumerate_inputs(task))


def test_structural_census_counts_unreachable_leaves():
    report = leaf_rectangle_check(trivial_ndisj(1))
    assert report.mode == "structural"
    # 2 alice branches x 2 bob answers
    assert report.leaf_count == 4
    assert report.partition_ok
    unreachable = [leaf for leaf in report.leaves if not leaf.reachable]
    assert len(unreachable) == 1  # x = 0 can never intersect
    assert report.count_outputs(lambda v: v == 1) == 2
    covered = sum(leaf.pair_count for leaf in report.leaves)
    assert covered == 4


def test_transcript_census_groups_by_conversation():
    report = leaf_rectangle_check(trivial_ndisj_kfold(1, 1))
    assert report.mode == "transcript"
    assert report.partition_ok
    # only conversations that happen appear
    assert all(leaf.reachable for leaf in report.leaves)
    assert report.leaf_count == 3  # x=0 always answers 0; x=1 splits on y
    census_pairs = sum(leaf.pair_count for leaf in report.leaves)
    assert census_pairs == 4


def test_census_rejects_mixtures():
    mix = as_randomized(constant_protocol(1, 1, 0))
    with pytest.raises(ParameterRangeError):
        leaf_rectangle_check(mix)


def test_tree_records_round_trip():
    proto = trivial_ndisj(2)
    records = tree_records(proto)
    back = tree_from_records(records)
    for x in range(4):
        for y in range(4):
            assert back.run(x, y) == proto.run(x, y)
    import json

    assert json.loads(json.dumps(records)) == records


def test_success_probability_exact():
    task = TaskSpec("ndisj-kfold", 3, 1)
    report = success_probability(trivial_ndisj(3), task)
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
            (F(3, 4), trivial_ndisj(1)),
            (F(1, 4), constant_protocol(1, 1, None)),
        )
    )
    report = success_probability(mix, task)
    assert report.worst == F(3, 4)
    assert report.rejected == F(1, 4)
    assert report.wrong == 0


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


def test_success_probability_size_mismatch():
    with pytest.raises(ParameterRangeError):
        success_probability(trivial_ndisj(2), TaskSpec("ndisj-kfold", 3, 1))
    with pytest.raises(ParameterRangeError):
        success_probability(trivial_ndisj(2), TaskSpec("ndisj-kfold", 2, 1), inputs=[])


def test_cost_profile_histogram():
    proto = trivial_ndisj(2)
    prof = cost_profile(proto, [(x, y) for x in range(4) for y in range(4)])
    assert prof.declared == 3
    assert prof.observed_max == prof.observed_min == 3
    assert prof.uniform
    assert prof.histogram == {3: 16}
    with pytest.raises(ParameterRangeError):
        cost_profile(proto, [])
