#!/usr/bin/env python3
"""From explicit protocols to LP feasibility, through two compositions.

The pipeline: start with trivial baselines whose bit costs we can state in
closed form, make their claims self-verifying so wrong answers turn into
rejections, compose the verified core two ways (halving rounds that shrink
the search window, and a permutation mixture that solves a few blocks out
of many), and finally read the accepting leaves back as a feasible LP
solution whose total weight respects the 2^cost budget.
"""

from fractions import Fraction

from rectbound.lp_bounds import build_search_lp, solve_full_enumeration
from rectbound.protocols import (
    ProgramProtocol,
    TaskSpec,
    accepting_rectangle_weights,
    check_weights_against_lp,
    choose_success_bound,
    make_verified,
    reduce_ndisj_to_search,
    reduce_search_from_kfold,
    success_probability,
    trivial_search_kfold,
    trivial_ndisj_kfold,
)

F = Fraction


def main() -> None:
    print("baselines")
    for n in (1, 2, 4):
        p = trivial_ndisj_kfold(n, 1)
        rep = success_probability(p, TaskSpec("ndisj-kfold", n, 1))
        print(f"  intersection decision, n={n}: {p.worst_cost} bits, worst success {rep.worst}")

    print()
    print("verification wrapper")
    task = TaskSpec("search-kfold", 2, 2)
    # a protocol that always claims coordinate 1 in every block, silently
    liar = ProgramProtocol(
        n_alice=4, n_bob=4, run_fn=lambda x, y: ((1, 1), 0, 0), worst_cost=0, label="liar"
    )
    raw = success_probability(liar, task)
    ver = success_probability(make_verified(liar, task, "explicit"), task)
    print(f"  blind claimer: cost {liar.worst_cost}, wrong on {raw.wrong} of inputs")
    print(f"  after echo-and-check: wrong rate {ver.wrong} (lies become rejections)")
    assert raw.wrong > 0 and ver.wrong == 0

    print()
    print("halving composition (decision from search, shrinking windows)")
    n, k = 8, 1
    for s in (0, 1, 2):
        core = trivial_ndisj_kfold(n, k)
        reduced, bd = reduce_ndisj_to_search(core, n, k, s)
        rep = success_probability(reduced, TaskSpec("search-kfold", n, k))
        print(
            f"  s={s}: {bd.calls} calls x {bd.base_cost} bits + {bd.echo_bits} echo"
            f" + {bd.final_alice_bits}+{bd.final_bob_bits} window bits"
            f" = {bd.total} total, worst success {rep.worst}"
        )

    print()
    print("permutation composition (solve 1 of 2 blocks)")
    n, k, choose = 1, 2, 1
    base = trivial_search_kfold(n, k)
    reduced = reduce_search_from_kfold(base, n, k, choose)
    # measured on the task's promise: the inputs where at least `choose` blocks intersect
    rep = success_probability(reduced, TaskSpec("search-choose", n, k, choose=choose))
    bound = choose_success_bound(F(1), k, choose)
    print(f"  {len(reduced.branches)} permutation branches, cost {reduced.worst_cost}")
    print(f"  guaranteed success {bound.scaled_outside}, measured worst {rep.worst}")
    assert rep.worst >= bound.scaled_outside

    print()
    print("accepting leaves as an LP solution")
    task = TaskSpec("search-kfold", 2, 1)
    proto = make_verified(trivial_search_kfold(2, 1), task, "explicit")
    weights = accepting_rectangle_weights(
        proto, lambda out: isinstance(out, tuple) and all(e and e >= 1 for e in out)
    )
    lp = build_search_lp(2, 1, F(1))
    bridge = check_weights_against_lp(lp, weights, proto.worst_cost)
    optimum = solve_full_enumeration(lp).optimum
    print(f"  {len(weights)} weighted leaf rectangles, total weight {bridge.total_weight}")
    print(f"  feasible for the witness LP: {bridge.feasible}, within 2^{proto.worst_cost}: {bridge.within_cap}")
    print(f"  LP optimum {optimum} <= protocol budget {bridge.total_weight}")


if __name__ == "__main__":
    main()
