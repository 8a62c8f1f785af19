"""The acceptance gate: ten numbered criteria, one summary line each.

Every test here carries a `criterion` marker; the conftest plugin folds the
marked results into a pass/fail table printed after the run.  Numbers and
tolerances are frozen: exact assertions use rational arithmetic, the two
solver families are compared at 1e-9, and the scan criterion checks only
completion, positivity, and byte-stable output.
"""

import time
from fractions import Fraction
from math import ceil
from random import Random

import pytest

from rectbound.combinatorics import (
    BitString,
    InputPair,
    MuParams,
    binom,
    check_lemma4,
    enumerate_support,
    intersection_ratio,
    mu_prob,
    valid_mu_params,
)
from rectbound.errors import ParameterRangeError
from rectbound.lp_bounds import (
    ScanConfig,
    apply_ambiguity_variant,
    build_lovasz_lp,
    build_search_dual_certificate,
    build_search_lp,
    build_smooth_dual_ndisj,
    build_smooth_lp,
    sampling_lemma_scan,
    scan_to_csv,
    solve_constraint_generation,
    solve_full_enumeration,
    verify_dual_certificate,
)
from rectbound.protocols import (
    ProgramProtocol,
    TaskSpec,
    accepting_rectangle_weights,
    check_weights_against_lp,
    choose_success_bound,
    cost_profile,
    enumerate_inputs,
    index_bits,
    intersecting_blocks,
    make_verified,
    reduce_ndisj_to_search,
    reduce_search_from_kfold,
    success_probability,
    trivial_ndisj,
    trivial_ndisj_kfold,
    trivial_search_kfold,
)
from rectbound.rectangles import (
    Rectangle,
    WeightMatrix,
    decompose_by_witness,
    enumerate_rectangles,
    max_weight_rectangle,
    rect_weight,
)
from rectbound.truth_tables import FAMILIES, family

F = Fraction

IDENTITIES = ("I", "II", "III", "IV")


# ------------------------------------------------------------ criterion 1


@pytest.mark.criterion(1, "lifting identities hold with zero deviation on the full small grid")
def test_lifting_identities_exact_everywhere():
    start = time.perf_counter()
    checked = 0
    for p in valid_mu_params(8, 10**6):
        for identity in IDENTITIES:
            try:
                report = check_lemma4(identity, p)
            except ParameterRangeError:
                continue  # a side of this identity has empty support here
            assert report.max_abs_diff == 0, (identity, p)
            assert report.pairs_checked == report.lhs_params.support_size
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 250  # the grid is genuinely swept, not vacuously skipped
    assert elapsed < 60.0


# ------------------------------------------------------------ criterion 2


@pytest.mark.criterion(2, "set-pair distributions are normalized exactly")
def test_distribution_normalization_exact():
    count = 0
    for p in valid_mu_params(10, 10**6):
        total = sum((mu_prob(p, pair) for pair in enumerate_support(p)), F(0))
        assert total == 1, p
        count += 1
    assert count >= 150


# ------------------------------------------------------------ criterion 3


def _seeded_matrix(rng: Random, n: int, rows: int, cols: int) -> WeightMatrix:
    side = 1 << n
    xs = rng.sample(range(side), min(rows, side))
    ys = rng.sample(range(side), min(cols, side))
    entries = {}
    for x in xs:
        for y in ys:
            entries[InputPair(BitString(n, x), BitString(n, y))] = F(
                rng.randint(-9, 9), rng.randint(1, 5)
            )
    return WeightMatrix(n, entries)


@pytest.mark.criterion(3, "rectangle oracle equals exhaustive enumeration on seeded matrices")
def test_oracle_equals_exhaustive_on_200_matrices():
    rng = Random(20260821)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(1, 3)
        w = _seeded_matrix(rng, n, rng.randint(1, 5), rng.randint(1, 5))
        _, oracle_best = max_weight_rectangle(w)
        brute = F(0)
        for rect in enumerate_rectangles(w.xs(), w.ys()):
            value = rect_weight(w, rect)
            if value > brute:
                brute = value
        if oracle_best != brute:
            mismatches += 1
    assert mismatches == 0


# ------------------------------------------------------------ criterion 4


@pytest.mark.criterion(4, "exact and column-generation optima agree on the pinned instances")
def test_solver_agreement_single_one_table():
    lp = build_lovasz_lp(family("AND", 1), F(0))
    exact = solve_full_enumeration(lp)
    cg = solve_constraint_generation(lp)
    assert exact.optimum == 1
    assert abs(float(exact.optimum) - cg.optimum) <= 1e-9


@pytest.mark.criterion(4, "exact and column-generation optima agree on the pinned instances")
@pytest.mark.parametrize("name", ["NDISJ", "EQ"])
@pytest.mark.parametrize("build", [build_lovasz_lp, build_smooth_lp], ids=["plain", "smooth"])
def test_solver_agreement_two_coordinate_tables(name, build):
    lp = build(family(name, 2), F(0))
    exact = solve_full_enumeration(lp)
    cg = solve_constraint_generation(lp)
    assert exact.status == cg.status == "optimal"
    assert abs(float(exact.optimum) - cg.optimum) <= 1e-9


def _hand_built_cover() -> dict[Rectangle, Fraction]:
    """Six half-weight single-witness rectangles covering every meet-1 pair once."""
    half = F(1, 2)
    rects = [
        Rectangle.from_bits(["01", "11"], ["01", "11"]),
        Rectangle.from_bits(["10", "11"], ["10", "11"]),
        Rectangle.from_bits(["01"], ["01", "11"]),
        Rectangle.from_bits(["10"], ["10", "11"]),
        Rectangle.from_bits(["11"], ["01"]),
        Rectangle.from_bits(["11"], ["10"]),
    ]
    return {r: half for r in rects}


@pytest.mark.criterion(4, "exact and column-generation optima agree on the pinned instances")
def test_solver_agreement_search_lp_with_hand_upper_bound():
    lp = build_search_lp(2, 1, F(1))
    hand = _hand_built_cover()
    # the hand solution satisfies every row, so its total bounds the optimum
    for c in lp.constraints:
        cov = sum(
            (w for rect, w in hand.items() if rect.contains(c.pair)),
            F(0),
        )
        if c.sense == ">=":
            assert cov >= c.rhs, c.describe()
        else:
            assert cov <= c.rhs, c.describe()
    hand_total = sum(hand.values())
    assert hand_total == 3

    exact = solve_full_enumeration(lp)
    cg = solve_constraint_generation(lp)
    assert exact.optimum == 3
    assert exact.optimum <= hand_total
    assert abs(float(exact.optimum) - cg.optimum) <= 1e-9
    # the column oracle confirms no rectangle is priced above its cost
    assert cg.oracle_max is not None and cg.oracle_max <= 1.0 + 1e-9


# ------------------------------------------------------------ criterion 5


@pytest.mark.criterion(5, "smooth bound dominates the plain one; ambiguity never raises it")
def test_smooth_dominates_small_exact():
    for name in sorted(FAMILIES):
        for n in (1, 2):
            plain = solve_full_enumeration(build_lovasz_lp(family(name, n), F(0)))
            smooth = solve_full_enumeration(build_smooth_lp(family(name, n), F(0)))
            assert smooth.optimum >= plain.optimum, (name, n)


@pytest.mark.criterion(5, "smooth bound dominates the plain one; ambiguity never raises it")
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_smooth_dominates_n3_via_column_generation(name):
    # the full rectangle family at three coordinates is past the exact
    # enumeration limit, so both optima come from the same float solver
    plain = solve_constraint_generation(build_lovasz_lp(family(name, 3), F(0)))
    smooth = solve_constraint_generation(build_smooth_lp(family(name, 3), F(0)))
    assert plain.status == smooth.status == "optimal"
    assert smooth.optimum >= plain.optimum - 1e-9


@pytest.mark.criterion(5, "smooth bound dominates the plain one; ambiguity never raises it")
def test_ambiguity_relaxation_is_monotone():
    lp = build_search_lp(2, 1, F(1))
    base = solve_full_enumeration(lp).optimum
    previous = base
    for rate in (F(1), F(2), F(3)):
        relaxed = solve_full_enumeration(apply_ambiguity_variant(lp, rate, 1)).optimum
        assert relaxed <= base
        assert relaxed <= previous  # looser cap, never a larger optimum
        previous = relaxed


# ------------------------------------------------------------ criterion 6


def _certificate_grid():
    points = []
    for n in range(2, 9):
        for k in (1, 2):
            for m in range(k, n // 2 + 1):
                for alpha in (F(1), F(2)):
                    for lift in (1, 2):
                        points.append((n, k, m, alpha, F(lift, n)))
    return points


@pytest.mark.criterion(6, "certificate values match the closed form; verifier modes agree")
def test_certificate_value_closed_form_on_grid():
    points = _certificate_grid()
    assert len(points) >= 20
    for n, k, m, alpha, beta in points[:20]:
        cert = build_search_dual_certificate(n, k, m, alpha, beta)
        want = F(2) ** int(beta * n) * F(1, 2) ** int(alpha * k)
        assert cert.objective_value() == want, (n, k, m, alpha, beta)


@pytest.mark.criterion(6, "certificate values match the closed form; verifier modes agree")
def test_verifier_modes_return_identical_maxima():
    certs = [
        build_search_dual_certificate(2, 1, 1, F(1), F(1, 2)),
        build_search_dual_certificate(3, 1, 1, F(1), F(1, 3)),
        build_search_dual_certificate(3, 1, 1, F(2), F(1, 3)),
        build_smooth_dual_ndisj(4, F(1, 4)),
    ]
    for cert in certs:
        sweep = verify_dual_certificate(cert, mode="exhaustive")
        oracle = verify_dual_certificate(cert, mode="oracle")
        assert sweep.max_weight == oracle.max_weight, cert.kind
        assert sweep.feasible == oracle.feasible


# ------------------------------------------------------------ criterion 7


@pytest.mark.criterion(7, "witness decomposition and mass-transfer ratio are exact")
def test_decomposition_identity_on_seeded_rectangles():
    rng = Random(160)
    done = 0
    while done < 50:
        k = rng.randint(1, 2)
        n = rng.randint(k + 1, 6)
        m = rng.randint(k + 1, n)
        p = MuParams(k + 1, n, m)
        if p.is_empty:
            continue
        side = 1 << n
        pick = lambda: rng.sample(range(side), rng.randint(1, min(12, side)))
        rows = sum(1 << v for v in pick())
        cols = sum(1 << v for v in pick())
        report = decompose_by_witness(Rectangle(n, rows, cols), k, p)
        assert report.holds, (k, p)
        assert report.lhs == report.rhs
        done += 1


@pytest.mark.criterion(7, "witness decomposition and mass-transfer ratio are exact")
def test_mass_transfer_ratio_matches_binomials():
    points = [(n, k) for k in range(4) for n in range(k, k + 5)]
    assert len(points) == 20
    for n, k in points:
        want = F(binom(2 * k, k), 2 ** (k + 1))
        assert intersection_ratio(n, k) == want, (n, k)
        # the defining expression, evaluated directly
        direct = F(binom(n, k) * binom(n + k, k), binom(n + k, 2 * k) * 2 ** (k + 1))
        assert intersection_ratio(n, k) == direct


# ------------------------------------------------------------ criterion 8


@pytest.mark.criterion(8, "protocol suite: exact costs, silenced lies, composition bounds")
def test_trivial_decider_cost_and_success():
    for n in (1, 2, 3, 6, 8):
        proto = trivial_ndisj(n)
        assert proto.worst_cost == n + 1
        report = success_probability(proto, TaskSpec("ndisj-kfold", n, 1))
        assert report.mode == "exact-rational"
        assert report.worst == 1


def _always_claims_first(n: int, k: int) -> ProgramProtocol:
    width = n * k
    return ProgramProtocol(
        n_alice=width,
        n_bob=width,
        run_fn=lambda x, y: (tuple(1 for _ in range(k)), ()),
        worst_cost=0,
        label="always-claims",
    )


@pytest.mark.criterion(8, "protocol suite: exact costs, silenced lies, composition bounds")
@pytest.mark.parametrize("mode", ["explicit", "two_bit"])
def test_verification_wrapper_silences_every_lie(mode):
    task = TaskSpec("search-kfold", 2, 2)
    liar = _always_claims_first(2, 2)
    raw = success_probability(liar, task)
    assert raw.wrong > 0  # the unwrapped claims really are wrong somewhere
    wrapped = make_verified(liar, task, mode)
    report = success_probability(wrapped, task)  # all 256 inputs exactly
    assert report.mode == "exact-rational"
    assert report.wrong == 0


@pytest.mark.criterion(8, "protocol suite: exact costs, silenced lies, composition bounds")
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_halving_composition_bits_and_success(k, s):
    n = 8
    base = trivial_ndisj_kfold(n, k)
    reduced, breakdown = reduce_ndisj_to_search(base, n, k, s)
    window = ceil(n / 2**s)
    want = (s + 1) * base.worst_cost + s * k + k * window + k * (1 + index_bits(window))
    assert breakdown.total == want
    assert reduced.worst_cost == want

    task = TaskSpec("search-kfold", n, k)
    if k == 1:
        report = success_probability(reduced, task)  # all 65536 inputs exactly
        assert report.inputs_checked == 65536
    else:
        # 2^32 pairs are past the exact cap; a seeded sample stands in
        report = success_probability(reduced, task, samples=400, seed=17)
    assert report.worst == 1
    assert report.wrong == 0

    rng = Random(31 + s + 10 * k)
    side = 1 << task.input_bits
    probes = [(rng.randrange(side), rng.randrange(side)) for _ in range(128)]
    profile = cost_profile(reduced, probes)
    assert profile.uniform  # padded rounds spend the same bits on every input
    assert profile.observed_max == want
    assert profile.histogram == {want: 128}


@pytest.mark.criterion(8, "protocol suite: exact costs, silenced lies, composition bounds")
def test_choose_composition_meets_the_analytic_bound():
    n, k, choose = 1, 2, 1
    base = trivial_search_kfold(n, k)
    kfold = TaskSpec("search-kfold", n, k)
    assert success_probability(base, kfold).worst == 1  # sigma is exactly 1
    sigma = F(1)

    reduced = reduce_search_from_kfold(base, n, k, choose)
    assert len(reduced.branches) == 2  # both orderings of the two positions
    task = TaskSpec("search-choose", n, k, choose=choose)
    promise = [
        (x, y) for x, y in enumerate_inputs(kfold) if intersecting_blocks(kfold, x, y) >= choose
    ]
    report = success_probability(reduced, task, inputs=promise)

    bound = choose_success_bound(sigma, k, choose)
    assert bound.alpha == 2
    # the quoted bound: sigma * (1 - alpha/4) raised to alpha*K
    analytic = sigma * (1 - bound.alpha / 4) ** int(bound.alpha * choose)
    assert analytic == F(1, 4)
    assert report.worst >= analytic
    assert report.worst >= bound.scaled_outside
    assert report.worst >= bound.scaled_inside
    assert report.wrong == 0


# ------------------------------------------------------------ criterion 9


def _is_full_claim(output) -> bool:
    return isinstance(output, tuple) and all(isinstance(e, int) and e >= 1 for e in output)


@pytest.mark.criterion(9, "verified protocol leaves give a feasible LP solution within budget")
def test_protocol_leaves_feed_the_lp():
    task = TaskSpec("search-kfold", 2, 1)
    proto = make_verified(trivial_search_kfold(2, 1), task, "explicit")
    assert proto.worst_cost == 8

    weights = accepting_rectangle_weights(proto, _is_full_claim)
    lp = build_search_lp(2, 1, F(1))
    report = check_weights_against_lp(lp, weights, proto.worst_cost)
    assert report.feasible
    assert report.family_ok
    assert report.max_violation == 0
    assert report.total_weight <= F(2) ** proto.worst_cost
    assert report.ok
    # and the LP optimum sits below the protocol's weight budget
    assert solve_full_enumeration(lp).optimum <= report.total_weight


# ----------------------------------------------------------- criterion 10


@pytest.mark.criterion(10, "mass scan completes with positive ratios, byte-stable per seed")
@pytest.mark.parametrize("n", [8, 12])
def test_scan_harness_positive_and_reproducible(n):
    cfg = ScanConfig(samples=10_000, seed=11)
    p = MuParams(0, n, n // 4)
    report = sampling_lemma_scan(p, 1, cfg)
    assert report.mode == "sampled"
    assert len(report.rows) == 10_001  # anchor plus one row per sample
    assert report.above_bar_count > 0
    assert report.min_ratio is not None
    assert report.min_ratio > 0

    text = scan_to_csv(report)
    again = scan_to_csv(sampling_lemma_scan(p, 1, cfg))
    assert text == again
    other = scan_to_csv(sampling_lemma_scan(p, 1, ScanConfig(samples=10_000, seed=12)))
    assert text != other
