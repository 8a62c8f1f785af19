#!/usr/bin/env python3
"""Walk through the set-pair distribution layer.

The distributions live on pairs of n-bit strings with equal weight m whose
supports (as subsets of coordinates) intersect in exactly k positions.  The
script prints a small support in full, checks normalization, then runs the
four lifting identities that relate distributions at different meet sizes
and shows the exact rational factor each one carries.
"""

from fractions import Fraction

from rectbound import (
    MuParams,
    bits,
    check_lemma4,
    enumerate_support,
    identity_sides,
    intersection_ratio,
    mu_prob,
    valid_mu_params,
)

LINE = "-" * 72


def show_support(p: MuParams) -> None:
    print(f"support of mu(k={p.k}, n={p.n}, m={p.m}), {p.support_size} pairs:")
    total = Fraction(0)
    for pair in enumerate_support(p):
        q = mu_prob(p, pair)
        total += q
        print(f"  x={bits(pair.x, p.n)}  y={bits(pair.y, p.n)}  prob={q}")
    print(f"  sum = {total}")
    assert total == 1


def main() -> None:
    print(LINE)
    print("a complete tiny support")
    print(LINE)
    show_support(MuParams(1, 3, 2))

    print()
    print(LINE)
    print("normalization across the small grid")
    print(LINE)
    count = 0
    for p in valid_mu_params(6):
        s = sum((mu_prob(p, pair) for pair in enumerate_support(p)), Fraction(0))
        assert s == 1, p
        count += 1
    print(f"checked {count} parameter triples with n <= 6, every sum exactly 1")

    print()
    print(LINE)
    print("the four lifting identities")
    print(LINE)
    # each identity says: a distribution at one (k, n, m) equals a constant
    # times a coarser one, pair by pair, after dropping witness coordinates
    p = MuParams(1, 4, 2)
    for identity in ("I", "II", "III", "IV"):
        sides = identity_sides(identity, p)
        report = check_lemma4(identity, p)
        status = "holds" if report.holds else "FAILS"
        lhs, rhs = sides.lhs, sides.rhs
        print(
            f"identity {identity}: mu{(lhs.k, lhs.n, lhs.m)} = {sides.factor} * "
            f"mu{(rhs.k, rhs.n, rhs.m)} after removing {sides.removed} coords "
            f"[{status}, {report.pairs_checked} pairs, max diff {report.max_abs_diff}]"
        )

    print()
    print(LINE)
    print("mass kept when forcing one extra intersection point")
    print(LINE)
    for k in range(4):
        r = intersection_ratio(k + 4, k)
        print(f"  k={k}: conditional mass ratio {r} (= C(2k,k)/2^(k+1))")


if __name__ == "__main__":
    main()
