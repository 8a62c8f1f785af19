#!/usr/bin/env python3
"""A gallery of rectangle-cover LP bounds over the built-in truth tables.

For each table the plain bound asks for a weighting of rectangles that
covers every 1-input at least once while staying small on 0-inputs; the
smooth variant adds per-pair upper limits, which can only push the optimum
up.  Small instances are solved twice, by exact rational enumeration and by
float column generation, and the two answers are compared.  The last
section relaxes the exactly-one-witness program by an ambiguity allowance
and shows the optimum fall.
"""

import time
from fractions import Fraction

from rectbound.lp_bounds import (
    apply_ambiguity_variant,
    build_lovasz_lp,
    build_search_lp,
    build_smooth_lp,
    solve_constraint_generation,
    solve_full_enumeration,
)
from rectbound.truth_tables import FAMILIES, family


def main() -> None:
    print(f"{'table':8} {'n':>2} {'plain':>8} {'smooth':>8} {'cg plain':>10} {'gap':>9}")
    for name in sorted(FAMILIES):
        for n in (1, 2):
            lp = build_lovasz_lp(family(name, n), Fraction(0))
            sm = build_smooth_lp(family(name, n), Fraction(0))
            exact = solve_full_enumeration(lp)
            smooth = solve_full_enumeration(sm)
            cg = solve_constraint_generation(lp)
            gap = abs(float(exact.optimum) - cg.optimum)
            print(
                f"{name:8} {n:>2} {str(exact.optimum):>8} {str(smooth.optimum):>8}"
                f" {cg.optimum:>10.6f} {gap:>9.1e}"
            )
            assert smooth.optimum >= exact.optimum

    print()
    # 8 strings per side give 255^2 nonempty rectangles, and times the rows
    # that is past the exact solver's enumeration limit.
    print("three coordinates need the column-generation path (8 strings per side, 255^2 rectangles);")
    print("the plain master starts from the smooth optimum's support, a feasible plain point:")
    for name in ("NDISJ", "EQ"):
        t0 = time.perf_counter()
        smooth = solve_constraint_generation(build_smooth_lp(family(name, 3), Fraction(0)))
        plain = solve_constraint_generation(
            build_lovasz_lp(family(name, 3), Fraction(0)), start=smooth.weights
        )
        dt = time.perf_counter() - t0
        print(
            f"  {name:6} n=3  smooth {smooth.optimum:.6f} ({smooth.iterations} rounds)"
            f"  plain {plain.optimum:.6f} ({plain.iterations} rounds)"
            f"  ({smooth.columns}+{plain.columns} columns, {dt:.1f}s)"
        )

    print()
    print("witness search program at n=2, k=1 and its ambiguity relaxation:")
    lp = build_search_lp(2, 1, Fraction(1))
    base = solve_full_enumeration(lp)
    print(f"  exact witness: optimum {base.optimum}")
    for rate in (Fraction(1), Fraction(2)):
        relaxed = solve_full_enumeration(apply_ambiguity_variant(lp, rate, 1))
        print(f"  up to 2^{rate} witnesses allowed: optimum {relaxed.optimum}")


if __name__ == "__main__":
    main()
