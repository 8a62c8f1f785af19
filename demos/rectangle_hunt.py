#!/usr/bin/env python3
"""Exact maximum-weight rectangle search, and what witnesses do to mass.

First half: build a random signed weight matrix, find the best rectangle
with the column oracle, and confirm the answer against brute-force
enumeration of every rectangle.  Second half: take a rectangle whose rows
all mark the same k coordinates, split it along the possible extra witness
coordinates, and watch the distribution mass decompose exactly.
"""

from fractions import Fraction
from random import Random

from rectbound import (
    InputPair,
    MuParams,
    Rectangle,
    WeightMatrix,
    bits,
    decompose_by_witness,
    enumerate_rectangles,
    max_weight_rectangle,
    mu_mass_of_rectangle,
    rect_weight,
)
from rectbound.rectangles import WitnessSet, string_masks


def random_matrix(rng: Random, n: int) -> WeightMatrix:
    side = 1 << n
    entries = {}
    for x in range(side):
        for y in range(side):
            entries[InputPair(x, y)] = Fraction(
                rng.randint(-5, 8), rng.randint(1, 3)
            )
    return WeightMatrix(n, entries)


def main() -> None:
    rng = Random(404)
    n = 2
    w = random_matrix(rng, n)
    print(f"random weight matrix on {1 << n}x{1 << n} input pairs, entries in [-5, 8]/d")

    best_rect, best_val = max_weight_rectangle(w)
    rows = sorted(bits(s, n) for s in string_masks(best_rect.rows))
    cols = sorted(bits(s, n) for s in string_masks(best_rect.cols))
    print(f"oracle best rectangle: rows={rows}")
    print(f"                       cols={cols}")
    print(f"oracle best weight:    {best_val}")

    brute = Fraction(0)
    count = 0
    for rect in enumerate_rectangles(n, w.xs(), w.ys()):
        count += 1
        v = rect_weight(w, rect)
        if v > brute:
            brute = v
    print(f"brute force over {count} rectangles agrees: {brute}")
    assert brute == best_val

    print()
    print("witness decomposition")
    p = MuParams(2, 4, 3)
    # a rectangle whose members all mark coordinates {1, 2}
    rows = WitnessSet(4, (1, 2)).strings
    rect = Rectangle(4, rows, rows)
    lhs = mu_mass_of_rectangle(p, rect)
    print(f"rectangle of strings marking coords (1, 2): mass under mu(2,4,3) = {lhs}")

    report = decompose_by_witness(rect, 1, p)
    print(f"split along single-coordinate witnesses: {len(report.family)} sub-rectangles")
    print(f"  sum of sub-masses / (k+1) = {report.rhs}")
    print(f"  identity holds: {report.holds}")
    assert report.holds


if __name__ == "__main__":
    main()
