#!/usr/bin/env python3
"""Dual certificates: built, valued, verified, tampered with, serialized.

A dual certificate packages two signed weightings of input pairs whose
difference is small on every rectangle.  Its objective value is then a
lower bound on the search LP optimum, scaling as 2^(beta n) / 2^(alpha k)
by construction.  The verifier sweeps all rectangles (or asks the
column oracle) for the largest signed weight; feasibility means that
maximum stays at or below one.
"""

import json
from fractions import Fraction

from rectbound.lp_bounds import (
    build_search_dual_certificate,
    build_smooth_dual_ndisj,
    certificate_from_json,
    certificate_to_json,
    verify_dual_certificate,
)
from rectbound.rectangles import string_masks

F = Fraction


def show(tag, cert, mode="auto"):
    report = verify_dual_certificate(cert, mode=mode)
    print(f"{tag}:")
    print(f"  objective 2^(bn)/2^(ak) = {cert.objective_value()}")
    print(f"  largest rectangle weight {report.max_weight} ({report.mode})")
    print(f"  feasible: {report.feasible}")
    return report


def main() -> None:
    cert = build_search_dual_certificate(3, 1, 1, F(1), F(1, 3))
    show("search certificate, n=3 k=1 m=1 alpha=1 beta=1/3", cert)
    print(f"  support sizes: phi {cert.phi.support_size}, psi {cert.psi.support_size}")

    print()
    # pushing beta past what the construction supports leaves a visible hole
    bad = build_search_dual_certificate(3, 1, 1, F(1), F(2))
    report = show("same shape but beta=2 (inflated)", bad)
    worst = report.argmax
    print(f"  violating rectangle rows={list(string_masks(worst.rows))}"
          f" cols={list(string_masks(worst.cols))}")

    print()
    smooth = build_smooth_dual_ndisj(8, F(1, 8))
    print("smooth intersection certificate at n=8, beta=1/8:")
    print(f"  objective {smooth.objective_value()}, degenerate: {smooth.degenerate}")
    print("  (verification at n=8 exceeds the default rectangle cap; raise it to sweep)")

    print()
    doc = certificate_to_json(cert)
    text = json.dumps(doc)
    back = certificate_from_json(text)
    print(f"json round trip: {len(text)} bytes, equal after reload: {back == cert}")

    # hand-edit the serialized form: flip one psi sign, watch verification fail
    doc["psi"][0][-1] = str(-F(doc["psi"][0][-1]))
    tampered = certificate_from_json(json.dumps(doc))
    report = verify_dual_certificate(tampered)
    print(f"after flipping one psi sign: sign_ok={report.sign_ok}, feasible={report.feasible}")


if __name__ == "__main__":
    main()
