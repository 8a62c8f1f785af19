"""Dual certificates: builder values, feasibility sweeps, JSON round trips."""

from fractions import Fraction
from random import Random

import pytest

from rectbound.errors import CapExceededError, ParameterRangeError
from rectbound.lp_bounds import (
    build_search_dual_certificate,
    build_smooth_dual_ndisj,
    certificate_from_json,
    certificate_to_json,
    verify_dual_certificate,
)
from rectbound.rectangles import enumerate_rectangles, rect_weight

F = Fraction


def test_search_certificate_small_feasible():
    cert = build_search_dual_certificate(2, 1, 1, F(1), F(1, 2))
    assert cert.objective_value() == 1  # 2^(n/2) * 2^(-k) at these parameters
    assert cert.sigma == 1  # 2^(1 - alpha*k)
    assert cert.support_classes() == (1, 2)
    rep = verify_dual_certificate(cert)
    assert rep.feasible and rep.sign_ok
    assert rep.mode == "exhaustive"
    assert rep.max_weight == F(1, 3)


def test_search_certificate_n3_feasible():
    cert = build_search_dual_certificate(3, 1, 1, F(1), F(1, 3))
    assert cert.objective_value() == 1
    rep = verify_dual_certificate(cert)
    assert rep.feasible
    assert rep.max_weight == F(1, 6)
    assert cert.phi.support_size == 24
    assert cert.psi.support_size == 6


def test_search_certificate_inflated_scale_fails():
    # same shape, but the lift is pushed past what feasibility tolerates
    cert = build_search_dual_certificate(3, 1, 1, F(1), F(2))
    assert cert.objective_value() == 32
    rep = verify_dual_certificate(cert)
    assert not rep.feasible
    assert rep.sign_ok  # the signs are fine, the scale is not
    assert rep.max_weight == F(16, 3)
    assert rep.argmax.rows == 1 << 3
    assert rep.argmax.cols == 1 << 5 | 1 << 9
    assert rep.witness is not None and rep.witness.coords == (1,)


def test_search_certificate_parameter_guards():
    with pytest.raises(ParameterRangeError):
        build_search_dual_certificate(3, 2, 1, F(1), F(1, 3))  # k > m
    with pytest.raises(ParameterRangeError):
        build_search_dual_certificate(3, 1, 2, F(1), F(1, 3))  # 2m > n
    with pytest.raises(ParameterRangeError):
        build_search_dual_certificate(3, 1, 1, F(1, 2), F(1, 3))  # alpha*k not integral
    with pytest.raises(ParameterRangeError):
        build_search_dual_certificate(3, 1, 1, F(1), F(1, 2))  # beta*n not integral
    with pytest.raises(ParameterRangeError):
        build_search_dual_certificate(3, 1, 1, F(-1), F(1, 3))
    with pytest.raises(ParameterRangeError):
        build_search_dual_certificate(4, 1, 1, F(1, 2), F(1, 4))  # sigma would exceed 1


def test_search_certificate_k_zero_degenerates():
    cert = build_search_dual_certificate(4, 0, 1, F(1), F(1, 4))
    assert cert.degenerate
    assert cert.sigma == 1
    # cover and capped pairs coincide at k = 0, so the value collapses
    assert cert.objective_value() == 0
    assert verify_dual_certificate(cert).feasible


def test_smooth_certificate_small_is_degenerate():
    cert = build_smooth_dual_ndisj(4, F(1, 4))
    assert cert.degenerate
    assert cert.psi.support_size == 0
    assert cert.objective_value() == 2
    assert cert.objective_value(F(1, 8)) == F(7, 4)
    rep = verify_dual_certificate(cert)
    assert rep.feasible
    assert rep.max_weight == F(1, 2)


def test_smooth_certificate_n8_hits_the_cap():
    cert = build_smooth_dual_ndisj(8, F(1, 8))
    assert not cert.degenerate
    assert cert.objective_value() == F(1, 2)
    assert cert.support_classes() == (1, 2)
    with pytest.raises(CapExceededError):
        verify_dual_certificate(cert)


def test_smooth_certificate_universe_guard():
    with pytest.raises(ParameterRangeError):
        build_smooth_dual_ndisj(6, F(1, 6))
    with pytest.raises(ParameterRangeError):
        build_smooth_dual_ndisj(0, F(0))


def test_search_certificate_rejects_eps():
    cert = build_search_dual_certificate(2, 1, 1, F(1), F(1, 2))
    with pytest.raises(ParameterRangeError):
        cert.objective_value(F(1, 8))


def test_certificate_json_round_trip_is_exact():
    cert = build_search_dual_certificate(3, 1, 1, F(1), F(1, 3))
    doc = certificate_to_json(cert)
    back = certificate_from_json(doc)
    assert back == cert
    assert back.objective_value() == cert.objective_value()
    # and the text form too
    import json

    assert certificate_from_json(json.dumps(doc)) == cert


def test_sign_violation_reported():
    cert = build_search_dual_certificate(2, 1, 1, F(1), F(1, 2))
    doc = certificate_to_json(cert)
    doc["psi"] = [[x, y, str(-F(v))] for x, y, v in doc["psi"]]
    flipped = certificate_from_json(doc)
    rep = verify_dual_certificate(flipped)
    assert not rep.sign_ok
    assert not rep.feasible


def test_verification_mode_guard():
    cert = build_search_dual_certificate(2, 1, 1, F(1), F(1, 2))
    with pytest.raises(ParameterRangeError):
        verify_dual_certificate(cert, mode="guess")


def _refamilied(cert, family: dict, phi_scale=1, psi_scale=1):
    """The certificate's JSON with another family and phi, psi scaled, read back."""
    doc = certificate_to_json(cert)
    doc["family"] = family
    doc["phi"] = [[x, y, str(F(v) * phi_scale)] for x, y, v in doc["phi"]]
    doc["psi"] = [[x, y, str(F(v) * psi_scale)] for x, y, v in doc["psi"]]
    return certificate_from_json(doc)


def test_smooth_certificate_avoid_disjoint_argmax_is_pinned():
    # certify --kind smooth --n 4 --beta 1: infeasible, first argmax in sweep order.
    cert = build_smooth_dual_ndisj(4, F(1))
    for mode in ("exhaustive", "oracle"):
        rep = verify_dual_certificate(cert, mode=mode)
        assert not rep.feasible
        assert rep.max_weight == 4
        assert (rep.argmax.rows, rep.argmax.cols) == (1 << 1, 1 << 1)
        assert rep.witness is None


def test_full_family_certificate_argmax_is_pinned():
    cert = _refamilied(build_search_dual_certificate(3, 1, 1, F(1), F(2)), {"kind": "full"}, psi_scale=2)
    for mode in ("exhaustive", "oracle"):
        rep = verify_dual_certificate(cert, mode=mode)
        assert not rep.feasible
        assert rep.max_weight == F(64, 3)
        assert rep.argmax.rows == 1 << 6 | 1 << 9
        assert rep.argmax.cols == 1 << 3 | 1 << 5 | 1 << 10 | 1 << 12
        assert rep.witness is None


FAMILIES = ({"kind": "full"}, {"kind": "avoid-disjoint"}, {"kind": "witness", "k": 1})


@pytest.mark.parametrize("family", FAMILIES, ids=lambda fam: fam["kind"])
def test_all_negative_weights_report_zero_and_the_empty_rectangle(family):
    cert = _refamilied(build_search_dual_certificate(2, 1, 1, F(1), F(1, 2)), family, phi_scale=-1)
    assert all(value < 0 for _, value in cert.combined().items())
    for mode in ("exhaustive", "oracle"):
        rep = verify_dual_certificate(cert, mode=mode)
        assert rep.max_weight == 0
        assert rep.argmax.is_empty
        assert rep.witness is None


def test_exhaustive_sweep_equals_literal_maximum_on_tampered_certificates():
    rng = Random(17)
    bases = [
        build_search_dual_certificate(2, 1, 1, F(1), F(1, 2)),
        build_search_dual_certificate(3, 1, 1, F(1), F(1, 3)),
        build_smooth_dual_ndisj(4, F(1, 4)),
    ]
    verdicts = set()
    for base in bases:
        for family in FAMILIES:
            for _ in range(3):
                doc = certificate_to_json(base)
                doc["family"] = family
                strings = sorted({x for x, _, _ in doc["phi"]})
                # Reweight every entry, either sign, and put weight on a few
                # pairs of support strings that had none.
                doc["phi"] = [
                    [x, y, str(F(rng.randint(-4, 4), rng.choice((1, 2, 3))))]
                    for x, y, _ in doc["phi"]
                ]
                doc["psi"] = [
                    [x, y, str(F(rng.randint(-6, 2), rng.choice((1, 5))))]
                    for x, y, _ in doc["psi"]
                ]
                doc["psi"] += [
                    [rng.choice(strings), rng.choice(strings), str(F(rng.randint(-3, 3), 7))]
                    for _ in range(3)
                ]
                cert = certificate_from_json(doc)
                w = cert.combined()
                literal = max(
                    rect_weight(w, r)
                    for r in enumerate_rectangles(cert.universe, w.xs(), w.ys())
                    if cert.family.contains(r)
                )
                rep = verify_dual_certificate(cert, mode="exhaustive")
                assert rep.max_weight == literal, (base.kind, family)
                assert rect_weight(w, rep.argmax) == literal
                assert cert.family.contains(rep.argmax)
                if family["kind"] == "witness" and not rep.argmax.is_empty:
                    inside = rep.argmax.rows | rep.argmax.cols
                    assert inside & rep.witness.strings == inside
                else:
                    assert rep.witness is None
                verdicts.add(rep.max_weight <= 1)
    assert verdicts == {True, False}
