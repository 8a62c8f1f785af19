"""Dual certificates: builder values, feasibility sweeps, JSON round trips."""

from fractions import Fraction

import pytest

from rectbound.errors import CapExceededError, ParameterRangeError
from rectbound.lp_bounds import (
    build_search_dual_certificate,
    build_smooth_dual_ndisj,
    certificate_from_json,
    certificate_to_json,
    verify_dual_certificate,
)

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
