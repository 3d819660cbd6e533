from fractions import Fraction

import pytest

from structbundle.chern_simons import ConnectionPath, cs_path
from structbundle.connections import Connection, GaugeTransform, gauge_apply
from structbundle.forms import Cycle, MatrixForm
from structbundle.functions import BaseSpace, ChartFunction
from structbundle.gauge_theta import (b_coefficient, b_coefficient_closed_form,
                                      lambda_gl_test, theta_pullback)
from structbundle.randgen import RandomGen
from structbundle.scalars import TauScalar


def test_b1_is_inverse_tau():
    assert b_coefficient(1) == TauScalar.tau_power(-1)


def test_b2_value():
    # 1/1! * tau^-2 * int_0^1 (t^2 - t) dt = -tau^-2 / 6
    assert b_coefficient(2) == TauScalar.tau_power(-2).scale(Fraction(-1, 6))


def test_b_routes_agree():
    for j in range(1, 8):
        assert b_coefficient(j) == b_coefficient_closed_form(j)


def test_fourier_pullback_has_winding_period():
    b = BaseSpace(0, 1)
    g = GaugeTransform.fourier(b, (2, 1))
    form = theta_pullback(g)
    assert form.period(Cycle(b, (0,))) == TauScalar.rational(3)


def test_pullback_matches_cs_of_gauge_orbit():
    gen = RandomGen(59)
    for _ in range(20):
        base = gen.base_space(min_dim=1)
        g = gen.gauge(base, gen.rng.randint(1, 3))
        flat = Connection.flat(base, g.size)
        cs = cs_path(ConnectionPath.straight(flat, gauge_apply(g, flat)))
        assert (cs - theta_pullback(g)).is_exact()


def test_membership_with_certificate():
    b = BaseSpace(0, 1)
    g = GaugeTransform.fourier(b, (1,))
    omega = theta_pullback(g).scale_rational(2)
    verdict = lambda_gl_test(omega, [g])
    assert verdict.status == "member"
    assert verdict.combination == (2,)


def test_nonmember_by_period_witness():
    b = BaseSpace(0, 1)
    coeff = TauScalar.tau_power(-1) * TauScalar.rational(0, Fraction(1, 2))
    half = MatrixForm.scalar(b, ChartFunction.one(b).scale(coeff), (0,))
    verdict = lambda_gl_test(half, [GaugeTransform.fourier(b, (1,))])
    assert verdict.status == "nonmember"
    cycle, per = verdict.witness
    assert cycle is not None
    assert per == TauScalar.rational(Fraction(1, 2))


def test_nonmember_when_not_closed():
    b = BaseSpace(2, 0)
    w = MatrixForm.scalar(b, ChartFunction.coord(b, 1), (0,))
    verdict = lambda_gl_test(w, [])
    assert verdict.status == "nonmember"


def test_unknown_when_out_of_reach():
    b = BaseSpace(0, 1)
    g = GaugeTransform.fourier(b, (1,))
    omega = theta_pullback(g).scale_rational(5)
    verdict = lambda_gl_test(omega, [g], depth=2)
    assert verdict.status == "unknown"
