import math
from fractions import Fraction

import pytest

from structbundle.functions import BaseSpace, ChartFunction, cos_theta, sin_theta
from structbundle.randgen import RandomGen
from structbundle.scalars import GaussRational, TauScalar


def test_base_space_validation():
    b = BaseSpace(2, 1)
    assert b.dim == 3
    with pytest.raises(ValueError):
        BaseSpace(-1, 0)


def test_partial_derivative_chart():
    b = BaseSpace(2, 0)
    f = ChartFunction.coord(b, 0) * ChartFunction.coord(b, 0)
    assert f.partial(0) == ChartFunction.coord(b, 0).scale_rational(2)
    assert f.partial(1) == ChartFunction.zero(b)


def test_partial_derivative_torus():
    b = BaseSpace(0, 1)
    f = ChartFunction.fourier(b, (3,))
    # d/dtheta e^{3 i theta} = 3i e^{3 i theta}
    assert f.partial(0) == f.scale(TauScalar.rational(0, 3))


def test_circle_average_kills_oscillation():
    b = BaseSpace(1, 1)
    f = ChartFunction.coord(b, 0) + ChartFunction.fourier(b, (2,))
    assert f.circle_average(0) == ChartFunction.coord(b, 0)


def test_cos_sin_pythagoras():
    b = BaseSpace(0, 1)
    c, s = cos_theta(b, 0), sin_theta(b, 0)
    assert c * c + s * s == ChartFunction.one(b)


def test_conjugation_flips_fourier_modes():
    b = BaseSpace(0, 2)
    f = ChartFunction.fourier(b, (1, -2)).scale(TauScalar.imag_unit())
    g = f.conjugate()
    assert g == ChartFunction.fourier(b, (-1, 2)).scale(
        TauScalar.rational(0, -1))


def test_eval_numeric():
    b = BaseSpace(1, 1)
    f = ChartFunction.coord(b, 0) * ChartFunction.fourier(b, (1,))
    val = f.eval_numeric([2.0], [math.pi / 2])
    assert abs(val - 2j) < 1e-12


def test_product_rule_random():
    gen = RandomGen(5)
    for _ in range(100):
        b = gen.base_space(min_dim=1)
        f, g = gen.chart_function(b), gen.chart_function(b)
        j = gen.rng.randrange(b.dim)
        assert (f * g).partial(j) == f.partial(j) * g + f * g.partial(j)


def test_repr_round_trips():
    names = {"BaseSpace": BaseSpace, "ChartFunction": ChartFunction,
             "Fraction": Fraction, "GaussRational": GaussRational,
             "TauScalar": TauScalar}
    gen = RandomGen(17)
    for _ in range(50):
        t = gen.tau_scalar(3)
        assert eval(repr(t), names) == t
        f = gen.chart_function(gen.base_space(), 3)
        assert eval(repr(f), names) == f
