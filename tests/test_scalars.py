from fractions import Fraction

import pytest

from structbundle.scalars import GaussRational, TauScalar
from structbundle.randgen import RandomGen


def test_gauss_rational_arithmetic():
    a = GaussRational(Fraction(1, 2), Fraction(3))
    b = GaussRational(Fraction(-1), Fraction(1, 3))
    assert a + b == GaussRational(Fraction(-1, 2), Fraction(10, 3))
    # (1/2 + 3i)(-1 + i/3) = -1/2 + 1/6 i - 3i + i^2 = -3/2 - 17/6 i
    assert a * b == GaussRational(Fraction(-3, 2), Fraction(-17, 6))
    assert (-a) + a == GaussRational()
    assert a.conjugate().conjugate() == a


def test_imag_unit_squares_to_minus_one():
    i = TauScalar.imag_unit()
    assert i * i == TauScalar.rational(-1)


def test_tau_powers_multiply_additively():
    t = TauScalar.tau_power(3) * TauScalar.tau_power(-5)
    assert t == TauScalar.tau_power(-2)
    assert t.mul_by_tau_power(2) == TauScalar.one()


def test_conjugation_negates_tau():
    # conj(tau) = conj(2 pi i) = -2 pi i = -tau
    t = TauScalar.tau_power(1)
    assert t.conjugate() == -t
    assert TauScalar.tau_power(2).conjugate() == TauScalar.tau_power(2)
    x = TauScalar.tau_power(1, GaussRational.of(0, 1))  # i*tau
    assert x.conjugate() == x.scale(Fraction(1))  # conj(i)*conj(tau) = i*tau


def test_integer_detection():
    assert TauScalar.rational(7).is_integer()
    assert TauScalar.rational(7).as_integer() == 7
    assert not TauScalar.rational(Fraction(1, 2)).is_integer()
    assert not TauScalar.tau_power(1).is_integer()


def test_numeric_evaluation_matches_symbols():
    import cmath
    t = TauScalar.tau_power(2).scale(Fraction(1, 4)) + TauScalar.imag_unit()
    tau = 2j * cmath.pi
    assert abs(t.to_complex() - (tau ** 2 / 4 + 1j)) < 1e-12


def test_sums_keep_key_order():
    # a new exponent goes last and a cancelled one is dropped; the float
    # sum of to_complex follows this order
    x, y, z = (GaussRational.of(1, 2), GaussRational.of(3), GaussRational.of(0, 5))
    s = TauScalar({2: x, -1: y}) + TauScalar({0: z, 2: -x})
    assert list(s.terms) == [-1, 0]
    one, tau = TauScalar.one(), TauScalar.tau_power(1)
    assert list(((one + tau) * (one - tau)).terms) == [0, 2]


def test_rational_scale_matches_gaussian_scale():
    gen = RandomGen(13)
    for _ in range(100):
        t, q = gen.tau_scalar(), gen.rational()
        assert t.scale(q) == t.scale(GaussRational.of(q))
        assert t.scale(q.numerator) == t.scale(GaussRational.of(q.numerator))
        assert t.scale(0).is_zero()


def test_ring_axioms_random():
    gen = RandomGen(11)
    for _ in range(300):
        x, y, z = (gen.tau_scalar() for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert x * (y * z) == (x * y) * z
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
