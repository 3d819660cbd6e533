import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    x = TauScalar.tau_power(1, GaussRational(0, 1))  # i*tau
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
    x, y, z = (GaussRational(1, 2), GaussRational(3), GaussRational(0, 5))
    s = TauScalar({2: x, -1: y}) + TauScalar({0: z, 2: -x})
    assert list(s.terms) == [-1, 0]
    one, tau = TauScalar.one(), TauScalar.tau_power(1)
    assert list(((one + tau) * (one - tau)).terms) == [0, 2]


def test_rational_scale_matches_gaussian_scale():
    gen = RandomGen(13)
    for _ in range(100):
        t, q = gen.tau_scalar(), gen.rational()
        assert t.scale(q) == t.scale(GaussRational(q))
        assert t.scale(q.numerator) == t.scale(GaussRational(q.numerator))
        assert not t.scale(0)


def test_ring_axioms_random():
    gen = RandomGen(11)
    for _ in range(300):
        x, y, z = (gen.tau_scalar() for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert x * (y * z) == (x * y) * z
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()


# -- the integer GaussRational against a reference pair of Fractions ----

# derandomized, so tier-1 draws the same examples on every run
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True,
                    database=None)
RATIONALS = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**20)))
PAIRS = st.tuples(RATIONALS, RATIONALS)


def _bits(z: complex) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


def _assert_matches(g: GaussRational, pair: tuple[Fraction, Fraction]):
    """g is in normal form and equals the pair (re, im)."""
    a, b, d = g.a, g.b, g.d
    assert type(a) is type(b) is type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1
    if not (pair[0] or pair[1]):
        assert (a, b, d) == (0, 0, 1) and not g
    assert type(g.re) is type(g.im) is Fraction
    assert (g.re, g.im) == pair
    rebuilt = GaussRational(*pair)
    assert g == rebuilt and hash(g) == hash(rebuilt)
    assert _bits(g.to_complex()) == _bits(complex(pair[0]) + 1j * complex(pair[1]))


def _check_ops(p, r, q: Fraction):
    x, y = GaussRational(*p), GaussRational(*r)
    (p0, p1), (r0, r1) = p, r
    _assert_matches(x, p)
    _assert_matches(x + y, (p0 + r0, p1 + r1))
    _assert_matches(x - y, (p0 - r0, p1 - r1))
    _assert_matches(x * y, (p0 * r0 - p1 * r1, p0 * r1 + p1 * r0))
    _assert_matches(-x, (-p0, -p1))
    _assert_matches(x.conjugate(), (p0, -p1))
    for s in (q, q.numerator, 0):
        _assert_matches(x.scale(s), (p0 * s, p1 * s))
    assert (x == y) == (p == r)
    if x == y:
        assert hash(x) == hash(y)


@PROPERTY
@given(PAIRS, PAIRS, RATIONALS)
def test_gauss_rational_matches_fraction_pairs(p, r, q):
    _check_ops(p, r, q)


def test_gauss_rational_matches_fraction_pairs_seeded():
    gen = RandomGen(17)
    for _ in range(300):
        p, r = (gen.rational(), gen.rational()), (gen.rational(), gen.rational())
        _check_ops(p, r, gen.rational())
        _check_ops(p, p, gen.rational())  # equal operands, x - x cancels


# small coefficients and exponents, so sums and products cancel often
TAU_SCALARS = st.dictionaries(
    st.integers(-2, 2),
    st.builds(GaussRational, st.integers(-2, 2), st.integers(-2, 2)),
    max_size=4).map(TauScalar)


@PROPERTY
@given(TAU_SCALARS, TAU_SCALARS, st.integers(-3, 3))
def test_tau_scalar_results_hold_no_zero_coefficient(x, y, k):
    for t in (x + y, x * y, x - y, -x, x.mul_by_tau_power(k), x - x,
              x + (-x), x.conjugate(), x.scale(Fraction(k, 2)), x.scale(k)):
        assert all(t.terms.values())
    assert not (x - x) and not x.scale(0)
