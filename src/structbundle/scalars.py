"""Exact coefficient arithmetic.

The coefficient ring is Q(i)[tau, tau^-1]: Laurent polynomials in the
formal generator tau over the Gaussian rationals.  tau stands for the
constant 2*pi*i; keeping it symbolic makes every normalization factor
(1/tau)^j an exact ring element.  Nothing in this module ever rounds --
the only place tau acquires its numeric value is the holonomy module.

A ``GaussRational`` is (a + b*i)/d as three ints in the normal form
d > 0, gcd(a, b, d) = 1 (zero is (0, 0, 1)), so equal values have equal
fields; only the ``re``/``im`` properties build a ``Fraction``.
``to_complex`` computes a / d and b / d: int / int is correctly rounded,
so it is the float ``float(Fraction(a, d))`` gives, reduced or not.

Every sparse sum in the exact rings goes through ``accumulate``: a sum
that cancels to zero drops its key, and a new key goes last.  The float
sums of the numeric evaluation follow that insertion order.
"""

from __future__ import annotations

import math
from fractions import Fraction


def accumulate(out: dict, key, value) -> None:
    """out[key] += value in a sparse map, dropping the key if the sum is zero.

    A new key takes value itself and goes last.
    """
    s = out.get(key)
    s = value if s is None else s + value
    if s:
        out[key] = s
    else:
        out.pop(key, None)


class GaussRational:
    """Exact complex number re + im*i, built from rationals re and im."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re, im = Fraction(re), Fraction(im)
        # with d = lcm of the two denominators, gcd(a, b, d) is already 1
        d = math.lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __add__(self, other: "GaussRational") -> "GaussRational":
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _normal(self.a + other.a, self.b + other.b, d1)
        return _normal(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1,
                       d1 * d2)

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        return self + (-other)

    def __neg__(self) -> "GaussRational":
        return _raw(-self.a, -self.b, self.d)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return _normal(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    def scale(self, q) -> "GaussRational":
        """Multiply by an int or a Fraction."""
        n = q.numerator
        return _normal(self.a * n, self.b * n, self.d * q.denominator)

    def conjugate(self) -> "GaussRational":
        return _raw(self.a, -self.b, self.d)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def to_complex(self) -> complex:
        return complex(self.a / self.d) + 1j * complex(self.b / self.d)

    def __eq__(self, other) -> bool:
        return (isinstance(other, GaussRational) and self.a == other.a
                and self.b == other.b and self.d == other.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __repr__(self) -> str:
        return f"GaussRational(re={self.re!r}, im={self.im!r})"


def _raw(a: int, b: int, d: int) -> GaussRational:
    """A GaussRational from fields already in normal form."""
    r = _new(GaussRational)
    r.a, r.b, r.d = a, b, d
    return r


def _normal(a: int, b: int, d: int) -> GaussRational:
    """(a + b*i)/d for d > 0, reduced to normal form."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    r = _new(GaussRational)
    r.a, r.b, r.d = a, b, d
    return r


_new = object.__new__

QI_ONE = GaussRational(1)
QI_I = GaussRational(0, 1)


class TauScalar:
    """Finite Laurent polynomial in tau with GaussRational coefficients.

    Stored as a map {tau exponent: coefficient}; zero coefficients are
    never kept.  Immutable by convention: no method mutates self.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, GaussRational] | None = None):
        self.terms = {e: c for e, c in terms.items() if c} if terms else {}

    @staticmethod
    def _of(terms: dict[int, GaussRational]) -> "TauScalar":
        """Trusted constructor: terms already holds no zero coefficient."""
        t = _new(TauScalar)
        t.terms = terms
        return t

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "TauScalar":
        return TauScalar()

    @staticmethod
    def one() -> "TauScalar":
        return TauScalar({0: QI_ONE})

    @staticmethod
    def rational(re, im=0) -> "TauScalar":
        return TauScalar({0: GaussRational(re, im)})

    @staticmethod
    def imag_unit() -> "TauScalar":
        return TauScalar({0: QI_I})

    @staticmethod
    def tau_power(exp: int, coeff: GaussRational = QI_ONE) -> "TauScalar":
        return TauScalar({exp: coeff})

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "TauScalar") -> "TauScalar":
        out = dict(self.terms)
        for exp, c in other.terms.items():
            accumulate(out, exp, c)
        return TauScalar._of(out)

    def __sub__(self, other: "TauScalar") -> "TauScalar":
        return self + (-other)

    def __neg__(self) -> "TauScalar":
        return TauScalar._of({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "TauScalar") -> "TauScalar":
        out: dict[int, GaussRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                accumulate(out, e1 + e2, c1 * c2)
        return TauScalar._of(out)

    def mul_by_tau_power(self, shift: int) -> "TauScalar":
        return TauScalar._of({e + shift: c for e, c in self.terms.items()})

    def scale(self, q) -> "TauScalar":
        """Multiply by a plain rational (or GaussRational)."""
        if not q:
            return TauScalar()
        if isinstance(q, GaussRational):
            return TauScalar._of({e: c * q for e, c in self.terms.items()})
        return TauScalar._of({e: c.scale(q) for e, c in self.terms.items()})

    def conjugate(self) -> "TauScalar":
        """Complex conjugation with tau -> -tau (since conj(2*pi*i) = -2*pi*i)."""
        out = {}
        for e, c in self.terms.items():
            cc = c.conjugate()
            if e % 2:
                cc = -cc
            out[e] = cc
        return TauScalar._of(out)

    # -- predicates and boundary --------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_integer(self) -> bool:
        if not self.terms:
            return True
        if set(self.terms) != {0}:
            return False
        c = self.terms[0]
        return c.b == 0 and c.d == 1

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"not an integer: {self}")
        return self.terms[0].a if self.terms else 0

    def to_complex(self) -> complex:
        """Numeric value with tau = 2*pi*i.  Floating-point boundary only."""
        tau = 2j * math.pi
        return sum((c.to_complex() * tau**e for e, c in self.terms.items()), 0j)

    def __eq__(self, other) -> bool:
        return isinstance(other, TauScalar) and self.terms == other.terms

    __hash__ = None  # mutable-looking container; not intended as dict key

    def __repr__(self) -> str:
        return f"TauScalar({self.terms!r})"
