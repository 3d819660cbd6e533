"""Exact coefficient arithmetic.

The coefficient ring is Q(i)[tau, tau^-1]: Laurent polynomials in the
formal generator tau over the Gaussian rationals.  tau stands for the
constant 2*pi*i; keeping it symbolic makes every normalization factor
(1/tau)^j an exact ring element.  Nothing in this module ever rounds --
the only place tau acquires its numeric value is the holonomy module.

Every sparse sum in the exact rings goes through ``accumulate``: a sum
that cancels to zero drops its key, and a new key goes last.  The float
sums of the numeric evaluation follow that insertion order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


@dataclass(frozen=True)
class GaussRational:
    """Exact complex number a + b*i with rational a, b."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(re, im=0) -> "GaussRational":
        return GaussRational(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussRational":
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other: "GaussRational") -> "GaussRational":
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)


QI_ZERO = GaussRational()
QI_ONE = GaussRational.of(1)
QI_I = GaussRational.of(0, 1)


class TauScalar:
    """Finite Laurent polynomial in tau with GaussRational coefficients.

    Stored as a map {tau exponent: coefficient}; zero coefficients are
    never kept.  Immutable by convention: no method mutates self.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, GaussRational] | None = None):
        clean = {}
        if terms:
            for exp, c in terms.items():
                if not c.is_zero():
                    clean[exp] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "TauScalar":
        return TauScalar()

    @staticmethod
    def one() -> "TauScalar":
        return TauScalar({0: QI_ONE})

    @staticmethod
    def rational(re, im=0) -> "TauScalar":
        return TauScalar({0: GaussRational.of(re, im)})

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
        return TauScalar(out)

    def __sub__(self, other: "TauScalar") -> "TauScalar":
        return self + (-other)

    def __neg__(self) -> "TauScalar":
        return TauScalar({e: -c for e, c in self.terms.items()})

    def __mul__(self, other: "TauScalar") -> "TauScalar":
        out: dict[int, GaussRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                accumulate(out, e1 + e2, c1 * c2)
        return TauScalar(out)

    def mul_by_tau_power(self, shift: int) -> "TauScalar":
        return TauScalar({e + shift: c for e, c in self.terms.items()})

    def scale(self, q) -> "TauScalar":
        """Multiply by a plain rational (or GaussRational)."""
        if isinstance(q, GaussRational):
            return TauScalar({e: c * q for e, c in self.terms.items()})
        return TauScalar({e: GaussRational(c.re * q, c.im * q)
                          for e, c in self.terms.items()})

    def conjugate(self) -> "TauScalar":
        """Complex conjugation with tau -> -tau (since conj(2*pi*i) = -2*pi*i)."""
        out = {}
        for e, c in self.terms.items():
            cc = c.conjugate()
            if e % 2:
                cc = -cc
            out[e] = cc
        return TauScalar(out)

    # -- predicates and boundary --------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_integer(self) -> bool:
        if not self.terms:
            return True
        if set(self.terms) != {0}:
            return False
        c = self.terms[0]
        return c.im == 0 and c.re.denominator == 1

    def as_integer(self) -> int:
        if not self.is_integer():
            raise ValueError(f"not an integer: {self}")
        return int(self.terms.get(0, QI_ZERO).re) if self.terms else 0

    def to_complex(self) -> complex:
        """Numeric value with tau = 2*pi*i.  Floating-point boundary only."""
        tau = 2j * math.pi
        return sum((c.to_complex() * tau**e for e, c in self.terms.items()), 0j)

    def __eq__(self, other) -> bool:
        return isinstance(other, TauScalar) and self.terms == other.terms

    __hash__ = None  # mutable-looking container; not intended as dict key

    def __repr__(self) -> str:
        return f"TauScalar({self.terms!r})"
