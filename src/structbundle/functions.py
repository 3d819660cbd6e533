"""The exact function ring on R^a x T^b.

A ChartFunction is a finite sum of terms

    (polynomial monomial in the chart coordinates x_0..x_{a-1})
  * (Fourier exponential e^{i k.theta} in the torus angles)
  * (TauScalar coefficient)

This ring is closed under +, *, all partial derivatives and circle
averages, which is what makes the whole form calculus decidable.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

from .scalars import GaussRational, TauScalar, accumulate

TermKey = tuple[tuple[int, ...], tuple[int, ...]]  # (poly exponents, Fourier indices)


@dataclass(frozen=True)
class BaseSpace:
    """The product R^a x T^b; coordinates 0..a-1 are chart, a..a+b-1 angles."""

    chart_dim: int
    torus_dim: int

    def __post_init__(self):
        if self.chart_dim < 0 or self.torus_dim < 0:
            raise ValueError("dimensions must be nonnegative")

    @property
    def dim(self) -> int:
        return self.chart_dim + self.torus_dim

    def is_chart(self, coord: int) -> bool:
        return 0 <= coord < self.chart_dim

    def is_torus(self, coord: int) -> bool:
        return self.chart_dim <= coord < self.dim


class ChartFunction:
    """Sparse exact function on a BaseSpace."""

    __slots__ = ("base", "terms")

    def __init__(self, base: BaseSpace, terms: dict[TermKey, TauScalar] | None = None):
        self.base = base
        clean: dict[TermKey, TauScalar] = {}
        if terms:
            for key, ts in terms.items():
                if ts:
                    clean[key] = ts
        self.terms = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(base: BaseSpace) -> "ChartFunction":
        return ChartFunction(base)

    @staticmethod
    def constant(base: BaseSpace, ts: TauScalar) -> "ChartFunction":
        key = ((0,) * base.chart_dim, (0,) * base.torus_dim)
        return ChartFunction(base, {key: ts})

    @staticmethod
    def one(base: BaseSpace) -> "ChartFunction":
        return ChartFunction.constant(base, TauScalar.one())

    @staticmethod
    def coord(base: BaseSpace, i: int) -> "ChartFunction":
        """The chart coordinate function x_i."""
        if not base.is_chart(i):
            raise ValueError(f"coordinate {i} is not a chart coordinate")
        alpha = tuple(1 if j == i else 0 for j in range(base.chart_dim))
        return ChartFunction(base, {(alpha, (0,) * base.torus_dim): TauScalar.one()})

    @staticmethod
    def fourier(base: BaseSpace, k: tuple[int, ...]) -> "ChartFunction":
        """The exponential e^{i sum(k_j theta_j)}."""
        if len(k) != base.torus_dim:
            raise ValueError("Fourier index length must equal torus_dim")
        return ChartFunction(base, {((0,) * base.chart_dim, tuple(k)): TauScalar.one()})

    @staticmethod
    def monomial(base: BaseSpace, alpha: tuple[int, ...], k: tuple[int, ...],
                 ts: TauScalar) -> "ChartFunction":
        if len(alpha) != base.chart_dim or len(k) != base.torus_dim:
            raise ValueError("bad monomial shape")
        if any(e < 0 for e in alpha):
            raise ValueError("polynomial exponents must be nonnegative")
        return ChartFunction(base, {(tuple(alpha), tuple(k)): ts})

    # -- ring operations ----------------------------------------------

    def _check(self, other: "ChartFunction"):
        if self.base != other.base:
            raise ValueError("mismatched base spaces")

    def __add__(self, other: "ChartFunction") -> "ChartFunction":
        self._check(other)
        out = dict(self.terms)
        for key, ts in other.terms.items():
            accumulate(out, key, ts)
        return ChartFunction(self.base, out)

    def __sub__(self, other: "ChartFunction") -> "ChartFunction":
        return self + (-other)

    def __neg__(self) -> "ChartFunction":
        return ChartFunction(self.base, {k: -ts for k, ts in self.terms.items()})

    def __mul__(self, other: "ChartFunction") -> "ChartFunction":
        self._check(other)
        out: dict[TermKey, TauScalar] = {}
        for (a1, k1), t1 in self.terms.items():
            for (a2, k2), t2 in other.terms.items():
                key = (tuple(x + y for x, y in zip(a1, a2)),
                       tuple(x + y for x, y in zip(k1, k2)))
                accumulate(out, key, t1 * t2)
        return ChartFunction(self.base, out)

    def scale(self, ts: TauScalar) -> "ChartFunction":
        return ChartFunction(self.base, {k: t * ts for k, t in self.terms.items()})

    def scale_rational(self, q) -> "ChartFunction":
        return ChartFunction(self.base, {k: t.scale(q) for k, t in self.terms.items()})

    # -- calculus -----------------------------------------------------

    def partial(self, coord: int) -> "ChartFunction":
        """d/dx_i for chart coords, d/dtheta_j for torus coords."""
        base = self.base
        out: dict[TermKey, TauScalar] = {}
        if base.is_chart(coord):
            for (alpha, k), ts in self.terms.items():
                n = alpha[coord]
                if n == 0:
                    continue
                na = tuple(e - 1 if j == coord else e for j, e in enumerate(alpha))
                accumulate(out, (na, k), ts.scale(n))
        elif base.is_torus(coord):
            j = coord - base.chart_dim
            for (alpha, k), ts in self.terms.items():
                if k[j] == 0:
                    continue
                # d/dtheta e^{i k theta} = i k e^{i k theta}
                factor = GaussRational(0, k[j])
                accumulate(out, (alpha, k), ts.scale(factor))
        else:
            raise ValueError(f"coordinate {coord} out of range")
        return ChartFunction(base, out)

    def circle_average(self, torus_coord: int) -> "ChartFunction":
        """(1/2pi) * integral over the given angle: keeps Fourier index 0 terms."""
        base = self.base
        if not (0 <= torus_coord < base.torus_dim):
            raise ValueError(f"torus coordinate {torus_coord} out of range")
        out = {key: ts for key, ts in self.terms.items() if key[1][torus_coord] == 0}
        return ChartFunction(base, out)

    def conjugate(self) -> "ChartFunction":
        """Symbolic complex conjugation: i -> -i, tau -> -tau, Fourier k -> -k."""
        out: dict[TermKey, TauScalar] = {}
        for (alpha, k), ts in self.terms.items():
            accumulate(out, (alpha, tuple(-x for x in k)), ts.conjugate())
        return ChartFunction(self.base, out)

    # -- structure queries --------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ChartFunction) and self.base == other.base
                and self.terms == other.terms)

    __hash__ = None

    # -- numeric boundary ---------------------------------------------

    def numeric(self, xs):
        """The function at fixed chart coordinates xs, with tau = 2*pi*i,
        as a numeric function of the torus angles.

        Each coefficient is converted to a float and multiplied by its
        chart monomial once, here; the returned function only sums the
        Fourier phases, term by term in term order.
        """
        table = []
        for (alpha, k), ts in self.terms.items():
            val = ts.to_complex()
            for x, e in zip(xs, alpha):
                val *= x**e
            table.append((val, k))

        def at(thetas) -> complex:
            total = 0j
            for val, k in table:
                total += val * cmath.exp(1j * sum(kk * th for kk, th in zip(k, thetas)))
            return total

        return at

    def eval_numeric(self, xs, thetas) -> complex:
        """Evaluate at a numeric point with tau = 2*pi*i; see numeric."""
        return self.numeric(xs)(thetas)

    def __repr__(self) -> str:
        return f"ChartFunction({self.base!r}, {self.terms!r})"


def cos_theta(base: BaseSpace, j: int = 0) -> ChartFunction:
    """cos(theta_j) as (e^{i th} + e^{-i th})/2."""
    kp = tuple(int(m == j) for m in range(base.torus_dim))
    km = tuple(-x for x in kp)
    half = TauScalar.rational(Fraction(1, 2))
    return (ChartFunction.fourier(base, kp) + ChartFunction.fourier(base, km)).scale(half)


def sin_theta(base: BaseSpace, j: int = 0) -> ChartFunction:
    """sin(theta_j) as (e^{i th} - e^{-i th})/2i."""
    kp = tuple(int(m == j) for m in range(base.torus_dim))
    km = tuple(-x for x in kp)
    c = TauScalar.rational(0, Fraction(-1, 2))  # 1/(2i) = -i/2
    return (ChartFunction.fourier(base, kp) - ChartFunction.fourier(base, km)).scale(c)
