"""Chern-Simons transgression along polynomial paths of connections.

Paths are polynomial in the parameter t, so every t-integral is exact
term rewriting.  Two independent routes compute the transgression form:
the direct integrand formula (cs_path) and the cylinder construction
(cs_via_cylinder) which adjoins t as an extra chart coordinate, takes
the Chern character there, contracts with d/dt and integrates.  They
must agree identically; the test suite treats disagreement as a hard
failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .connections import Connection
from .forms import MatrixForm, OddClass
from .functions import BaseSpace, ChartFunction, accumulate
from .scalars import TauScalar


class FormPoly:
    """Polynomial in t with MatrixForm coefficients: sum_k M_k t^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: list[MatrixForm]):
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.coeffs = list(coeffs)

    def __add__(self, other: "FormPoly") -> "FormPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for k in range(n):
            parts = []
            if k < len(self.coeffs):
                parts.append(self.coeffs[k])
            if k < len(other.coeffs):
                parts.append(other.coeffs[k])
            out.append(parts[0] if len(parts) == 1 else parts[0] + parts[1])
        return FormPoly(out)

    def wedge(self, other: "FormPoly") -> "FormPoly":
        if not self.coeffs or not other.coeffs:
            return FormPoly([])
        n = len(self.coeffs) + len(other.coeffs) - 1
        out: list[MatrixForm | None] = [None] * n
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                w = a.wedge(b)
                out[i + j] = w if out[i + j] is None else out[i + j] + w
        base = self.coeffs[0].base
        rows = self.coeffs[0].rows
        cols = other.coeffs[0].cols
        return FormPoly([m if m is not None else MatrixForm.zero(base, rows, cols)
                         for m in out])

    def d(self) -> "FormPoly":
        return FormPoly([m.d() for m in self.coeffs])

    def t_derivative(self) -> "FormPoly":
        return FormPoly([m.scale_rational(k) for k, m in enumerate(self.coeffs)][1:])

    def trace(self) -> "FormPoly":
        return FormPoly([m.trace() for m in self.coeffs])

    def integrate01(self) -> MatrixForm:
        """Exact integral over t in [0,1]: sum_k M_k / (k+1)."""
        if not self.coeffs:
            raise ValueError("cannot integrate an empty polynomial without shape")
        total = self.coeffs[0]
        for k, m in enumerate(self.coeffs[1:], start=1):
            total = total + m.scale_rational(Fraction(1, k + 1))
        return total

    def is_zero(self) -> bool:
        return not self.coeffs


@dataclass(frozen=True)
class ConnectionPath:
    """A(t) = sum_k A_k t^k for t in [0,1]; all A_k degree-1 matrices."""

    base: BaseSpace
    rank: int
    coefficients: tuple[MatrixForm, ...]

    def __post_init__(self):
        for A in self.coefficients:
            if A.base != self.base or A.rows != self.rank or A.cols != self.rank:
                raise ValueError("path coefficient shape mismatch")
            if not A.is_homogeneous(1):
                raise ValueError("path coefficients must be degree-1 forms")

    @staticmethod
    def straight(c0: Connection, c1: Connection) -> "ConnectionPath":
        if c0.base != c1.base or c0.rank != c1.rank:
            raise ValueError("endpoints do not match")
        return ConnectionPath(c0.base, c0.rank, (c0.A, c1.A - c0.A))

    @staticmethod
    def constant(c: Connection) -> "ConnectionPath":
        return ConnectionPath(c.base, c.rank, (c.A,))

    def at0(self) -> Connection:
        A = (self.coefficients[0] if self.coefficients
             else MatrixForm.zero(self.base, self.rank, self.rank))
        return Connection(self.base, self.rank, A)

    def at1(self) -> Connection:
        A = MatrixForm.zero(self.base, self.rank, self.rank)
        for c in self.coefficients:
            A = A + c
        return Connection(self.base, self.rank, A)

    def form_poly(self) -> FormPoly:
        return FormPoly(list(self.coefficients))


def cs_path(path: ConnectionPath) -> MatrixForm:
    """The transgression form of a polynomial path of connections.

    Integrates sum_j 1/(j-1)! tau^-j tr(A'(t) ^ R(t)^(j-1)) exactly over
    t in [0,1].  Satisfies d(cs_path) = ch(end) - ch(start).
    """
    dim = path.base.dim
    A = path.form_poly()
    zero = MatrixForm.zero(path.base, 1, 1)
    if A.is_zero():
        return zero
    Ap = A.t_derivative()
    if Ap.is_zero():
        return zero
    R = A.d() + A.wedge(A)
    total = FormPoly([])
    Rpow = FormPoly([MatrixForm.identity(path.base, path.rank)])
    for j in range(1, (dim + 1) // 2 + 1):
        if j > 1:
            Rpow = Rpow.wedge(R)
            if Rpow.is_zero():
                break
        term = Ap.wedge(Rpow).trace()
        coeff = TauScalar.tau_power(-j).scale(Fraction(1, math.factorial(j - 1)))
        total = total + FormPoly([m.scale(coeff) for m in term.coeffs])
    if total.is_zero():
        return zero
    return total.integrate01()


def cs_class(c0: Connection, c1: Connection) -> OddClass:
    """CS(c0, c1): transgression of the straight path, modulo exact."""
    return OddClass.of(cs_path(ConnectionPath.straight(c0, c1)))


def equivalent(c0: Connection, c1: Connection) -> bool:
    """The structured-bundle relation: true iff the transgression form
    of the straight path is exact."""
    return cs_path(ConnectionPath.straight(c0, c1)).is_exact()


# -- cylinder formulation (independent oracle) ------------------------


def _cylinder_base(base: BaseSpace) -> BaseSpace:
    return BaseSpace(base.chart_dim + 1, base.torus_dim)


def _to_cylinder(m: MatrixForm, t_power: int) -> MatrixForm:
    """Embed a form on R^a x T^b into R^(a+1) x T^b, multiplied by t^k.

    The new chart coordinate t has index a; torus differentials shift up
    by one.
    """
    base = m.base
    a = base.chart_dim
    cyl = _cylinder_base(base)
    out = {}
    for (r, c, mono), f in m.entries.items():
        newmono = tuple(i if i < a else i + 1 for i in mono)
        terms = {}
        for (alpha, k), ts in f.terms.items():
            terms[(alpha + (t_power,), k)] = ts
        out[(r, c, newmono)] = ChartFunction(cyl, terms)
    return MatrixForm(cyl, m.rows, m.cols, out)


def _integrate_t_and_restrict(m: MatrixForm, base: BaseSpace) -> MatrixForm:
    """Integrate the t coordinate over [0,1] and pull back to the base.

    Monomials still containing dt are killed (the slice maps do that);
    coefficient t-powers integrate to 1/(n+1).
    """
    a = base.chart_dim
    out: dict = {}
    for (r, c, mono), f in m.entries.items():
        if a in mono:
            continue
        newmono = tuple(i if i < a else i - 1 for i in mono)
        add = None
        for (alpha, k), ts in f.terms.items():
            weight = Fraction(1, alpha[a] + 1)
            g = ChartFunction.monomial(base, alpha[:a] + alpha[a + 1:], k,
                                       ts.scale(weight))
            add = g if add is None else add + g
        accumulate(out, (r, c, newmono), add)
    return MatrixForm(base, m.rows, m.cols, out)


def cs_via_cylinder(path: ConnectionPath) -> MatrixForm:
    """Transgression via the cylinder connection on base x [0,1].

    Builds A-bar with t as a genuine chart coordinate (no dt component),
    takes the Chern character there, contracts with d/dt, integrates t
    exactly and restricts back.  Must equal cs_path identically.
    """
    base = path.base
    cyl = _cylinder_base(base)
    n = path.rank
    Abar = MatrixForm.zero(cyl, n, n)
    for k, Ak in enumerate(path.coefficients):
        Abar = Abar + _to_cylinder(Ak, k)
    conn = Connection(cyl, n, Abar)
    ch = conn.chern_character()
    sliced = ch.contract(base.chart_dim)
    return _integrate_t_and_restrict(sliced, base)
