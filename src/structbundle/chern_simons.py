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
from .functions import BaseSpace, ChartFunction
from .scalars import TauScalar, accumulate


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

    def at0(self) -> Connection:
        A = (self.coefficients[0] if self.coefficients
             else MatrixForm.zero(self.base, self.rank, self.rank))
        return Connection(self.base, self.rank, A)

    def at1(self) -> Connection:
        A = MatrixForm.zero(self.base, self.rank, self.rank)
        for c in self.coefficients:
            A = A + c
        return Connection(self.base, self.rank, A)


def _poly_wedge(P: list[MatrixForm], Q: list[MatrixForm]) -> list[MatrixForm]:
    """t-coefficients of the product of two polynomials in t with
    MatrixForm coefficients: out[i+j] += P[i] ^ Q[j]."""
    out: list[MatrixForm | None] = [None] * (len(P) + len(Q) - 1)
    for i, a in enumerate(P):
        for j, b in enumerate(Q):
            w = a.wedge(b)
            out[i + j] = w if out[i + j] is None else out[i + j] + w
    return out


def _path_curvature(A: list[MatrixForm]) -> list[MatrixForm]:
    """t-coefficients of the curvature dA + A ^ A of a polynomial path."""
    R = _poly_wedge(A, A)
    for k, Ak in enumerate(A):
        R[k] = Ak.d() + R[k]
    return R


def cs_path(path: ConnectionPath) -> MatrixForm:
    """The transgression form of a polynomial path of connections.

    Integrates sum_j 1/(j-1)! tau^-j tr(A'(t) ^ R(t)^(j-1)) exactly over
    t in [0,1]: the t^(k-1+l) coefficient tr(k A_k ^ R^(j-1)_l) has the
    integral weight k/(k+l).  Satisfies d(cs_path) = ch(end) - ch(start).
    """
    A = list(path.coefficients)
    if not any(A[1:]):
        return MatrixForm.zero(path.base, 1, 1)
    out: dict = {}
    Rpow = [MatrixForm.identity(path.base, path.rank)]
    for j in range(1, (path.base.dim + 1) // 2 + 1):
        if j == 2:
            R = _path_curvature(A)
        if j > 1:
            Rpow = _poly_wedge(Rpow, R)
            if not any(Rpow):
                break
        coeff = TauScalar.tau_power(-j).scale(Fraction(1, math.factorial(j - 1)))
        for k in range(1, len(A)):
            for l, Rl in enumerate(Rpow):
                weight = coeff.scale(Fraction(k, k + l))
                for key, f in A[k].wedge(Rl).trace().entries.items():
                    accumulate(out, key, f.scale(weight))
    return MatrixForm(path.base, 1, 1, out)


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
        terms: dict = {}
        for (alpha, k), ts in f.terms.items():
            accumulate(terms, (alpha[:a] + alpha[a + 1:], k),
                       ts.scale(Fraction(1, alpha[a] + 1)))
        accumulate(out, (r, c, newmono), ChartFunction(base, terms))
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
