"""Structured bundles, their semiring, and the K-hat group of formal
differences.

A structured bundle is a Connection on a trivial bundle standing for
its transgression-form class: two are equal exactly when
chern_simons.equivalent says so, not when they are == as connections.
Every finitely generated projective module over Q(i)[tau^+-1][x][z^+-1]
is free (Quillen-Suslin, Swan), so nothing is lost: K^0 is Z, delta is
the signed rank, and cs_hat always has a flat reference of the same
rank.  The centerpiece is realize_odd_form: every odd form on a
chart-only base is the flat-reference transgression class of a sum of
line bundles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .chern_simons import cs_class
from .connections import Connection, tensor
from .forms import MatrixForm, OddClass
from .functions import BaseSpace, ChartFunction
from .scalars import TauScalar


def cs_hat(conn: Connection) -> OddClass:
    """Transgression class against the flat reference of the same rank.

    Every bundle here is framed, so the flat connection of its rank is
    a connection on the same bundle and the class is always defined.
    The consumer interprets the result modulo Lambda_GL via
    lambda_gl_test.
    """
    return cs_class(Connection.flat(conn.base, conn.rank), conn)


def _line_cs(w: MatrixForm) -> MatrixForm:
    """Exact transgression form of the straight path 0 -> w on a line:
    sum_j (1/j!) tau^-j w ^ (dw)^(j-1)."""
    base = w.base
    total = MatrixForm.zero(base, 1, 1)
    dw = w.d()
    power = w
    j = 1
    while 2 * j - 1 <= base.dim:
        if not power:
            break
        coeff = TauScalar.tau_power(-j).scale(Fraction(1, math.factorial(j)))
        total = total + power.scale(coeff)
        power = power.wedge(dw)
        j += 1
    return total


def realize_odd_form(rho: MatrixForm) -> Connection:
    """A direct sum of line bundles whose flat-reference transgression
    class equals rho modulo exact forms.

    Works degree by degree: each top-degree monomial f dx_{i1}..dx_{i(2k+1)}
    is hit by a line bundle with connection form

        tau * (x_{i1} dx_{i2} + ... + x_{i(2k-1)} dx_{i(2k)} + f dx_{i(2k+1)})

    whose transgression has that monomial as its top normal-form part;
    the lower-degree junk introduced is realized recursively.  The tau
    scalar makes every series coefficient rational, absorbing the
    normalization powers into the connection.
    """
    base = rho.base
    if base.torus_dim != 0:
        raise ValueError("realization supports chart-only bases")
    if rho.rows != 1 or rho.cols != 1:
        raise ValueError("realization needs a scalar form")
    if rho.even_part():
        raise ValueError("realization needs a purely odd form")

    lines: list[MatrixForm] = []
    tau = TauScalar.tau_power(1)
    remainder = rho.normal_form()
    realized = MatrixForm.zero(base, 1, 1)
    rounds = 0
    while remainder:
        rounds += 1
        if rounds > base.dim + 2:
            raise AssertionError("realization failed to terminate")
        deg = remainder.max_degree()
        component = remainder.degree_component(deg)
        k = (deg - 1) // 2
        for (_r, _c, mono), f in component.entries.items():
            w = MatrixForm.zero(base, 1, 1)
            for m in range(k):
                xf = ChartFunction.coord(base, mono[2 * m])
                w = w + MatrixForm.scalar(base, xf, (mono[2 * m + 1],))
            w = w + MatrixForm.scalar(base, f, (mono[-1],))
            lines.append(w.scale(tau))
            realized = realized + _line_cs(lines[-1])
        remainder = (rho - realized).normal_form()
        if remainder and remainder.max_degree() >= deg:
            raise AssertionError("realization did not reduce the top degree")

    n = len(lines)
    A = MatrixForm(base, n, n, {(i, i, mono): f for i, w in enumerate(lines)
                                for (_r, _c, mono), f in w.entries.items()})
    return Connection(base, n, A)


@dataclass(frozen=True)
class KHatElement:
    """Formal difference of structured bundles (plus minus minus)."""

    plus: tuple[Connection, ...]
    minus: tuple[Connection, ...]

    __hash__ = None  # holds a MatrixForm, which is unhashable

    @staticmethod
    def of(v: Connection) -> "KHatElement":
        return KHatElement((v,), ())

    @property
    def base(self) -> BaseSpace | None:
        for v in self.plus + self.minus:
            return v.base
        return None


def khat_add(mu: KHatElement, nu: KHatElement) -> KHatElement:
    _check_bases(mu, nu)
    return KHatElement(mu.plus + nu.plus, mu.minus + nu.minus)


def khat_sub(mu: KHatElement, nu: KHatElement) -> KHatElement:
    _check_bases(mu, nu)
    return KHatElement(mu.plus + nu.minus, mu.minus + nu.plus)


def khat_tensor(mu: KHatElement, nu: KHatElement) -> KHatElement:
    """Pairs formula: (V - W)(V' - W') = (VV' + WW') - (WV' + VW')."""
    _check_bases(mu, nu)
    plus = tuple(tensor(a, b) for a in mu.plus for b in nu.plus)
    plus += tuple(tensor(a, b) for a in mu.minus for b in nu.minus)
    minus = tuple(tensor(a, b) for a in mu.minus for b in nu.plus)
    minus += tuple(tensor(a, b) for a in mu.plus for b in nu.minus)
    return KHatElement(plus, minus)


def _check_bases(mu: KHatElement, nu: KHatElement):
    bm, bn = mu.base, nu.base
    if bm is not None and bn is not None and bm != bn:
        raise ValueError("mismatched base spaces")


def delta(mu: KHatElement) -> int:
    """Forget the connections: every bundle is trivial, so what is left
    is the signed rank of the formal difference."""
    return sum(v.rank for v in mu.plus) - sum(v.rank for v in mu.minus)


def ch_khat(mu: KHatElement) -> MatrixForm:
    """Chern character of a formal difference; a closed even form."""
    base = mu.base
    if base is None:
        raise ValueError("cannot take ch of the empty element without a base")
    total = MatrixForm.zero(base, 1, 1)
    for v in mu.plus:
        total = total + v.chern_character()
    for v in mu.minus:
        total = total - v.chern_character()
    return total


def i_map(theta: MatrixForm) -> KHatElement:
    """Realize an odd form and subtract the flat bundle of its rank.

    Satisfies ch(i(theta)) = d theta, and delta(i(theta)) = 0 because
    delta is the signed rank.
    """
    v = realize_odd_form(theta)
    return KHatElement((v,), (Connection.flat(theta.base, v.rank),))


def realize_even_form(mu: MatrixForm, conn: Connection,
                      theta: MatrixForm) -> KHatElement:
    """Element with Chern character mu, given a decomposition
    mu = ch(conn) + d theta (supplied, and checked, not searched)."""
    if mu != conn.chern_character() + theta.d():
        raise ValueError("decomposition identity mu = ch(conn) + d theta fails")
    return khat_add(KHatElement.of(conn), i_map(theta))
