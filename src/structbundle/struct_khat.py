"""Structured bundles, their semiring, and the K-hat group of formal
differences.

A structured bundle is a connection taken up to the transgression-form
equivalence relation.  The centerpiece is realize_odd_form: every odd
form on a chart-only base is the flat-reference transgression class of
a finite direct sum of line bundles, constructed degree by degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .chern_simons import cs_class
from .connections import Connection, Idempotent, direct_sum, tensor
from .forms import MatrixForm, OddClass
from .functions import BaseSpace, ChartFunction
from .scalars import TauScalar


@dataclass(frozen=True)
class StructuredBundle:
    """A connection representing its equivalence class, with a
    provenance descriptor for the underlying bundle."""

    connection: Connection
    descriptor: tuple = ("trivial-frame",)

    @property
    def base(self) -> BaseSpace:
        return self.connection.base

    @property
    def rank(self) -> int:
        return self.connection.rank

    @staticmethod
    def trivial_flat(base: BaseSpace, n: int) -> "StructuredBundle":
        return StructuredBundle(Connection.flat(base, n))

    @staticmethod
    def from_idempotent(P: Idempotent) -> "StructuredBundle":
        from .connections import grassmann_sum
        return StructuredBundle(grassmann_sum(P), ("idempotent", P))

    def is_frame_flat(self) -> bool:
        return self.connection.A.is_zero()


def struct_sum(v: StructuredBundle, w: StructuredBundle) -> StructuredBundle:
    if v.base != w.base:
        raise ValueError("mismatched base spaces")
    desc = ("trivial-frame",) if (v.descriptor[0] == w.descriptor[0]
                                  == "trivial-frame") else ("sum", v.descriptor, w.descriptor)
    return StructuredBundle(direct_sum(v.connection, w.connection), desc)


def struct_tensor(v: StructuredBundle, w: StructuredBundle) -> StructuredBundle:
    if v.base != w.base:
        raise ValueError("mismatched base spaces")
    desc = ("trivial-frame",) if (v.descriptor[0] == w.descriptor[0]
                                  == "trivial-frame") else ("tensor", v.descriptor, w.descriptor)
    return StructuredBundle(tensor(v.connection, w.connection), desc)


def cs_hat(v: StructuredBundle) -> OddClass:
    """Transgression class against the flat reference of the same rank.

    Only defined for bundles framed trivial; the consumer interprets the
    result modulo Lambda_GL via lambda_gl_test.
    """
    if v.descriptor[0] != "trivial-frame":
        raise ValueError("cs_hat needs a trivially framed bundle")
    flat = Connection.flat(v.base, v.rank)
    return cs_class(flat, v.connection)


def _line_cs(w: MatrixForm) -> MatrixForm:
    """Exact transgression form of the straight path 0 -> w on a line:
    sum_j (1/j!) tau^-j w ^ (dw)^(j-1)."""
    base = w.base
    total = MatrixForm.zero(base, 1, 1)
    dw = w.d()
    power = w
    j = 1
    while 2 * j - 1 <= base.dim:
        if power.is_zero():
            break
        coeff = TauScalar.tau_power(-j).scale(Fraction(1, math.factorial(j)))
        total = total + power.scale(coeff)
        power = power.wedge(dw)
        j += 1
    return total


def realize_odd_form(rho: MatrixForm) -> StructuredBundle:
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
    return StructuredBundle(Connection(base, n, A))


@dataclass(frozen=True)
class KHatElement:
    """Formal difference of structured bundles (plus minus minus)."""

    plus: tuple[StructuredBundle, ...]
    minus: tuple[StructuredBundle, ...]

    @staticmethod
    def of(v: StructuredBundle) -> "KHatElement":
        return KHatElement((v,), ())

    @property
    def base(self) -> BaseSpace | None:
        for v in self.plus + self.minus:
            return v.base
        return None

    def normalize(self) -> "KHatElement":
        """Merge frame-flat entries on the minus side into a single [n]."""
        flats = [v for v in self.minus if v.is_frame_flat()]
        others = tuple(v for v in self.minus if not v.is_frame_flat())
        if len(flats) <= 1:
            return self
        n = sum(v.rank for v in flats)
        merged = StructuredBundle.trivial_flat(flats[0].base, n)
        return KHatElement(self.plus, others + (merged,))


def khat_add(mu: KHatElement, nu: KHatElement) -> KHatElement:
    _check_bases(mu, nu)
    return KHatElement(mu.plus + nu.plus, mu.minus + nu.minus).normalize()


def khat_sub(mu: KHatElement, nu: KHatElement) -> KHatElement:
    _check_bases(mu, nu)
    return KHatElement(mu.plus + nu.minus, mu.minus + nu.plus).normalize()


def khat_tensor(mu: KHatElement, nu: KHatElement) -> KHatElement:
    """Pairs formula: (V - W)(V' - W') = (VV' + WW') - (WV' + VW')."""
    _check_bases(mu, nu)
    plus = tuple(struct_tensor(a, b) for a in mu.plus for b in nu.plus)
    plus += tuple(struct_tensor(a, b) for a in mu.minus for b in nu.minus)
    minus = tuple(struct_tensor(a, b) for a in mu.minus for b in nu.plus)
    minus += tuple(struct_tensor(a, b) for a in mu.plus for b in nu.minus)
    return KHatElement(plus, minus).normalize()


def _check_bases(mu: KHatElement, nu: KHatElement):
    bm, bn = mu.base, nu.base
    if bm is not None and bn is not None and bm != bn:
        raise ValueError("mismatched base spaces")


@dataclass(frozen=True)
class BundleDescriptor:
    """Formal difference of underlying-bundle descriptors (no connection
    data).  Equality of summands is syntactic plus rank; trivial-frame
    ranks cancel numerically."""

    trivial_rank: int
    plus_tags: tuple = ()
    minus_tags: tuple = ()

    def is_zero(self) -> bool:
        return self.trivial_rank == 0 and not self.plus_tags and not self.minus_tags


def delta(mu: KHatElement) -> BundleDescriptor:
    """Forget the connections: the underlying formal bundle difference."""
    rank = 0
    plus_tags: list = []
    minus_tags: list = []
    for v in mu.plus:
        if v.descriptor[0] in ("trivial-frame",):
            rank += v.rank
        else:
            plus_tags.append((v.descriptor, v.rank))
    for v in mu.minus:
        if v.descriptor[0] in ("trivial-frame",):
            rank -= v.rank
        else:
            minus_tags.append((v.descriptor, v.rank))
    # cancel syntactically equal tags
    for tag in list(plus_tags):
        if tag in minus_tags:
            plus_tags.remove(tag)
            minus_tags.remove(tag)
    return BundleDescriptor(rank, tuple(plus_tags), tuple(minus_tags))


def ch_khat(mu: KHatElement) -> MatrixForm:
    """Chern character of a formal difference; a closed even form."""
    base = mu.base
    if base is None:
        raise ValueError("cannot take ch of the empty element without a base")
    total = MatrixForm.zero(base, 1, 1)
    for v in mu.plus:
        total = total + v.connection.chern_character()
    for v in mu.minus:
        total = total - v.connection.chern_character()
    return total


def i_map(theta: MatrixForm) -> KHatElement:
    """Realize an odd form and subtract its rank as a frame-flat bundle.

    Satisfies ch(i(theta)) = d theta and delta(i(theta)) = 0.
    """
    v = realize_odd_form(theta)
    flat = StructuredBundle.trivial_flat(theta.base, v.rank)
    return KHatElement((v,), (flat,))


def realize_even_form(mu: MatrixForm, v: StructuredBundle,
                      theta: MatrixForm) -> KHatElement:
    """Element with Chern character mu, given a decomposition
    mu = ch(v) + d theta (supplied, and checked, not searched)."""
    if mu != v.connection.chern_character() + theta.d():
        raise ValueError("decomposition identity mu = ch(v) + d theta fails")
    return khat_add(KHatElement.of(v), i_map(theta))
