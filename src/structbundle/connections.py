"""Connections on trivial bundles as matrix-valued 1-forms.

A Connection is d + A in the global frame; curvature, Chern character
form, direct sums, tensor products, gauge action and the Grassmann
connection of an idempotent all live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .forms import MatrixForm
from .functions import BaseSpace, ChartFunction
from .scalars import TauScalar


@dataclass(frozen=True, eq=False)
class Connection:
    base: BaseSpace
    rank: int
    A: MatrixForm
    hermitian: bool = False

    # holds a MatrixForm, which is unhashable; eq=False, because with the
    # hand-written __eq__ below the dataclass would otherwise add a hash
    __hash__ = None

    def __post_init__(self):
        if self.A.base != self.base:
            raise ValueError("connection form on the wrong base")
        if self.A.rows != self.rank or self.A.cols != self.rank:
            raise ValueError("connection form shape must be rank x rank")
        if not self.A.is_homogeneous(1):
            raise ValueError("connection form must be pure degree 1")
        if self.hermitian and not hermitian_check(self):
            raise ValueError("hermitian flag set but A is not skew-Hermitian")

    # -- constructors -------------------------------------------------

    @staticmethod
    def flat(base: BaseSpace, rank: int) -> "Connection":
        return Connection(base, rank, MatrixForm.zero(base, rank, rank))

    @staticmethod
    def line(w: MatrixForm) -> "Connection":
        """Line bundle connection from a scalar 1-form."""
        if w.rows != 1 or w.cols != 1:
            raise ValueError("line connection needs a scalar 1-form")
        return Connection(w.base, 1, w)

    # -- derived forms ------------------------------------------------

    def curvature(self) -> MatrixForm:
        """R = dA + A ^ A."""
        return self.A.d() + self.A.wedge(self.A)

    def chern_character(self) -> MatrixForm:
        """rank + sum_{j>=1} (1/j!) tau^{-j} tr(R^j); closed even form."""
        dim = self.base.dim
        result = MatrixForm.const_scalar(self.base, TauScalar.rational(self.rank))
        R = self.curvature()
        power = MatrixForm.identity(self.base, self.rank)
        j = 0
        while 2 * (j + 1) <= dim:
            j += 1
            power = power.wedge(R)
            if not power:
                break
            coeff = TauScalar.tau_power(-j).scale(Fraction(1, math.factorial(j)))
            result = result + power.trace().scale(coeff)
        if result.d():
            raise AssertionError("chern character form failed closedness check")
        return result

    def __eq__(self, other) -> bool:
        return (isinstance(other, Connection) and self.base == other.base
                and self.rank == other.rank and self.A == other.A)


def direct_sum(c1: Connection, c2: Connection) -> Connection:
    if c1.base != c2.base:
        raise ValueError("mismatched base spaces")
    n = c1.rank + c2.rank
    A = MatrixForm.zero(c1.base, n, n)
    A = A.block(0, 0, c1.A)
    A = A.block(c1.rank, c1.rank, c2.A)
    return Connection(c1.base, n, A, c1.hermitian and c2.hermitian)


def tensor(c1: Connection, c2: Connection) -> Connection:
    """Connection form A (x) I + I (x) A' on rank m*n."""
    if c1.base != c2.base:
        raise ValueError("mismatched base spaces")
    i1 = MatrixForm.identity(c1.base, c1.rank)
    i2 = MatrixForm.identity(c2.base, c2.rank)
    A = c1.A.kron(i2) + i1.kron(c2.A)
    return Connection(c1.base, c1.rank * c2.rank, A, c1.hermitian and c2.hermitian)


@dataclass(frozen=True)
class GaugeTransform:
    """Invertible degree-0 matrix function with a stored exact inverse.

    The function ring has no division, so inverses are carried along;
    the constructors below only build gauges whose inverse is exact.
    """

    base: BaseSpace
    size: int
    g: MatrixForm
    g_inv: MatrixForm

    __hash__ = None  # holds a MatrixForm, which is unhashable

    def __post_init__(self):
        ident = MatrixForm.identity(self.base, self.size)
        if self.g.wedge(self.g_inv) != ident or self.g_inv.wedge(self.g) != ident:
            raise ValueError("g * g_inv != identity")
        if not (self.g.is_homogeneous(0) and self.g_inv.is_homogeneous(0)):
            raise ValueError("gauge transforms must be degree 0")

    # -- constructors -------------------------------------------------

    @staticmethod
    def permutation(base: BaseSpace, perm: tuple[int, ...]) -> "GaugeTransform":
        n = len(perm)
        one = ChartFunction.one(base)
        g = MatrixForm(base, n, n, {(perm[c], c, ()): one for c in range(n)})
        ginv = MatrixForm(base, n, n, {(c, perm[c], ()): one for c in range(n)})
        return GaugeTransform(base, n, g, ginv)

    @staticmethod
    def fourier(base: BaseSpace, ks: tuple[int, ...],
                torus_coord: int = 0) -> "GaugeTransform":
        """Diagonal gauge diag(e^{i k_m theta_j})."""
        n = len(ks)
        ent, inv = {}, {}
        for m, k in enumerate(ks):
            idx = tuple(k if j == torus_coord else 0 for j in range(base.torus_dim))
            ent[(m, m, ())] = ChartFunction.fourier(base, idx)
            inv[(m, m, ())] = ChartFunction.fourier(base, tuple(-x for x in idx))
        return GaugeTransform(base, n, MatrixForm(base, n, n, ent),
                              MatrixForm(base, n, n, inv))

    @staticmethod
    def unipotent(base: BaseSpace, M: MatrixForm) -> "GaugeTransform":
        """I + M for nilpotent degree-0 M; inverse via the Neumann series."""
        n = M.rows
        if M.cols != n:
            raise ValueError("unipotent gauge needs a square matrix")
        ident = MatrixForm.identity(base, n)
        g = ident + M
        inv = ident
        power = ident
        sign = -1
        for _ in range(n - 1):
            power = power.wedge(M)
            if not power:
                break
            inv = inv + power.scale(TauScalar.rational(sign))
            sign = -sign
        else:
            if power.wedge(M):
                raise ValueError("matrix is not nilpotent")
        return GaugeTransform(base, n, g, inv)

    # -- group structure ----------------------------------------------

    def compose(self, other: "GaugeTransform") -> "GaugeTransform":
        if self.base != other.base or self.size != other.size:
            raise ValueError("mismatched gauges")
        return GaugeTransform(self.base, self.size,
                              self.g.wedge(other.g),
                              other.g_inv.wedge(self.g_inv))

    def inverse(self) -> "GaugeTransform":
        return GaugeTransform(self.base, self.size, self.g_inv, self.g)

    def direct_sum(self, other: "GaugeTransform") -> "GaugeTransform":
        if self.base != other.base:
            raise ValueError("mismatched base spaces")
        n = self.size + other.size
        g = MatrixForm.zero(self.base, n, n).block(0, 0, self.g).block(
            self.size, self.size, other.g)
        gi = MatrixForm.zero(self.base, n, n).block(0, 0, self.g_inv).block(
            self.size, self.size, other.g_inv)
        return GaugeTransform(self.base, n, g, gi)


def gauge_apply(g: GaugeTransform, conn: Connection) -> Connection:
    """Gauge action: A -> g^-1 A g + g^-1 dg.

    The curvature conjugation law g^-1 R g is re-checked on every call;
    a failure would mean corrupted gauge data.
    """
    if g.base != conn.base or g.size != conn.rank:
        raise ValueError("gauge does not match connection")
    A = g.g_inv.wedge(conn.A).wedge(g.g) + g.g_inv.wedge(g.g.d())
    result = Connection(conn.base, conn.rank, A)
    expected = g.g_inv.wedge(conn.curvature()).wedge(g.g)
    if result.curvature() != expected:
        raise AssertionError("curvature did not transform by conjugation")
    return result


@dataclass(frozen=True)
class Idempotent:
    """Degree-0 matrix with P ^ P = P; defines a sub-bundle splitting."""

    base: BaseSpace
    size: int
    P: MatrixForm

    __hash__ = None  # holds a MatrixForm, which is unhashable

    def __post_init__(self):
        if self.P.rows != self.size or self.P.cols != self.size:
            raise ValueError("idempotent shape mismatch")
        if not self.P.is_homogeneous(0):
            raise ValueError("idempotent must be degree 0")
        if self.P.wedge(self.P) != self.P:
            raise ValueError("matrix is not idempotent")

    def complement(self) -> "Idempotent":
        Q = MatrixForm.identity(self.base, self.size) - self.P
        return Idempotent(self.base, self.size, Q)


def grassmann_sum(P: Idempotent) -> Connection:
    """The block-diagonal compression of the flat ambient connection.

    In the ambient frame this is A = (2P - I) ^ dP: the direct sum of the
    connections induced on the image and kernel of P by the flat ambient
    one.  Its curvature is block-preserving for the splitting.
    """
    ident = MatrixForm.identity(P.base, P.size)
    A = (P.P + P.P - ident).wedge(P.P.d())
    conn = Connection(P.base, P.size, A)
    R = conn.curvature()
    Q = ident - P.P
    if P.P.wedge(R).wedge(Q) or Q.wedge(R).wedge(P.P):
        raise AssertionError("Grassmann curvature is not block-preserving")
    return conn


def hermitian_check(conn: Connection) -> bool:
    """True iff A is skew-Hermitian under the symbolic conjugation."""
    return not (conn.A + conn.A.conj_transpose())
