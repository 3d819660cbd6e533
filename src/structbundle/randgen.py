"""Seeded random generators for the property and acceptance suites.

Everything is driven by one random.Random instance, so a fixed seed
reproduces every generated object byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .connections import Connection, GaugeTransform, Idempotent
from .forms import MatrixForm
from .functions import BaseSpace, ChartFunction, cos_theta, sin_theta
from .scalars import GaussRational, TauScalar


@dataclass(frozen=True)
class Bounds:
    max_coords: int = 4
    max_rank: int = 3
    max_poly_degree: int = 2
    max_fourier: int = 2
    max_tau_exp: int = 2


class RandomGen:
    """Deterministic generator of exact algebra objects."""

    def __init__(self, seed: int, bounds: Bounds = Bounds()):
        self.rng = random.Random(seed)
        self.bounds = bounds

    # -- scalars ------------------------------------------------------

    def rational(self) -> Fraction:
        return Fraction(self.rng.randint(-4, 4), self.rng.randint(1, 3))

    def gauss_rational(self) -> GaussRational:
        return GaussRational(self.rational(), self.rational())

    def tau_scalar(self, nterms: int = 2) -> TauScalar:
        b = self.bounds
        out = TauScalar.zero()
        for _ in range(self.rng.randint(1, nterms)):
            e = self.rng.randint(-b.max_tau_exp, b.max_tau_exp)
            out = out + TauScalar.tau_power(e, self.gauss_rational())
        return out

    # -- spaces and functions -----------------------------------------

    def base_space(self, min_dim: int = 1) -> BaseSpace:
        total = self.bounds.max_coords
        a = self.rng.randint(0, total)
        bdim = self.rng.randint(0, total - a)
        if a + bdim < min_dim:
            a = min_dim - bdim
        return BaseSpace(a, bdim)

    def chart_function(self, base: BaseSpace, nterms: int = 2) -> ChartFunction:
        b = self.bounds
        out = ChartFunction.zero(base)
        for _ in range(self.rng.randint(1, nterms)):
            alpha = tuple(self.rng.randint(0, b.max_poly_degree)
                          for _ in range(base.chart_dim))
            k = tuple(self.rng.randint(-b.max_fourier, b.max_fourier)
                      for _ in range(base.torus_dim))
            out = out + ChartFunction.monomial(base, alpha, k, self.tau_scalar(1))
        return out

    # -- forms --------------------------------------------------------

    def monomial_index(self, base: BaseSpace, degree: int) -> tuple[int, ...]:
        return tuple(sorted(self.rng.sample(range(base.dim), degree)))

    def scalar_form(self, base: BaseSpace, degree: int | None = None,
                    nterms: int = 2) -> MatrixForm:
        out = MatrixForm.zero(base, 1, 1)
        for _ in range(self.rng.randint(1, nterms)):
            deg = degree if degree is not None else self.rng.randint(0, base.dim)
            mono = self.monomial_index(base, deg)
            out = out + MatrixForm.scalar(base, self.chart_function(base, 1), mono)
        return out

    def matrix_one_form(self, base: BaseSpace, n: int) -> MatrixForm:
        if base.dim == 0:
            return MatrixForm.zero(base, n, n)
        out = MatrixForm.zero(base, n, n)
        for _ in range(self.rng.randint(1, 2)):
            r = self.rng.randrange(n)
            c = self.rng.randrange(n)
            mono = (self.rng.randrange(base.dim),)
            out = out + MatrixForm(base, n, n,
                                   {(r, c, mono): self.chart_function(base, 1)})
        return out

    # -- connections and gauges ---------------------------------------

    def connection(self, base: BaseSpace, rank: int | None = None) -> Connection:
        n = rank if rank is not None else self.rng.randint(1, self.bounds.max_rank)
        return Connection(base, n, self.matrix_one_form(base, n))

    def skew_hermitian_connection(self, base: BaseSpace,
                                  rank: int | None = None) -> Connection:
        n = rank if rank is not None else self.rng.randint(1, self.bounds.max_rank)
        B = self.matrix_one_form(base, n)
        A = B - B.conj_transpose()
        return Connection(base, n, A, hermitian=True)

    def gauge(self, base: BaseSpace, size: int) -> GaugeTransform:
        kinds = ["permutation", "unipotent"]
        if base.torus_dim > 0:
            kinds.append("fourier")
        kind = self.rng.choice(kinds)
        if kind == "fourier":
            ks = tuple(self.rng.randint(-self.bounds.max_fourier,
                                        self.bounds.max_fourier)
                       for _ in range(size))
            j = self.rng.randrange(base.torus_dim)
            return GaugeTransform.fourier(base, ks, torus_coord=j)
        if kind == "permutation":
            perm = list(range(size))
            self.rng.shuffle(perm)
            return GaugeTransform.permutation(base, tuple(perm))
        # strictly upper-triangular nilpotent
        ent = {}
        for r in range(size):
            for c in range(r + 1, size):
                if self.rng.random() < 0.6:
                    ent[(r, c)] = self.chart_function(base, 1)
        M = MatrixForm.from_function_matrix(base, size, size, ent)
        return GaugeTransform.unipotent(base, M)

    def composite_gauge(self, base: BaseSpace, size: int) -> GaugeTransform:
        return self.gauge(base, size).compose(self.gauge(base, size))

    # -- idempotents --------------------------------------------------

    def idempotent(self, base: BaseSpace) -> Idempotent:
        kinds = ["constant", "shear"]
        if base.torus_dim > 0:
            kinds.append("fourier-projector")
        kind = self.rng.choice(kinds)
        if kind == "constant":
            n = self.rng.randint(1, 3)
            ent = {}
            for i in range(n):
                if self.rng.random() < 0.5:
                    ent[(i, i)] = ChartFunction.one(base)
            P = MatrixForm.from_function_matrix(base, n, n, ent)
            return Idempotent(base, n, P)
        if kind == "shear":
            # [[1, f], [0, 0]] is idempotent for any f
            f = self.chart_function(base, 1)
            P = MatrixForm.from_function_matrix(
                base, 2, 2, {(0, 0): ChartFunction.one(base), (0, 1): f})
            return Idempotent(base, 2, P)
        # projector onto the unit vector (cos th, sin th)
        j = self.rng.randrange(base.torus_dim)
        c, s = cos_theta(base, j), sin_theta(base, j)
        P = MatrixForm.from_function_matrix(
            base, 2, 2, {(0, 0): c * c, (0, 1): c * s,
                         (1, 0): s * c, (1, 1): s * s})
        return Idempotent(base, 2, P)

    # -- odd realization targets --------------------------------------

    def odd_target(self, base: BaseSpace) -> MatrixForm:
        """A scalar odd form of degree at most 3 on a chart-only base."""
        if base.torus_dim != 0:
            raise ValueError("odd targets live on chart-only bases")
        out = MatrixForm.zero(base, 1, 1)
        degrees = [d for d in (1, 3) if d <= base.dim]
        for _ in range(self.rng.randint(1, 2)):
            deg = self.rng.choice(degrees)
            mono = self.monomial_index(base, deg)
            out = out + MatrixForm.scalar(base, self.chart_function(base, 1), mono)
        return out
