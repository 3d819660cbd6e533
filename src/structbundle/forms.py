"""Graded exterior algebra of matrix-valued forms on R^a x T^b.

A MatrixForm is a rows x cols matrix whose entries are differential
forms: finite maps from exterior monomials (strictly increasing tuples
of coordinate indices) to ChartFunctions.  Scalar forms are the 1x1
case.

Beyond wedge / d / trace / contraction, this module carries the whole
"mod exact" calculus: the scaling homotopy on the chart factor, the
Fourier homotopy on the torus factor, the resulting canonical normal
form modulo exact forms, the exactness decision, and periods over
coordinate sub-torus cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .functions import BaseSpace, ChartFunction
from .scalars import GaussRational, TauScalar, accumulate

Mono = tuple[int, ...]


def merge_monomials(e1: Mono, e2: Mono) -> tuple[int, Mono | None]:
    """Wedge two monomials: returns (Koszul sign, merged) or (0, None)."""
    if set(e1) & set(e2):
        return 0, None
    merged = []
    sign = 1
    i = j = 0
    n1, n2 = len(e1), len(e2)
    while i < n1 and j < n2:
        if e1[i] < e2[j]:
            merged.append(e1[i])
            i += 1
        else:
            merged.append(e2[j])
            j += 1
            if (n1 - i) % 2:
                sign = -sign
    merged.extend(e1[i:])
    merged.extend(e2[j:])
    return sign, tuple(merged)


class MatrixForm:
    """Matrix of graded differential forms, stored sparsely.

    entries: {(row, col, monomial): ChartFunction}, no zero functions.
    """

    __slots__ = ("base", "rows", "cols", "entries")

    def __init__(self, base: BaseSpace, rows: int, cols: int,
                 entries: dict[tuple[int, int, Mono], ChartFunction] | None = None):
        self.base = base
        self.rows = rows
        self.cols = cols
        clean = {}
        if entries:
            for key, f in entries.items():
                if f:
                    clean[key] = f
        self.entries = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(base: BaseSpace, rows: int = 1, cols: int = 1) -> "MatrixForm":
        return MatrixForm(base, rows, cols)

    @staticmethod
    def identity(base: BaseSpace, n: int) -> "MatrixForm":
        one = ChartFunction.one(base)
        return MatrixForm(base, n, n, {(i, i, ()): one for i in range(n)})

    @staticmethod
    def scalar(base: BaseSpace, f: ChartFunction, mono: Mono = ()) -> "MatrixForm":
        """1x1 form f * d(mono)."""
        return MatrixForm(base, 1, 1, {(0, 0, tuple(mono)): f})

    @staticmethod
    def const_scalar(base: BaseSpace, ts: TauScalar, mono: Mono = ()) -> "MatrixForm":
        return MatrixForm.scalar(base, ChartFunction.constant(base, ts), mono)

    @staticmethod
    def from_function_matrix(base: BaseSpace, rows: int, cols: int,
                             fns: dict[tuple[int, int], ChartFunction]) -> "MatrixForm":
        """Degree-0 matrix from a dict of entry functions."""
        return MatrixForm(base, rows, cols,
                          {(r, c, ()): f for (r, c), f in fns.items()})

    # -- additive structure -------------------------------------------

    def _check_shape(self, other: "MatrixForm"):
        if self.base != other.base:
            raise ValueError("mismatched base spaces")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("mismatched matrix shapes")

    def __add__(self, other: "MatrixForm") -> "MatrixForm":
        self._check_shape(other)
        out = dict(self.entries)
        for key, f in other.entries.items():
            accumulate(out, key, f)
        return MatrixForm(self.base, self.rows, self.cols, out)

    def __sub__(self, other: "MatrixForm") -> "MatrixForm":
        return self + (-other)

    def __neg__(self) -> "MatrixForm":
        return MatrixForm(self.base, self.rows, self.cols,
                          {k: -f for k, f in self.entries.items()})

    def scale(self, ts: TauScalar) -> "MatrixForm":
        return MatrixForm(self.base, self.rows, self.cols,
                          {k: f.scale(ts) for k, f in self.entries.items()})

    def scale_rational(self, q) -> "MatrixForm":
        return MatrixForm(self.base, self.rows, self.cols,
                          {k: f.scale_rational(q) for k, f in self.entries.items()})

    # -- multiplicative structure -------------------------------------

    def wedge(self, other: "MatrixForm") -> "MatrixForm":
        """Matrix product with graded entrywise wedge."""
        if self.base != other.base:
            raise ValueError("mismatched base spaces")
        if self.cols != other.rows:
            raise ValueError("incompatible matrix shapes for wedge")
        # index right factor entries by row for the sparse product
        by_row: dict[int, list] = {}
        for (r, c, mono), f in other.entries.items():
            by_row.setdefault(r, []).append((c, mono, f))
        out: dict[tuple[int, int, Mono], ChartFunction] = {}
        for (r, c, mono1), f1 in self.entries.items():
            for (c2, mono2, f2) in by_row.get(c, ()):
                sign, merged = merge_monomials(mono1, mono2)
                if sign == 0:
                    continue
                prod = f1 * f2
                if sign < 0:
                    prod = -prod
                accumulate(out, (r, c2, merged), prod)
        return MatrixForm(self.base, self.rows, other.cols, out)

    def wedge_power(self, n: int) -> "MatrixForm":
        if self.rows != self.cols:
            raise ValueError("wedge power needs a square matrix")
        result = MatrixForm.identity(self.base, self.rows)
        for _ in range(n):
            result = result.wedge(self)
        return result

    def kron(self, other: "MatrixForm") -> "MatrixForm":
        """Kronecker (tensor) product of matrix forms."""
        if self.base != other.base:
            raise ValueError("mismatched base spaces")
        out: dict[tuple[int, int, Mono], ChartFunction] = {}
        for (r1, c1, m1), f1 in self.entries.items():
            for (r2, c2, m2), f2 in other.entries.items():
                sign, merged = merge_monomials(m1, m2)
                if sign == 0:
                    continue
                prod = f1 * f2
                if sign < 0:
                    prod = -prod
                key = (r1 * other.rows + r2, c1 * other.cols + c2, merged)
                accumulate(out, key, prod)
        return MatrixForm(self.base, self.rows * other.rows,
                          self.cols * other.cols, out)

    # -- calculus -----------------------------------------------------

    def d(self) -> "MatrixForm":
        """Exterior derivative, applied entrywise."""
        out: dict[tuple[int, int, Mono], ChartFunction] = {}
        for (r, c, mono), f in self.entries.items():
            inmono = set(mono)
            for coord in range(self.base.dim):
                if coord in inmono:
                    continue
                df = f.partial(coord)
                if not df:
                    continue
                # dx_coord wedged in front of mono
                below = sum(1 for m in mono if m < coord)
                if below % 2:
                    df = -df
                newmono = tuple(sorted(mono + (coord,)))
                accumulate(out, (r, c, newmono), df)
        return MatrixForm(self.base, self.rows, self.cols, out)

    def contract(self, coord: int) -> "MatrixForm":
        """Interior product with d/d(coord): deletes that differential."""
        out: dict[tuple[int, int, Mono], ChartFunction] = {}
        for (r, c, mono), f in self.entries.items():
            if coord not in mono:
                continue
            pos = mono.index(coord)
            newmono = mono[:pos] + mono[pos + 1:]
            g = -f if pos % 2 else f
            accumulate(out, (r, c, newmono), g)
        return MatrixForm(self.base, self.rows, self.cols, out)

    def trace(self) -> "MatrixForm":
        if self.rows != self.cols:
            raise ValueError("trace needs a square matrix")
        out: dict[tuple[int, int, Mono], ChartFunction] = {}
        for (r, c, mono), f in self.entries.items():
            if r != c:
                continue
            accumulate(out, (0, 0, mono), f)
        return MatrixForm(self.base, 1, 1, out)

    def transpose(self) -> "MatrixForm":
        return MatrixForm(self.base, self.cols, self.rows,
                          {(c, r, mono): f for (r, c, mono), f in self.entries.items()})

    def conjugate(self) -> "MatrixForm":
        return MatrixForm(self.base, self.rows, self.cols,
                          {k: f.conjugate() for k, f in self.entries.items()})

    def conj_transpose(self) -> "MatrixForm":
        return self.transpose().conjugate()

    # -- structure queries --------------------------------------------

    def is_zero(self) -> bool:
        return not self.entries

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MatrixForm) and self.base == other.base
                and self.rows == other.rows and self.cols == other.cols
                and self.entries == other.entries)

    __hash__ = None

    def degrees(self) -> set[int]:
        return {len(mono) for (_r, _c, mono) in self.entries}

    def degree_component(self, deg: int) -> "MatrixForm":
        return MatrixForm(self.base, self.rows, self.cols,
                          {k: f for k, f in self.entries.items() if len(k[2]) == deg})

    def max_degree(self) -> int:
        return max((len(mono) for (_r, _c, mono) in self.entries), default=0)

    def is_homogeneous(self, deg: int) -> bool:
        return all(len(mono) == deg for (_r, _c, mono) in self.entries)

    def odd_part(self) -> "MatrixForm":
        return MatrixForm(self.base, self.rows, self.cols,
                          {k: f for k, f in self.entries.items() if len(k[2]) % 2 == 1})

    def even_part(self) -> "MatrixForm":
        return MatrixForm(self.base, self.rows, self.cols,
                          {k: f for k, f in self.entries.items() if len(k[2]) % 2 == 0})

    def coefficient(self, mono: Mono, r: int = 0, c: int = 0) -> ChartFunction:
        return self.entries.get((r, c, tuple(mono)), ChartFunction.zero(self.base))

    def block(self, row0: int, col0: int, other: "MatrixForm") -> "MatrixForm":
        """Return a copy with `other` added at block offset (row0, col0)."""
        out = dict(self.entries)
        for (r, c, mono), f in other.entries.items():
            accumulate(out, (r + row0, c + col0, mono), f)
        return MatrixForm(self.base, self.rows, self.cols, out)

    # -- homotopy operators and the mod-exact calculus ----------------

    def chart_homotopy(self) -> "MatrixForm":
        """The scaling homotopy h on the chart factor.

        Satisfies omega = d h(omega) + h(d omega) + retract(omega) where
        retract is the pullback to {x = 0}.  Acts termwise: on a term
        x^alpha e^{ik.th} dx_I ^ dth_J it contracts with the Euler field
        of the chart coordinates and rescales by 1/(|alpha| + |I|).
        """
        a = self.base.chart_dim
        out: dict[tuple[int, int, Mono], ChartFunction] = {}
        for (r, c, mono), f in self.entries.items():
            p = sum(1 for m in mono if m < a)
            for pos, coord in enumerate(mono):
                if coord >= a:
                    continue
                sign = -1 if pos % 2 else 1
                # alpha -> alpha + e_coord is injective: no two terms merge
                terms = {}
                for (alpha, k), ts in f.terms.items():
                    nalpha = tuple(e + 1 if j == coord else e
                                   for j, e in enumerate(alpha))
                    terms[(nalpha, k)] = ts.scale(Fraction(sign, sum(alpha) + p))
                accumulate(out, (r, c, mono[:pos] + mono[pos + 1:]),
                           ChartFunction(self.base, terms))
        return MatrixForm(self.base, self.rows, self.cols, out)

    def _torus_part(self, harmonic: bool) -> "MatrixForm":
        """The terms with no chart differential and no chart power; with
        harmonic, only those of Fourier index 0 among them."""
        a = self.base.chart_dim
        out: dict[tuple[int, int, Mono], ChartFunction] = {}
        for (r, c, mono), f in self.entries.items():
            if any(m < a for m in mono):
                continue
            kept = {(alpha, k): ts for (alpha, k), ts in f.terms.items()
                    if not any(alpha) and not (harmonic and any(k))}
            if kept:
                out[(r, c, mono)] = ChartFunction(self.base, kept)
        return MatrixForm(self.base, self.rows, self.cols, out)

    def retract(self) -> "MatrixForm":
        """Pullback to the torus {x = 0}: drops chart differentials and
        evaluates coefficients at x = 0."""
        return self._torus_part(harmonic=False)

    def harmonic_part(self) -> "MatrixForm":
        """Constant-coefficient torus component: the Fourier index 0 terms
        of the retraction.  The canonical cohomology representative."""
        return self._torus_part(harmonic=True)

    def torus_homotopy(self) -> "MatrixForm":
        """Fourier-mode homotopy H, applied to the retraction of the form.

        On a mode-k term with k != 0 it contracts with the first angle
        direction where k is nonzero, scaled by 1/(i k_j); mode-0 terms
        are dropped, and so is everything the retraction drops.
        Satisfies eta = d H(eta) + H(d eta) + harmonic(eta) for
        torus-supported eta.
        """
        a = self.base.chart_dim
        # a term's mode fixes the removed differential, so each output
        # term has exactly one source term: nothing merges
        out: dict[tuple[int, int, Mono], dict] = {}
        for (r, c, mono), f in self.retract().entries.items():
            for (alpha, k), ts in f.terms.items():
                j = next((jj for jj, kk in enumerate(k) if kk != 0), None)
                if j is None or a + j not in mono:
                    continue
                pos = mono.index(a + j)
                # 1/(i k_j) = -i/k_j
                factor = GaussRational.of(0, Fraction(-1, k[j]))
                if pos % 2:
                    factor = -factor
                key = (r, c, mono[:pos] + mono[pos + 1:])
                out.setdefault(key, {})[(alpha, k)] = ts.scale(factor)
        return MatrixForm(self.base, self.rows, self.cols,
                          {key: ChartFunction(self.base, terms)
                           for key, terms in out.items()})

    def full_homotopy(self) -> "MatrixForm":
        """K = chart homotopy + torus homotopy (of the retraction).

        omega = d K(omega) + K(d omega) + harmonic(retract(omega)), exactly.
        """
        return self.chart_homotopy() + self.torus_homotopy()

    def normal_form(self) -> "MatrixForm":
        """Canonical representative modulo exact forms.

        NF(omega) = harmonic(retract(omega)) + K(d omega).  Two forms
        differ by an exact form iff their normal forms coincide; for a
        closed form the result is the harmonic torus representative.
        """
        return self.harmonic_part() + self.d().full_homotopy()

    def is_exact(self) -> bool:
        """True iff the form is d of something: closed with zero harmonic
        part (the normal form of a closed form)."""
        return not self.d() and not self.harmonic_part()

    # -- periods ------------------------------------------------------

    def period(self, cycle: "Cycle") -> TauScalar:
        """Exact integral of a 1x1 form over a coordinate sub-torus."""
        if self.rows != 1 or self.cols != 1:
            raise ValueError("period needs a scalar (1x1) form")
        if cycle.base != self.base:
            raise ValueError("mismatched base spaces")
        a = self.base.chart_dim
        subset = cycle.torus_subset
        mono = tuple(sorted(a + j for j in subset))
        sign = _permutation_sign(subset)
        f = self.entries.get((0, 0, mono))
        if f is None:
            return TauScalar.zero()
        total = TauScalar.zero()
        swept = set(subset)
        for (alpha, k), ts in f.terms.items():
            if any(e != 0 for e in alpha):
                continue  # chart coords fixed at 0
            if any(k[j] != 0 for j in swept):
                continue  # nonzero frequency integrates to zero
            total = total + ts
        # (2 pi)^m = (tau / i)^m = (-i tau)^m
        m = len(subset)
        unit = TauScalar.tau_power(1, GaussRational.of(0, -1))
        factor = TauScalar.one()
        for _ in range(m):
            factor = factor * unit
        out = total * factor
        return out.scale(sign)

    def __repr__(self) -> str:
        return f"MatrixForm({self.rows}x{self.cols}, {len(self.entries)} entries)"


def _permutation_sign(seq) -> int:
    """Sign of the permutation sorting seq (assumed duplicate-free)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


@dataclass(frozen=True)
class Cycle:
    """Coordinate sub-torus through the origin: the listed angles sweep
    [0, 2pi] (in the listed order), everything else is fixed at 0."""

    base: BaseSpace
    torus_subset: tuple[int, ...]

    def __post_init__(self):
        if not self.torus_subset:
            raise ValueError("cycle needs at least one torus coordinate")
        if len(set(self.torus_subset)) != len(self.torus_subset):
            raise ValueError("duplicate torus coordinates in cycle")
        for j in self.torus_subset:
            if not (0 <= j < self.base.torus_dim):
                raise ValueError(f"torus coordinate {j} out of range")


def all_cycles(base: BaseSpace, parity: int | None = None):
    """All coordinate sub-torus cycles, optionally filtered by dimension
    parity (0 = even, 1 = odd)."""
    from itertools import combinations
    for m in range(1, base.torus_dim + 1):
        if parity is not None and m % 2 != parity:
            continue
        for subset in combinations(range(base.torus_dim), m):
            yield Cycle(base, subset)


@dataclass
class OddClass:
    """An odd form reduced to its canonical representative mod exact."""

    rep: MatrixForm  # already in normal form; build through OddClass.of

    @staticmethod
    def of(omega: MatrixForm) -> "OddClass":
        if omega.rows != 1 or omega.cols != 1:
            raise ValueError("OddClass needs a scalar form")
        rep = omega.normal_form()
        if rep.even_part():
            raise ValueError("OddClass has even-degree components")
        return OddClass(rep)

    # the normal form is linear, so sums of normal forms are normal
    def __add__(self, other: "OddClass") -> "OddClass":
        return OddClass(self.rep + other.rep)

    def __neg__(self) -> "OddClass":
        return OddClass(-self.rep)

    def __sub__(self, other: "OddClass") -> "OddClass":
        return OddClass(self.rep - other.rep)

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __eq__(self, other) -> bool:
        return isinstance(other, OddClass) and self.rep == other.rep

    __hash__ = None
