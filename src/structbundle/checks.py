"""The invariant battery: every identity the library promises, run on
seeded random instances.

Each check is registered with a short name and a human-readable
statement of the identity it exercises.  The CLI `suite` verb and the
acceptance tests both drive this module, so a verdict here is the
single source of truth.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import holonomy as holo
from .chern_simons import (ConnectionPath, _path_curvature, _poly_wedge, cs_class,
                           cs_path, cs_via_cylinder, equivalent)
from .connections import (Connection, GaugeTransform, direct_sum,
                          gauge_apply, grassmann_sum, hermitian_check, tensor)
from .forms import MatrixForm, OddClass, all_cycles, Cycle
from .functions import BaseSpace, ChartFunction
from .gauge_theta import (b_coefficient, b_coefficient_closed_form,
                          lambda_gl_test, theta_pullback)
from .randgen import Bounds, RandomGen
from .scalars import TauScalar
from .struct_khat import (KHatElement, StructuredBundle, cs_hat, ch_khat,
                          delta, i_map, realize_odd_form, struct_sum)


@dataclass
class CheckResult:
    name: str
    statement: str
    passed: bool
    cases: int
    seconds: float
    detail: str = ""


CHECKS: list[tuple[str, str, int]] = []


def check(name: str, statement: str, default_cases: int):
    def wrap(fn):
        CHECKS.append((name, statement, default_cases))
        _REGISTRY[name] = fn
        return fn
    return wrap


_REGISTRY: dict = {}


# ---------------------------------------------------------------------
# coefficient and function ring


@check("scalar-ring-axioms",
       "associativity, commutativity, distributivity in Q(i)[tau,tau^-1]",
       1000)
def check_scalar_ring(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        x, y, z = (gen.tau_scalar() for _ in range(3))
        if (x + y) + z != x + (y + z):
            return "additive associativity"
        if (x * y) * z != x * (y * z):
            return "multiplicative associativity"
        if x * y != y * x:
            return "commutativity"
        if x * (y + z) != x * y + x * z:
            return "distributivity"
        if (x * TauScalar.tau_power(2)).mul_by_tau_power(-2) != x:
            return "tau-power shift"
    return None


@check("function-ring-axioms",
       "ring axioms in the function ring on R^a x T^b", 300)
def check_function_ring(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space()
        f, g, h = (gen.chart_function(base) for _ in range(3))
        if (f + g) + h != f + (g + h):
            return "additive associativity"
        if (f * g) * h != f * (g * h):
            return "multiplicative associativity"
        if f * (g + h) != f * g + f * h:
            return "distributivity"
    return None


@check("mixed-partials", "partial derivatives commute in every pair", 200)
def check_mixed_partials(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=2)
        f = gen.chart_function(base)
        u = gen.rng.randrange(base.dim)
        v = gen.rng.randrange(base.dim)
        if f.partial(u).partial(v) != f.partial(v).partial(u):
            return f"coords {u},{v}"
    return None


@check("circle-average",
       "circle averages are idempotent and commute across angles", 200)
def check_circle_average(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space()
        if base.torus_dim == 0:
            continue
        f = gen.chart_function(base)
        j = gen.rng.randrange(base.torus_dim)
        if f.circle_average(j).circle_average(j) != f.circle_average(j):
            return "idempotence"
        if base.torus_dim >= 2:
            m = gen.rng.randrange(base.torus_dim)
            if (f.circle_average(j).circle_average(m)
                    != f.circle_average(m).circle_average(j)):
                return "commutation"
    return None


# ---------------------------------------------------------------------
# exterior algebra


@check("d-squared-zero", "d of d vanishes on random matrix forms", 200)
def check_d_squared(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space()
        om = gen.scalar_form(base)
        if om.d().d():
            return "scalar form"
        n = gen.rng.randint(1, 2)
        m = gen.matrix_one_form(base, n)
        if m.d().d():
            return "matrix form"
    return None


@check("graded-leibniz",
       "d(w ^ e) = dw ^ e + (-1)^deg(w) w ^ de on scalar forms", 200)
def check_leibniz(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        p = gen.rng.randint(0, base.dim)
        q = gen.rng.randint(0, base.dim)
        w = gen.scalar_form(base, degree=p)
        e = gen.scalar_form(base, degree=q)
        lhs = w.wedge(e).d()
        rhs = w.d().wedge(e) + w.wedge(e.d()).scale_rational((-1) ** p)
        if lhs != rhs:
            return f"degrees {p},{q}"
    return None


@check("homotopy-identity",
       "w = d h(w) + h(dw) + retract(w), exactly", 200)
def check_homotopy(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        w = gen.scalar_form(base)
        lhs = (w.full_homotopy().d() + w.d().full_homotopy()
               + w.harmonic_part())
        if lhs != w:
            return f"base {base}"
    return None


@check("stokes-periods", "d of anything has zero period on every cycle", 100)
def check_stokes(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space()
        if base.torus_dim == 0:
            continue
        w = gen.scalar_form(base)
        dw = w.d()
        for cyc in all_cycles(base):
            if dw.period(cyc):
                return f"cycle {cyc.torus_subset}"
    return None


@check("normal-form-idempotent",
       "the canonical representative map is idempotent", 200)
def check_nf_idempotent(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space()
        w = gen.scalar_form(base)
        nf = w.normal_form()
        if nf.normal_form() != nf:
            return f"base {base}"
    return None


@check("exactness-periods-crosscheck",
       "closed scalar forms: exact iff every sub-torus period vanishes",
       100)
def check_exactness_periods(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        a = gen.rng.randint(0, 2)
        b = gen.rng.randint(1, 2)
        base = BaseSpace(a, b)
        # closed form: an exact part plus a random harmonic part
        closed = gen.scalar_form(base).d()
        for cyc in all_cycles(base):
            if gen.rng.random() < 0.4:
                mono = tuple(base.chart_dim + j for j in cyc.torus_subset)
                closed = closed + MatrixForm.const_scalar(
                    base, gen.tau_scalar(1), mono)
        if closed.d():
            return "not closed (generator bug)"
        periods_vanish = all(not closed.period(c) for c in all_cycles(base))
        if closed.is_exact() != periods_vanish:
            return f"base {base}"
    return None


# ---------------------------------------------------------------------
# connections


@check("bianchi-trace-closed",
       "d tr(R^j) = 0 for every curvature power", 100)
def check_bianchi(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        conn = gen.connection(base)
        R = conn.curvature()
        power = MatrixForm.identity(base, conn.rank)
        j = 0
        while 2 * (j + 1) <= base.dim:
            j += 1
            power = power.wedge(R)
            if not power:
                break
            if power.trace().d():
                return f"power {j}"
    return None


@check("curvature-gauge-conjugation",
       "curvature transforms by conjugation under gauge action", 50)
def check_gauge_curvature(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        conn = gen.connection(base)
        g = gen.gauge(base, conn.rank)
        moved = gauge_apply(g, conn)  # raises if conjugation law fails
        if moved.chern_character() != conn.chern_character():
            return "ch not gauge invariant"
    return None


@check("grassmann-block-curvature",
       "Grassmann connections have block-preserving curvature", 50)
def check_grassmann_blocks(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        P = gen.idempotent(base)
        grassmann_sum(P)  # raises internally if blocks mix
    return None


@check("ch-sum-tensor",
       "ch of direct sums adds and of tensor products multiplies", 100)
def check_ch_sum_tensor(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        c1 = gen.connection(base, rank=gen.rng.randint(1, 2))
        c2 = gen.connection(base, rank=gen.rng.randint(1, 2))
        if direct_sum(c1, c2).chern_character() != (
                c1.chern_character() + c2.chern_character()):
            return "direct sum"
        if tensor(c1, c2).chern_character() != (
                c1.chern_character().wedge(c2.chern_character())):
            return "tensor"
    return None


@check("hermitian-reality",
       "symbolic conjugation fixes ch of skew-Hermitian connections", 50)
def check_hermitian(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        conn = gen.skew_hermitian_connection(base)
        if not hermitian_check(conn):
            return "constructor not skew-Hermitian"
        ch = conn.chern_character()
        if ch.conjugate() != ch:
            return "ch not conjugation-fixed"
    return None


# ---------------------------------------------------------------------
# transgression


@check("transgression",
       "d of the transgression form equals ch(end) - ch(start)", 200)
def check_transgression(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        n = gen.rng.randint(1, gen.bounds.max_rank)
        coeffs = tuple(gen.matrix_one_form(base, n)
                       for _ in range(gen.rng.randint(1, 3)))
        path = ConnectionPath(base, n, coeffs)
        cs = cs_path(path)
        if cs.d() != path.at1().chern_character() - path.at0().chern_character():
            return f"rank {n}, base {base}"
    return None


@check("path-independence",
       "straight and detour paths give the same class", 50)
def check_path_independence(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        n = gen.rng.randint(1, 2)
        c0 = gen.connection(base, n)
        c1 = gen.connection(base, n)
        straight = ConnectionPath.straight(c0, c1)
        B = gen.matrix_one_form(base, n)
        detour = ConnectionPath(base, n, (c0.A, c1.A - c0.A + B, -B))
        diff = cs_path(straight) - cs_path(detour)
        if not diff.is_exact():
            return f"rank {n}, base {base}"
    return None


@check("cs-additivity",
       "CS(a,b) + CS(b,c) = CS(a,c) at the class level", 100)
def check_cs_additivity(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        n = gen.rng.randint(1, 2)
        a, b, c = (gen.connection(base, n) for _ in range(3))
        if cs_class(a, b) + cs_class(b, c) != cs_class(a, c):
            return f"rank {n}, base {base}"
    return None


@check("sum-bilinearity",
       "CS of a direct sum splits into the summands' CS classes", 100)
def check_sum_bilinearity(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        nv = gen.rng.randint(1, 2)
        nw = gen.rng.randint(1, 2)
        v0, v1 = gen.connection(base, nv), gen.connection(base, nv)
        w0, w1 = gen.connection(base, nw), gen.connection(base, nw)
        lhs = cs_class(direct_sum(v0, w0), direct_sum(v1, w1))
        rhs = cs_class(v0, v1) + cs_class(w0, w1)
        if lhs != rhs:
            return f"ranks {nv}+{nw}"
    return None


@check("tensor-bilinearity",
       "CS of a tensor pair expands through ch factors", 100)
def check_tensor_bilinearity(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        nv = gen.rng.randint(1, 2)
        nw = gen.rng.randint(1, 2)
        v0, v1 = gen.connection(base, nv), gen.connection(base, nv)
        w0, w1 = gen.connection(base, nw), gen.connection(base, nw)
        lhs = cs_class(tensor(v0, w0), tensor(v1, w1))
        csw = cs_path(ConnectionPath.straight(w0, w1))
        csv = cs_path(ConnectionPath.straight(v0, v1))
        rhs = OddClass.of(v0.chern_character().wedge(csw)
                          + w1.chern_character().wedge(csv))
        if lhs != rhs:
            return f"ranks {nv}x{nw}"
    return None


@check("gauge-loop-exact",
       "the transgression of any closed path of connections is exact", 50)
def check_closed_loop(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        n = gen.rng.randint(1, 2)
        A0 = gen.matrix_one_form(base, n)
        B = gen.matrix_one_form(base, n)
        loop = ConnectionPath(base, n, (A0, B, -B))
        if not cs_path(loop).is_exact():
            return f"rank {n}, base {base}"
    return None


@check("cylinder-oracle",
       "the cylinder construction reproduces the transgression form", 100)
def check_cylinder(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        n = gen.rng.randint(1, 2)
        coeffs = tuple(gen.matrix_one_form(base, n)
                       for _ in range(gen.rng.randint(1, 3)))
        path = ConnectionPath(base, n, coeffs)
        if cs_via_cylinder(path) != cs_path(path):
            return f"rank {n}, base {base}"
    return None


@check("grassmann-compression",
       "flat ambient connections are equivalent to their block compression",
       30)
def check_grassmann_equivalence(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        P = gen.idempotent(base)
        comp = grassmann_sum(P)
        flat = Connection.flat(base, P.size)
        if not equivalent(flat, comp):
            return f"base {base}"
        # term-by-term trace vanishing along the splitting path
        A = flat.A - comp.A
        power = [MatrixForm.identity(base, P.size)]
        for j in range(1, (base.dim + 1) // 2 + 1):
            if j == 2:
                R = _path_curvature([comp.A, A])
            if j > 1:
                power = _poly_wedge(power, R)
                if not any(power):
                    break
            if any(A.wedge(p).trace() for p in power):
                return f"trace term j={j} nonzero"
    return None


# ---------------------------------------------------------------------
# winding forms


@check("b-coefficients",
       "the transgression coefficients match their closed form", 8)
def check_b_coefficients(gen: RandomGen, cases: int) -> str | None:
    for j in range(1, cases + 1):
        if b_coefficient(j) != b_coefficient_closed_form(j):
            return f"j={j}"
    return None


@check("theta-components-closed",
       "every homogeneous component of a winding form is closed", 50)
def check_theta_closed(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        g = gen.composite_gauge(base, gen.rng.randint(1, 3))
        form = theta_pullback(g).form
        for deg in form.degrees():
            if form.degree_component(deg).d():
                return f"degree {deg}"
    return None


@check("gauge-winding",
       "the flat-pair CS class equals the gauge's winding form mod exact",
       0)
def check_gauge_winding(gen: RandomGen, cases: int) -> str | None:
    del cases  # exhaustive over the constructible families
    combos = []
    bt = BaseSpace(0, 1)
    for k in range(-3, 4):
        combos.append((bt, GaugeTransform.fourier(bt, (k,))))
    bt2 = BaseSpace(1, 2)
    combos.append((bt2, GaugeTransform.fourier(bt2, (1, -2), torus_coord=0)))
    combos.append((bt2, GaugeTransform.fourier(bt2, (2, 0, -1), torus_coord=1)))
    for n in (2, 3):
        combos.append((bt2, GaugeTransform.permutation(bt2, tuple(reversed(range(n))))))
        ent = {}
        for r in range(n):
            for c in range(r + 1, n):
                ent[(r, c)] = (ChartFunction.coord(bt2, 0)
                               * ChartFunction.fourier(bt2, (1, 0)))
        M = MatrixForm.from_function_matrix(bt2, n, n, ent)
        combos.append((bt2, GaugeTransform.unipotent(bt2, M)))
    for base, g in combos:
        flat = Connection.flat(base, g.size)
        cs = cs_path(ConnectionPath.straight(flat, gauge_apply(g, flat)))
        if not (cs - theta_pullback(g).form).is_exact():
            return f"gauge of size {g.size} on {base}"
    return None


@check("theta-inversion",
       "the winding form of an inverse gauge is minus the original, mod exact",
       50)
def check_theta_inversion(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        g = gen.composite_gauge(base, gen.rng.randint(1, 3))
        lhs = theta_pullback(g.inverse()).form
        rhs = -theta_pullback(g).form
        if not (lhs - rhs).is_exact():
            return f"size {g.size}"
    return None


@check("degree1-integrality",
       "winding forms have integer periods over every circle factor", 50)
def check_integrality(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        if base.torus_dim == 0:
            continue
        g = gen.composite_gauge(base, gen.rng.randint(1, 3))
        form = theta_pullback(g).form
        for cyc in all_cycles(base, parity=1):
            if not form.period(cyc).is_integer():
                return f"cycle {cyc.torus_subset}"
    return None


@check("winding-integrality",
       "circle connections i k dtheta have CS period k; half-integral "
       "periods are rejected with a witness", 0)
def check_winding(gen: RandomGen, cases: int) -> str | None:
    del cases
    bt = BaseSpace(0, 1)
    flat = Connection.flat(bt, 1)
    for k in range(-3, 4):
        A = MatrixForm.scalar(bt, ChartFunction.one(bt).scale(
            TauScalar.rational(0, k)), (0,))
        cls = cs_hat(StructuredBundle(Connection(bt, 1, A)))
        if cls.rep.period(Cycle(bt, (0,))) != TauScalar.rational(k):
            return f"k={k}"
    half = MatrixForm.scalar(bt, ChartFunction.one(bt).scale(
        TauScalar.rational(0, Fraction(1, 2))), (0,))
    cls = cs_hat(StructuredBundle(Connection(bt, 1, half)))
    verdict = lambda_gl_test(cls.rep, [GaugeTransform.fourier(bt, (1,))])
    if verdict.status != "nonmember" or verdict.witness[1] != TauScalar.rational(
            Fraction(1, 2)):
        return f"half-integral verdict {verdict.status}"
    return None


# ---------------------------------------------------------------------
# structured bundles and K-hat


@check("cs-hat-homomorphism",
       "the flat-reference CS class of a sum is the sum of classes", 50)
def check_cs_hat_hom(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        v = StructuredBundle(gen.connection(base, gen.rng.randint(1, 2)))
        w = StructuredBundle(gen.connection(base, gen.rng.randint(1, 2)))
        if cs_hat(struct_sum(v, w)) != cs_hat(v) + cs_hat(w):
            return f"ranks {v.rank}+{w.rank}"
    return None


@check("odd-monomial-reduction",
       "w ^ (dw)^k reduces to (k+1)! f dx_1..dx_(2k+1) modulo exact", 20)
def check_claim(gen: RandomGen, cases: int) -> str | None:
    for k in (1, 2):
        dim = 2 * k + 1
        base = BaseSpace(dim, 0)
        for _ in range(cases):
            f = gen.chart_function(base)
            w = MatrixForm.zero(base, 1, 1)
            for m in range(k):
                w = w + MatrixForm.scalar(
                    base, ChartFunction.coord(base, 2 * m), (2 * m + 1,))
            w = w + MatrixForm.scalar(base, f, (dim - 1,))
            dw = w.d()
            lhs = w
            for _ in range(k):
                lhs = lhs.wedge(dw)
            target = MatrixForm.scalar(
                base, f.scale_rational(math.factorial(k + 1)),
                tuple(range(dim)))
            if not (lhs - target).is_exact():
                return f"k={k}"
    return None


@check("realization-roundtrip",
       "realized line-bundle sums reproduce the target odd class", 50)
def check_realization(gen: RandomGen, cases: int) -> str | None:
    base = BaseSpace(4, 0)
    for _ in range(cases):
        rho = gen.odd_target(base, top_degree=3)
        v = realize_odd_form(rho)
        if cs_hat(v).rep != rho.normal_form():
            return "roundtrip mismatch"
    return None


@check("ch-i-d",
       "the Chern character of a realized odd form is its differential", 50)
def check_ch_i_d(gen: RandomGen, cases: int) -> str | None:
    base = BaseSpace(4, 0)
    for _ in range(cases):
        theta = gen.odd_target(base, top_degree=3)
        if ch_khat(i_map(theta)) != theta.d():
            return "ch o i != d"
    return None


@check("diagram-commutes",
       "ch of formal differences is closed and class-invariant", 30)
def check_diagram(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        v = StructuredBundle(gen.connection(base, gen.rng.randint(1, 2)))
        flat = StructuredBundle.trivial_flat(base, v.rank)
        mu = KHatElement((v,), (flat,))
        ch = ch_khat(mu)
        if ch.d():
            return "ch not closed"
        g = gen.gauge(base, v.rank)
        moved = StructuredBundle(gauge_apply(g, v.connection))
        if ch_khat(KHatElement((moved,), (flat,))) != ch:
            return "ch not representative-invariant"
        if not delta(KHatElement((flat,), (flat,))).is_zero():
            return "delta of a trivial difference nonzero"
    return None


@check("stably-flat-certificate",
       "gauge-flat bundles have winding-form CS classes by certificate", 30)
def check_stably_flat(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = gen.base_space(min_dim=1)
        n = gen.rng.randint(1, 2)
        g = gen.gauge(base, n)
        v = StructuredBundle(gauge_apply(g, Connection.flat(base, n)))
        verdict = lambda_gl_test(cs_hat(v).rep, [g], depth=1)
        if verdict.status != "member":
            return f"verdict {verdict.status}"
    return None


# ---------------------------------------------------------------------
# holonomy


@check("holonomy-winding",
       "integer circle connections transport to the identity, "
       "fractional ones do not", 0)
def check_holonomy_winding(gen: RandomGen, cases: int) -> str | None:
    del cases
    bt = BaseSpace(0, 1)
    for k in (-3, -1, 0, 2, 3):
        A = MatrixForm.scalar(bt, ChartFunction.one(bt).scale(
            TauScalar.rational(0, k)), (0,))
        S = holo.parallel_transport(Connection(bt, 1, A),
                                    holo.Loop(bt, 0), 4096)
        if abs(S[0, 0] - 1) >= 1e-8:
            return f"k={k} defect {abs(S[0,0]-1):.2e}"
    A = MatrixForm.scalar(bt, ChartFunction.one(bt).scale(
        TauScalar.rational(0, Fraction(1, 2))), (0,))
    S = holo.parallel_transport(Connection(bt, 1, A), holo.Loop(bt, 0), 2048)
    if abs(S[0, 0] + 1) > 1e-6:  # exp(-pi i) = -1
        return "half winding holonomy wrong"
    return None


@check("holonomy-gauge-covariance",
       "parallel transport conjugates under gauge transformations", 10)
def check_holonomy_gauge(gen: RandomGen, cases: int) -> str | None:
    for _ in range(cases):
        base = BaseSpace(1, gen.rng.randint(1, 2))
        n = gen.rng.randint(1, 2)
        conn = gen.connection(base, n)
        g = gen.gauge(base, n)
        j = gen.rng.randrange(base.torus_dim)
        bp = tuple(0.3 for _ in range(base.dim))
        loop = holo.Loop(base, j, bp)
        T0 = holo.parallel_transport(conn, loop, 2048)
        T1 = holo.parallel_transport(gauge_apply(g, conn), loop, 2048)
        gm = holo._numeric_field(g.g, (), loop)(0.0)
        gi = holo._numeric_field(g.g_inv, (), loop)(0.0)
        if np.max(np.abs(T1 - gi @ T0 @ gm)) >= 1e-7:
            return "covariance defect too large"
    return None


@check("rk4-order",
       "halving the step size shrinks the defect at fourth order", 0)
def check_rk4_order(gen: RandomGen, cases: int) -> str | None:
    del cases
    import cmath
    bt = BaseSpace(0, 1)
    A = MatrixForm.scalar(bt, ChartFunction.one(bt).scale(
        TauScalar.rational(0, Fraction(1, 3))), (0,))
    conn = Connection(bt, 1, A)
    expected = cmath.exp(-2j * math.pi / 3)
    errs = []
    for steps in (32, 64):
        S = holo.parallel_transport(conn, holo.Loop(bt, 0), steps)
        errs.append(abs(S[0, 0] - expected))
    order = math.log(errs[0] / errs[1], 2)
    if order < 3.5:
        return f"measured order {order:.2f}"
    return None


# ---------------------------------------------------------------------


def run_battery(seed: int = 42, bounds: Bounds = Bounds(),
                scale: float = 1.0) -> list[CheckResult]:
    """Run the registered checks with a fresh seeded generator each."""
    results = []
    for name, statement, default_cases in CHECKS:
        fn = _REGISTRY[name]
        cases = max(1, int(default_cases * scale)) if default_cases else 0
        gen = RandomGen(seed, bounds)
        t0 = time.time()
        try:
            failure = fn(gen, cases)
        except Exception as exc:  # a raised invariant is a failure too
            failure = f"exception: {exc}"
        dt = time.time() - t0
        results.append(CheckResult(name, statement, failure is None,
                                   cases or 1, dt, failure or ""))
    return results
