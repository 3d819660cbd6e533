"""Acceptance suite: the headline guarantees, run at their contractual
case counts and time budgets.

Each test states the identity it certifies; random instances come from
the seeded generator so failures are reproducible.
"""

import hashlib
import math
import pathlib
import time
from fractions import Fraction

import numpy as np
import pytest

from structbundle import cli
from structbundle.chern_simons import (ConnectionPath, cs_class, cs_path,
                                       cs_via_cylinder, equivalent)
from structbundle.connections import (Connection, GaugeTransform,
                                      direct_sum, gauge_apply, grassmann_sum,
                                      hermitian_check, tensor)
from structbundle.forms import Cycle, MatrixForm, OddClass
from structbundle.functions import BaseSpace, ChartFunction
from structbundle.gauge_theta import lambda_gl_test, theta_pullback
from structbundle.holonomy import Loop, parallel_transport
from structbundle.randgen import Bounds, RandomGen
from structbundle.scalars import TauScalar
from structbundle.struct_khat import ch_khat, cs_hat, i_map, realize_odd_form

BOUNDS = Bounds(max_coords=4, max_rank=3, max_poly_degree=2, max_fourier=2)


def circle_connection(k):
    b = BaseSpace(0, 1)
    w = MatrixForm.scalar(b, ChartFunction.one(b).scale(
        TauScalar.rational(0, k)), (0,))
    return Connection(b, 1, w)


def test_01_transgression_200_pairs_under_30s():
    """d(cs) equals the Chern character difference, exactly."""
    gen = RandomGen(1001, BOUNDS)
    t0 = time.time()
    for _ in range(200):
        base = gen.base_space(min_dim=1)
        c0 = gen.connection(base)
        c1 = gen.connection(base, c0.rank)
        cs = cs_path(ConnectionPath.straight(c0, c1))
        assert cs.d() == c1.chern_character() - c0.chern_character()
    assert time.time() - t0 < 30.0


def test_02_path_independence_50_pairs():
    """Straight and quadratic-detour transgressions agree mod exact."""
    gen = RandomGen(1002, BOUNDS)
    for _ in range(50):
        base = gen.base_space(min_dim=1)
        n = gen.rng.randint(1, 2)
        c0 = gen.connection(base, n)
        c1 = gen.connection(base, n)
        B = gen.matrix_one_form(base, n)
        straight = ConnectionPath.straight(c0, c1)
        detour = ConnectionPath(base, n, (c0.A, c1.A - c0.A + B, -B))
        assert cs_path(straight).normal_form() == cs_path(detour).normal_form()


def test_03a_class_additivity_100():
    """CS(a,b) + CS(b,c) = CS(a,c)."""
    gen = RandomGen(1003, BOUNDS)
    for _ in range(100):
        base = gen.base_space(min_dim=1)
        n = gen.rng.randint(1, 2)
        a, b, c = (gen.connection(base, n) for _ in range(3))
        assert cs_class(a, b) + cs_class(b, c) == cs_class(a, c)


def test_03b_sum_bilinearity_100():
    """CS splits over direct sums; ch adds over direct sums."""
    gen = RandomGen(1004, BOUNDS)
    for _ in range(100):
        base = gen.base_space(min_dim=1)
        nv, nw = gen.rng.randint(1, 2), gen.rng.randint(1, 2)
        v0, v1 = gen.connection(base, nv), gen.connection(base, nv)
        w0, w1 = gen.connection(base, nw), gen.connection(base, nw)
        lhs = cs_class(direct_sum(v0, w0), direct_sum(v1, w1))
        assert lhs == cs_class(v0, v1) + cs_class(w0, w1)
        assert direct_sum(v0, w0).chern_character() == \
            v0.chern_character() + w0.chern_character()


def test_03c_tensor_bilinearity_100():
    """CS of tensor pairs expands through the Chern factors; ch is
    multiplicative over tensor products."""
    gen = RandomGen(1005, BOUNDS)
    for _ in range(100):
        base = gen.base_space(min_dim=1)
        nv, nw = gen.rng.randint(1, 2), gen.rng.randint(1, 2)
        v0, v1 = gen.connection(base, nv), gen.connection(base, nv)
        w0, w1 = gen.connection(base, nw), gen.connection(base, nw)
        lhs = cs_class(tensor(v0, w0), tensor(v1, w1))
        csw = cs_path(ConnectionPath.straight(w0, w1))
        csv = cs_path(ConnectionPath.straight(v0, v1))
        rhs = OddClass.of(v0.chern_character().wedge(csw)
                          + w1.chern_character().wedge(csv))
        assert lhs == rhs
        assert tensor(v0, w0).chern_character() == \
            v0.chern_character().wedge(w0.chern_character())


def _gauge_families():
    bt = BaseSpace(0, 1)
    for k in range(-3, 4):
        yield bt, GaugeTransform.fourier(bt, (k,))
    mixed = BaseSpace(1, 2)
    yield mixed, GaugeTransform.fourier(mixed, (3, -3), torus_coord=0)
    yield mixed, GaugeTransform.fourier(mixed, (1, 2, -2), torus_coord=1)
    for n in (2, 3):
        for perm in _permutations(n):
            yield mixed, GaugeTransform.permutation(mixed, perm)
        ent = {}
        for r in range(n):
            for c in range(r + 1, n):
                ent[(r, c)] = (ChartFunction.coord(mixed, 0)
                               * ChartFunction.fourier(mixed, (1, -1)))
        M = MatrixForm.from_function_matrix(mixed, n, n, ent)
        yield mixed, GaugeTransform.unipotent(mixed, M)


def _permutations(n):
    import itertools
    return list(itertools.permutations(range(n)))


def test_04_gauge_winding_all_families():
    """CS(flat, g.flat) minus the winding form g*Theta is exact for
    diagonal Fourier (|k| <= 3), unipotent (rank <= 3), permutations."""
    for base, g in _gauge_families():
        flat = Connection.flat(base, g.size)
        cs = cs_path(ConnectionPath.straight(flat, gauge_apply(g, flat)))
        assert (cs - theta_pullback(g)).is_exact()


def test_05_winding_integrality_and_rejection():
    """cs_hat of ik dtheta has period k; a half-integral period is
    refuted with a witness."""
    b = BaseSpace(0, 1)
    for k in range(-3, 4):
        cls = cs_hat(circle_connection(k))
        assert cls.rep.period(Cycle(b, (0,))) == TauScalar.rational(k)
    half = circle_connection(Fraction(1, 2))
    verdict = lambda_gl_test(cs_hat(half).rep,
                             [GaugeTransform.fourier(b, (1,))])
    assert verdict.status == "nonmember"
    cycle, per = verdict.witness
    assert cycle is not None and per == TauScalar.rational(Fraction(1, 2))


def test_06_odd_monomial_reduction():
    """w ^ (dw)^k - (k+1)! f dx_1..dx_(2k+1) is exact for k in {1, 2}."""
    gen = RandomGen(1006, BOUNDS)
    for k in (1, 2):
        dim = 2 * k + 1
        base = BaseSpace(dim, 0)
        for _ in range(20):
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
            assert (lhs - target).is_exact()


def test_07_realization_roundtrip_50():
    """normal_form(cs_hat(realize(rho))) = normal_form(rho), under 2 s
    per instance on R^4 with top degree 3."""
    gen = RandomGen(1007, BOUNDS)
    base = BaseSpace(4, 0)
    for _ in range(50):
        rho = gen.odd_target(base)
        t0 = time.time()
        v = realize_odd_form(rho)
        assert cs_hat(v).rep.normal_form() == rho.normal_form()
        assert time.time() - t0 < 2.0


def test_08_ch_i_equals_d_50():
    """ch of the realization difference class is the differential."""
    gen = RandomGen(1008, BOUNDS)
    base = BaseSpace(4, 0)
    for _ in range(50):
        theta = gen.odd_target(base)
        assert ch_khat(i_map(theta)) == theta.d()


def test_09_grassmann_compression_families():
    """Flat ambient connections are equivalent to the idempotent's block
    compression plus complement, for all three idempotent families."""
    gen = RandomGen(1009, BOUNDS)
    seen = set()
    for _ in range(60):
        base = gen.base_space(min_dim=1)
        P = gen.idempotent(base)
        seen.add(P.size)
        assert equivalent(Connection.flat(base, P.size), grassmann_sum(P))
    assert len(seen) >= 2


def test_10_cylinder_oracle_100():
    """Independent cylinder construction reproduces cs_path exactly."""
    gen = RandomGen(1010, BOUNDS)
    for _ in range(100):
        base = gen.base_space(min_dim=1)
        n = gen.rng.randint(1, 2)
        coeffs = tuple(gen.matrix_one_form(base, n)
                       for _ in range(gen.rng.randint(1, 3)))
        path = ConnectionPath(base, n, coeffs)
        assert cs_via_cylinder(path) == cs_path(path)


def test_11a_holonomy_integer_winding():
    """|transport(ik dtheta) - I| < 1e-8 for integer k."""
    for k in range(-3, 4):
        conn = circle_connection(k)
        S = parallel_transport(conn, Loop(conn.base, 0), 4096)
        assert abs(S[0, 0] - 1.0) < 1e-8


def test_11b_holonomy_gauge_covariance():
    """Transport of a gauged connection is conjugate within 1e-7."""
    gen = RandomGen(1011, BOUNDS)
    for _ in range(10):
        base = BaseSpace(1, gen.rng.randint(1, 2))
        n = gen.rng.randint(1, 2)
        conn = gen.connection(base, n)
        g = gen.gauge(base, n)
        j = gen.rng.randrange(base.torus_dim)
        loop = Loop(base, j, tuple(0.3 for _ in range(base.dim)))
        T0 = parallel_transport(conn, loop, 2048)
        T1 = parallel_transport(gauge_apply(g, conn), loop, 2048)
        xs, th = loop.point(0.0)
        gm = np.zeros((n, n), complex)
        gi = np.zeros((n, n), complex)
        for (r, c, _m), f in g.g.entries.items():
            gm[r, c] = f.eval_numeric(xs, th)
        for (r, c, _m), f in g.g_inv.entries.items():
            gi[r, c] = f.eval_numeric(xs, th)
        assert np.max(np.abs(T1 - gi @ T0 @ gm)) < 1e-7


def test_11c_rk4_order_at_least_3_5():
    """Measured convergence order of the integrator is >= 3.5."""
    import cmath
    conn = circle_connection(Fraction(1, 3))
    expected = cmath.exp(-2j * math.pi / 3)
    errs = [abs(parallel_transport(conn, Loop(conn.base, 0), steps)[0, 0]
                - expected)
            for steps in (32, 64)]
    order = math.log(errs[0] / errs[1], 2)
    assert order >= 3.5


def test_12_hermitian_50():
    """Symbolic conjugation fixes ch of skew-Hermitian connections."""
    gen = RandomGen(1012, BOUNDS)
    for _ in range(50):
        base = gen.base_space(min_dim=1)
        conn = gen.skew_hermitian_connection(base)
        assert hermitian_check(conn)
        ch = conn.chern_character()
        assert ch.conjugate() == ch


def test_13_cli_corpus_and_suite(capsys):
    """The scenario corpus parses, runs and round-trips; the full suite
    with seed 42 exits 0 in under 120 s, with its pinned text report.
    12-suite.sb, the one corpus report without a golden, is pinned here."""
    from structbundle.dsl import parse_scenario
    corpus = sorted((pathlib.Path(__file__).parent.parent
                     / "scenarios").glob("*.sb"))
    assert len(corpus) >= 10
    for path in corpus:
        scenario = parse_scenario(path.read_text())
        assert parse_scenario(scenario.render()) == scenario
        capsys.readouterr()
        code = cli.main(["run", str(path)])
        assert code == (1 if "fail" in path.name else 0)
        if path.name == "12-suite.sb":
            report = capsys.readouterr().out.encode("utf-8")
            assert hashlib.sha256(report).hexdigest() == (
                "16d4f2f53161a4811ed4f58f1a23baf85332b28e3d2949760f067ea8f9c2f94d")
    capsys.readouterr()
    t0 = time.time()
    assert cli.main(["suite", "--seed", "42"]) == 0
    assert time.time() - t0 < 120.0
    report = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(report).hexdigest() == (
        "ca3797f85457e5f1fc735476fd65699a762c1ccdc60e1ef778f1aee69f72b849")
