import cmath
import math

import numpy as np
import pytest

from structbundle.connections import Connection
from structbundle.forms import MatrixForm
from structbundle.functions import BaseSpace, ChartFunction
from structbundle.holonomy import (Loop, holonomy_defect, is_trivial_holonomy,
                                   parallel_transport)
from structbundle.scalars import TauScalar


def circle_connection(k):
    b = BaseSpace(0, 1)
    w = MatrixForm.scalar(b, ChartFunction.one(b).scale(
        TauScalar.rational(0, k)), (0,))
    return Connection(b, 1, w)


def test_integer_winding_is_trivial():
    for k in (-2, 0, 1, 3):
        assert is_trivial_holonomy(circle_connection(k))


def test_fractional_winding_is_detected():
    from fractions import Fraction
    assert not is_trivial_holonomy(circle_connection(Fraction(1, 2)))


def test_transport_matches_exponential():
    from fractions import Fraction
    conn = circle_connection(Fraction(1, 3))
    S = parallel_transport(conn, Loop(conn.base, 0), 2048)
    assert abs(S[0, 0] - cmath.exp(-2j * math.pi / 3)) < 1e-10


def test_loop_validation():
    b = BaseSpace(1, 1)
    with pytest.raises(ValueError):
        Loop(b, 1)
    with pytest.raises(ValueError):
        Loop(b, 0, (0.0,))


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
def test_tolerance_must_be_positive(tol):
    with pytest.raises(ValueError):
        is_trivial_holonomy(circle_connection(0), tol)


def test_chart_only_connection_has_no_loops():
    b = BaseSpace(2, 0)
    conn = Connection.flat(b, 2)
    assert holonomy_defect(conn) == 0.0


def test_defect_scale():
    from fractions import Fraction
    conn = circle_connection(Fraction(1, 2))
    # holonomy exp(-pi i) = -1, distance 2 from the identity
    assert abs(holonomy_defect(conn) - 2.0) < 1e-6


def test_transport_is_unitary_for_skew_connection():
    b = BaseSpace(0, 1)
    from structbundle.randgen import RandomGen
    gen = RandomGen(83)
    conn = gen.skew_hermitian_connection(b, 2)
    S = parallel_transport(conn, Loop(b, 0), 8192)
    assert np.max(np.abs(S @ S.conj().T - np.eye(2))) < 1e-7


def _eval_term_by_term(f, xs, thetas):
    """ChartFunction evaluation, every coefficient converted per call."""
    total = 0j
    for (alpha, k), ts in f.terms.items():
        val = ts.to_complex()
        for x, e in zip(xs, alpha):
            val *= x**e
        phase = sum(kk * th for kk, th in zip(k, thetas))
        val *= cmath.exp(1j * phase)
        total += val
    return total


def _matrix_term_by_term(form, mono, loop, u):
    xs, thetas = loop.point(u)
    M = np.zeros((form.rows, form.cols), dtype=complex)
    for (r, c, m), f in form.entries.items():
        if m == mono:
            M[r, c] = _eval_term_by_term(f, xs, thetas)
    return M


def test_numeric_field_is_bitwise_term_by_term_evaluation():
    from structbundle.holonomy import _numeric_field
    from structbundle.randgen import RandomGen
    gen = RandomGen(67)
    for _ in range(12):
        base = BaseSpace(gen.rng.randint(0, 2), gen.rng.randint(1, 2))
        n = gen.rng.randint(1, 3)
        conn = gen.connection(base, n)
        g = gen.gauge(base, n)
        j = gen.rng.randrange(base.torus_dim)
        bp = tuple(gen.rng.uniform(-2, 2) for _ in range(base.dim))
        loop = Loop(base, j, bp)
        mono = (base.chart_dim + j,)
        A = _numeric_field(conn.A, mono, loop)
        G = _numeric_field(g.g, (), loop)
        # repeated calls at changing u: the field must not keep a stale angle
        for u in (0.0, 1.3, 0.0, 2 * math.pi, 4.1, 4.1):
            assert np.array_equal(A(u), _matrix_term_by_term(conn.A, mono, loop, u))
            assert np.array_equal(G(u), _matrix_term_by_term(g.g, (), loop, u))

        # and RK4 over the field repeats the term-by-term stages exactly
        def stage(v):
            return -_matrix_term_by_term(conn.A, mono, loop, v)

        S = np.eye(n, dtype=complex)
        h = 2 * math.pi / 16
        for m in range(16):
            u = m * h
            k1 = stage(u) @ S
            k2 = stage(u + h / 2) @ (S + h / 2 * k1)
            k3 = stage(u + h / 2) @ (S + h / 2 * k2)
            k4 = stage(u + h) @ (S + h * k3)
            S = S + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        assert np.array_equal(parallel_transport(conn, loop, 16), S)


def test_determinant_matches_cs_hat_periods():
    """For a flat connection the degree-1 part of cs_hat is (1/tau) tr A,
    so det(transport around theta_j) = exp(-2 pi i p_j), p_j the period
    of cs_hat over the cycle theta_j.  Checked on 36 seeded constant
    diagonal connections on R^0-1 x T^1-3 (ranks 1-3, random basepoints)
    with 1024 RK4 steps, to 1e-5 relative (the worst seen is 4.3e-7 over
    67 loops); gauge-flat bundles have integer p_j, not all zero."""
    from structbundle.connections import gauge_apply
    from structbundle.forms import Cycle
    from structbundle.randgen import RandomGen
    from structbundle.struct_khat import cs_hat
    gen = RandomGen(89)
    worst = 0.0
    for _ in range(36):
        base = BaseSpace(gen.rng.randint(0, 1), gen.rng.randint(1, 3))
        n = gen.rng.randint(1, 3)
        A = MatrixForm.zero(base, n, n)
        for r in range(n):
            for k in range(base.dim):
                c = ChartFunction.one(base).scale(
                    TauScalar({0: gen.gauss_rational()}))
                A = A + MatrixForm(base, n, n, {(r, r, (k,)): c})
        conn = Connection(base, n, A)
        rep = cs_hat(conn).rep
        bp = tuple(gen.rng.uniform(-2, 2) for _ in range(base.dim))
        for j in range(base.torus_dim):
            p = rep.period(Cycle(base, (j,))).to_complex()
            det = np.linalg.det(parallel_transport(conn, Loop(base, j, bp), 1024))
            expected = cmath.exp(-2j * math.pi * p)
            worst = max(worst, abs(det - expected) / abs(expected))
    assert worst < 1e-5, worst
    windings = []
    for _ in range(6):
        base = BaseSpace(gen.rng.randint(0, 1), gen.rng.randint(1, 2))
        n = gen.rng.randint(1, 2)
        g = gen.gauge(base, n)
        rep = cs_hat(gauge_apply(g, Connection.flat(base, n))).rep
        windings += [rep.period(Cycle(base, (j,))) for j in range(base.torus_dim)]
    assert all(p.is_integer() for p in windings)
    assert any(p.as_integer() for p in windings)
