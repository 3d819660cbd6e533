from fractions import Fraction

import pytest

from structbundle.connections import (Connection, GaugeTransform, Idempotent,
                                      direct_sum, gauge_apply, grassmann_sum,
                                      hermitian_check, tensor)
from structbundle.forms import MatrixForm
from structbundle.functions import BaseSpace, ChartFunction, cos_theta, sin_theta
from structbundle.randgen import RandomGen
from structbundle.scalars import TauScalar


def test_flat_has_zero_curvature():
    b = BaseSpace(2, 1)
    assert not Connection.flat(b, 3).curvature()


def test_line_chern_character():
    b = BaseSpace(2, 0)
    w = MatrixForm.scalar(b, ChartFunction.coord(b, 0), (1,))
    ch = Connection.line(w).chern_character()
    expected = (MatrixForm.scalar(b, ChartFunction.one(b), ())
                + MatrixForm.scalar(b, ChartFunction.one(b), (0, 1))
                .scale(TauScalar.tau_power(-1)))
    assert ch == expected


def test_chern_character_is_closed():
    gen = RandomGen(17)
    for _ in range(50):
        base = gen.base_space(min_dim=1)
        conn = gen.connection(base)
        assert not conn.chern_character().d()


def test_connection_rejects_wrong_degree():
    b = BaseSpace(2, 0)
    bad = MatrixForm.scalar(b, ChartFunction.one(b), (0, 1))
    with pytest.raises(ValueError):
        Connection(b, 1, bad)


def test_gauge_stores_exact_inverse():
    b = BaseSpace(0, 1)
    g = GaugeTransform.fourier(b, (2, -1))
    prod = g.g.wedge(g.g_inv)
    assert prod == MatrixForm.identity(b, 2)


def test_unipotent_gauge_inverse():
    b = BaseSpace(1, 0)
    f = ChartFunction.coord(b, 0)
    N = MatrixForm.from_function_matrix(b, 3, 3, {(0, 1): f, (1, 2): f})
    g = GaugeTransform.unipotent(b, N)
    assert g.g_inv.wedge(g.g) == MatrixForm.identity(b, 3)


def test_gauge_action_composes():
    gen = RandomGen(23)
    for _ in range(30):
        base = gen.base_space(min_dim=1)
        conn = gen.connection(base, 2)
        g = gen.gauge(base, 2)
        h = gen.gauge(base, 2)
        assert gauge_apply(h, gauge_apply(g, conn)) == \
            gauge_apply(g.compose(h), conn)


def test_idempotent_complement():
    b = BaseSpace(1, 0)
    f = ChartFunction.coord(b, 0)
    P = Idempotent(b, 2, MatrixForm.from_function_matrix(
        b, 2, 2, {(0, 0): ChartFunction.one(b), (0, 1): f}))
    Q = P.complement()
    assert not P.P.wedge(Q.P)
    assert P.P + Q.P == MatrixForm.identity(b, 2)


def test_fourier_projector_is_idempotent():
    b = BaseSpace(0, 1)
    c, s = cos_theta(b, 0), sin_theta(b, 0)
    P = MatrixForm.from_function_matrix(
        b, 2, 2, {(0, 0): c * c, (0, 1): c * s, (1, 0): s * c, (1, 1): s * s})
    idem = Idempotent(b, 2, P)
    assert grassmann_sum(idem).rank == 2


def test_hermitian_check():
    gen = RandomGen(31)
    base = BaseSpace(1, 1)
    conn = gen.skew_hermitian_connection(base, 2)
    assert hermitian_check(conn)
    real = Connection(base, 1, MatrixForm.scalar(
        base, ChartFunction.coord(base, 0), (0,)))
    assert not hermitian_check(real)


def test_sum_and_tensor_ranks():
    b = BaseSpace(1, 0)
    gen = RandomGen(37)
    c1 = gen.connection(b, 2)
    c2 = gen.connection(b, 3)
    assert direct_sum(c1, c2).rank == 5
    assert tensor(c1, c2).rank == 6
