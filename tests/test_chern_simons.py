from fractions import Fraction

import pytest

import structbundle
from structbundle.chern_simons import (ConnectionPath, cs_class, cs_path,
                                       cs_via_cylinder, equivalent)
from structbundle.connections import Connection, GaugeTransform, gauge_apply
from structbundle.forms import Cycle, MatrixForm, OddClass
from structbundle.functions import BaseSpace, ChartFunction
from structbundle.randgen import Bounds, RandomGen
from structbundle.scalars import TauScalar


def circle_connection(k):
    b = BaseSpace(0, 1)
    w = MatrixForm.scalar(b, ChartFunction.one(b).scale(
        TauScalar.rational(0, k)), (0,))
    return Connection(b, 1, w)


def test_high_degree_paths_match_cylinder():
    # t-degrees 3 and 4 reach integral weights k/(k+l) with k > 2
    gen = RandomGen(59)
    for _ in range(12):
        base = gen.base_space(min_dim=2)
        n = gen.rng.randint(1, 2)
        coeffs = tuple(gen.matrix_one_form(base, n)
                       for _ in range(gen.rng.randint(4, 5)))
        path = ConnectionPath(base, n, coeffs)
        cs = cs_path(path)
        assert cs == cs_via_cylinder(path)
        assert cs.d() == (path.at1().chern_character()
                          - path.at0().chern_character())


def test_public_names_resolve():
    for name in structbundle.__all__:
        assert hasattr(structbundle, name), name


def test_transgression_identity():
    gen = RandomGen(41)
    for _ in range(40):
        base = gen.base_space(min_dim=1)
        c0 = gen.connection(base, 2)
        c1 = gen.connection(base, 2)
        cs = cs_path(ConnectionPath.straight(c0, c1))
        assert cs.d() == c1.chern_character() - c0.chern_character()


def test_cs_of_constant_path_is_zero():
    b = BaseSpace(2, 0)
    gen = RandomGen(43)
    c = gen.connection(b, 2)
    assert not cs_path(ConnectionPath.straight(c, c))


def test_winding_period():
    flat = circle_connection(0)
    for k in (-2, 1, 3):
        cs = cs_path(ConnectionPath.straight(flat, circle_connection(k)))
        assert cs.period(Cycle(flat.base, (0,))) == TauScalar.rational(k)


def test_equivalence_relation():
    flat = circle_connection(0)
    assert equivalent(flat, flat)
    assert not equivalent(flat, circle_connection(1))
    # exact perturbations stay equivalent
    b = flat.base
    w = MatrixForm.scalar(b, ChartFunction.fourier(b, (1,)), (0,))
    assert equivalent(flat, Connection(b, 1, w.scale(TauScalar.rational(0, 1))))


def test_cylinder_oracle_agrees():
    gen = RandomGen(47)
    for _ in range(30):
        base = gen.base_space(min_dim=1)
        n = gen.rng.randint(1, 2)
        coeffs = tuple(gen.matrix_one_form(base, n)
                       for _ in range(gen.rng.randint(1, 3)))
        path = ConnectionPath(base, n, coeffs)
        assert cs_via_cylinder(path) == cs_path(path)


def test_class_addition_matches_composition():
    gen = RandomGen(53)
    base = BaseSpace(1, 1)
    a, b, c = (gen.connection(base, 2) for _ in range(3))
    assert cs_class(a, b) + cs_class(b, c) == cs_class(a, c)


def test_class_sums_stay_normal():
    # the normal form is linear, so OddClass sums skip normalising again
    gen = RandomGen(61, Bounds(max_coords=3, max_rank=2))
    for _ in range(30):
        base = gen.base_space()
        n = gen.rng.randint(1, 2)
        c0, c1, c2 = (gen.connection(base, n) for _ in range(3))
        if base.torus_dim:
            # a constant dtheta term gives the classes a harmonic part
            const = ChartFunction.constant(base, gen.tau_scalar(1))
            c2 = Connection(base, n, c2.A + MatrixForm(
                base, n, n, {(i, i, (base.chart_dim,)): const for i in range(n)}))
        a, b = cs_class(c0, c1), cs_class(c1, c2)
        assert a + b == OddClass.of(a.rep + b.rep)
        assert (a - b).rep == (a - b).rep.normal_form()


def test_gauge_orbit_class_matches_winding_form():
    b = BaseSpace(0, 1)
    g = GaugeTransform.fourier(b, (1, -1))
    flat = Connection.flat(b, 2)
    cls = cs_class(flat, gauge_apply(g, flat))
    # windings 1 and -1 cancel in the trace
    assert cls.rep.is_exact()


def test_path_rejects_rank_mismatch():
    b = BaseSpace(1, 0)
    with pytest.raises(ValueError):
        ConnectionPath.straight(Connection.flat(b, 1), Connection.flat(b, 2))
