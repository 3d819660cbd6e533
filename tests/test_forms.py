from fractions import Fraction

import pytest

from structbundle.forms import (Cycle, MatrixForm, OddClass, all_cycles,
                                merge_monomials)
from structbundle.functions import BaseSpace, ChartFunction
from structbundle.randgen import RandomGen
from structbundle.scalars import QI_I, TauScalar


def dx(base, i):
    return MatrixForm.scalar(base, ChartFunction.one(base), (i,))


def test_merge_monomials_signs():
    assert merge_monomials((0,), (1,)) == (1, (0, 1))
    assert merge_monomials((1,), (0,)) == (-1, (0, 1))
    assert merge_monomials((0,), (0,)) == (0, None)
    sign, mono = merge_monomials((0, 2), (1, 3))
    assert mono == (0, 1, 2, 3) and sign == -1


def test_wedge_anticommutes_in_degree_one():
    b = BaseSpace(3, 0)
    w = dx(b, 0)
    e = dx(b, 2)
    assert w.wedge(e) == -(e.wedge(w))
    assert not w.wedge(w)


def test_d_on_coordinates():
    b = BaseSpace(2, 0)
    x1 = MatrixForm.scalar(b, ChartFunction.coord(b, 0), ())
    assert x1.d() == dx(b, 0)
    assert not x1.d().d()


def test_poincare_homotopy_inverts_d_on_chart():
    b = BaseSpace(3, 0)
    gen = RandomGen(3)
    for _ in range(50):
        w = gen.scalar_form(b)
        assert w.full_homotopy().d() + w.d().full_homotopy() \
            + w.harmonic_part() == w


def test_harmonic_part_is_constant_torus_form():
    b = BaseSpace(1, 1)
    f = ChartFunction.coord(b, 0) + ChartFunction.one(b)
    w = MatrixForm.scalar(b, f, (1,))
    h = w.harmonic_part()
    assert h == MatrixForm.scalar(b, ChartFunction.one(b), (1,))


def test_period_of_dtheta():
    b = BaseSpace(0, 2)
    w = MatrixForm.scalar(b, ChartFunction.one(b), (0,))
    # integral of dtheta over the first circle is 2 pi = -i tau
    assert w.period(Cycle(b, (0,))) == TauScalar.tau_power(1, QI_I.conjugate())
    assert w.period(Cycle(b, (1,))) == TauScalar.zero()


def test_volume_period_of_torus():
    b = BaseSpace(0, 2)
    vol = MatrixForm.scalar(b, ChartFunction.one(b), (0, 1))
    per = vol.period(Cycle(b, (0, 1)))
    # (2 pi)^2 = (-i tau)^2 = -tau^2
    assert per == TauScalar.tau_power(2).scale(Fraction(-1))


def test_exactness_detects_winding():
    b = BaseSpace(0, 1)
    closed_not_exact = MatrixForm.scalar(b, ChartFunction.one(b), (0,))
    assert not closed_not_exact.d()
    assert not closed_not_exact.is_exact()
    exact = MatrixForm.scalar(b, ChartFunction.fourier(b, (1,)), (0,))
    assert exact.is_exact()


def test_normal_form_separates_classes():
    gen = RandomGen(9)
    for _ in range(50):
        base = gen.base_space(min_dim=1)
        w = gen.scalar_form(base)
        e = gen.scalar_form(base)
        assert (w + e.d()).normal_form() == w.normal_form()


def test_all_cycles_parity():
    b = BaseSpace(1, 3)
    odd = list(all_cycles(b, parity=1))
    assert sorted(len(c.torus_subset) for c in odd) == [1, 1, 1, 3]


def test_odd_class_rejects_even_parts():
    b = BaseSpace(2, 0)
    with pytest.raises(ValueError):
        OddClass.of(MatrixForm.scalar(b, ChartFunction.one(b), ()))


def test_trace_and_transpose():
    b = BaseSpace(1, 0)
    m = MatrixForm(b, 2, 2, {(0, 1, (0,)): ChartFunction.one(b),
                             (1, 1, ()): ChartFunction.coord(b, 0)})
    assert m.trace() == MatrixForm.scalar(b, ChartFunction.coord(b, 0), ())
    assert m.transpose().transpose() == m


def test_mod_exact_calculus_retracts_once():
    # the torus homotopy and the harmonic part act on the retraction
    # themselves, whatever chart content the form carries
    gen = RandomGen(61)
    with_chart = 0
    for _ in range(50):
        b = BaseSpace(gen.rng.randint(1, 2), gen.rng.randint(1, 2))
        w = gen.scalar_form(b, nterms=3)
        r = w.retract()
        with_chart += r != w
        assert w.torus_homotopy() == r.torus_homotopy()
        modes_zero = {key: ChartFunction(b, {tk: ts for tk, ts in f.terms.items()
                                             if not any(tk[1])})
                      for key, f in r.entries.items()}
        assert w.harmonic_part() == MatrixForm(b, 1, 1, modes_zero)
    assert with_chart > 25
