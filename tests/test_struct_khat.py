import collections.abc

import pytest

from structbundle.chern_simons import equivalent
from structbundle.connections import (Connection, GaugeTransform, Idempotent,
                                      direct_sum, gauge_apply, grassmann_sum,
                                      tensor)
from structbundle.forms import MatrixForm, OddClass
from structbundle.functions import BaseSpace, ChartFunction
from structbundle.randgen import RandomGen
from structbundle.scalars import TauScalar
from structbundle.struct_khat import (KHatElement, ch_khat, cs_hat, delta,
                                      i_map, khat_add, khat_sub, khat_tensor,
                                      realize_even_form, realize_odd_form)


def test_cs_hat_of_flat_is_zero():
    assert not cs_hat(Connection.flat(BaseSpace(2, 1), 3))
    circle = BaseSpace(0, 1)
    dtheta = MatrixForm.scalar(circle, ChartFunction.one(circle), (0,))
    assert cs_hat(Connection.line(dtheta))


def test_realize_simple_one_form():
    b = BaseSpace(2, 0)
    rho = MatrixForm.scalar(b, ChartFunction.coord(b, 1), (0,))
    v = realize_odd_form(rho)
    assert v.rank >= 1
    assert cs_hat(v).rep == rho.normal_form()


def test_realize_degree_three():
    b = BaseSpace(4, 0)
    # non-closed degree-3 target: x4 dx1^dx2^dx3
    rho = MatrixForm.scalar(b, ChartFunction.coord(b, 3), (0, 1, 2))
    v = realize_odd_form(rho)
    assert cs_hat(v).rep == rho.normal_form()


def test_realize_rejects_even_and_torus():
    b = BaseSpace(2, 0)
    even = MatrixForm.scalar(b, ChartFunction.one(b), (0, 1))
    with pytest.raises(ValueError):
        realize_odd_form(even)
    bt = BaseSpace(1, 1)
    w = MatrixForm.scalar(bt, ChartFunction.one(bt), (0,))
    with pytest.raises(ValueError):
        realize_odd_form(w)


def test_khat_group_operations():
    b = BaseSpace(1, 0)
    gen = RandomGen(61)
    v = gen.connection(b, 2)
    w = gen.connection(b, 1)
    mu = KHatElement.of(v)
    nu = khat_sub(KHatElement.of(w), KHatElement.of(v))
    assert ch_khat(khat_add(mu, nu)) == ch_khat(mu) + ch_khat(nu)
    assert ch_khat(khat_sub(mu, nu)) == ch_khat(mu) - ch_khat(nu)
    # adding v - v leaves the character unchanged
    cancel = khat_sub(KHatElement.of(v), KHatElement.of(v))
    assert ch_khat(khat_add(mu, cancel)) == ch_khat(mu)


def test_khat_tensor_pairs_formula():
    b = BaseSpace(1, 1)
    gen = RandomGen(67)
    v = gen.connection(b, 1)
    w = gen.connection(b, 1)
    f1 = Connection.flat(b, 1)
    mu = KHatElement((v,), (f1,))
    nu = KHatElement((w,), (f1,))
    prod = khat_tensor(mu, nu)
    assert ch_khat(prod) == ch_khat(mu).wedge(ch_khat(nu))


def test_delta_forgets_connections():
    b = BaseSpace(1, 0)
    gen = RandomGen(71)
    v = gen.connection(b, 2)
    flat = Connection.flat(b, 2)
    assert delta(KHatElement((v,), (flat,))) == 0
    assert delta(KHatElement((flat,), (v, flat))) == -2


def test_i_map_lands_in_delta_kernel():
    b = BaseSpace(3, 0)
    gen = RandomGen(73)
    theta = gen.odd_target(b)
    mu = i_map(theta)
    assert delta(mu) == 0
    assert ch_khat(mu) == theta.d()


def test_realize_even_form_checks_decomposition():
    b = BaseSpace(2, 0)
    gen = RandomGen(79)
    v = gen.connection(b, 1)
    theta = MatrixForm.scalar(b, ChartFunction.coord(b, 0), (1,))
    mu = v.chern_character() + theta.d()
    el = realize_even_form(mu, v, theta)
    assert ch_khat(el) == mu
    with pytest.raises(ValueError):
        realize_even_form(mu + mu, v, theta)


def test_direct_sum_keeps_frame():
    b = BaseSpace(1, 0)
    s = direct_sum(Connection.flat(b, 1), Connection.flat(b, 2))
    assert s.rank == 3 and s == Connection.flat(b, 3)


def test_every_bundle_is_framed():
    """Bundles from idempotents, and sums and tensors that contain one,
    have a cs_hat like every other bundle; cs_hat is additive; and
    (v) - (flat of v's rank) has no even period and zero delta, since
    K^0 is Z here."""
    curved_idempotent_bundles = 0
    for seed in range(30):
        gen = RandomGen(1000 + seed)
        base = gen.base_space(min_dim=1)
        if seed % 2 == 0:
            v = grassmann_sum(gen.idempotent(base))
        else:
            v = gen.connection(base, gen.rng.randint(1, 3))
        w = grassmann_sum(gen.idempotent(base))
        curved_idempotent_bundles += bool(w.A)
        assert isinstance(cs_hat(v), OddClass)
        assert cs_hat(direct_sum(v, w)) == cs_hat(v) + cs_hat(w)
        assert isinstance(cs_hat(tensor(v, w)), OddClass)
        for u in (v, w):
            mu = KHatElement((u,), (Connection.flat(base, u.rank),))
            assert not ch_khat(mu).harmonic_part()
            assert delta(mu) == 0
    assert curved_idempotent_bundles >= 10


def _class_pairs(gen: RandomGen):
    """Five pairs of equal rank on R^a x T^b with b >= 1: flat against a
    Grassmann compression, a connection against its images under a
    permutation and a unipotent gauge (neither winds), a random pair,
    and a pair that differs by a constant central i k dtheta term, which
    leaves ch unchanged and moves a period by k."""
    base = BaseSpace(gen.rng.randint(0, 1), gen.rng.randint(1, 2))
    P = gen.idempotent(base)
    yield Connection.flat(base, P.size), grassmann_sum(P)
    n = gen.rng.randint(1, 2)
    c = gen.connection(base, n)
    perm = list(range(n))
    gen.rng.shuffle(perm)
    yield c, gauge_apply(GaugeTransform.permutation(base, tuple(perm)), c)
    M = MatrixForm.from_function_matrix(
        base, n, n, {(r, col): gen.chart_function(base, 1)
                     for r in range(n) for col in range(r + 1, n)})
    yield c, gauge_apply(GaugeTransform.unipotent(base, M), c)
    yield c, gen.connection(base, n)
    j = base.chart_dim + gen.rng.randrange(base.torus_dim)
    k = gen.rng.choice([-2, -1, 1, 2])
    central = MatrixForm.const_scalar(base, TauScalar.rational(0, k), (j,))
    yield c, Connection(base, n, c.A + MatrixForm.identity(base, n).kron(central))


def test_equality_of_structured_bundles_is_equivalent():
    """Two connections of one rank stand for the same structured bundle
    exactly when cs_hat agrees on them; equivalent pairs need not be ==
    as connections, so == is not the equality of structured bundles."""
    verdicts = {True: 0, False: 0}
    equivalent_but_not_equal = 0
    for seed in range(40):
        for c0, c1 in _class_pairs(RandomGen(2000 + seed)):
            same = equivalent(c0, c1)
            assert same == (cs_hat(c0) == cs_hat(c1)), seed
            verdicts[same] += 1
            equivalent_but_not_equal += same and c0 != c1
    assert verdicts[True] >= 30 and verdicts[False] >= 30, verdicts
    assert equivalent_but_not_equal >= 30


@pytest.mark.parametrize("name", ["Connection", "GaugeTransform", "Idempotent",
                                  "KHatElement"])
def test_values_holding_a_form_are_unhashable(name):
    b = BaseSpace(0, 1)
    make = {
        "Connection": lambda: Connection.flat(b, 1),
        "GaugeTransform": lambda: GaugeTransform.fourier(b, (1,)),
        "Idempotent": lambda: Idempotent(b, 1, MatrixForm.identity(b, 1)),
        "KHatElement": lambda: KHatElement.of(Connection.flat(b, 1)),
    }
    x = make[name]()
    assert type(x).__name__ == name
    assert not isinstance(x, collections.abc.Hashable)
    # the error names the class itself, not the MatrixForm it holds
    with pytest.raises(TypeError, match=f"unhashable type: '{name}'"):
        hash(x)
