"""Group oracle and group ring laws."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import augmentation_ideal_membership, ring_add, ring_mul
from pdpairs.groups import (
    FiniteTable,
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    GroupError,
    InfiniteCyclic,
    TrivialGroup,
    RingElem,
)


MODELS = [
    TrivialGroup(),
    InfiniteCyclic("t"),
    InfiniteCyclic("t", omega_gen=1),
    FreeAbelian(["x", "y"]),
    FreeGroup(["a", "b"]),
    FiniteTable.cyclic(2, "s"),
    FiniteTable.cyclic(2, "s", omega_gen=1),
    FiniteTable.cyclic(3, "g"),
    FiniteTable.cyclic(5, "g"),
    FiniteTable.symmetric3(),
    FreeProduct(InfiniteCyclic("t"), InfiniteCyclic("u")),
    FreeProduct(FiniteTable.cyclic(2, "s"), FiniteTable.cyclic(3, "g")),
]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_group_laws_on_samples(model):
    elems = model.sample_elements(200, radius=3, seed=5)
    e = model.identity()
    for i in range(0, len(elems) - 2, 3):
        a, b, c = elems[i], elems[i + 1], elems[i + 2]
        assert model.mul(model.mul(a, b), c) == model.mul(a, model.mul(b, c))
    for a in elems:
        assert model.mul(a, e) == a
        assert model.mul(e, a) == a
        assert model.mul(a, model.inv(a)) == e
        assert model.mul(model.inv(a), a) == e


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_omega_is_homomorphism(model):
    elems = model.sample_elements(60, radius=3, seed=9)
    for i in range(0, len(elems) - 1, 2):
        a, b = elems[i], elems[i + 1]
        assert model.omega(model.mul(a, b)) == (model.omega(a) ^ model.omega(b))


def test_finite_table_rejects_broken_rows():
    with pytest.raises(GroupError):
        FiniteTable([[0, 1], [1, 1]], ["1", "s"])


@pytest.mark.parametrize("generators", [[1], None], ids=["gen-1", "all"])
def test_finite_table_rejects_non_associative_intercalate(generators):
    # Z/20 with the intercalate on {1, 11} swapped: still a Latin square
    # with identity 0, but (1 * 1) * 10 = 2 while 1 * (1 * 10) = 12
    table = [[(i + j) % 20 for j in range(20)] for i in range(20)]
    table[1][1] = table[11][11] = 12
    table[1][11] = table[11][1] = 2
    with pytest.raises(GroupError):
        FiniteTable(table, [str(i) for i in range(20)],
                    generators=generators)


@pytest.mark.parametrize("generators", [[-1], [3], [0]])
def test_finite_table_rejects_bad_generators(generators):
    # -1 would index the table from the end; [0] generates only {0}
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(GroupError, match="generat"):
        FiniteTable(table, ["1", "g", "g^2"], generators=generators)


def test_finite_table_rejects_bad_omega():
    with pytest.raises(GroupError):
        FiniteTable.cyclic(3, "g", omega_gen=1)


def test_free_product_reduction_idempotent():
    model = FreeProduct(FiniteTable.cyclic(2, "s"), FiniteTable.cyclic(3, "g"))
    s = ((0, 1),)
    g = ((1, 1),)
    w = model.mul(model.mul(s, g), model.mul(model.inv(g), s))
    assert w == ()
    # adjacent same-side letters merge
    gg = model.mul(g, g)
    assert gg == ((1, 2),)
    for side, key in model.mul(gg, model.mul(s, g)):
        child = model.children[side]
        assert key != child.identity()


def test_ring_examples_z3():
    g3 = FiniteTable.cyclic(3, "t")
    one = g3.one()
    t = g3.unit(1)
    t2 = g3.unit(2)
    assert ring_add(one + t, t + t2) == one + 2 * t + t2


def test_ring_add_inverse_and_merge():
    m = InfiniteCyclic("t")
    g = m.unit(1, 2)
    assert (g + (-g)).is_zero()
    h = m.unit(2)
    assert (m.unit(1) + h) + h == m.unit(1) + 2 * h


def test_ring_mul_examples():
    s2 = FiniteTable.cyclic(2, "s")
    s = s2.unit(1)
    assert (s2.one() + s) * (s2.one() - s) == s2.zero()
    z = InfiniteCyclic("t")
    t = z.unit(1)
    tinv = z.unit(-1)
    assert (t - 1) * tinv == z.one() - tinv
    a = z.unit(2, 3) - 1
    assert z.one() * a == a


def test_model_mismatch_raises():
    with pytest.raises(GroupError):
        InfiniteCyclic("t").one() + InfiniteCyclic("u").one()


def test_bar_formula():
    z = InfiniteCyclic("t")
    assert z.unit(1).bar() == z.unit(-1)
    zw = InfiniteCyclic("t", omega_gen=1)
    assert zw.unit(1).bar() == zw.unit(-1, -1)
    s2 = FiniteTable.cyclic(2, "s", omega_gen=1)
    assert s2.unit(1).bar() == s2.unit(1, -1)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_bar_is_involution_and_antihom(model):
    elems = model.sample_elements(40, radius=2, seed=3)
    a = model.unit(elems[0]) - 2 * model.unit(elems[1])
    b = model.unit(elems[2], 3) + model.unit(elems[3])
    assert a.bar().bar() == a
    assert (a * b).bar() == b.bar() * a.bar()


@pytest.mark.parametrize("model", MODELS, ids=lambda m: repr(m))
def test_aug_bar_on_generators(model):
    for l in model.letters()[:6]:
        assert model.unit(l).bar().aug() == (-1) ** model.omega(l)


def test_aug_examples():
    z = InfiniteCyclic("t")
    assert (z.unit(1) - z.unit(2)).aug() == 0
    assert (2 * z.unit(1) + 3 * z.unit(5)).aug() == 5
    assert augmentation_ideal_membership(z.unit(1) - 1)
    assert not augmentation_ideal_membership(z.one())
    r = z.unit(3, 2) - z.unit(-1, 5)
    assert augmentation_ideal_membership((z.unit(1) - 1) * r)


@given(coeffs=st.lists(st.tuples(st.integers(-4, 4), st.integers(-3, 3)),
                       min_size=0, max_size=5))
@settings(max_examples=60, deadline=None)
def test_aug_is_ring_hom(coeffs):
    z = InfiniteCyclic("t")
    a = z.zero()
    b = z.one()
    for c, e in coeffs:
        a = a + z.unit(e, c)
        b = b + z.unit(-e, c + 1)
    assert ring_mul(a, b).aug() == a.aug() * b.aug()


@given(st.integers(0, 3))
@settings(max_examples=10, deadline=None)
def test_ball_is_closed_under_shrinking(radius):
    model = FreeProduct(FiniteTable.cyclic(2, "s"), InfiniteCyclic("t"))
    ball = model.ball(radius)
    assert model.identity() in ball
    smaller = model.ball(max(0, radius - 1))
    assert set(smaller) <= set(ball)
    assert len(set(ball)) == len(ball)


def test_free_group_normal_form_never_has_cancelling_neighbours():
    model = FreeGroup(["a", "b"])
    for w in model.ball(4):
        for (i1, e1), (i2, e2) in zip(w, w[1:]):
            assert not (i1 == i2 and e1 == -e2)


def test_free_product_words_alternate():
    model = FreeProduct(FiniteTable.cyclic(2, "s"), FiniteTable.cyclic(3, "g"))
    for w in model.ball(4):
        for (s1, _), (s2, _) in zip(w, w[1:]):
            assert s1 != s2
