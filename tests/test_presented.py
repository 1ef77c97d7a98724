"""Presented modules, cokernel functors, derived equivalence."""

import random

import pytest

from pdpairs.chains import LambdaComplex, LambdaMatrix, compose
from pdpairs.groups import (
    FiniteTable,
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    InfiniteCyclic,
    TrivialGroup,
)
from pdpairs.presented import (
    F_functor,
    G_functor,
    ModuleError,
    ModuleMorphism,
    PresentedModule,
    augmentation_ideal,
    augmentation_ideal_generators,
    derived_equivalence,
    express_in_ideal,
    morphism_null_in_derived,
    search_factorization,
    verify_factorization,
)

from oracles import (
    augmentation_ideal_finite_reference,
    augmentation_ideal_reference,
    spans_reference,
    try_middle_reference,
)


def relative_solid_torus():
    """The quotient complex C(X, dX) of the solid torus: m in deg 2, E in 3."""
    z = InfiniteCyclic("t")
    t = z.unit(1)
    d3 = LambdaMatrix.from_rows(z, [[t - 1]])
    return LambdaComplex(z, {2: 1, 3: 1}, {3: d3}, check=False)


def test_G_functor_zero_boundaries_free():
    z = InfiniteCyclic("t")
    c = LambdaComplex(z, {0: 2, 1: 1}, {}, check=False)
    g = G_functor(c, 0)
    assert g.ngens == 2 and g.relations.cols == 0


def test_F_functor_solid_torus_relative():
    c = relative_solid_torus()
    f2 = F_functor(c, 2)
    assert f2.ngens == 1 and f2.relations.cols == 0  # free of rank one
    f3 = F_functor(c, 3)
    # relations = barT(d3) = t^-1 - 1
    assert f3.ngens == 1 and f3.relations.cols == 1
    assert f3.relations.data[0][0] == c.model.unit(-1) - 1


def test_F_functor_vanishes_where_no_cochains():
    z = TrivialGroup()
    c = LambdaComplex(z, {3: 1}, {}, check=False)
    assert F_functor(c, 2).ngens == 0


def test_augmentation_ideal_infinite_cyclic_free():
    z = InfiniteCyclic("t")
    ideal = augmentation_ideal(z)
    assert ideal.ngens == 1 and ideal.relations.cols == 0
    gens = augmentation_ideal_generators(z)
    assert gens[0] == z.unit(1) - 1


def test_augmentation_ideal_cyclic_p():
    g3 = FiniteTable.cyclic(3, "g")
    ideal = augmentation_ideal(g3)
    assert ideal.ngens == 1
    # relation lattice of lambda (g - 1) = 0 is spanned by the norm
    norm = g3.one() + g3.unit(1) + g3.unit(2)
    assert ideal.relations.cols >= 1
    cols = [ideal.relations.column(j) for j in range(ideal.relations.cols)]
    assert any(c[0] == norm or c[0] == -norm for c in cols)


@pytest.mark.parametrize("model", [
    FiniteTable.cyclic(p, "g") for p in range(1, 9)] + [
    FiniteTable.symmetric3()], ids=[f"C{p}" for p in range(1, 9)] + ["S3"])
def test_augmentation_ideal_finite_matches_reference(model):
    ideal = augmentation_ideal(model)
    assert ideal.relations.columns() == \
        augmentation_ideal_finite_reference(model)


def test_augmentation_ideal_free_product_direct_sum():
    prod = FreeProduct(InfiniteCyclic("t"), InfiniteCyclic("u"))
    ideal = augmentation_ideal(prod)
    assert ideal.ngens == 2 and ideal.relations.cols == 0
    gens = augmentation_ideal_generators(prod)
    assert gens[0] == prod.unit(((0, 1),)) - 1
    assert gens[1] == prod.unit(((1, 1),)) - 1


def test_named_generators_in_presentation_order():
    nested = FreeProduct(FreeProduct(InfiniteCyclic("t"),
                                     FiniteTable.cyclic(3, "b")),
                         FreeAbelian(["x", "y"]))
    assert nested.named_generators() == [
        ("t", ((0, ((0, 1),)),)), ("b", ((0, ((1, 1),)),)),
        ("x", ((1, (1, 0)),)), ("y", ((1, (0, 1)),))]
    assert FreeGroup(["a", "b"]).named_generators() == [
        ("a", ((0, 1),)), ("b", ((1, 1),))]
    assert FiniteTable.symmetric3().named_generators() == [("r", 1),
                                                           ("s", 3)]
    assert TrivialGroup().named_generators() == []
    assert augmentation_ideal_generators(nested) == [
        nested.unit(k) - 1 for _, k in nested.named_generators()]


def test_free_product_of_equal_factors_keeps_each_factor_on_its_side():
    # the group of st#st is Z * Z with both generators named t
    z = InfiniteCyclic("t")
    zz = FreeProduct(z, z)
    assert augmentation_ideal_generators(zz) == [
        zz.unit(((0, 1),)) - 1, zz.unit(((1, 1),)) - 1]
    c2 = FiniteTable.cyclic(2, "g")
    for model in (FreeProduct(c2, c2), FreeProduct(c2, FreeProduct(c2, z))):
        ideal = augmentation_ideal(model)
        assert ideal.relations.cols == 2
        # each relation kills the generators: column j is (1 + g) on row j
        row = LambdaMatrix(model, 1, ideal.ngens,
                           [augmentation_ideal_generators(model)])
        assert compose(row, ideal.relations).is_zero()


def test_express_in_ideal():
    z = InfiniteCyclic("t")
    t = z.unit(1)
    coeffs = express_in_ideal(z, t * t - 1)
    assert len(coeffs) == 1
    assert coeffs[0] * (t - 1) == t * t - 1
    with pytest.raises(ModuleError):
        express_in_ideal(z, z.one())


def test_morphism_well_definedness():
    g2 = FiniteTable.cyclic(2, "s")
    norm = g2.one() + g2.unit(1)
    ideal = augmentation_ideal(g2)  # Lambda/(norm)
    free = PresentedModule(g2, 1)
    # 1 -> s - 1 defines free -> ideal; the reverse does not (norm not killed)
    ModuleMorphism(free, ideal, LambdaMatrix.from_rows(g2, [[g2.one()]]))
    with pytest.raises(ModuleError):
        ModuleMorphism(ideal, free, LambdaMatrix.from_rows(g2, [[g2.one()]]))


def test_derived_equivalence_identity():
    g3 = FiniteTable.cyclic(3, "g")
    ideal = augmentation_ideal(g3)
    v = derived_equivalence(ModuleMorphism.identity(ideal))
    assert v.is_equivalence()


def test_derived_equivalence_zero_on_ideal_refuted():
    g2 = FiniteTable.cyclic(2, "s")
    ideal = augmentation_ideal(g2)
    zero = ModuleMorphism(ideal, ideal,
                          LambdaMatrix.zero(g2, ideal.ngens, ideal.ngens),
                          check=False)
    v = derived_equivalence(zero)
    assert v.status == "not"


def test_derived_equivalence_solid_torus_nu_shape():
    # Lambda -> I(Z), 1 -> t^-1 - 1 is an isomorphism
    z = InfiniteCyclic("t")
    free = PresentedModule(z, 1)
    ideal = augmentation_ideal(z)
    tinv = z.unit(-1)
    f = ModuleMorphism(free, ideal, LambdaMatrix.from_rows(z, [[-tinv]]),
                       check=False)
    # image t^-1 - 1 = (-t^-1) * (t - 1): coefficient -t^-1 over the generator
    v = derived_equivalence(f)
    assert v.is_equivalence()
    # witnesses compose to the identity up to projectives
    from pdpairs.presented import morphism_null_in_derived
    gi = v.inverse
    comp = gi.compose_with(f)
    diff = comp - ModuleMorphism.identity(free)
    assert morphism_null_in_derived(diff) == "yes"


def test_derived_equivalence_on_free_modules_is_trivial():
    # free modules are zero objects in the projective homotopy category,
    # so even multiplication by 2 on Lambda is an equivalence there
    z = InfiniteCyclic("t")
    free = PresentedModule(z, 1)
    two = ModuleMorphism(free, free,
                         LambdaMatrix.from_int_rows(z, [[2]]), check=False)
    v = derived_equivalence(two)
    assert v.is_equivalence()


def test_derived_equivalence_unknown_for_infinite_trivial_module():
    # the trivial module over Z[t, t^-1] has no bounded-support inverse
    # certificate; the engine must stay honest and report unknown
    z = InfiniteCyclic("t")
    t = z.unit(1)
    triv = PresentedModule(z, 1, LambdaMatrix.from_rows(z, [[t - 1]]))
    zero = ModuleMorphism(triv, triv, LambdaMatrix.zero(z, 1, 1),
                          check=False)
    v = derived_equivalence(zero, radius=2)
    assert v.status == "unknown"


def test_factorization_iso_case():
    z = InfiniteCyclic("t")
    free = PresentedModule(z, 1)
    f = ModuleMorphism(free, free,
                       LambdaMatrix.from_rows(z, [[z.unit(3)]]), check=False)
    fact = search_factorization(f)
    assert fact is not None
    assert fact.q_rank == 0
    assert verify_factorization(fact)


def test_factorization_projection_off_free_summand():
    g3 = FiniteTable.cyclic(3, "g")
    ideal = augmentation_ideal(g3)
    # A = I + Lambda presented jointly, f = projection to I
    model = g3
    rel = ideal.relations
    a_rel = LambdaMatrix(model, ideal.ngens + 1, rel.cols,
                         [list(rel.data[i]) for i in range(ideal.ngens)]
                         + [[model.zero()] * rel.cols])
    A = PresentedModule(model, ideal.ngens + 1, a_rel, label="I+L")
    fmat = LambdaMatrix.zero(model, ideal.ngens, ideal.ngens + 1)
    for i in range(ideal.ngens):
        fmat.data[i][i] = model.one()
    f = ModuleMorphism(A, ideal, fmat, check=False)
    fact = search_factorization(f)
    assert fact is not None
    assert fact.q_rank == 1
    assert verify_factorization(fact)


def test_factorization_respects_composite():
    z = InfiniteCyclic("t")
    free = PresentedModule(z, 2)
    fmat = LambdaMatrix.from_rows(
        z, [[z.one(), z.zero()], [z.unit(1), z.one()]])
    f = ModuleMorphism(free, free, fmat, check=False)
    fact = search_factorization(f)
    assert fact is not None and verify_factorization(fact)


def test_G_on_map_of_homotopic_maps_is_derived_equal():
    # f = id and g = id + boundary-homotopy term induce the same morphism
    # of cokernels in the derived category (free targets)
    from pdpairs.chains import LambdaChainMap
    from pdpairs.presented import G_on_map, morphism_null_in_derived
    z = InfiniteCyclic("t")
    t = z.unit(1)
    c = LambdaComplex(z, {0: 1, 1: 1},
                      {1: LambdaMatrix.from_rows(z, [[t - 1]])}, check=False)
    f = LambdaChainMap.identity(c)
    # g = f + d h + h d with h: C_0 -> C_1 given by 1
    h0 = LambdaMatrix.identity(z, 1)
    comp0 = f.component(0) + compose(c.boundary_or_zero(1), h0)
    comp1 = f.component(1) + compose(h0, c.boundary_or_zero(1))
    g = LambdaChainMap(c, c, 0, {0: comp0, 1: comp1})
    gf = G_on_map(f, 0)
    gg = G_on_map(g, 0)
    assert morphism_null_in_derived(gf - gg) == "yes"
    # the generator matrices genuinely differ; equality only holds in the
    # quotient and the derived category
    assert gf.matrix != gg.matrix


IDEAL_MODELS = [
    FreeAbelian(["x", "y"]), FreeAbelian(["x", "y", "z"]),
    FreeProduct(FiniteTable.cyclic(2, "a"), FiniteTable.cyclic(3, "b")),
    FreeProduct(InfiniteCyclic("t"), FiniteTable.cyclic(3, "b"))] + [
    FiniteTable.cyclic(p, "g") for p in range(1, 9)] + [
    FiniteTable.symmetric3()]


@pytest.mark.parametrize("model", IDEAL_MODELS, ids=[
    "Z2", "Z3", "C2*C3", "Z*C3"] + [f"C{p}" for p in range(1, 9)] + ["S3"])
def test_augmentation_ideal_matches_reference(model):
    ideal = augmentation_ideal(model)
    ref = augmentation_ideal_reference(model)
    assert (ideal.ngens, ideal.label) == (ref.ngens, ref.label)
    assert (ideal.relations.rows, ideal.relations.cols) == \
        (ref.relations.rows, ref.relations.cols)
    assert ideal.relations.columns() == ref.relations.columns()


def _trivial_module(model):
    """Z = Lambda / Lambda (s - 1) for the generator s of a cyclic group."""
    return PresentedModule(model, 1, LambdaMatrix.from_rows(
        model, [[model.unit(1) - 1]]))


def test_derived_equivalence_exact_inverse_system_unsolvable():
    # Z over Z[C2] has no torsion, so multiplication by 2 passes the screen,
    # but it is zero in the stable endomorphisms of Z, which are Z/2
    g2 = FiniteTable.cyclic(2, "s")
    triv = _trivial_module(g2)
    two = ModuleMorphism(triv, triv, LambdaMatrix.from_int_rows(g2, [[2]]))
    v = derived_equivalence(two)
    assert (v.status, v.reason) == ("not", "exact inverse system unsolvable")


def test_morphism_null_in_derived_no_over_finite():
    # 2 is the norm of C2 on Z, so it factors through Lambda; 1 does not
    g2 = FiniteTable.cyclic(2, "s")
    ident = ModuleMorphism.identity(_trivial_module(g2))
    assert morphism_null_in_derived(ident) == "no"
    assert morphism_null_in_derived(ident.scale(2)) == "yes"


SPAN_MODELS = [FiniteTable.cyclic(2, "g"), FiniteTable.cyclic(3, "g"),
               FiniteTable.symmetric3(), InfiniteCyclic("t")]
SPAN_IDS = ["C2", "C3", "S3", "Z"]


def _random_ring(model, rng):
    ball = model.ball(1)
    out = model.zero()
    for _ in range(rng.randint(0, 2)):
        out = out + model.unit(ball[rng.randrange(len(ball))],
                               rng.randint(-2, 2))
    return out


def _random_matrix(model, rng, rows, cols):
    return LambdaMatrix(model, rows, cols,
                        [[_random_ring(model, rng) for _ in range(cols)]
                         for _ in range(rows)])


def _seeded_morphisms(model, seed):
    """Morphisms whose matrices lie in the target's relation span, or near
    it, between randomly presented modules."""
    rng = random.Random(seed)
    for _ in range(10):
        ns = rng.randint(1, 2)
        src = PresentedModule(model, ns, _random_matrix(
            model, rng, ns, rng.randint(0, 2)))
        ngens = rng.randint(1, 2)
        tgt = PresentedModule(model, ngens, _random_matrix(
            model, rng, ngens, rng.randint(0, 2)))
        inside = compose(tgt.relations, _random_matrix(
            model, rng, tgt.relations.cols, ns))
        if rng.random() < 0.5:
            inside = inside + _random_matrix(model, rng, ngens, ns)
        yield ModuleMorphism(src, tgt, inside, check=False)


@pytest.mark.parametrize("model", SPAN_MODELS, ids=SPAN_IDS)
def test_morphism_is_zero_and_well_defined_match_column_reference(model):
    for f in _seeded_morphisms(model, 5):
        rel = f.target.relations
        assert f.is_zero(2) == spans_reference(rel, f.matrix, 2)
        images = compose(f.matrix, f.source.relations)
        assert f.well_defined(2) == spans_reference(rel, images, 2)


@pytest.mark.parametrize("model", SPAN_MODELS, ids=SPAN_IDS)
def test_spans_matches_column_reference(model):
    for f in _seeded_morphisms(model, 9):
        rel = f.target.relations
        for m in (f.matrix, compose(f.matrix, f.source.relations)):
            assert f.target.spans(m, 2) == spans_reference(rel, m, 2)


def _projection_off_free_summand():
    """f: I + Lambda -> I over Z/3, the projection; no q = 0 middle."""
    g3 = FiniteTable.cyclic(3, "g")
    ideal = augmentation_ideal(g3)
    rel = ideal.relations
    a_rel = LambdaMatrix(g3, ideal.ngens + 1, rel.cols,
                         [list(rel.data[i]) for i in range(ideal.ngens)]
                         + [[g3.zero()] * rel.cols])
    A = PresentedModule(g3, ideal.ngens + 1, a_rel, label="I+L")
    fmat = LambdaMatrix.zero(g3, ideal.ngens, ideal.ngens + 1)
    for i in range(ideal.ngens):
        fmat.data[i][i] = g3.one()
    return ModuleMorphism(A, ideal, fmat, check=False)


def _nu_morphism(build):
    from pdpairs.invariants import compute_nu
    from pdpairs.pairs import verify_pd
    pair = build()
    return compute_nu(pair.D, 2, verify_pd(pair).fundamental_class).morphism


def _factorization_cases():
    from pdpairs.catalog import build_d3, build_lens, build_solid_torus
    z = InfiniteCyclic("t")
    free = PresentedModule(z, 2)
    return {
        "projection": _projection_off_free_summand(),
        "unitriangular": ModuleMorphism(
            free, free, LambdaMatrix.from_rows(
                z, [[z.one(), z.zero()], [z.unit(1), z.one()]]),
            check=False),
        "nu(d3)": _nu_morphism(build_d3),
        "nu(solid torus)": _nu_morphism(build_solid_torus),
        "nu(L(5,1))": _nu_morphism(lambda: build_lens(5)),
    }


@pytest.mark.parametrize("case", sorted(_factorization_cases()))
def test_try_middle_matches_the_prechecked_reference(case, monkeypatch):
    import pdpairs.presented as presented
    f = _factorization_cases()[case]
    real = presented._try_middle
    candidates = []

    def spy(f, q_rank, rows, radius):
        candidates.append((q_rank, rows, radius))
        return real(f, q_rank, rows, radius)

    monkeypatch.setattr(presented, "_try_middle", spy)
    assert search_factorization(f) is not None
    monkeypatch.undo()
    assert candidates
    for q_rank, rows, radius in candidates:
        got = real(f, q_rank, rows, radius)
        ref = try_middle_reference(f, q_rank, rows, radius)
        assert (got is None) == (ref is None)
        if got is not None:
            assert (got.q_rank, got.middle, got.middle_inverse) == \
                (ref.q_rank, ref.middle, ref.middle_inverse)


def test_try_middle_leaves_the_middle_check_to_verify_factorization(
        monkeypatch):
    import pdpairs.presented as presented
    from pdpairs.catalog import build_lens
    f = _nu_morphism(lambda: build_lens(5))
    real = PresentedModule.spans
    calls = []

    def spans(self, m, radius=4):
        calls.append(m)
        return real(self, m, radius)

    monkeypatch.setattr(PresentedModule, "spans", spans)
    fact = presented._try_middle(f, 0, [], 4)
    assert fact is not None
    in_try = len(calls)
    del calls[:]
    assert verify_factorization(fact, 4)
    # every spans call of _try_middle is one of verify_factorization's:
    # the middle's well-definedness is solved once, not twice
    assert in_try == len(calls) == 4
