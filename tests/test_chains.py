"""Lambda-complexes, duals, linearization, homotopy search."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from pdpairs.chains import (
    ChainError,
    ChainHomotopy,
    CoverContraction,
    IntComplex,
    LambdaChainMap,
    LambdaColumnSolver,
    LambdaComplex,
    LambdaLinearSystem,
    LambdaMatrix,
    apply_matrix,
    bounded_search,
    compose,
    eliminate_units,
    eta_matrix,
    find_contraction,
    is_nullhomotopic,
    mapping_cone,
    system_block_matrix,
    verify_contraction,
)
from pdpairs.groups import (
    FiniteTable,
    FreeGroup,
    FreeProduct,
    InfiniteCyclic,
    TrivialGroup,
)
from pdpairs.intlinalg import IntMatrix, mat_vec

from oracles import (
    column_solve_reference,
    contraction_defects,
    free_resolution,
    mat_mul,
)


def ring(model, *terms):
    out = model.zero()
    for c, k in terms:
        out = out + model.unit(k, c)
    return out


def solid_torus_complex(model=None):
    """S^1 x D^2: cells v; a, b; F, m; E over Z[t, t^-1]."""
    z = model or InfiniteCyclic("t")
    t = z.unit(1)
    one = z.one()
    d1 = LambdaMatrix.from_rows(z, [[z.zero(), t - 1]])
    d2 = LambdaMatrix.from_rows(z, [[one - t, one], [z.zero(), z.zero()]])
    d3 = LambdaMatrix.from_rows(z, [[one], [t - 1]])
    return LambdaComplex(z, {0: 1, 1: 2, 2: 2, 3: 1},
                         {1: d1, 2: d2, 3: d3},
                         augmentation=[z.one()],
                         basis_names={0: ("v",), 1: ("a", "b"),
                                      2: ("F", "m"), 3: ("E",)})


def lens_complex(p):
    """L(p, 1): v, e, F, E over Z[Z/p]."""
    g = FiniteTable.cyclic(p, "g")
    gen = g.unit(1)
    norm = g.zero()
    for k in range(p):
        norm = norm + g.unit(k)
    d1 = LambdaMatrix.from_rows(g, [[gen - 1]])
    d2 = LambdaMatrix.from_rows(g, [[norm]])
    d3 = LambdaMatrix.from_rows(g, [[gen - 1]])
    return LambdaComplex(g, {0: 1, 1: 1, 2: 1, 3: 1},
                         {1: d1, 2: d2, 3: d3}, augmentation=[g.one()],
                         basis_names={0: ("v",), 1: ("e",), 2: ("F",), 3: ("E",)})


def test_klein_bottle_fox_boundaries_compose_to_zero():
    # <a, b | a b a b^-1>: the Fox identity forces the composition order.
    kb = FreeGroup(["a", "b"])  # coefficients taken in the quotient via a table?
    # Use the honest quotient: pi_1 of the Klein bottle is infinite; model it
    # with the free group on the generators is wrong, so use the abelianized
    # sanity check over Z instead: a -> 1, b -> t.
    z = InfiniteCyclic("t")
    t = z.unit(1)
    one = z.one()
    # dF = (1 - t) a + (a - 1)-style terms evaluated in Z: dF = (1 - t) a + 0 b
    d2 = LambdaMatrix.from_rows(z, [[one - t], [z.zero()]])
    d1 = LambdaMatrix.from_rows(z, [[z.zero(), t - 1]])
    assert compose(d1, d2).is_zero()


def test_solid_torus_is_valid_complex():
    c = solid_torus_complex()
    assert c.rank(2) == 2
    assert c.augment_chain([c.model.one()]) == 1


def test_complex_rejects_broken_boundary():
    z = InfiniteCyclic("t")
    t = z.unit(1)
    with pytest.raises(ChainError):
        LambdaComplex(z, {0: 1, 1: 1, 2: 1},
                      {1: LambdaMatrix.from_rows(z, [[t - 1]]),
                       2: LambdaMatrix.from_rows(z, [[t + 1]])})


def test_compose_order_nonabelian():
    s3 = FiniteTable.symmetric3()
    r = s3.unit(1)
    s = s3.unit(3)
    assert r * s != s * r
    a = LambdaMatrix.from_rows(s3, [[r]])
    b = LambdaMatrix.from_rows(s3, [[s]])
    # compose multiplies inner first: the entry of a . b is s * r
    assert compose(a, b).data[0][0] == s * r
    assert compose(b, a).data[0][0] == r * s


def test_apply_matrix_matches_compose():
    z = InfiniteCyclic("t")
    t = z.unit(1)
    m = LambdaMatrix.from_rows(z, [[t - 1, z.one()], [z.zero(), t]])
    x = [t, z.one() - t]
    y = apply_matrix(m, x)
    # y_i = sum_j x_j * m[i][j]
    assert y[0] == t * (t - 1) + (z.one() - t)
    assert y[1] == (z.one() - t) * t


def test_hom_dual_matrices_are_bar_transposes():
    c = solid_torus_complex()
    dual = c.hom_dual()
    z = c.model
    t = z.unit(1)
    # dual boundary at degree -2 is barT of d3
    m = dual.boundary_or_zero(-2)
    assert m.data[0][0] == z.one()
    assert m.data[0][1] == t.bar() - 1
    # double dual is the original complex again
    assert dual.hom_dual() == LambdaComplex(
        c.model, dict(c.ranks), dict(c.boundary), check=False)


def test_hom_dual_trivial_group_is_transpose():
    triv = TrivialGroup()
    d = LambdaMatrix.from_int_rows(triv, [[2, 1], [0, 3], [1, 1]])
    c = LambdaComplex(triv, {0: 3, 1: 2}, {1: d}, check=False)
    dual = c.hom_dual()
    m = dual.boundary_or_zero(0)
    assert [[e.aug() for e in row] for row in m.data] == [[2, 0, 1], [1, 3, 1]]


def test_tensor_zomega_examples():
    c = solid_torus_complex()
    ic = c.tensor_Zomega()
    assert ic.boundary_or_zero(3).data == [[1], [0]]
    s2 = FiniteTable.cyclic(2, "s", omega_gen=1)
    one_plus = s2.one() + s2.unit(1)
    one_minus = s2.one() - s2.unit(1)
    m = LambdaMatrix.from_rows(s2, [[one_plus, one_minus]])
    im = m.to_int_signed()
    assert im.data == [[0, 2]]


def test_tensor_zomega_functorial_on_identity():
    triv = TrivialGroup()
    c = LambdaComplex(triv, {0: 2}, {}, check=False)
    f = LambdaChainMap.identity(c)
    assert f.tensor_Zomega()[0].data == [[1, 0], [0, 1]]


def test_linearize_regular_representation():
    s2 = FiniteTable.cyclic(2, "s")
    m = LambdaMatrix.from_rows(s2, [[s2.one() + s2.unit(1)]])
    assert system_block_matrix(m).data == [[1, 1], [1, 1]]
    # right multiplication by s swaps the two basis vectors
    m1 = LambdaMatrix.from_rows(s2, [[s2.unit(1)]])
    assert system_block_matrix(m1).data == [[0, 1], [1, 0]]
    triv = TrivialGroup()
    m2 = LambdaMatrix.from_int_rows(triv, [[3, -1]])
    assert system_block_matrix(m2).data == [[3, -1]]


def test_linearize_multiplicative_nonabelian():
    s3 = FiniteTable.symmetric3()
    rng = random.Random(0)

    def rand_mat():
        return LambdaMatrix.from_rows(
            s3, [[ring(s3, (rng.randint(-2, 2), rng.randrange(6)),
                       (rng.randint(-2, 2), rng.randrange(6)))
                  for _ in range(2)] for _ in range(2)])

    for _ in range(5):
        a, b = rand_mat(), rand_mat()
        assert system_block_matrix(compose(a, b)) == mat_mul(
            system_block_matrix(a), system_block_matrix(b))


def test_system_blocks_match_apply_nonabelian():
    s3 = FiniteTable.symmetric3()
    rng = random.Random(1)
    m = LambdaMatrix.from_rows(
        s3, [[ring(s3, (rng.randint(-2, 2), rng.randrange(6))) for _ in range(2)]
             for _ in range(2)])
    x = [ring(s3, (1, rng.randrange(6)), (-2, rng.randrange(6)))
         for _ in range(2)]
    from pdpairs.chains import int_vec_to_ring
    elems = s3.ball(0)
    xi = [r.support.get(g, 0) for r in x for g in elems]
    yi = mat_vec(system_block_matrix(m), xi)
    assert int_vec_to_ring(s3, elems, yi, 2) == apply_matrix(m, x)


def test_column_solver_finite_exact():
    g3 = FiniteTable.cyclic(3, "g")
    norm = g3.one() + g3.unit(1) + g3.unit(2)
    m = LambdaMatrix.from_rows(g3, [[g3.unit(1) - 1]])
    solver = LambdaColumnSolver(m)
    sol = solver.solve([norm])
    assert sol is None  # norm is not a multiple of (g - 1)
    target = [g3.unit(1) - 1]
    sol = solver.solve(target)
    assert sol is not None
    assert apply_matrix(m, sol) == target


def test_column_solver_bounded_infinite():
    z = InfiniteCyclic("t")
    t = z.unit(1)
    m = LambdaMatrix.from_rows(z, [[t - 1]])
    solver = LambdaColumnSolver(m, radius=3)
    sol = solver.solve([t - 2 + z.unit(-1)])  # (t-1)(1 - t^-1) = t - 2 + t^-1
    assert sol is not None
    assert apply_matrix(m, sol) == [t - 2 + z.unit(-1)]
    assert solver.solve([z.one()]) is None


@pytest.mark.parametrize("model", [
    FiniteTable.cyclic(3, "g"), FiniteTable.symmetric3(), InfiniteCyclic("t"),
    FreeGroup(["a", "b"])], ids=["C3", "S3", "Z", "F2"])
def test_column_solver_kernel_maps_to_zero(model):
    a, b = model.unit(model.letters()[0]), model.unit(model.letters()[-1])
    # (a + 1, -1, 0) is in the kernel, so it is never empty at radius 2
    m = LambdaMatrix.from_rows(model, [[a - 1, a * a - 1, b - 1]])
    solver = LambdaColumnSolver(m, radius=2)
    kernel = solver.kernel()
    assert kernel
    for vec in kernel:
        assert len(vec) == 3 and any(not x.is_zero() for x in vec)
        assert all(r.is_zero() for r in apply_matrix(m, vec))


def test_column_solver_rejects_wrong_length():
    z = InfiniteCyclic("t")
    g3 = FiniteTable.cyclic(3, "g")
    for model in (z, g3):
        m = LambdaMatrix.from_rows(model, [[model.unit(1) - 1],
                                           [model.one()]])
        solver = LambdaColumnSolver(m, radius=2)
        for b in ([model.one()], [model.zero()] * 3):
            with pytest.raises(ChainError, match="shape mismatch"):
                solver.solve(b)


def _random_column_system(rng, model):
    """A small matrix over a finite model, a zero row now and then, and a
    right-hand side that is solvable half of the time."""
    elems = model.ball(0)
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)

    def entry():
        if rng.random() < 0.3:
            return model.zero()
        return ring(model, *[(rng.randint(-2, 2), rng.choice(elems))
                             for _ in range(rng.randint(1, 2))])

    m = LambdaMatrix.from_rows(model, [[entry() for _ in range(cols)]
                                       for _ in range(rows)])
    if rng.random() < 0.5:
        b = apply_matrix(m, [entry() for _ in range(cols)])
    else:
        b = [entry() for _ in range(rows)]
    return m, b


def test_column_solver_matches_block_matrix_reference():
    rng = random.Random(2024)
    models = [FiniteTable.cyclic(2, "s"), FiniteTable.cyclic(3, "g"),
              FiniteTable.cyclic(5, "g"), FiniteTable.symmetric3()]
    same = zero_row = solved = 0
    for trial in range(240):
        model = models[trial % len(models)]
        m, b = _random_column_system(rng, model)
        got = LambdaColumnSolver(m).solve(b)
        want = column_solve_reference(m, b)
        solved += got is not None
        if not any(all(e.is_zero() for e in row) for row in m.data):
            assert got == want
            same += 1
            continue
        zero_row += 1
        assert (got is None) == (want is None)
        for x in (got, want):
            assert x is None or apply_matrix(m, x) == b
    assert same > 150 and zero_row > 20 and solved > 100


def test_chain_map_validation_and_shift_sign():
    c = solid_torus_complex()
    ident = LambdaChainMap.identity(c)
    ident.validate()
    z = c.model
    bad = LambdaChainMap.identity(c)
    bad.components[1] = bad.components[1].scale(2)
    with pytest.raises(ChainError):
        bad.validate()


def test_nullhomotopic_zero_map():
    c = solid_torus_complex()
    zero = LambdaChainMap.identity(c).scale(0)
    assert is_nullhomotopic(zero).found()


def test_nullhomotopic_contractible_identity():
    z = InfiniteCyclic("t")
    ident_m = LambdaMatrix.identity(z, 1)
    c = LambdaComplex(z, {0: 1, 1: 1}, {1: ident_m})
    f = LambdaChainMap.identity(c)
    v = is_nullhomotopic(f)
    assert v.found()
    ChainHomotopy(f, f.scale(0), v.homotopy.components)


def test_nullhomotopic_lens_identity_refuted_exactly():
    c = lens_complex(3)
    f = LambdaChainMap.identity(c)
    v = is_nullhomotopic(f)
    assert v.status == "no"


def test_eta_identity_and_naturality():
    for model in (TrivialGroup(), FiniteTable.cyclic(2, "s", omega_gen=1),
                  FiniteTable.cyclic(3, "g"), InfiniteCyclic("t")):
        for rank in range(1, 6):
            e = eta_matrix(model, rank)
            assert compose(e, e) == LambdaMatrix.identity(model, rank)
    # naturality: for f between free modules, eta . f = (f*)* . eta
    z = InfiniteCyclic("t")
    f = LambdaMatrix.from_rows(z, [[z.unit(1) - 1, z.unit(2)]])
    double_dual = f.bar_transpose().bar_transpose()
    lhs = compose(eta_matrix(z, 1), f)
    rhs = compose(double_dual, eta_matrix(z, 2))
    assert lhs == rhs


def test_induce_Lk():
    z2 = FiniteTable.cyclic(2, "s")
    z3 = FiniteTable.cyclic(3, "g")
    prod = FreeProduct(z2, z3)
    c = LambdaComplex(z2, {0: 1, 1: 1},
                      {1: LambdaMatrix.from_rows(z2, [[z2.unit(1) - 1]])},
                      check=False)
    ind = c.induce_to(prod)
    assert ind.model == prod
    entry = ind.boundary_or_zero(1).data[0][0]
    assert entry == prod.unit(((0, 1),)) - 1
    # Z^omega homology agrees with the original on the induced complex
    assert ind.tensor_Zomega().boundary_or_zero(1).data == \
        c.tensor_Zomega().boundary_or_zero(1).data


def test_induce_Lk_missing_factor():
    z2 = FiniteTable.cyclic(2, "s")
    z5 = FiniteTable.cyclic(5, "g")
    prod = FreeProduct(z5, z5)
    c = LambdaComplex(z2, {0: 1}, {}, check=False)
    with pytest.raises(ChainError):
        c.induce_to(prod)


def test_mapping_cone_is_complex_and_contracts_for_iso():
    z = InfiniteCyclic("t")
    c = LambdaComplex(z, {0: 1, 1: 1},
                      {1: LambdaMatrix.from_rows(z, [[z.unit(1) - 1]])},
                      check=False)
    f = LambdaChainMap.identity(c)
    cone, layout = mapping_cone(f)
    cone.validate()
    h = find_contraction(cone, radius=2)
    assert h is not None
    assert verify_contraction(cone, h)


def test_mapping_cone_of_non_iso_has_no_contraction():
    g3 = FiniteTable.cyclic(3, "g")
    c = LambdaComplex(g3, {0: 1}, {}, check=False)
    zero = LambdaChainMap(c, c, 0, {0: LambdaMatrix.zero(g3, 1, 1)},
                          check=False)
    cone, _ = mapping_cone(zero)
    assert find_contraction(cone) is None


def test_lambda_linear_system_simple():
    z = InfiniteCyclic("t")
    t = z.unit(1)
    sys = LambdaLinearSystem(z)
    sys.add_var("x", 1, 1)
    lhs = LambdaMatrix.from_rows(z, [[t - 1]])
    rhs = LambdaMatrix.from_rows(z, [[t * t - t]])
    # x . (t - 1) = t^2 - t has solution x = t
    sys.add_constraint([(1, lhs, "x", None)], rhs)
    sol = sys.solve(2)
    assert sol is not None
    assert compose(lhs, sol["x"]) == rhs


def test_tensor_zomega_functorial_on_composition():
    c = solid_torus_complex()
    f = LambdaChainMap.identity(c)
    g = f.scale(3)
    comp = g.compose_with(f)
    for d in c.degrees():
        lhs = comp.component(d).to_int_signed()
        a = g.component(d).to_int_signed()
        b = f.component(d).to_int_signed()
        assert lhs == mat_mul(a, b)



def test_is_nullhomotopic_no_homotopy_slots():
    # one cell in degree 0: a map that vanishes on Z^omega homology but is
    # nonzero has nowhere to put a homotopy
    for model, status in ((FiniteTable.cyclic(2, "g"), "no"),
                          (InfiniteCyclic("t"), "unknown")):
        c = LambdaComplex(model, {0: 1}, {}, check=False)
        x = LambdaMatrix.from_rows(model, [[model.one() - model.unit(1)]])
        v = is_nullhomotopic(LambdaChainMap(c, c, 0, {0: x}))
        assert (v.status, v.obstruction) == \
            (status, "no homotopy slots at degree 0")


def test_is_nullhomotopic_exact_system_unsolvable():
    # over C2, (1 - g).id on Lambda --(1 + g)--> Lambda is zero on Z^omega
    # homology, but (1 + g) h = 1 - g has no solution
    g2 = FiniteTable.cyclic(2, "g")
    g = g2.unit(1)
    c = LambdaComplex(g2, {0: 1, 1: 1},
                      {1: LambdaMatrix.from_rows(g2, [[g2.one() + g]])},
                      check=False)
    x = LambdaMatrix.from_rows(g2, [[g2.one() - g]])
    v = is_nullhomotopic(LambdaChainMap(c, c, 0, {0: x, 1: x}))
    assert (v.status, v.obstruction) == ("no", "exact system unsolvable")


def test_bounded_search_schedule():
    def run(model, radius, first, hit=None):
        tried = []

        def attempt(r):
            tried.append(r)
            return "found" if r == hit else None
        kwargs = {} if first is None else {"first": first}
        return bounded_search(model, radius, attempt, **kwargs), tried

    z, g3 = InfiniteCyclic("t"), FiniteTable.cyclic(3, "g")
    assert run(z, 4, None) == ((None, None), [2, 4])
    assert run(z, 4, (1, 2)) == ((None, None), [1, 2, 4])
    assert run(z, 2, (1, 2)) == ((None, None), [1, 2])
    assert run(z, 1, None) == ((None, None), [1])
    assert run(z, 3, range(1, 3)) == ((None, None), [1, 2, 3])
    assert run(z, 4, (1, 2), hit=2) == (("found", 2), [1, 2])
    # a finite model is decided by one exact attempt at the given radius
    assert run(g3, 4, (1, 2), hit=4) == (("found", 4), [4])
    assert run(g3, 2, range(1, 2)) == ((None, None), [2])


def test_lambda_linear_system_solves_at_several_radii():
    z = InfiniteCyclic("t")
    t = z.unit(1)
    sys = LambdaLinearSystem(z)
    sys.add_var("x", 1, 1)
    lhs = LambdaMatrix.from_rows(z, [[t - 1]])
    rhs = LambdaMatrix.from_rows(z, [[t * t * t - 1]])
    # x = 1 + t + t^2 needs radius 2
    sys.add_constraint([(1, lhs, "x", None)], rhs)
    assert sys.solve(1) is None
    assert compose(lhs, sys.solve(2)["x"]) == rhs


def _system_with_zero_widths(model, zero_widths):
    """x . Q - y = b and x . D = c, solved by x = [1, g], y = g^2 - 1.  Over
    a finite model y is eliminated and x . D, with no unit entry, is left
    to sparse_solve.  With zero_widths, unknowns of no entries (0 x 1,
    0 x 0, 1 x 0) and a constraint of no entries sit between the others,
    and terms on those unknowns join both constraints, as the
    presented-module systems state them whatever their relation widths."""
    g = model.unit(1)
    Q = LambdaMatrix.from_rows(model, [[g - 1], [g * g]])
    D = LambdaMatrix.from_rows(model, [[g + 1], [g - g * g]])
    x = LambdaMatrix.from_rows(model, [[model.one(), g]])
    y = LambdaMatrix.from_rows(model, [[g * g - 1]])
    none = LambdaMatrix.zero(model, 1, 0)
    system = LambdaLinearSystem(model)
    system.add_var("x", 1, 2)
    if zero_widths:
        system.add_var("u", 0, 1)
        system.add_var("e", 0, 0)
    system.add_var("y", 1, 1)
    extra = [(-1, none, "u", None)] if zero_widths else []
    system.add_constraint([(1, None, "x", Q), (-1, None, "y", None)] + extra,
                          compose(x, Q) - y)
    if zero_widths:
        system.add_var("v", 1, 0)
        system.add_constraint([(1, None, "x", LambdaMatrix.zero(model, 2, 0)),
                               (2, None, "v", None)], none)
    extra = [(1, none, "u", None)] if zero_widths else []
    system.add_constraint([(1, None, "x", D)] + extra, compose(x, D))
    return system


@pytest.mark.parametrize("model", [FiniteTable.cyclic(4, "g"),
                                   InfiniteCyclic("t")], ids=["C4", "Z"])
def test_zero_width_unknowns_and_constraints_change_nothing(model):
    plain = _system_with_zero_widths(model, False)
    padded = _system_with_zero_widths(model, True)
    support = model.ball(2)
    rows, rhs, kept, log = plain._integer_system(support)
    assert rows and any(rhs) and bool(log) == model.is_finite()
    assert padded._integer_system(support) == (rows, rhs, kept, log)
    solved, padded_solved = plain.solve(2), padded.solve(2)
    for terms, want in plain.constraints:
        got = LambdaMatrix.zero(model, want.rows, want.cols)
        for c, P, name, Q in terms:
            got = got + _term_value(model, P, solved[name], Q).scale(c)
        assert got == want
    assert {k: padded_solved[k] for k in solved} == solved
    assert {k: (m.rows, m.cols) for k, m in padded_solved.items()
            if k not in solved} == {"u": (0, 1), "e": (0, 0), "v": (1, 0)}


def test_from_columns_transposes():
    z = InfiniteCyclic("t")
    t = z.unit(1)
    m = LambdaMatrix.from_columns(z, 2, [[t, z.one()], [z.zero(), t - 1]])
    assert m == LambdaMatrix.from_rows(z, [[t, z.zero()], [z.one(), t - 1]])
    empty = LambdaMatrix.from_columns(z, 3, [])
    assert (empty.rows, empty.cols, empty.data) == (3, 0, [[], [], []])


def _doubled(c):
    """c (+) c, cell by cell."""
    model = c.model
    boundary = {}
    for d, m in c.boundary.items():
        out = LambdaMatrix.zero(model, 2 * m.rows, 2 * m.cols)
        for i in range(m.rows):
            for j in range(m.cols):
                out.data[i][j] = out.data[m.rows + i][m.cols + j] = \
                    m.data[i][j]
        boundary[d] = out
    return LambdaComplex(model, {d: 2 * r for d, r in c.ranks.items()},
                         boundary, check=False)


def _involution_complex():
    """Lambda --(1+s)--> Lambda --(1-s)--> Lambda over S3, s an involution."""
    s3 = FiniteTable.symmetric3()
    one, s = s3.one(), s3.unit(3)
    return LambdaComplex(s3, {0: 1, 1: 1, 2: 1},
                         {1: LambdaMatrix.from_rows(s3, [[one - s]]),
                          2: LambdaMatrix.from_rows(s3, [[one + s]])})


def _seeded_cone(c, k, rng):
    """Cone of k.id + d h + h d for a random h of radius-1 entries."""
    model = c.model
    ball = model.ball(1)

    def entry():
        out = model.zero()
        for _ in range(rng.randint(1, 2)):
            out = out + model.unit(ball[rng.randrange(len(ball))],
                                   rng.choice((1, -1)))
        return out
    h = {d: LambdaMatrix.from_rows(model, [[entry() for _ in range(
        c.rank(d))] for _ in range(c.rank(d + 1))])
        for d in c.degrees() if d + 1 in c.ranks}
    comps = {}
    for d in c.degrees():
        m = LambdaMatrix.identity(model, c.rank(d)).scale(k)
        if d in h:
            m = m + compose(c.boundary_or_zero(d + 1), h[d])
        if d - 1 in h:
            m = m + compose(h[d - 1], c.boundary_or_zero(d))
        comps[d] = m
    return mapping_cone(LambdaChainMap(c, c, 0, comps))[0]


def _homology(c, degrees, linearized):
    ic = c.linearized() if linearized else c.tensor_Zomega()
    return [(h.free_rank, h.torsion) for h in map(ic.homology, degrees)]


@pytest.mark.parametrize("build", [
    lambda: lens_complex(2), lambda: lens_complex(3), lambda: lens_complex(4),
    _involution_complex, solid_torus_complex],
    ids=["C2", "C3", "C4", "S3", "Z"])
def test_eliminate_units_preserves_homology(build):
    # cones of k.id + d h + h d on c (+) c; k = 0, 2, 3 leave homology,
    # with torsion for k = 2, 3
    rng = random.Random(23)
    c = _doubled(build())
    finite = c.model.is_finite()
    eliminated = 0
    torsion = False
    for k in (0, 1, -1, 2, 3) * 3:
        cone = _seeded_cone(c, k, rng)
        reduced = eliminate_units(cone)
        reduced.validate()  # shapes and d.d = 0
        span = range(min(cone.ranks), max(cone.ranks) + 1)
        want = _homology(cone, span, finite)
        assert _homology(reduced, span, finite) == want
        eliminated += sum(cone.ranks.values()) - sum(reduced.ranks.values())
        torsion |= any(t for _, t in want)
    assert eliminated > 0 and torsion


def test_eliminate_units_schur_update_order():
    # the one unit is r at (0, 0): d'[1][1] = 0 - x . r^-1 . y, which over
    # S3 differs from y . r^-1 . x
    s3 = FiniteTable.symmetric3()
    r, rinv = s3.unit(1), s3.unit(s3.inv(1))
    x, y = s3.unit(3) * 2, s3.one() + r
    c = LambdaComplex(s3, {0: 2, 1: 2}, {1: LambdaMatrix.from_rows(
        s3, [[r, x], [y, s3.zero()]])})
    reduced = eliminate_units(c)
    assert reduced.ranks == {0: 1, 1: 1}
    assert reduced.boundary_or_zero(1).data[0][0] == -(x * rinv * y)
    assert x * rinv * y != y * rinv * x


def test_eliminate_units_least_markowitz_cost():
    # units at (0, 0), cost 1, and (1, 0), cost 0: pivoting on (1, 0)
    # leaves [[2]], on (0, 0) it would leave [[-2]]
    z = InfiniteCyclic("t")
    c = LambdaComplex(z, {0: 2, 1: 2}, {1: LambdaMatrix.from_int_rows(
        z, [[1, 2], [1, 0]])})
    reduced = eliminate_units(c)
    assert reduced.boundary_or_zero(1) == LambdaMatrix.from_int_rows(z, [[2]])
    point = LambdaComplex(z, {0: 1}, {})
    assert eliminate_units(point).ranks == {0: 1}


def test_eliminate_units_drops_the_pivot_cells_everywhere():
    # d_2 = (1, 1)^T pivots first (cost 0), removing c2_0 and c1_0; column
    # c1_0 of d_1 must go with it, or its unit would be the next pivot and
    # leave a spurious H_1
    triv = TrivialGroup()
    c = LambdaComplex(triv, {0: 2, 1: 2, 2: 1}, {
        1: LambdaMatrix.from_int_rows(triv, [[1, -1], [1, -1]]),
        2: LambdaMatrix.from_int_rows(triv, [[1], [1]])})
    reduced = eliminate_units(c)
    assert reduced.ranks == {0: 1} and not reduced.boundary


# ---------------------------------------------------------------------------
# LambdaLinearSystem over finite groups: Lambda-level unit elimination


ELIMINATION_GROUPS = {
    "1": TrivialGroup(),
    "C2": FiniteTable.cyclic(2, "g"),
    "C3": FiniteTable.cyclic(3, "g"),
    "C4": FiniteTable.cyclic(4, "g"),
    "S3": FiniteTable.symmetric3(),
}


def _norm(model):
    """The norm element N = sum g of a finite model."""
    out = model.zero()
    for g in model.ball(0):
        out = out + model.unit(g)
    return out


def _random_coefficient(model, rng):
    """Zero, a unit +-g, a multiple of the norm element, whose equations
    linearize to identical rows, or a combination of a few group
    elements."""
    elems = model.ball(0)
    roll = rng.random()
    if roll < 0.2:
        return model.zero()
    if roll < 0.6:
        return model.unit(rng.choice(elems), rng.choice([1, -1]))
    if roll < 0.7:
        return _norm(model) * rng.choice([1, -1, 2])
    out = model.zero()
    for _ in range(rng.randint(2, 3)):
        out = out + model.unit(rng.choice(elems), rng.choice([1, -1, 2, -3]))
    return out


def _random_matrix(model, rng, rows, cols):
    return LambdaMatrix(model, rows, cols, [
        [_random_coefficient(model, rng) for _ in range(cols)]
        for _ in range(rows)])


def _term_value(model, P, x, Q):
    """P . x . Q in module composition, None standing for an identity."""
    if P is not None:
        x = compose(P, x)
    return x if Q is None else compose(x, Q)


def _random_lambda_system(model, rng):
    """A system with a planted solution: unit, multi-term and zero
    coefficients, P and Q factors on either side, terms that cancel, and
    sometimes a perturbed right-hand side."""
    system = LambdaLinearSystem(model)
    planted = {}
    for i in range(rng.randint(1, 3)):
        shape = (rng.randint(1, 2), rng.randint(1, 2))
        system.add_var(f"x{i}", *shape)
        planted[f"x{i}"] = _random_matrix(model, rng, *shape)
    for _ in range(rng.randint(1, 4)):
        r, s = rng.randint(1, 2), rng.randint(1, 2)
        terms = []
        for _ in range(rng.randint(1, 3)):
            name = rng.choice(sorted(planted))
            vr, vc = system.vars[name]
            P = None if vr == r and rng.random() < 0.6 else \
                _random_matrix(model, rng, r, vr)
            Q = None if vc == s and rng.random() < 0.6 else \
                _random_matrix(model, rng, vc, s)
            terms.append((rng.choice([1, -1, 2]), P, name, Q))
            if rng.random() < 0.1:
                terms.append((-terms[-1][0], P, name, Q))
        rhs = LambdaMatrix.zero(model, r, s)
        for c, P, name, Q in terms:
            rhs = rhs + _term_value(model, P, planted[name], Q).scale(c)
        if rng.random() < 0.25:
            i, j = rng.randrange(r), rng.randrange(s)
            rhs.data[i][j] = rhs.data[i][j] + model.unit(
                rng.choice(model.ball(0)))
        system.add_constraint(terms, rhs)
    return system


def _full_system(system):
    """The system's integer equations on the whole group, un-eliminated."""
    support = system.model.ball(0)
    parts, n = system._statement()
    rows, rhs = system._linearize(parts, support, range(n))
    return rows, n * len(support), rhs


def _check_elimination(system):
    """solve agrees with an exact solve of the full system.  Returns the
    solution and the number of unknowns eliminated over Lambda, None when
    elimination alone refutes the system."""
    from oracles import sparse_solve_reference
    model = system.model
    rows, ncols, rhs = _full_system(system)
    sol = system.solve()
    assert (sol is None) == \
        (sparse_solve_reference(rows, ncols, rhs) is None)
    if sol is not None:
        x = [sol[name].data[p][q].support.get(g, 0)
             for name in system.var_order
             for p in range(system.vars[name][0])
             for q in range(system.vars[name][1])
             for g in model.ball(0)]
        for row, b in zip(rows, rhs):
            assert sum(v * x[c] for c, v in row.items()) == b
        for terms, want in system.constraints:
            got = LambdaMatrix.zero(model, want.rows, want.cols)
            for c, P, name, Q in terms:
                got = got + _term_value(model, P, sol[name], Q).scale(c)
            assert got == want
    reduced = system._eliminate(system._statement()[0])
    return sol, None if reduced is None else len(reduced[1])


@given(group=st.sampled_from(sorted(ELIMINATION_GROUPS)),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=300, deadline=None)
def test_lambda_elimination_solves_the_full_system(group, seed):
    _check_elimination(_random_lambda_system(ELIMINATION_GROUPS[group],
                                             random.Random(seed)))


def test_lambda_elimination_generator_covers_pivots_and_failures():
    # the random systems pivot, repeat integer equations, and are solved,
    # refuted by elimination alone and refuted by sparse_solve on the
    # residual
    rng = random.Random("lambda-elimination")
    pivoted = repeated = 0
    outcomes = set()
    for group in sorted(ELIMINATION_GROUPS):
        for _ in range(60):
            system = _random_lambda_system(ELIMINATION_GROUPS[group], rng)
            rows, _, rhs = _full_system(system)
            equations = [(frozenset(row.items()), b)
                         for row, b in zip(rows, rhs) if row]
            repeated += len(set(equations)) < len(equations)
            sol, eliminated = _check_elimination(system)
            pivoted += bool(eliminated)
            outcomes.add("solved" if sol is not None else
                         "by elimination" if eliminated is None else
                         "by sparse_solve")
    assert pivoted > 100 and repeated > 50
    assert outcomes == {"solved", "by elimination", "by sparse_solve"}


def test_action_keys_merge_exactly_the_pairs_that_act_alike():
    from pdpairs.chains import _central_cosets
    for model in ELIMINATION_GROUPS.values():
        elems = model.ball(0)
        cosets = _central_cosets(model)
        keys = {}
        for u in elems:
            for w in elems:
                c, z = cosets[u]
                action = tuple(model.mul(model.mul(u, g), w) for g in elems)
                keys.setdefault((c, model.mul(z, w)), set()).add(action)
        # one action per key, and as many keys as actions
        assert all(len(actions) == 1 for actions in keys.values())
        assert len({a for s in keys.values() for a in s}) == len(keys)
    c4 = ELIMINATION_GROUPS["C4"]
    assert all(_central_cosets(c4)[u] == (0, u) for u in range(4))
    # S3 has a trivial centre: no two of its 36 pairs merge
    s3 = ELIMINATION_GROUPS["S3"]
    assert all(_central_cosets(s3)[u] == (u, 0) for u in range(6))


def test_lambda_elimination_merges_terms_that_act_alike():
    # 2 g.X - X.g: over C4 both terms act as X -> g X, so X's coefficient
    # is the unit g and X is eliminated; over S3, g = r is not central,
    # the two terms stay apart and nothing is eliminated
    for group, pivots in (("C4", 1), ("S3", 0)):
        model = ELIMINATION_GROUPS[group]
        g = LambdaMatrix.from_rows(model, [[model.unit(1)]])
        system = LambdaLinearSystem(model)
        system.add_var("x", 1, 1)
        rhs = LambdaMatrix.from_rows(model, [[model.unit(2)]])
        system.add_constraint([(2, None, "x", g), (-1, g, "x", None)], rhs)
        _, log = system._eliminate(system._statement()[0])
        assert len(log) == pivots
        _check_elimination(system)


def test_repeated_integer_equations_reach_sparse_solve_once(monkeypatch):
    # over C5, N . X = 3N linearizes to 5 copies of one row; sparse_solve
    # gets it once.  N . X = 2N has the same left side: both right-hand
    # sides must reach it, and together they have no solution.
    import pdpairs.intlinalg as intlinalg
    model = FiniteTable.cyclic(5, "g")
    norm = LambdaMatrix.from_rows(model, [[_norm(model)]])
    system = LambdaLinearSystem(model)
    system.add_var("x", 1, 1)
    system.add_constraint([(1, norm, "x", None)], norm.scale(3))
    rows, _, rhs = _full_system(system)
    assert len(rows) == 5 and all(row == rows[0] for row in rows)
    assert rhs == [3] * 5
    seen = []
    real = intlinalg.sparse_solve

    def record(rows, ncols, rhs):
        seen.append((len(rows), list(rhs)))
        return real(rows, ncols, rhs)

    monkeypatch.setattr(intlinalg, "sparse_solve", record)
    sol, _ = _check_elimination(system)
    assert sol is not None and seen == [(1, [3])]
    system.add_constraint([(1, norm, "x", None)], norm.scale(2))
    sol, _ = _check_elimination(system)
    assert sol is None and seen[1] == (2, [3, 2])


def _norm_paths(monkeypatch):
    """For each _norm_rows call, in order, whether it built the integer
    system itself (True) or left it to _linearize (False)."""
    taken = []
    real = LambdaLinearSystem._norm_rows

    def spy(self, parts, support, kept):
        out = real(self, parts, support, kept)
        taken.append(out is not None)
        return out

    monkeypatch.setattr(LambdaLinearSystem, "_norm_rows", spy)
    return taken


def test_finite_integer_systems_match_the_general_path(monkeypatch):
    # every finite system of nu on L(2..13,1) and of realizing L(7..9,1)
    # reaches sparse_solve as the rows _linearize and de-duplication give,
    # in their order; nu's take the norm-multiple path, realize's both
    from oracles import integer_system_reference
    from pdpairs.catalog import build_lens
    from pdpairs.invariants import nu_of_pair, nu_verdict
    from pdpairs.pairs import verify_pd
    from pdpairs.sums import export_realization_input, realize_free_case
    taken = _norm_paths(monkeypatch)
    real = LambdaLinearSystem._integer_system

    def check(self, support):
        out = real(self, support)
        assert self.model.is_finite()
        assert out == integer_system_reference(self, support)
        return out

    monkeypatch.setattr(LambdaLinearSystem, "_integer_system", check)
    for p in range(2, 14):
        pair = build_lens(p)
        nu_verdict(nu_of_pair(pair, verify_pd(pair).fundamental_class))
    assert len(taken) == 12 and all(taken)
    taken.clear()
    for p in (7, 8, 9):
        pair = build_lens(p)
        realize_free_case(export_realization_input(pair, verify_pd(pair)))
    assert any(taken) and not all(taken)


@pytest.mark.parametrize("group", sorted(ELIMINATION_GROUPS))
def test_random_integer_systems_match_the_general_path(group, monkeypatch):
    # S3 is not abelian and always takes the general path; over the trivial
    # group every coefficient is a multiple of N = 1
    from oracles import integer_system_reference
    model = ELIMINATION_GROUPS[group]
    support = model.ball(0)
    taken = _norm_paths(monkeypatch)
    rng = random.Random(f"norm-rows-{group}")
    for _ in range(40):
        system = _random_lambda_system(model, rng)
        assert system._integer_system(support) == \
            integer_system_reference(system, support)
    assert set(taken) == {"1": {True}, "S3": {False}}.get(group,
                                                          {True, False})


def test_norm_multiple_equation_keeps_each_right_hand_side(monkeypatch):
    # over C5, N . X = 3N + g: its five rows read N . X, with right-hand
    # side 4 at g and 3 elsewhere.  Both values reach sparse_solve, in the
    # order of their first copies, and together refute the system.
    from oracles import integer_system_reference
    model = FiniteTable.cyclic(5, "g")
    support = model.ball(0)
    norm = LambdaMatrix.from_rows(model, [[_norm(model)]])
    system = LambdaLinearSystem(model)
    system.add_var("x", 1, 1)
    system.add_constraint([(1, norm, "x", None)], norm.scale(3) +
                          LambdaMatrix.from_rows(model, [[model.unit(1)]]))
    taken = _norm_paths(monkeypatch)
    got = system._integer_system(support)
    assert taken == [True]
    assert got == integer_system_reference(system, support)
    assert got[:2] == ([dict.fromkeys(range(5), 1)] * 2, [3, 4])
    assert system.solve() is None


def test_cancelled_norm_equation_keeps_its_empty_row(monkeypatch):
    # N . X - N . X = 0 leaves equation 0 with no unknown: its rows are
    # empty, and the one kept stays row 0, ahead of N . Y = 2N's
    from oracles import integer_system_reference
    model = FiniteTable.cyclic(3, "g")
    support = model.ball(0)
    norm = LambdaMatrix.from_rows(model, [[_norm(model)]])
    system = LambdaLinearSystem(model)
    system.add_var("x", 1, 1)
    system.add_var("y", 1, 1)
    system.add_constraint([(1, norm, "x", None), (-1, norm, "x", None)],
                          LambdaMatrix.zero(model, 1, 1))
    system.add_constraint([(1, norm, "y", None)], norm.scale(2))
    taken = _norm_paths(monkeypatch)
    got = system._integer_system(support)
    assert taken == [True]
    assert got == integer_system_reference(system, support)
    assert got[:2] == ([{}, dict.fromkeys(range(3, 6), 1)], [0, 2])
    assert system.solve()["y"].data[0][0].aug() == 2


def test_norm_rows_go_where_their_first_copies_do(monkeypatch):
    from oracles import integer_system_reference
    model = FiniteTable.cyclic(3, "g")
    support = model.ball(0)
    g, one = model.unit(1), model.one()
    norm = _norm(model)
    zero = LambdaMatrix.zero(model, 1, 1)
    taken = _norm_paths(monkeypatch)
    # N . X = 0 is stated twice, with N . Y = 3N between: X's zero row is
    # placed by its first statement, not its last
    system = LambdaLinearSystem(model)
    system.add_var("x", 1, 1)
    system.add_var("y", 1, 1)
    n = LambdaMatrix.from_rows(model, [[norm]])
    system.add_constraint([(1, n, "x", None)], zero)
    system.add_constraint([(1, n, "y", None)], n.scale(3))
    system.add_constraint([(1, n, "x", None)], zero)
    got = system._integer_system(support)
    assert got == integer_system_reference(system, support)
    assert got[1] == [0, 3]
    # X . [1, 2N] + X . [g + g^2, 0] = [1, 0]: the first term reaches
    # equation (0, 0) first, but only at h = 1 for g = 1, where its
    # right-hand side is not 0; equation (0, 1), 2N . X = 0, reaches its
    # zero row at g = 1, before (0, 0) does at g = g
    system = LambdaLinearSystem(model)
    system.add_var("x", 1, 1)
    system.add_constraint(
        [(1, None, "x", LambdaMatrix.from_rows(model, [[one, norm * 2]])),
         (1, None, "x", LambdaMatrix.from_rows(model, [[g + g * g,
                                                        model.zero()]]))],
        LambdaMatrix.from_rows(model, [[one, model.zero()]]))
    got = system._integer_system(support)
    assert got == integer_system_reference(system, support)
    assert [set(row.values()) for row in got[0]] == [{1}, {2}, {1}]
    assert got[1] == [1, 0, 0]
    assert taken == [True, True]


# (count, sha256) of every LambdaLinearSystem.solve result while computing
# nu of L(p,1), p = 2..13, and realizing L(7..9,1), each result the entries
# of each variable in var_order (their supports in order) or None, as
# recorded before solve stated each distinct integer equation once
FINITE_SOLUTIONS = (27, "e58817da8acc7081caf82c71568abc01"
                        "0bc690da62aa37cc7f4f59523fb531e1")


def test_finite_group_solutions_are_unchanged(monkeypatch):
    import pdpairs.sums as sums
    from pdpairs.catalog import build_lens
    from pdpairs.invariants import nu_of_pair, nu_verdict
    from pdpairs.pairs import solve_diagonal_cell, verify_pd
    from pdpairs.sums import export_realization_input, realize_free_case
    results = []
    real = LambdaLinearSystem.solve
    real_transfer = sums.transfer_diagonal

    def record(self, radius=4):
        out = real(self, radius)
        assert self.model.is_finite()
        results.append(None if out is None else [
            (name, [[list(e.support.items()) for e in row]
                    for row in out[name].data])
            for name in self.var_order])
        return out

    def transfer(s, complex_, diagonal, cell):
        # the realized cell's search, at realize's radius
        solve_diagonal_cell(complex_, diagonal, cell, radius=4)
        return real_transfer(s, complex_, diagonal, cell)

    monkeypatch.setattr(LambdaLinearSystem, "solve", record)
    monkeypatch.setattr(sums, "transfer_diagonal", transfer)
    for p in range(2, 14):
        pair = build_lens(p)
        nu_verdict(nu_of_pair(pair, verify_pd(pair).fundamental_class))
    for p in (7, 8, 9):
        pair = build_lens(p)
        realize_free_case(export_realization_input(pair, verify_pd(pair)))
    digest = hashlib.sha256()
    for result in results:
        digest.update(repr(result).encode())
    assert (len(results), digest.hexdigest()) == FINITE_SOLUTIONS


def test_cover_contraction_is_a_contracting_homotopy():
    from pdpairs.catalog import build_lens
    complexes = [build_lens(2).P, build_lens(5).P,
                 free_resolution(FiniteTable.symmetric3())]
    assert complexes[2].ranks == {0: 1, 1: 2, 2: 7, 3: 35}
    for complex_ in complexes:
        s = CoverContraction(complex_)
        assert s.base == (0, 0)
        assert contraction_defects(complex_, s) == []
        # every basis element of degree <= 2 was solved once
        assert len(s.memo) == len(complex_.model.ball(0)) * sum(
            complex_.rank(d) for d in range(3))


def test_cover_contraction_fails_where_the_cover_has_homology():
    # over the trivial group, a 2-sphere that bounds no 3-cell
    triv = TrivialGroup()
    one = triv.one()
    complex_ = LambdaComplex(triv, {0: 1, 2: 2, 3: 1},
                             {3: LambdaMatrix.from_rows(triv, [[one], [one]])},
                             augmentation=[one])
    s = CoverContraction(complex_)
    assert s((0, 0), ()) == {}
    assert s((2, 0), ()) is None and s((2, 1), ()) is None
    assert contraction_defects(complex_, s) == [((2, 0), ()), ((2, 1), ())]
