"""The duality engine: diagonals, slant, cap, ladder, verdicts, sums."""

import hashlib
import random

import pytest

from pdpairs.catalog import (
    build_broken_boundary_sign,
    build_broken_doubled,
    build_broken_noncycle,
    build_d3,
    build_d3_collared,
    build_lens,
    build_solid_torus,
    build_solid_torus_collared,
    catalog_entries,
)
from pdpairs.chains import (
    LambdaComplex,
    LambdaMatrix,
    apply_matrix,
    is_nullhomotopic,
    kills_homology,
)
from pdpairs.groups import (
    FiniteTable,
    FreeProduct,
    InfiniteCyclic,
    TrivialGroup,
)
from pdpairs.intlinalg import mat_vec

from oracles import (
    lambda_tensor_boundary_reference,
    solve_diagonal_cell_reference,
    tensor_chain_boundary_reference,
    verify_pd_finite_reference,
)
from pdpairs.pairs import (
    ChainPairData,
    LambdaTensor,
    PairError,
    algebraic_sum,
    boundary_pair,
    cap_top_identity,
    check_cap_top_identity,
    evaluation_square_maps,
    slant,
    solve_diagonal_cell,
    tensor_of_chains,
    twisted_to_chain,
    verify_ladder,
    verify_pd,
)


PASS_BUILDERS = [build_d3, build_d3_collared, build_solid_torus,
                 build_solid_torus_collared, lambda: build_lens(2),
                 lambda: build_lens(3)]


def random_ring(model, rng, radius=2, terms=2):
    ball = model.ball(radius)
    out = model.zero()
    for _ in range(terms):
        out = out + model.unit(ball[rng.randrange(len(ball))],
                               rng.randint(-2, 2))
    return out


def test_pair_constructor_rejects_bad_counit():
    triv = TrivialGroup()
    one = triv.one()
    c = LambdaComplex(triv, {0: 1, 2: 1}, {}, augmentation=[one],
                      basis_names={0: ("v",), 2: ("F",)})
    diag = {
        (0, 0): LambdaTensor(triv, {((0, 0), (), (0, 0)): one}),
        (2, 0): LambdaTensor(triv, {((0, 0), (), (2, 0)): one}),  # one side only
    }
    with pytest.raises(PairError, match="counit"):
        ChainPairData(c, {}, diag)


def test_pair_constructor_rejects_incompatible_subdiagonal():
    pair = build_d3()
    diag = dict(pair.diagonal)
    t = diag[(2, 0)].copy()
    t.add_term((2, 0), (), (0, 0), pair.model.one())  # breaks counit too
    # move the boundary 2-cell's diagonal outside the subcomplex instead
    bad = LambdaTensor(pair.model)
    bad.add_term((0, 0), (), (2, 0), pair.model.one())
    bad.add_term((2, 0), (), (0, 0), pair.model.one())
    # retarget: F's diagonal referencing the interior 3-cell is impossible
    # degree-wise, so break compatibility via a subcomplex that omits v
    with pytest.raises(PairError):
        ChainPairData(pair.P, {2: (0,)}, dict(pair.diagonal))


def test_relative_diagonal_d3():
    pair = build_d3()
    cell = pair.cell("E")
    rel = pair.relative_diagonal(cell, "left")
    assert ((0, 0), (), (3, 0)) in rel.terms  # v (x) E survives
    relr = pair.relative_diagonal(cell, "right")
    assert ((3, 0), (), (0, 0)) in relr.terms


def test_relative_diagonal_empty_sub_is_full_diagonal():
    pair = build_lens(3)
    cell = pair.cell("E")
    assert pair.relative_diagonal(cell, "left") == pair.diagonal[cell]


def reduce_tensor(t):
    """The Z^omega reduction of a LambdaTensor: each coefficient's twisted
    augmentation, zeros dropped."""
    out = {}
    for key, coeff in t.terms.items():
        c = coeff.aug_signed()
        if c:
            out[key] = c
    return out


def _random_complex(model, rng, ranks):
    bd = {d: LambdaMatrix.from_rows(
              model, [[random_ring(model, rng, 1) for _ in range(ranks[d])]
                      for _ in range(ranks[d - 1])])
          for d in ranks if d - 1 in ranks}
    return LambdaComplex(model, ranks, bd, check=False)


@pytest.mark.parametrize("model", [
    InfiniteCyclic("t"), InfiniteCyclic("t", omega_gen=1),
    FiniteTable.cyclic(3, "g"),
    FreeProduct(InfiniteCyclic("s", omega_gen=1), InfiniteCyclic("t"))],
    ids=["Z", "Z-omega", "C3", "Z*Z"])
def test_reduction_commutes_with_tensor_boundary(model):
    rng = random.Random(23)
    ball = model.ball(1)
    for _ in range(8):
        P = _random_complex(model, rng, {0: 2, 1: 2, 2: 1})
        D = _random_complex(model, rng, {0: 1, 1: 2, 2: 2})
        t = LambdaTensor(model)
        for _ in range(4):
            da, db = rng.choice((0, 1, 2)), rng.choice((0, 1, 2))
            t.add_term((da, rng.randrange(P.rank(da))),
                       ball[rng.randrange(len(ball))],
                       (db, rng.randrange(D.rank(db))),
                       random_ring(model, rng, 1))
        assert reduce_tensor(t.boundary(P, D)) == \
            tensor_chain_boundary_reference(model, reduce_tensor(t), P, D)


@pytest.mark.parametrize("model", [
    InfiniteCyclic("t"), FiniteTable.cyclic(3, "g"),
    FiniteTable.symmetric3(),
    FreeProduct(InfiniteCyclic("s", omega_gen=1), InfiniteCyclic("t"))],
    ids=["Z", "C3", "S3", "Z*Z"])
def test_tensor_boundary_keeps_the_ring_formula_order(model):
    # keys, their order and each support's order must agree.  First, three
    # edges with boundaries v, -v and v: the key (v, 1, v) cancels and
    # comes back after (v, g, v), whose element 1 cancels and comes back
    # after g
    one = model.one()
    ball = model.ball(1)
    g = next(k for k in ball if k != model.identity())
    P = LambdaComplex(model, {0: 1, 1: 3},
                      {1: LambdaMatrix.from_rows(model, [[one, -one, one]])},
                      check=False)
    D = LambdaComplex(model, {0: 1}, {}, check=False)
    v, e = (0, 0), [(1, i) for i in range(3)]
    t = LambdaTensor(model)
    for edge, k, coeff in ((0, model.identity(), one),
                           (1, model.identity(), one), (0, g, one),
                           (2, model.identity(), one + model.unit(g)),
                           (1, g, one + model.unit(g)), (2, g, one)):
        t.add_term(e[edge], k, v, coeff)
    ref = lambda_tensor_boundary_reference(t, P, D)
    assert list(ref.terms) == [(v, g, v), (v, model.identity(), v)]
    assert list(ref.terms[(v, g, v)].support) == [g, model.identity()]
    cases = [(t, P, D)]
    rng = random.Random(f"tensor-boundary-{model!r}")
    for _ in range(30):
        P = _random_complex(model, rng, {0: 1, 1: 2, 2: 1})
        D = _random_complex(model, rng, {0: 2, 1: 1, 2: 1})
        t = LambdaTensor(model)
        for _ in range(rng.randint(1, 12)):
            da, db = rng.choice((0, 1, 2)), rng.choice((0, 1, 2))
            t.add_term((da, rng.randrange(P.rank(da))),
                       ball[rng.randrange(len(ball))],
                       (db, rng.randrange(D.rank(db))),
                       random_ring(model, rng, 1, terms=3))
        cases.append((t, P, D))
    for t, P, D in cases:
        new = t.boundary(P, D)
        ref = lambda_tensor_boundary_reference(t, P, D)
        assert list(new.terms) == list(ref.terms)
        for key, coeff in new.terms.items():
            assert list(coeff.support.items()) == \
                list(ref.terms[key].support.items())


def test_tensor_chain_boundary_squares_to_zero():
    pair = build_solid_torus()
    x, _ = pair.fundamental_class_candidate()
    z = pair.class_tensor(x, "left")
    dz = z.boundary(pair.P, pair.D)
    ddz = dz.boundary(pair.P, pair.D)
    assert not reduce_tensor(ddz)


def test_class_tensor_is_cycle():
    for builder in (build_solid_torus, build_d3, lambda: build_lens(3)):
        pair = builder()
        x, _ = pair.fundamental_class_candidate()
        z = pair.class_tensor(x, "left")
        assert not reduce_tensor(z.boundary(pair.P, pair.D))
        z2 = pair.class_tensor(x, "right")
        assert not reduce_tensor(z2.boundary(pair.D, pair.P))


def test_slant_zero_cochain():
    pair = build_solid_torus()
    x, _ = pair.fundamental_class_candidate()
    z = pair.class_tensor(x, "left")
    out = slant(pair.model, 2, lambda i: pair.model.zero(), z)
    assert out == {}


def test_slant_degree_zero_picks_component():
    # phi = augmentation dual at the basepoint: slant returns the d-part
    pair = build_d3()
    x, _ = pair.fundamental_class_candidate()
    z = pair.class_tensor(x, "left")
    out = slant(pair.model, 0, lambda i: pair.model.one(), z)
    assert list(out) == [(3, 0)]


def test_slant_is_chain_map_random():
    """d(phi/z) = (-1)^{k+1} (phi.d)/z + (-1)^k phi/(dz), in chain form."""
    pair = build_solid_torus()
    model = pair.model
    rng = random.Random(4)
    P, D = pair.P, pair.D
    for k in (0, 1, 2, 3):
        for _ in range(6):
            # random (not closed) tensor of total degree n in P (x) D form
            z = LambdaTensor(model)
            ball = model.ball(1)
            for _ in range(3):
                da = rng.choice([d for d in P.degrees()])
                db_opts = [d for d in D.degrees()]
                db = rng.choice(db_opts)
                ia = rng.randrange(P.rank(da))
                ib = rng.randrange(D.rank(db))
                g = ball[rng.randrange(len(ball))]
                z.add_term((da, ia), g, (db, ib),
                           model.from_int(rng.randint(-2, 2)))
            phi_row = [random_ring(model, rng, 1) for _ in range(P.rank(k))]

            def phi(i, row=phi_row):
                return row[i]

            lhs_tw = slant(model, k, phi, z)
            lhs = twisted_to_chain(lhs_tw)
            # d of the chain, per degree of the second factor
            dm = {}
            for (db, ib), val in lhs.items():
                bd = D.boundary_or_zero(db)
                for r in range(bd.rows):
                    e = bd.data[r][ib]
                    if e.is_zero():
                        continue
                    key = (db - 1, r)
                    dm[key] = dm.get(key, model.zero()) + val * e
            dm = {kk: v for kk, v in dm.items() if not v.is_zero()}
            # rhs: (-1)^{k+1} (phi . d)/z + (-1)^k phi/(dz)
            d_next = P.boundary_or_zero(k + 1)

            def phi_d(i):
                col = d_next.column(i) if d_next.cols else []
                out = model.zero()
                for j, e in enumerate(col):
                    if not e.is_zero():
                        out = out + e * phi_row[j]
                return out

            s1 = twisted_to_chain(slant(model, k + 1, phi_d, z))
            s2 = twisted_to_chain(slant(model, k, phi,
                                        z.boundary(P, D)))
            sign1 = -1 if (k + 1) % 2 else 1
            sign2 = -1 if k % 2 else 1
            rhs = {}
            for src, sgn in ((s1, sign1), (s2, sign2)):
                for kk, v in src.items():
                    rhs[kk] = rhs.get(kk, model.zero()) + v * sgn
            rhs = {kk: v for kk, v in rhs.items() if not v.is_zero()}
            assert dm == rhs


def test_phi_d_formula_matches_dual_boundary():
    # the cochain differential used above is the bar-transpose convention
    pair = build_solid_torus()
    P = pair.P
    dual = P.hom_dual()
    m = dual.boundary_or_zero(-2)
    assert m == P.boundary_or_zero(3).bar_transpose()


def test_cap_with_is_chain_map_and_rejects_noncycle():
    pair = build_solid_torus()
    x, _ = pair.fundamental_class_candidate()
    cap = pair.cap_with(x, side="P")
    cap.validate()
    capd = pair.cap_with(x, side="D")
    capd.validate()
    broken = build_broken_noncycle()
    with pytest.raises(PairError, match="cycle"):
        broken.cap_with(broken.class_override, side="P")


def test_cap_d3_generator_to_generator():
    pair = build_d3()
    x, _ = pair.fundamental_class_candidate()
    cap = pair.cap_with(x, side="P")
    # H^0(P) -> H_3(D): the vertex dual maps to the top cell
    m = cap.component(0)
    assert m.rows == 1 and m.cols == 1
    assert abs(m.data[0][0].aug()) == 1


def test_connecting_map_is_chain_map_and_hits_boundary_class():
    pair = build_solid_torus()
    w = pair.connecting_map()
    w.validate()
    x, _ = pair.fundamental_class_candidate()
    delta = pair.boundary_class(x)
    # the boundary torus class is the full surface cycle T + d
    names = [pair.Q.name_of(2, i) for i in range(pair.Q.rank(2))]
    got = dict(zip(names, delta))
    assert got == {"T": 1, "d": 1}


def test_connecting_of_sub_cycle_is_zero():
    # a cycle supported on the subcomplex maps to zero through the quotient
    pair = build_solid_torus()
    w = pair.connecting_map()
    n = pair.dimension
    proj = pair.projection_map()
    intp = proj.component(2).to_int_signed()
    # image under projection of the boundary cycle T + d is zero
    qcells = pair._q_cells[2]
    vec = [0] * pair.P.rank(2)
    for i, name in ((i, pair.P.name_of(2, i)) for i in qcells):
        vec[i] = 1
    assert all(v == 0 for v in mat_vec(intp, vec))


def test_dual_connecting_map_is_chain_map():
    pair = build_solid_torus()
    pair.dual_connecting_map().validate()


def test_verify_pd_catalog_passes():
    for builder in PASS_BUILDERS:
        pair = builder()
        v = verify_pd(pair)
        assert v.passed(), (pair.name, v.reason)


def test_verify_pd_broken_fixtures_fail():
    v = verify_pd(build_broken_boundary_sign())
    assert v.status == "fail" and "infinite cyclic" in v.reason
    v = verify_pd(build_broken_doubled())
    assert v.status == "fail"
    v = verify_pd(build_broken_noncycle())
    assert v.status == "fail" and "cycle" in v.reason


def test_verify_pd_doubled_fails_duality_even_without_delta_check():
    # strip the component marking so the failure reaches the cap stage
    pair = build_broken_doubled()
    pair.boundary_components = []
    v = verify_pd(pair)
    assert v.status == "fail"
    assert "cone" in v.reason or "cap" in v.reason


def test_pass_implies_ladder_passes():
    for builder in PASS_BUILDERS:
        pair = builder()
        v = verify_pd(pair)
        assert v.passed()
        rep = verify_ladder(pair, v.fundamental_class)
        assert rep.status == "pass", (pair.name, rep.sign_table())


def test_ladder_degenerate_for_closed_pairs():
    rep = verify_ladder(build_lens(5))
    assert rep.status == "pass"
    assert all(sq.method == "degenerate" for sq in rep.squares)


def test_ladder_sign_table_stable():
    pair = build_solid_torus()
    t1 = verify_ladder(pair).sign_table()
    t2 = verify_ladder(pair).sign_table()
    assert t1 == t2


def _ladder_operand(name):
    from pdpairs.sums import SumRecipe, boundary_sum, interior_sum
    if name == "st#st":
        left, right = build_solid_torus_collared(), build_solid_torus_collared()
        recipe = SumRecipe("interior", left, right, top_cells=("E2", "E2"))
        glue = interior_sum
    else:
        left, right = build_solid_torus(), build_solid_torus()
        recipe = SumRecipe("boundary", left, right,
                           components=("torus", "torus"))
        glue = boundary_sum
    return glue(recipe, (verify_pd(left), verify_pd(right))).pair


# (count, sha256) of the integer systems verify_ladder hands sparse_solve,
# rows in order with their entries in order, then the right-hand side, as
# recorded before solve eliminated over Lambda.  Over an infinite group it
# eliminates nothing, so verify-sums' systems must stay these.
LADDER_SYSTEMS = {
    "st#st": (5, "985776e64a5c6f4e29e1ca0836df4c74"
                 "2ad4a5c79771a348ad8ed38017ec636f"),
    "handlebody-genus-2": (2, "ffc7781941de19da2c26738c7541748c"
                              "19529af83e5619d5c2f09f266337a701"),
}


@pytest.mark.parametrize("name", sorted(LADDER_SYSTEMS))
def test_infinite_group_ladder_systems_are_unchanged(monkeypatch, name):
    import pdpairs.intlinalg as intlinalg
    pair = _ladder_operand(name)
    fundamental_class = verify_pd(pair).fundamental_class
    systems = []
    real = intlinalg.sparse_solve

    def record(rows, ncols, rhs):
        systems.append((ncols, [list(row.items()) for row in rows],
                        list(rhs)))
        return real(rows, ncols, rhs)

    monkeypatch.setattr(intlinalg, "sparse_solve", record)
    verify_ladder(pair, fundamental_class)
    digest = hashlib.sha256()
    for system in systems:
        digest.update(repr(system).encode())
    assert (len(systems), digest.hexdigest()) == LADDER_SYSTEMS[name]


def test_cap_top_identity_exact_on_random_cocycles():
    rng = random.Random(9)
    for builder in (build_d3, build_solid_torus, lambda: build_lens(3),
                    build_d3_collared):
        pair = builder()
        v = verify_pd(pair)
        x = v.fundamental_class
        w1 = cap_top_identity(pair, x)
        assert w1 is not None, pair.name
        for _ in range(20):
            phi = [random_ring(pair.model, rng) for _ in
                   range(pair.D.rank(pair.dimension))]
            assert check_cap_top_identity(pair, x, w1, phi), pair.name


def test_evaluation_square_commutes_exactly():
    for builder in (build_d3, build_solid_torus, lambda: build_lens(3)):
        pair = builder()
        v = verify_pd(pair)
        a, b = evaluation_square_maps(pair, v.fundamental_class)
        assert is_nullhomotopic(a - b, 3).found(), pair.name


def test_boundary_pair_of_solid_torus_is_closed_torus():
    pair = build_solid_torus()
    bp = boundary_pair(pair)
    assert bp.dimension == 2
    h = bp.P.tensor_Zomega().homology(2)
    assert h.is_infinite_cyclic()


def test_tensor_of_chains_normalization():
    z = InfiniteCyclic("t")
    t = z.unit(1)
    left = [t - 1]
    right = [z.unit(2)]
    out = tensor_of_chains(z, left, 2, right, 1)
    # (t c - c) (x) t^2 e  =  t (c (x) t e) - (c (x) t^2 e)
    assert out.terms[((2, 0), 1, (1, 0))] == t
    assert out.terms[((2, 0), 2, (1, 0))] == z.from_int(-1)


def test_solve_diagonal_cell_reproduces_known_diagonal():
    pair = build_solid_torus()
    partial = {c: t for c, t in pair.diagonal.items() if c[0] < 3}
    cell = pair.cell("E")
    solved = solve_diagonal_cell(pair.P, partial, cell, radius=2)
    assert solved is not None
    # must satisfy the same chain-map law as the stored diagonal
    full = dict(partial)
    full[cell] = solved
    ChainPairData(pair.P, dict(pair.sub_cells), full,
                  boundary_components=pair.boundary_components,
                  name="resolved")


def _diagonal_calls(monkeypatch, builder):
    """The solve_diagonal_cell inputs of realizing builder's pair: realize's
    own calls, and each cell whose diagonal it transfers over finite pi,
    with realize's radius 4."""
    import pdpairs.sums as sums
    calls = []
    real = sums.solve_diagonal_cell
    real_transfer = sums.transfer_diagonal

    def record(complex_, diagonal, cell, **kwargs):
        calls.append((complex_, dict(diagonal), cell, kwargs))
        return real(complex_, diagonal, cell, **kwargs)

    def record_transfer(s, complex_, diagonal, cell):
        calls.append((complex_, dict(diagonal), cell, {"radius": 4}))
        return real_transfer(s, complex_, diagonal, cell)

    monkeypatch.setattr(sums, "solve_diagonal_cell", record)
    monkeypatch.setattr(sums, "transfer_diagonal", record_transfer)
    pair = builder()
    sums.realize_free_case(
        sums.export_realization_input(pair, verify_pd(pair)))
    assert calls
    return calls


def _collared_e1_call():
    pair = build_solid_torus_collared()
    cell = pair.cell("E1")
    w = pair.cell("w")[1]
    partial = {c: t for c, t in pair.diagonal.items() if c != cell}
    return pair.P, partial, cell, {"radius": 2, "end_vertices": (w, w)}


def _chain_map_defect(complex_, diagonal, cell, tensor):
    bd = complex_.boundary_or_zero(cell[0])
    target = LambdaTensor(complex_.model)
    for m in range(bd.rows):
        if not bd.data[m][cell[1]].is_zero():
            target = target + diagonal[(cell[0] - 1, m)].scale_ring(
                bd.data[m][cell[1]])
    return tensor.boundary(complex_, complex_) - target


def _end_terms(tensor, cell):
    return {k: c for k, c in tensor.terms.items() if cell in (k[0], k[2])}


REALIZED = [build_d3, build_solid_torus] + [
    (lambda p: lambda: build_lens(p))(p) for p in range(2, 10)]


@pytest.mark.parametrize("builder", REALIZED,
                         ids=["d3", "solid-torus"] + [
                             f"lens-{p}" for p in range(2, 10)])
def test_solve_diagonal_cell_matches_reference_on_realized_cells(
        monkeypatch, builder):
    for complex_, diagonal, cell, kwargs in _diagonal_calls(monkeypatch,
                                                            builder):
        new = solve_diagonal_cell(complex_, diagonal, cell, **kwargs)
        ref = solve_diagonal_cell_reference(complex_, diagonal, cell,
                                            **kwargs)
        assert (new is None) == (ref is None)
        if new is None:
            continue
        assert _end_terms(new, cell) == _end_terms(ref, cell)
        for t in (new, ref):
            assert _chain_map_defect(complex_, diagonal, cell, t).is_zero()


def test_solve_diagonal_cell_keeps_collared_shell_diagonal():
    complex_, partial, cell, kwargs = _collared_e1_call()
    new = solve_diagonal_cell(complex_, partial, cell, **kwargs)
    ref = solve_diagonal_cell_reference(complex_, partial, cell, **kwargs)
    literal = build_solid_torus_collared().diagonal[cell]
    assert list(new.terms.items()) == list(ref.terms.items())
    assert list(new.terms.items()) == list(literal.terms.items())


SUM_ENTRIES = {"handlebody-genus-2", "interior-sum-d3-d3",
               "interior-sum-st-st"}


def test_catalog_builders_run_no_search(monkeypatch):
    from pdpairs import catalog, intlinalg, pairs
    calls = []
    real_snf = intlinalg.snf

    def smith_form(a):  # a LinearSolver or a sparse_solve core
        calls.append("snf")
        return real_snf(a)

    def solve(*args, **kwargs):
        calls.append("solve_diagonal_cell")
        return solve_diagonal_cell(*args, **kwargs)

    monkeypatch.setattr(intlinalg, "snf", smith_form)
    monkeypatch.setattr(pairs, "solve_diagonal_cell", solve)
    entries = catalog.catalog_entries()
    assert SUM_ENTRIES <= {e.name for e in entries}
    for entry in entries:
        if entry.name not in SUM_ENTRIES:
            entry.builder()
            assert calls == [], entry.name
    # the spy sees a residual core: 2 x = 4 has no unit pivot
    assert intlinalg.sparse_solve([{0: 2}], 1, [4]) == [2]
    assert calls == ["snf"]


def _collared_with_shell(edit):
    """The collared solid torus rebuilt with edit applied to E1's terms."""
    pair = build_solid_torus_collared()
    diagonal = dict(pair.diagonal)
    shell = diagonal[pair.cell("E1")] = diagonal[pair.cell("E1")].copy()
    edit(shell.terms, pair.cell)
    return ChainPairData(pair.P, dict(pair.sub_cells), diagonal,
                         boundary_components=pair.boundary_components,
                         top_cell="E2")


def test_collared_shell_literal_is_validated():
    def flip(terms, cell):
        key = (cell("d"), 0, cell("s"))
        terms[key] = -terms[key]

    def drop(terms, cell):
        del terms[(cell("E1"), 0, cell("w"))]

    _collared_with_shell(lambda terms, cell: None)
    with pytest.raises(PairError,
                       match="diagonal is not a chain map at E1"):
        _collared_with_shell(flip)
    with pytest.raises(PairError, match="counit law fails on cell E1"):
        _collared_with_shell(drop)


def test_solve_diagonal_cell_agrees_with_reference_on_no_diagonal():
    # doubling a 2-cell diagonal breaks its counit, so no top diagonal
    # satisfies the chain-map law at any radius
    pair = build_solid_torus()
    cell = pair.cell("E")
    partial = {c: t for c, t in pair.diagonal.items() if c[0] < 3}
    partial[(2, 0)] = partial[(2, 0)].scale(2)
    assert solve_diagonal_cell(pair.P, partial, cell, radius=2) is None
    assert solve_diagonal_cell_reference(pair.P, partial, cell,
                                         radius=2) is None


def test_solve_diagonal_cell_solves_on_the_sparse_engine(monkeypatch):
    import pdpairs.chains as chains
    import pdpairs.intlinalg as intlinalg
    lens_call = next(call for call in _diagonal_calls(
        monkeypatch, lambda: build_lens(14)) if call[2] == (3, 0))
    pair = build_solid_torus()
    partial = {c: t for c, t in pair.diagonal.items() if c[0] < 3}
    calls = [(pair.P, partial, pair.cell("E"), {"radius": 2}),
             _collared_e1_call(), lens_call]
    built = {"column": 0, "systems": [], "cores": [], "depth": 0}
    column_init = chains.LambdaColumnSolver.__init__
    real_snf = intlinalg.snf
    real_sparse = intlinalg.sparse_solve

    def count_column(self, *args, **kwargs):
        built["column"] += 1
        column_init(self, *args, **kwargs)

    def count_integer(a):
        # a Smith form taken outside sparse_solve would be a dense solve
        assert built["depth"] == 1
        built["cores"].append(a.rows * a.cols)
        return real_snf(a)

    def sparse(rows, ncols, rhs):
        built["systems"].append((len(rows), ncols))
        built["depth"] += 1
        try:
            return real_sparse(rows, ncols, rhs)
        finally:
            built["depth"] -= 1

    monkeypatch.setattr(chains.LambdaColumnSolver, "__init__", count_column)
    monkeypatch.setattr(intlinalg, "snf", count_integer)
    monkeypatch.setattr(intlinalg, "sparse_solve", sparse)
    for complex_, diagonal, cell, kwargs in calls:
        built.update(column=0, systems=[], cores=[])
        assert solve_diagonal_cell(complex_, diagonal, cell,
                                   **kwargs) is not None
        assert built["column"] == 0
        assert built["systems"]
        assert all(cells <= 588 * 392 // 100 for cells in built["cores"])
    # the realized L(14,1) cell: one end choice, whose 588 x 392 integer
    # system Lambda-level elimination cuts to 196 x 28, copies of one row
    # that sparse_solve gets once, and unit pivots leave no residual core
    assert built["systems"] == [(1, 28)]
    assert built["cores"] == []
    # the spy sees a residual core: 2 x = 4 has no unit pivot
    assert intlinalg.sparse_solve([{0: 2}], 1, [4]) == [2]
    assert built["cores"] == [1]


def test_algebraic_sum_two_of_three_on_interior_model():
    l3, r3 = build_d3_collared(), build_d3_collared()
    from pdpairs.sums import SumRecipe, interior_sum
    out = interior_sum(SumRecipe("interior", l3, r3, top_cells=("E2", "E2")),
                       (verify_pd(l3), verify_pd(r3)))
    pair = out.pair
    assign = {}
    for d in pair.P.degrees():
        for i in range(pair.P.rank(d)):
            nm = pair.P.name_of(d, i)
            if nm in ("v", "Fm.2"):
                assign[nm] = 0
            elif nm.endswith(".1") or nm == "Esum":
                assign[nm] = 1
            else:
                assign[nm] = 2
    conds = algebraic_sum(pair, assign)
    assert conds.all_pass()
    assert all(im["confirmed"] for im in conds.implications)


def test_algebraic_sum_rejects_open_partition():
    pair = build_d3_collared()
    assign = {nm: 1 for d in pair.P.degrees()
              for i in range(pair.P.rank(d))
              for nm in [pair.P.name_of(d, i)]}
    assign["Fm"] = 2  # E1's boundary now crosses sides
    with pytest.raises(PairError, match="not closed"):
        algebraic_sum(pair, assign)


def test_verdict_json_shape():
    v = verify_pd(build_solid_torus())
    data = v.to_json_dict()
    assert set(data) >= {"status", "degree_certificates", "witnesses",
                         "fundamental_class"}


def test_connecting_map_d3_hits_sphere_class():
    pair = build_d3()
    x, _ = pair.fundamental_class_candidate()
    delta = pair.boundary_class(x)
    assert delta == [1]  # the boundary sphere's fundamental cycle


def test_boundary_class_lives_in_expected_degree():
    pair = build_d3_collared()
    x, _ = pair.fundamental_class_candidate()
    delta = pair.boundary_class(x)
    assert len(delta) == pair.Q.rank(2)
    assert any(delta)


def test_maps_homotopy_equal_linearized_homology_fallback():
    from pdpairs.chains import LambdaChainMap
    from pdpairs.groups import FiniteTable
    from pdpairs.pairs import _maps_homotopy_equal
    g2 = FiniteTable.cyclic(2, "g")
    # Lambda --2--> Lambda: the shift -1 map with f_1 = 1 is zero on
    # homology (H_1 = 0) but is not 2 h_1 - 2 h_0, so no homotopy exists;
    # over a finite group is_nullhomotopic decides that exactly, and no
    # homology-level comparison stands in for the missing homotopy
    s = LambdaComplex(g2, {0: 1, 1: 1},
                      {1: LambdaMatrix.from_int_rows(g2, [[2]])}, check=False)
    a = LambdaChainMap(s, s, -1, {1: LambdaMatrix.identity(g2, 1)})
    assert _maps_homotopy_equal(a, a.scale(0), 4) == (None, "fail")
    point = LambdaComplex(g2, {0: 1}, {}, check=False)
    ident = LambdaChainMap.identity(point)
    assert _maps_homotopy_equal(ident, ident.scale(0), 4) == (None, "fail")


def test_kills_homology_names_the_first_degree():
    from pdpairs.chains import LambdaChainMap
    c = build_lens(3).P  # the lens complex of C3
    ident = LambdaChainMap.identity(c)
    assert kills_homology(ident) == "nonzero on homology at degree 0"
    # Lambda --2--> Lambda has only torsion homology, H_0 = (Z/2)^k
    g2 = FiniteTable.cyclic(2, "g")
    two = LambdaComplex(g2, {0: 1, 1: 1},
                        {1: LambdaMatrix.from_int_rows(g2, [[2]])},
                        check=False)
    ident = LambdaChainMap.identity(two)
    assert kills_homology(ident) == "nonzero on homology at degree 0"
    assert kills_homology(ident.scale(2)) is None


def _finite_pairs():
    """Every finite catalog pair and fixture, and L(p, 1) for p <= 12."""
    import pathlib
    from pdpairs.dsl import ParseError, SemanticError, load_scenario
    pairs = [e.builder() for e in catalog_entries()]
    fixtures = pathlib.Path(__file__).resolve().parents[1] / "src" / \
        "pdpairs" / "fixtures"
    for path in sorted(fixtures.glob("*.pdp")):
        try:
            pairs.extend(load_scenario(path.read_text()).pairs.values())
        except (ParseError, SemanticError):
            continue
    pairs.extend(build_lens(p) for p in range(2, 13))
    return [p for p in pairs if p.model.is_finite()]


def _finite_branch(v):
    return v.status, v.reason, v.certificates, v.witness_kind


def test_verify_pd_finite_matches_reference():
    pairs = _finite_pairs()
    assert len(pairs) == 5 + 2 + 11
    for pair in pairs:
        v = verify_pd(pair)
        assert _finite_branch(v) == \
            verify_pd_finite_reference(pair, v.fundamental_class), pair.name


def test_verify_pd_finite_failure_matches_reference(monkeypatch):
    cap_with = ChainPairData.cap_with
    monkeypatch.setattr(ChainPairData, "cap_with",
                        lambda self, x, side="P": cap_with(self, x, side)
                        .scale(2))
    pair = build_lens(5)
    v = verify_pd(pair)
    assert v.reason.startswith("cap is not a quasi-isomorphism: cone H_")
    assert _finite_branch(v) == \
        verify_pd_finite_reference(pair, v.fundamental_class)


def test_verify_pd_lens_linearizes_no_cells(monkeypatch):
    # the unit entries of the L(30, 1) cone eliminate it to nothing, so no
    # block matrix with a cell is built
    from pdpairs import chains
    cells = []
    block = chains.system_block_matrix

    def spy(m):
        out = block(m)
        cells.append(out.rows * out.cols)
        return out
    monkeypatch.setattr(chains, "system_block_matrix", spy)
    v = verify_pd(build_lens(30))
    assert v.passed() and len(v.certificates) == 5
    assert not any(cells)
