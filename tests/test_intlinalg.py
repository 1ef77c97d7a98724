"""Exact linear algebra: SNF witnesses, solving, homology.

The independent oracle used here is the classical minors-gcd
characterization of the invariant factors: d_1 ... d_k = gcd of all k x k
minors.  It shares no code with the elimination engine.
"""

import heapq
import itertools
import math
import pathlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    bareiss_det,
    diagonal_matrix,
    homology_at_reference,
    kernel_basis_oracle,
    mat_mul,
    snf_reference,
    solve_integral,
    sparse_solve_reference,
    sparse_solve_scan_reference,
)
from pdpairs import intlinalg
from pdpairs.dsl import ParseError, SemanticError, load_scenario
from pdpairs.intlinalg import (
    HomologyGroup,
    IntMatrix,
    LinearSolver,
    homology_at,
    mat_vec,
    snf,
    sparse_solve,
)


def minors_gcd_invariant_factors(M: IntMatrix):
    """Oracle: invariant factors via gcds of k x k minors."""

    def det(rows, cols):
        # Laplace expansion; fine at oracle sizes.
        if not rows:
            return 1
        if len(rows) == 1:
            return M.data[rows[0]][cols[0]]
        total = 0
        r0 = rows[0]
        rest = rows[1:]
        for idx, c in enumerate(cols):
            a = M.data[r0][c]
            if a == 0:
                continue
            sub = det(rest, cols[:idx] + cols[idx + 1:])
            total += (-1) ** idx * a * sub
        return total

    prev = 1
    factors = []
    for k in range(1, min(M.rows, M.cols) + 1):
        g = 0
        for rows in itertools.combinations(range(M.rows), k):
            for cols in itertools.combinations(range(M.cols), k):
                g = math.gcd(g, det(list(rows), list(cols)))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def check_witnesses(A: IntMatrix, res):
    D = diagonal_matrix(res)
    assert mat_mul(mat_mul(res.U, A), res.V) == D
    assert mat_mul(res.U, res.Uinv) == IntMatrix.identity(A.rows)
    assert mat_mul(res.Uinv, res.U) == IntMatrix.identity(A.rows)
    assert abs(bareiss_det(res.V.data)) == 1
    for a, b in zip(res.diag, res.diag[1:]):
        assert a > 0 and b % a == 0


def test_snf_identity():
    res = snf(IntMatrix.identity(3))
    assert res.diag == [1, 1, 1]


def test_snf_zero_matrix_empty_diagonal():
    res = snf(IntMatrix.zero(3, 4))
    assert res.diag == []
    check_witnesses(IntMatrix.zero(3, 4), res)


def test_snf_2x4_example():
    A = IntMatrix.from_rows([[2, 4], [6, 8]])
    res = snf(A)
    assert res.diag == minors_gcd_invariant_factors(A) == [2, 4]
    check_witnesses(A, res)


def test_snf_random_matrices_against_minors_oracle():
    rng = random.Random(42)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        res = snf(A)
        check_witnesses(A, res)
        assert res.diag == minors_gcd_invariant_factors(A)


@given(st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=4),
                min_size=1, max_size=4).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=80, deadline=None)
def test_snf_witnesses_property(rows):
    A = IntMatrix.from_rows(rows)
    check_witnesses(A, snf(A))


def test_solve_trivial_and_obstructed():
    assert solve_integral(IntMatrix.from_rows([[2]]), [4]) == [2]
    assert solve_integral(IntMatrix.from_rows([[2]]), [3]) is None


def test_solve_round_trip():
    rng = random.Random(3)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = IntMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
        x0 = [rng.randint(-4, 4) for _ in range(n)]
        b = mat_vec(A, x0)
        x = solve_integral(A, b)
        assert x is not None
        assert mat_vec(A, x) == b


def test_kernel_basis_spans_kernel():
    A = IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
    ker = LinearSolver(A).kernel_basis()
    assert len(ker) == 2
    for v in ker:
        assert mat_vec(A, v) == [0, 0]


def test_homology_torus_degree1():
    # one vertex, edges a, b, c, two triangles; d1 = 0
    d2 = IntMatrix.from_rows([[1, 1], [1, 1], [-1, -1]])
    d1 = IntMatrix.zero(1, 3)
    h = homology_at(d2, d1)
    assert (h.free_rank, h.torsion) == (2, [])


def test_homology_klein_bottle_degree1():
    d2 = IntMatrix.from_rows([[1, 1], [1, -1], [-1, 1]])
    d1 = IntMatrix.zero(1, 3)
    h = homology_at(d2, d1)
    assert (h.free_rank, h.torsion) == (1, [2])


def test_homology_middle_free():
    d_in = IntMatrix.zero(4, 0)
    d_out = IntMatrix.zero(0, 4)
    h = homology_at(d_in, d_out)
    assert (h.free_rank, h.torsion) == (4, [])


def test_homology_rejects_non_complex():
    d_in = IntMatrix.from_rows([[1], [0]])
    d_out = IntMatrix.from_rows([[1, 0]])
    with pytest.raises(ValueError):
        homology_at(d_in, d_out)


def test_homology_generators_are_cycles():
    rng = random.Random(11)
    for _ in range(25):
        # random complex: C2 -> C1 -> C0 built from a random d2 and d1 = 0
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        d2 = IntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(n2)] for _ in range(n1)])
        d1 = IntMatrix.zero(1, n1)
        h = homology_at(d2, d1)
        for g in h.free_generators + h.torsion_generators:
            assert mat_vec(d1, g) == [0]
        # rank-nullity over Q: free rank = n1 - rank d1 - rank d2
        assert h.free_rank == n1 - snf(d2).rank


def _solve_by_mat_vec(solver, b):
    """LinearSolver.solve as it was: dense U.b and V.y."""
    res, A = solver.res, solver.A
    c = mat_vec(res.U, b)
    y = [0] * A.cols
    for i in range(A.rows):
        if i < res.rank:
            d = res.diag[i]
            if c[i] % d != 0:
                return None
            if i < A.cols:
                y[i] = c[i] // d
        elif c[i] != 0:
            return None
    return mat_vec(res.V, y)


def _random_rhs(rng, A, kind):
    m, n = A.rows, A.cols
    if kind == "zero":
        return [0] * m
    if kind == "sparse":
        x0 = [0] * n
        for j in rng.sample(range(n), min(n, 2)):
            x0[j] = rng.randint(-4, 4)
        return mat_vec(A, x0)
    if kind == "dense":
        return mat_vec(A, [rng.randint(-4, 4) for _ in range(n)])
    # unsolvable as a rule: an arbitrary vector, then one entry knocked off
    b = mat_vec(A, [rng.randint(-4, 4) for _ in range(n)])
    b[rng.randrange(m)] += rng.choice([1, 3])
    return b


@pytest.mark.parametrize("kind", ["sparse", "dense", "zero", "unsolvable"])
def test_linear_solver_matches_dense_witness_product(kind):
    rng = random.Random(f"linear-solver-{kind}")
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        A = IntMatrix.from_rows(
            [[rng.choice([0, 0, 1, -1, 2, -3, 5]) for _ in range(n)]
             for _ in range(m)])
        solver = LinearSolver(A)
        b = _random_rhs(rng, A, kind)
        x = solver.solve(b)
        assert x == _solve_by_mat_vec(solver, b)
        if x is not None:
            assert mat_vec(A, x) == b
        elif kind != "unsolvable":
            pytest.fail("a right-hand side in the image was not solved")


def test_linear_solver_degenerate_shapes():
    for A, b in ((IntMatrix.zero(3, 0), [0, 0, 0]),
                 (IntMatrix.zero(3, 0), [0, 1, 0]),
                 (IntMatrix.zero(0, 2), []),
                 (IntMatrix.zero(2, 2), [0, 0])):
        solver = LinearSolver(A)
        assert solver.solve(b) == _solve_by_mat_vec(solver, b)


def _random_sparse_system(rng, kind):
    """(rows, ncols, rhs) of one of the shapes sparse_solve meets."""
    big = kind == "large"
    m = rng.randint(30, 70) if big else rng.randint(0, 8)
    n = rng.randint(30, 70) if big else rng.randint(1, 8)
    if kind == "dense-ish":
        density, values = 0.7, [-3, -2, -1, 1, 2, 3]
    else:
        density = 4 / n if big else 0.35
        values = [1, -1, 1, -1, 1, -1, 2, -3]
    rows = [{c: rng.choice(values) for c in range(n)
             if rng.random() < density} for _ in range(m)]
    x0 = [rng.randint(-3, 3) for _ in range(n)]
    rhs = [sum(v * x0[c] for c, v in row.items()) for row in rows]
    if kind == "zero-rows":
        for ri in rng.sample(range(m), m // 2):
            rows[ri] = {}
            rhs[ri] = rng.choice([0, 0, 1])
    elif kind == "inconsistent" and rows:
        # a copy of a row with another right-hand side cancels to 0 = 1
        ri = rng.randrange(m)
        rows.append(dict(rows[ri]))
        rhs.append(rhs[ri] + 1)
    elif kind == "unsolvable-core":
        # a core without unit entries whose right-hand side is odd
        extra = rng.randint(1, 3)
        for _ in range(extra):
            rows.append({n + k: rng.choice([2, -2, 4, 0])
                         for k in range(extra)} | {n: 2})
            rhs.append(rng.choice([1, 3, -1]))
        n += extra
    elif rng.random() < 0.3 and rhs:
        rhs[rng.randrange(len(rhs))] += 1
    return rows, n, rhs


@pytest.mark.parametrize("kind", ["unit-heavy", "dense-ish", "zero-rows",
                                  "inconsistent", "unsolvable-core", "large"])
def test_sparse_solve_matches_full_scan_reference(kind):
    rng = random.Random(f"sparse-solve-{kind}")
    solved = unsolved = 0
    for _ in range(25 if kind == "large" else 150):
        rows, ncols, rhs = _random_sparse_system(rng, kind)
        before = [dict(r) for r in rows]
        x = sparse_solve(rows, ncols, rhs)
        assert rows == before  # the input is left alone
        assert x == sparse_solve_scan_reference(rows, ncols, rhs)
        if x is not None:
            solved += 1
            assert len(x) == ncols
            for row, bval in zip(rows, rhs):
                assert sum(v * x[c] for c, v in row.items()) == bval
        else:
            unsolved += 1
        if kind != "large":
            A = IntMatrix.from_rows(
                [[row.get(c, 0) for c in range(ncols)] for row in rows]
            ) if rows else IntMatrix.zero(0, ncols)
            assert (x is None) == (LinearSolver(A).solve(rhs) is None)
    if kind in ("inconsistent", "unsolvable-core"):
        assert unsolved > solved
    else:
        assert solved > 0


def _lazy_key_system(rng):
    """A unit-heavy system whose elimination fills in, cancels, empties
    rows and turns units into the other unit: some rows are combinations
    of others, and coefficients +-2 move entries across +-1."""
    m, n = rng.randint(4, 40), rng.randint(3, 30)
    values = [1, -1, 1, -1, 1, -1, 2, -2]
    rows = [{c: rng.choice(values)
             for c in rng.sample(range(n), rng.randint(1, min(6, n)))}
            for _ in range(m)]
    for _ in range(rng.randint(0, m // 2)):
        combo = {}
        for ri in rng.sample(range(len(rows)), 2):
            q = rng.choice([1, -1, 2])
            for c, v in rows[ri].items():
                combo[c] = combo.get(c, 0) + q * v
        rows.append({c: v for c, v in combo.items() if v})
    rng.shuffle(rows)
    x0 = [rng.randint(-2, 2) for _ in range(n)]
    rhs = [sum(v * x0[c] for c, v in row.items()) for row in rows]
    if rhs and rng.random() < 0.2:
        rhs[rng.randrange(len(rhs))] += 1
    return rows, n, rhs


def _recorded_systems(monkeypatch, run):
    """Every sparse system that run() hands to sparse_solve."""
    systems = []

    def record(rows, ncols, rhs):
        systems.append(([dict(r) for r in rows], ncols, list(rhs)))
        return sparse_solve(rows, ncols, rhs)

    monkeypatch.setattr(intlinalg, "sparse_solve", record)
    run()
    monkeypatch.undo()
    return systems


def _nu_of_lens(p):
    from pdpairs.catalog import build_lens
    from pdpairs.invariants import nu_of_pair, nu_verdict
    from pdpairs.pairs import verify_pd
    pair = build_lens(p)
    nu_verdict(nu_of_pair(pair, verify_pd(pair).fundamental_class))


def _lens_systems(monkeypatch):
    """Every sparse system that computing nu of L(5..12,1), L(30,1) and
    L(39,1) (the ends of the benchmark's verify-lens band) and realizing
    L(2..9,1) compiles; the realizations include each diagonal system."""
    from pdpairs.catalog import build_lens
    from pdpairs.pairs import verify_pd
    from pdpairs.sums import export_realization_input, realize_free_case

    def run():
        for p in [*range(5, 13), 30, 39]:
            _nu_of_lens(p)
        for p in range(2, 10):
            pair = build_lens(p)
            realize_free_case(export_realization_input(pair, verify_pd(pair)))

    return _recorded_systems(monkeypatch, run)


def test_sparse_solve_lazy_keys_match_eager_reference(monkeypatch):
    rng = random.Random("sparse-solve-lazy-keys")
    systems = [_lazy_key_system(rng) for _ in range(400)]
    lens = _lens_systems(monkeypatch)
    # the diagonal system of L(p,1) is 3p^2 x 2p^2, nu's is 5p x 6p
    shapes = [(len(r), n) for r, n, _ in lens]
    assert {(3 * 9 * 9, 2 * 9 * 9), (150, 180), (195, 234)} <= set(shapes)
    outcomes = []
    for rows, ncols, rhs in systems + lens:
        x = sparse_solve(rows, ncols, rhs)
        assert x == sparse_solve_reference(rows, ncols, rhs)
        outcomes.append(x is not None)
    assert True in outcomes and False in outcomes


def _nu_system_of_l30(monkeypatch):
    """nu of L(30,1) compiles one 150 x 180 system; its 7,200 entries are
    all units (the relations are the norm element), most of its rows die
    empty, and unit pivots leave a residual core of 2 rows."""
    (system,) = _recorded_systems(monkeypatch, lambda: _nu_of_lens(30))
    rows, ncols, _ = system
    assert (len(rows), ncols, sum(map(len, rows))) == (150, 180, 7200)
    assert all(v in (1, -1) for row in rows for v in row.values())
    return system


def test_sparse_solve_queues_one_key_per_row_until_it_fails(monkeypatch):
    rows, ncols, rhs = _nu_system_of_l30(monkeypatch)
    nnz = sum(map(len, rows))
    pops = 0
    real_pop = heapq.heappop

    def pop(heap):
        nonlocal pops
        pops += 1
        return real_pop(heap)

    monkeypatch.setattr(heapq, "heappop", pop)
    x = sparse_solve(rows, ncols, rhs)
    monkeypatch.undo()
    assert x is not None and x == sparse_solve_reference(rows, ncols, rhs)
    # a key per unit would pop every key of every dead row
    assert pops < nnz // 4


def test_sparse_solve_core_replays_the_logs_and_builds_no_u_or_v(
        monkeypatch):
    rows, ncols, rhs = _nu_system_of_l30(monkeypatch)
    results = []
    real_snf = intlinalg.snf

    def spy(A):
        results.append(real_snf(A))
        return results[-1]

    monkeypatch.setattr(intlinalg, "snf", spy)
    x = sparse_solve(rows, ncols, rhs)
    monkeypatch.undo()
    assert x == sparse_solve_reference(rows, ncols, rhs)
    assert [res.shape[0] for res in results] == [2]
    for res in results:
        assert "U" not in vars(res) and "V" not in vars(res)


def _random_snf_input(rng, kind):
    """An IntMatrix of one of the shapes snf meets."""
    if kind == "empty":
        m, n = rng.choice([(0, rng.randint(0, 5)), (rng.randint(0, 5), 0)])
        return IntMatrix.zero(m, n)
    if kind == "incidence":
        m, n = rng.randint(20, 150), rng.randint(20, 100)
        density = rng.choice([2, 3, 5]) / n
        return IntMatrix.from_rows(
            [[rng.choice([1, -1]) if rng.random() < density else 0
              for _ in range(n)] for _ in range(m)])
    if kind == "bezout":
        # invariant factors out of divisibility order, lightly mixed: the
        # elimination ends in Bezout mixes as a rule
        m, n = rng.randint(2, 6), rng.randint(2, 6)

        def ops(k):
            return [(rng.randrange(k), rng.randrange(k), rng.randint(-2, 2))
                    for _ in range(rng.randint(0, 4))]

        diag = [rng.choice([0, 1, 2, 3, 4, 5, 6, 9])
                for _ in range(min(m, n))]
        return _from_smith_form(diag, m, n, ops(m), ops(n))[0]
    m, n = rng.randint(1, 9), rng.randint(1, 9)
    # non-unit entries make remainders (re-pivots) and a Bezout phase
    values = [0, 0, 2, -2, 3, 4, -6, 9, 10, -15, 1]
    rows = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
    if kind == "zero-lines":
        for i in rng.sample(range(m), m // 2):
            rows[i] = [0] * n
        for j in rng.sample(range(n), n // 2):
            for row in rows:
                row[j] = 0
    return IntMatrix.from_rows(rows)


@pytest.mark.parametrize("kind", ["non-unit", "zero-lines", "empty",
                                  "incidence", "bezout"])
def test_snf_matches_reference(kind):
    rng = random.Random(f"snf-{kind}")
    non_unit = 0
    for _ in range(8 if kind == "incidence" else 150):
        A = _random_snf_input(rng, kind)
        before = A.copy()
        res = snf(A)
        assert A == before  # the input is left alone
        diag, U, V, Uinv = snf_reference(A)
        assert (res.diag, res.U, res.V) == (diag, U, V)
        first = res.Uinv
        assert first == Uinv
        assert res.Uinv == first
        non_unit += any(d > 1 for d in diag)
    if kind == "non-unit":
        assert non_unit > 50  # invariant factors other than 1 came up


def _random_complex(rng):
    """(d2, d1) with d1 * d2 = 0: d2's columns are random combinations of
    a kernel basis of d1, so the middle homology has torsion as a rule."""
    n0, n1 = rng.randint(0, 4), rng.randint(1, 7)
    d1_rows = [[rng.choice([0, 0, 1, -1, 2, 3]) for _ in range(n1)]
               for _ in range(n0)]
    kernel = (kernel_basis_oracle(d1_rows, n0, n1) if n0
              else [[int(i == j) for i in range(n1)] for j in range(n1)])
    n2 = rng.randint(0, 5)
    cols = []
    for _ in range(n2):
        coeffs = [rng.choice([0, 1, -2, 3, 4, 6]) for _ in kernel]
        cols.append([sum(c * v[i] for c, v in zip(coeffs, kernel))
                     for i in range(n1)])
    d1 = IntMatrix.from_rows(d1_rows) if n0 else IntMatrix.zero(0, n1)
    return IntMatrix.from_columns(cols, rows=n1), d1


def _assert_homology_matches_reference(d_in, d_out):
    h = homology_at(d_in, d_out)
    assert (h.free_rank, h.torsion, h.free_generators,
            h.torsion_generators) == homology_at_reference(d_in, d_out)
    return h


def test_homology_at_matches_reference_on_random_complexes():
    rng = random.Random("homology-at")
    torsion = 0
    for _ in range(150):
        d2, d1 = _random_complex(rng)
        h = _assert_homology_matches_reference(d2, d1)
        torsion += bool(h.torsion)
        _assert_homology_matches_reference(IntMatrix.zero(d1.cols, 0), d1)
        _assert_homology_matches_reference(
            d2, IntMatrix.zero(0, d2.rows))
    assert torsion > 20


def _fixture_int_complexes():
    fixtures = pathlib.Path(__file__).resolve().parents[1] / "src" \
        / "pdpairs" / "fixtures"
    for path in sorted(fixtures.glob("*.pdp")):
        try:
            scenario = load_scenario(path.read_text())
        except (ParseError, SemanticError):
            continue
        for name, pair in scenario.pairs.items():
            for part in ("P", "D", "Q"):
                lam = getattr(pair, part)
                yield f"{path.stem}.{name}.{part}.Zw", lam.tensor_Zomega()
                if lam.model.is_finite():
                    yield f"{path.stem}.{name}.{part}.lin", lam.linearized()


def test_homology_at_matches_reference_on_fixture_complexes():
    seen = []
    for label, cx in _fixture_int_complexes():
        degs = cx.degrees()
        for d in range(min(degs, default=0) - 1, max(degs, default=0) + 2):
            _assert_homology_matches_reference(cx.boundary_or_zero(d + 1),
                                               cx.boundary_or_zero(d))
        seen.append(label)
    assert any(label.endswith(".lin") for label in seen)


def test_homology_at_rejects_random_non_complexes():
    rng = random.Random("non-complex")
    raised = 0
    for _ in range(60):
        d2, d1 = _random_complex(rng)
        if not (d1.rows and d2.cols):
            continue
        d2.data[rng.randrange(d2.rows)][rng.randrange(d2.cols)] += 1
        if all(x == 0 for row in mat_mul(d1, d2).data for x in row):
            continue
        with pytest.raises(ValueError, match="not a complex"):
            homology_at(d2, d1)
        with pytest.raises(ValueError, match="not a complex"):
            homology_at_reference(d2, d1)
        raised += 1
    assert raised > 20


WITNESSES = ("U", "V", "Uinv")


@pytest.mark.parametrize("order", list(itertools.permutations(WITNESSES)))
def test_lazy_witnesses_match_reference_in_any_order(order):
    rng = random.Random("lazy-witnesses")
    mixes = 0
    for _ in range(80):
        A = _random_snf_input(rng, rng.choice(["non-unit", "bezout"]))
        res = snf(A)
        assert not set(WITNESSES) & set(vars(res))  # built on read only
        diag, *expected = snf_reference(A)
        expected = dict(zip(WITNESSES, expected))
        first = {}
        for name in order:
            first[name] = getattr(res, name)
            assert first[name] == expected[name]
        for name in order:
            assert getattr(res, name) is first[name]
        assert res.diag == diag
        mixes += any(op[0] == "mix" for op in res.col_ops)
    assert mixes > 10  # the Bezout phase ran and logged column mixes


def test_v_replays_match_dense_products():
    rng = random.Random("v-replay")
    mixes = 0
    for _ in range(150):
        A = _random_snf_input(
            rng, rng.choice(["non-unit", "zero-lines", "bezout"]))
        res = snf(A)
        V = snf_reference(A)[2]
        width = rng.randint(0, 4)
        W = IntMatrix(A.cols, width,
                      [[rng.randint(-5, 5) for _ in range(width)]
                       for _ in range(A.cols)])
        before = W.copy()
        assert res.V_times(W.data) == mat_mul(V, W).data
        Z = IntMatrix(A.cols, width, res.Vinv_times(W.data))
        assert mat_mul(V, Z) == W
        assert res.V_times(Z.data) == W.data
        assert W == before  # the replays leave their argument alone
        mixes += any(op[0] == "mix" for op in res.col_ops)
    assert mixes > 10


def _unimodular(ops, n):
    """(M, M^-1) for M the product of the row additions row i += q row j."""
    M = IntMatrix.identity(n)
    Minv = IntMatrix.identity(n)
    for i, j, q in ops:
        if i == j:
            continue
        M.data[i] = [x + q * y for x, y in zip(M.data[i], M.data[j])]
        for row in Minv.data:
            row[j] -= q * row[i]
    return M, Minv


def _from_smith_form(diag, m, n, row_ops, col_ops):
    """(U^-1 diag V^-1, V) for U^-1 and V the products of the given row
    additions; diag need not be in divisibility order."""
    Uinv, _ = _unimodular(row_ops, m)
    V, Vinv = _unimodular(col_ops, n)
    D = IntMatrix.zero(m, n)
    for i, d in enumerate(diag):
        D.data[i][i] = d
    return mat_mul(mat_mul(Uinv, D), Vinv), V


def _complex_from_smith_form(diag, m, n, row_ops, col_ops, kernel_rows):
    """(d_in, d_out) with d_out = U^-1 diag V^-1 and d_in = V (0; B).

    B holds kernel_rows in the rows where diag is zero or absent, so the
    homology is coker(B) plus what d_out's rank leaves free."""
    d_out, V = _from_smith_form(diag, m, n, row_ops, col_ops)
    width = len(kernel_rows[0]) if kernel_rows else 0
    rows = iter(kernel_rows)
    B = IntMatrix(n, width, [
        [0] * width if i < len(diag) and diag[i] else next(rows)
        for i in range(n)])
    return mat_mul(V, B), d_out


@st.composite
def _smith_form_complexes(draw):
    m, n = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    width = draw(st.integers(0, 4))
    diag = draw(st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 9]),
                         min_size=min(m, n), max_size=min(m, n)))

    def ops(size):
        if size < 2:
            return []
        index = st.integers(0, size - 1)
        return draw(st.lists(st.tuples(index, index, st.integers(-3, 3)),
                             max_size=12))

    free = n - sum(1 for d in diag if d)
    kernel_rows = [draw(st.lists(st.sampled_from([0, 1, -2, 3, 4, 6]),
                                 min_size=width, max_size=width))
                   for _ in range(free)]
    return _complex_from_smith_form(diag, m, n, ops(m), ops(n), kernel_rows)


@given(_smith_form_complexes())
@example(_complex_from_smith_form(  # diag (2, 3) forces a Bezout mix
    [2, 3], 2, 4, [(0, 1, 1), (1, 0, -2)], [(0, 2, 1), (3, 1, 2), (2, 3, -1)],
    [[2, 0], [4, 6]]))
@settings(max_examples=150, deadline=None)
def test_homology_at_matches_reference_on_smith_form_complexes(complex_):
    _assert_homology_matches_reference(*complex_)


@pytest.mark.parametrize("d_in,d_out,expected", [
    (IntMatrix.zero(3, 0), IntMatrix.from_rows([[2, 4, 0]]), (2, [])),
    (IntMatrix.from_rows([[2], [0], [0]]), IntMatrix.zero(0, 3), (2, [2])),
    (IntMatrix.from_rows([[0, 3], [0, 0]]), IntMatrix.zero(1, 2), (1, [3])),
    (IntMatrix.zero(2, 1), IntMatrix.from_rows([[1, 1], [0, 2]]), (0, [])),
    (IntMatrix.zero(0, 2), IntMatrix.zero(3, 0), (0, [])),
], ids=["d_in-no-columns", "d_out-no-rows", "rank-0", "empty-kernel",
        "no-cells"])
def test_homology_at_edge_shapes(d_in, d_out, expected):
    h = _assert_homology_matches_reference(d_in, d_out)
    assert (h.free_rank, h.torsion) == expected


@pytest.mark.parametrize("d_in,d_out", [
    (IntMatrix.zero(2, 1), IntMatrix.zero(1, 3)),
    (IntMatrix.zero(0, 1), IntMatrix.zero(1, 2)),
    (IntMatrix.from_rows([[1], [0]]), IntMatrix.from_rows([[1, 0]])),
    (IntMatrix.from_rows([[1], [0]]), IntMatrix.from_rows([[1, 0], [0, 2]])),
    (IntMatrix.from_rows([[0], [1], [0]]),
     IntMatrix.from_rows([[2, 0, 0], [0, 3, 0]])),
], ids=["shape", "shape-empty", "non-complex", "non-complex-empty-kernel",
        "non-complex-after-bezout"])
def test_homology_at_errors_match_reference(d_in, d_out):
    with pytest.raises(ValueError) as got:
        homology_at(d_in, d_out)
    with pytest.raises(ValueError) as want:
        homology_at_reference(d_in, d_out)
    assert str(got.value) == str(want.value)


def test_homology_at_takes_two_smith_forms_and_builds_no_u_or_v(
        monkeypatch):
    """The per-column kernel solver must not come back."""
    results = []
    real_snf = intlinalg.snf

    def spy(A):
        results.append(real_snf(A))
        return results[-1]

    def no_solver(A):
        raise AssertionError("homology_at built a LinearSolver")

    monkeypatch.setattr(intlinalg, "snf", spy)
    monkeypatch.setattr(intlinalg, "LinearSolver", no_solver)
    rng = random.Random("two-smith-forms")
    checked = 0
    for _ in range(40):
        d2, d1 = _random_complex(rng)
        results.clear()
        h = homology_at(d2, d1)
        if len(results) == 1:  # an empty kernel needs no second form
            assert d1.cols == results[0].rank and h.is_trivial()
            continue
        assert len(results) == 2
        for res in results:
            assert "U" not in vars(res) and "V" not in vars(res)
        checked += 1
    assert checked > 30
