"""Independent oracles for the acceptance suite.

Nothing here shares code with the package's elimination engine: invariant
factors come from the classical minors-gcd characterization (determinants
via fraction-free Bareiss), and homology comes from a from-scratch
xgcd-based kernel computation.  Some functions are references for a
solver's choices rather than independent oracles: snf_reference is the
Smith form as it was when every step also updated dense witnesses (same
pivots, same witnesses as the package's, which replays them from logs);
homology_at_reference is homology as it was computed before it read kernel
coordinates from one Smith form (a dense complex check, one solve against
a kernel basis per column of d_in); sparse_solve_scan_reference scans
every live row for each pivot and sparse_solve_reference is the candidate
heap as it was before its keys became lazy, both finishing the residual
core with the package's dense LinearSolver;
column_solve_reference solves with the package's system_block_matrix and
LinearSolver; solve_diagonal_cell_reference is the diagonal search as it
was when each end choice built and eliminated its own integer system;
augmentation_ideal_finite_reference is the relation lattice of I(G) for a
finite table as it was read off system_block_matrix, and
augmentation_ideal_reference is the whole presentation of I(G) as it was
built by its own type dispatch; tensor_chain_boundary_reference is the
differential of Z^omega (x) (C (x) D) written on integer coefficients,
against which the reduction of LambdaTensor.boundary is checked, and
lambda_tensor_boundary_reference is LambdaTensor.boundary as it was when
it summed ring coefficients term by term; contraction_defects checks a
contracting homotopy of a universal cover on its integer chains, and
free_resolution builds a resolution of Z to check it on;
spans_reference asks one column solver per column whether a module
element is zero; integer_system_reference is a finite LambdaLinearSystem's
integer system as it was built before norm-multiple equations were stated
once, every row linearized and each distinct one kept at its first copy;
verify_pd_finite_reference is verify_pd's finite branch as it was when
it linearized the whole cone of the cap; quotient_reference,
pair_maps_reference, component_subcomplex_reference,
boundary_pair_reference, skeleton_reference and restrict_pair_reference
are the cuts of a pair along a set of its cells as each was written by
hand before ChainPairData.restrict (the quotient Q and D, the four maps
between P, Q and D, a boundary component's integer complex, the boundary
as a closed pair, the realization 2-skeleton and the splitting pieces);
try_middle_reference is the factorization step as it was when it checked
the middle's well-definedness before solving for its inverse.  The dense
matrix
helpers (mat_mul, transpose, is_zero,
diagonal_matrix, solve_integral) and the group ring wrappers (ring_add,
ring_mul, augmentation_ideal_membership) serve the tests only.
"""

import heapq
import itertools
import math


def bareiss_det(rows):
    """Fraction-free determinant of a square integer matrix."""
    a = [row[:] for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minors_gcd_invariant_factors(rows, nrows, ncols):
    """d_1, d_1 d_2, ... as gcds of k x k minors; returns the factor list."""
    prev = 1
    factors = []
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rsel in itertools.combinations(range(nrows), k):
            for csel in itertools.combinations(range(ncols), k):
                sub = [[rows[r][c] for c in csel] for r in rsel]
                g = math.gcd(g, bareiss_det(sub))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def kernel_basis_oracle(rows, nrows, ncols):
    """Integer kernel lattice basis via column reduction with xgcd.

    Tracks the column transform on an identity block; the kernel is spanned
    by the transform columns under the zero columns of the echelon form.
    """
    a = [row[:] for row in rows]
    t = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]

    def col_op(j1, j2, x, y, u, v):
        # (c_{j1}, c_{j2}) <- (x c_{j1} + y c_{j2}, u c_{j1} + v c_{j2})
        for m in (a, t):
            for row in m:
                c1, c2 = row[j1], row[j2]
                row[j1] = x * c1 + y * c2
                row[j2] = u * c1 + v * c2

    pivot_row = 0
    pivot_cols = []
    col = 0
    cols_used = set()
    for r in range(nrows):
        # clear row r to a single pivot among the unused columns
        live = [j for j in range(ncols) if j not in cols_used and a[r][j]]
        if not live:
            continue
        j0 = live[0]
        for j in live[1:]:
            g, x, y = xgcd(a[r][j0], a[r][j])
            u, v = -(a[r][j] // g), a[r][j0] // g
            col_op(j0, j, x, y, u, v)
        cols_used.add(j0)
    kernel = []
    for j in range(ncols):
        if all(a[r][j] == 0 for r in range(nrows)):
            kernel.append([t[i][j] for i in range(ncols)])
    return kernel


def homology_oracle(d_in_rows, d_in_shape, d_out_rows, d_out_shape):
    """(free rank, invariant factors > 1) of ker(d_out)/im(d_in)."""
    n_out_rows, n = d_out_shape
    n_in_rows, n_in_cols = d_in_shape
    kernel = kernel_basis_oracle(d_out_rows, n_out_rows, n)
    k = len(kernel)
    if k == 0:
        return (0, [])
    # coordinates of the image columns in the kernel basis: solve K y = col
    # with yet another xgcd elimination (square-free exact solve)
    coords = []
    for j in range(n_in_cols):
        col = [d_in_rows[i][j] for i in range(n_in_rows)]
        y = _solve_exact(kernel, n, k, col)
        assert y is not None, "image must lie in the kernel"
        coords.append(y)
    rows = [[coords[j][i] for j in range(n_in_cols)] for i in range(k)]
    factors = minors_gcd_invariant_factors(rows, k, n_in_cols)
    free = k - len(factors)
    torsion = [d for d in factors if d > 1]
    return (free, torsion)


def _solve_exact(basis_cols, n, k, target):
    """Solve sum y_i basis_i = target over Z via an augmented kernel.

    A solution corresponds to a kernel vector of [basis | target] whose
    last coordinate is a unit; the achievable last coordinates form an
    ideal, so gcd-combine the kernel basis down to one representative.
    """
    aug = [[basis_cols[j][i] for j in range(k)] + [target[i]]
           for i in range(n)]
    kernel = kernel_basis_oracle(aug, n, k + 1)
    best = None  # kernel vector whose last coordinate generates the ideal
    for v in kernel:
        last = v[k]
        if last == 0:
            continue
        if best is None:
            best = v[:]
            continue
        g, x, y = xgcd(best[k], last)
        best = [x * a + y * b for a, b in zip(best, v)]
    if best is None or best[k] not in (1, -1):
        return None
    s = -best[k]
    return [s * best[i] for i in range(k)]


def sparse_solve_scan_reference(rows, ncols, rhs):
    """The full-scan unit-pivot elimination that intlinalg.sparse_solve
    replaced with a candidate heap.

    Each step re-sorts every live row and scans it for the unit entry of
    least Markowitz cost, stopping early at cost 0.  The heap version must
    pick the same pivots and so return the same vector, or None.
    """
    from pdpairs.intlinalg import IntMatrix, LinearSolver
    rows = [dict(r) for r in rows]
    b = list(rhs)
    col_rows = {}
    for ri, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(ri)
    alive_rows = set(range(len(rows)))
    alive_cols = set(col_rows)
    eliminated = []  # (col, sign, row-dict snapshot, b-value)

    def pick_pivot():
        # deterministic scan order keeps reports byte-stable
        best = None
        for ri in sorted(alive_rows):
            row = rows[ri]
            if not row:
                continue
            for c in sorted(row):
                val = row[c]
                if val in (1, -1):
                    score = (len(row) - 1) * (len(col_rows.get(c, ())) - 1)
                    if best is None or score < best[0]:
                        best = (score, ri, c, val)
                        if score == 0:
                            return best
        return best

    while True:
        # drop empty rows, checking consistency
        for ri in list(alive_rows):
            if not rows[ri]:
                if b[ri] != 0:
                    return None
                alive_rows.discard(ri)
        piv = pick_pivot()
        if piv is None:
            break
        _, ri, c, val = piv
        row = rows[ri]
        snapshot = {cc: vv for cc, vv in row.items() if cc != c}
        eliminated.append((c, val, snapshot, b[ri]))
        users = col_rows.pop(c, set())
        users.discard(ri)
        alive_rows.discard(ri)
        alive_cols.discard(c)
        for rj in users:
            if rj not in alive_rows:
                continue
            other = rows[rj]
            beta = other.pop(c, 0)
            if not beta:
                continue
            factor = beta * val
            for cc, vv in snapshot.items():
                nv = other.get(cc, 0) - factor * vv
                if nv:
                    other[cc] = nv
                    col_rows.setdefault(cc, set()).add(rj)
                else:
                    other.pop(cc, None)
                    s = col_rows.get(cc)
                    if s is not None:
                        s.discard(rj)
            b[rj] -= factor * b[ri]
        rows[ri] = {}
    # dense core
    core_cols = sorted(alive_cols)
    col_pos = {c: i for i, c in enumerate(core_cols)}
    core_rows = [ri for ri in sorted(alive_rows) if rows[ri]]
    solution = [0] * ncols
    if core_rows:
        mat = IntMatrix.zero(len(core_rows), len(core_cols))
        vec = []
        for k, ri in enumerate(core_rows):
            for c, vv in rows[ri].items():
                mat.data[k][col_pos[c]] = vv
            vec.append(b[ri])
        core = LinearSolver(mat).solve(vec)
        if core is None:
            return None
        for c, x in zip(core_cols, core):
            solution[c] = x
    for ri in alive_rows:
        if not rows[ri] and b[ri] != 0:
            return None
    for c, val, snapshot, bval in reversed(eliminated):
        acc = bval
        for cc, vv in snapshot.items():
            acc -= vv * solution[cc]
        solution[c] = val * acc  # val is +-1, so this is division
    return solution


def sparse_solve_reference(rows, ncols, rhs):
    """intlinalg.sparse_solve as it was before its heap kept lazy keys.

    After each pivot it pushed a key for every unit entry of each row the
    pivot changed and of each column whose col_rows size changed, and it
    dropped every popped key that was not its entry's current cost.  The
    lazy-key version must pick the same pivots and so return the same
    vector, or None.
    """
    from pdpairs.intlinalg import IntMatrix, LinearSolver
    rows = [dict(r) for r in rows]
    b = list(rhs)
    col_rows = {}
    for ri, row in enumerate(rows):
        for c in row:
            col_rows.setdefault(c, set()).add(ri)
    alive_rows = set()
    for ri, row in enumerate(rows):
        if row:
            alive_rows.add(ri)
        elif b[ri] != 0:
            return None
    alive_cols = set(col_rows)
    eliminated = []  # (col, sign, row-dict snapshot, b-value)

    def cost(ri, c):
        return (len(rows[ri]) - 1) * (len(col_rows[c]) - 1)

    heap = [(cost(ri, c), ri, c) for ri, row in enumerate(rows)
            for c, v in row.items() if v in (1, -1)]
    heapq.heapify(heap)
    while heap:
        key, ri, c = heapq.heappop(heap)
        row = rows[ri]
        val = row.get(c)
        if val not in (1, -1) or cost(ri, c) != key:
            continue  # stale key; dead rows are empty dicts
        snapshot = {cc: vv for cc, vv in row.items() if cc != c}
        eliminated.append((c, val, snapshot, b[ri]))
        users = col_rows.pop(c)
        users.discard(ri)
        alive_rows.discard(ri)
        alive_cols.discard(c)
        sizes = [(cc, len(col_rows[cc])) for cc in snapshot]
        touched = set()
        for rj in users:
            if rj not in alive_rows:
                continue
            other = rows[rj]
            beta = other.pop(c, 0)
            if not beta:
                continue
            touched.add(rj)
            factor = beta * val
            for cc, vv in snapshot.items():
                nv = other.get(cc, 0) - factor * vv
                if nv:
                    other[cc] = nv
                    col_rows[cc].add(rj)
                else:
                    other.pop(cc, None)
                    col_rows[cc].discard(rj)
            b[rj] -= factor * b[ri]
        rows[ri] = {}
        for rj in touched:
            other = rows[rj]
            if not other:
                if b[rj] != 0:
                    return None
                alive_rows.discard(rj)
            for cc, vv in other.items():
                if vv in (1, -1):
                    heapq.heappush(heap, (cost(rj, cc), rj, cc))
        for cc, size in sizes:
            members = col_rows[cc]
            if len(members) == size:
                continue
            for rj in members:
                if rj not in touched and rows[rj].get(cc) in (1, -1):
                    heapq.heappush(heap, (cost(rj, cc), rj, cc))
    # dense core
    core_cols = sorted(alive_cols)
    col_pos = {c: i for i, c in enumerate(core_cols)}
    core_rows = sorted(alive_rows)
    solution = [0] * ncols
    if core_rows:
        mat = IntMatrix.zero(len(core_rows), len(core_cols))
        vec = []
        for k, ri in enumerate(core_rows):
            for c, vv in rows[ri].items():
                mat.data[k][col_pos[c]] = vv
            vec.append(b[ri])
        core = LinearSolver(mat).solve(vec)
        if core is None:
            return None
        for c, x in zip(core_cols, core):
            solution[c] = x
    for c, val, snapshot, bval in reversed(eliminated):
        acc = bval
        for cc, vv in snapshot.items():
            acc -= vv * solution[cc]
        solution[c] = val * acc  # val is +-1, so this is division
    return solution


def column_solve_reference(m, b):
    """Solve apply_matrix(m, x) = b over a finite model on the full regular
    representation, one integer block row per row of m, zero rows included.

    This is how LambdaColumnSolver solved over finite models before its one
    build: where m has no zero row, the two must return the same vector.
    """
    from pdpairs.chains import system_block_matrix
    from pdpairs.groups import RingElem
    from pdpairs.intlinalg import LinearSolver
    model = m.model
    elems = model.ball(0)
    rhs = [r.support.get(g, 0) for r in b for g in elems]
    x = LinearSolver(system_block_matrix(m)).solve(rhs)
    if x is None:
        return None
    n = len(elems)
    return [RingElem(model, {g: x[j * n + k] for k, g in enumerate(elems)
                             if x[j * n + k]})
            for j in range(m.cols)]


def solve_diagonal_cell_reference(complex_, diagonal, cell, radius=2,
                                  end_vertices=None):
    """The diagonal search with one integer system per end choice: the
    package's search must reach the same verdict and the same end terms."""
    from pdpairs.pairs import LambdaTensor
    model = complex_.model
    d, idx = cell
    bd = complex_.boundary_or_zero(d)
    target = LambdaTensor(model)
    for m in range(bd.rows):
        entry = bd.data[m][idx]
        if not entry.is_zero():
            target = target + diagonal[(d - 1, m)].scale_ring(entry)
    verts = [i for i in range(complex_.rank(0))
             if complex_.augmentation[i].aug() == 1]
    for rad in range(1, radius + 1):
        for v_left in verts if end_vertices is None else [end_vertices[0]]:
            for v_right in verts if end_vertices is None else [end_vertices[1]]:
                for k_end in model.ball(rad):
                    ends = LambdaTensor(model)
                    ends.add_term((0, v_left), model.identity(), cell,
                                  model.one())
                    ends.add_term(cell, k_end, (0, v_right), model.one())
                    deficit = target - ends.boundary(complex_, complex_)
                    sol = _solve_middles_reference(complex_, cell, deficit,
                                                   rad)
                    if sol is None:
                        continue
                    tentative = ends + sol
                    # validate the chain-map law exactly
                    if (tentative.boundary(complex_, complex_)
                            - target).is_zero():
                        return tentative
    return None


def _solve_middles_reference(complex_, cell, deficit, radius):
    from pdpairs.intlinalg import IntMatrix, LinearSolver
    from pdpairs.pairs import LambdaTensor
    model = complex_.model
    d = cell[0]
    ball = model.ball(radius)
    columns = []
    keys = []
    for p in range(1, d):
        q = d - p
        for i in range(complex_.rank(p)):
            for j in range(complex_.rank(q)):
                for kmid in ball:
                    base = LambdaTensor(model)
                    base.add_term((p, i), kmid, (q, j), model.one())
                    dbase = base.boundary(complex_, complex_)
                    for g in ball:
                        keys.append(((p, i), kmid, (q, j), g))
                        columns.append(dbase.scale_ring(model.unit(g)))
    row_index = {}
    rows = []

    def row_of(key):
        r = row_index.get(key)
        if r is None:
            r = len(rows)
            row_index[key] = r
            rows.append(key)
        return r

    entries = []
    for c, col in enumerate(columns):
        for (a, g, b), coeff in col.terms.items():
            for h, val in coeff.support.items():
                entries.append((row_of((a, g, b, h)), c, val))
    rhsv = {}
    for (a, g, b), coeff in deficit.terms.items():
        for h, val in coeff.support.items():
            rhsv[row_of((a, g, b, h))] = val
    mat = IntMatrix.zero(len(rows), len(columns))
    for r, c, val in entries:
        mat.data[r][c] += val
    rhs = [rhsv.get(r, 0) for r in range(len(rows))]
    sol = LinearSolver(mat).solve(rhs)
    if sol is None:
        return None
    out = LambdaTensor(model)
    for c, coeff in enumerate(sol):
        if coeff:
            (a, kmid, b, g) = keys[c]
            out.add_term(a, kmid, b, model.unit(g, coeff))
    return out


def augmentation_ideal_finite_reference(model):
    """Relation columns of I(G) on the generators g - 1 of a finite table,
    from the kernel of system_block_matrix of the generator row."""
    from pdpairs.chains import LambdaMatrix, int_vec_to_ring, system_block_matrix
    from pdpairs.intlinalg import LinearSolver
    gens = [model.unit(g) - 1 for g in model.generators]
    span = LambdaMatrix(model, 1, len(gens), [list(gens)])
    kernel = LinearSolver(system_block_matrix(span)).kernel_basis()
    return [int_vec_to_ring(model, model.ball(0), v, len(gens))
            for v in kernel]


def augmentation_ideal_reference(model):
    """I(G) as augmentation_ideal built it with its own type dispatch and
    hand-written column transposes, kept verbatim as a reference."""
    from pdpairs.chains import LambdaColumnSolver, LambdaMatrix
    from pdpairs.groups import (FiniteTable, FreeAbelian, FreeGroup, FreeProduct,
                                InfiniteCyclic, TrivialGroup)
    from pdpairs.presented import ModuleError, PresentedModule
    if isinstance(model, TrivialGroup):
        return PresentedModule(model, 0, label="I")
    if isinstance(model, (InfiniteCyclic, FreeGroup)):
        ngens = 1 if isinstance(model, InfiniteCyclic) else model.rank
        return PresentedModule(model, ngens, label="I")
    if isinstance(model, FreeAbelian):
        r = model.rank
        gens = [model.unit(k) - 1 for k in model.letters()[::2]]
        rels = []
        # Koszul relations (g_j - 1) e_i - (g_i - 1) e_j
        for i in range(r):
            for j in range(i + 1, r):
                col = [model.zero()] * r
                col[i] = gens[j]
                col[j] = -gens[i]
                rels.append(col)
        relmat = LambdaMatrix(model, r, len(rels),
                              [[rels[c][row] for c in range(len(rels))]
                               for row in range(r)])
        return PresentedModule(model, r, relmat, label="I")
    if isinstance(model, FiniteTable):
        gens = [model.unit(g) - 1 for g in model.generators]
        span = LambdaMatrix(model, 1, len(gens), [list(gens)])
        cols = LambdaColumnSolver(span).kernel()
        relmat = LambdaMatrix(model, len(gens), len(cols),
                              [[cols[c][row] for c in range(len(cols))]
                               for row in range(len(gens))])
        return PresentedModule(model, len(gens), relmat, label="I")
    if isinstance(model, FreeProduct):
        parts = [augmentation_ideal_reference(child)
                 for child in model.children]
        total = sum(p.ngens for p in parts)
        cols = []
        row_offset = 0
        for side, part in enumerate(parts):
            for j in range(part.relations.cols):
                col = [model.zero()] * total
                for i in range(part.ngens):
                    from pdpairs.chains import embed_ring
                    col[row_offset + i] = embed_ring(
                        part.relations.data[i][j], model)
                cols.append(col)
            row_offset += part.ngens
        relmat = LambdaMatrix(model, total, len(cols),
                              [[cols[c][row] for c in range(len(cols))]
                               for row in range(total)])
        return PresentedModule(model, total, relmat, label="I")
    raise ModuleError(f"no augmentation ideal presentation for {model!r}")


def tensor_chain_boundary_reference(model, terms, left, right):
    """The differential of Z^omega (x)_Lambda (C (x) D) on integer
    coefficients keyed by orbit triples, as the Z^omega tensor chain
    computed it apart from LambdaTensor: a left boundary entry h picks up
    the sign (-1)^omega(h), a right one the Koszul sign of the left
    degree.  Zero coefficients are dropped."""
    out = {}

    def add(key, c):
        cur = out.get(key, 0) + c
        if cur:
            out[key] = cur
        else:
            out.pop(key, None)

    for (a, g, b), z in terms.items():
        da, ia = a
        db, ib = b
        left_b = left.boundary_or_zero(da)
        for m in range(left_b.rows):
            for h, c in left_b.data[m][ia].support.items():
                tw = -1 if model.omega(h) else 1
                add(((da - 1, m), model.mul(model.inv(h), g), b), z * c * tw)
        sign = -1 if da % 2 else 1
        right_b = right.boundary_or_zero(db)
        for m in range(right_b.rows):
            for w, c in right_b.data[m][ib].support.items():
                add((a, model.mul(g, w), (db - 1, m)), z * c * sign)
    return out


def lambda_tensor_boundary_reference(tensor, left, right):
    """LambdaTensor.boundary as it was when every term went through
    add_term with a ring coefficient (a right boundary entry translated
    by the orbit's group element)."""
    from pdpairs.groups import RingElem
    from pdpairs.pairs import LambdaTensor
    model = tensor.model
    out = LambdaTensor(model)
    for (a, g, b), coeff in tensor.terms.items():
        da, ia = a
        db, ib = b
        left_b = left.boundary_or_zero(da)
        for m in range(left_b.rows):
            for h, c in left_b.data[m][ia].support.items():
                out.add_term((da - 1, m), model.mul(model.inv(h), g), b,
                             coeff * model.unit(h, c))
        sign = -1 if da % 2 else 1
        right_b = right.boundary_or_zero(db)
        for m in range(right_b.rows):
            entry = right_b.data[m][ib]
            if entry.is_zero():
                continue
            shifted = RingElem(model, {model.mul(g, w): c
                                       for w, c in entry.support.items()})
            for h, c in shifted.support.items():
                out.add_term(a, h, (db - 1, m), coeff * (sign * c))
    return out


def free_resolution(model, top=3):
    """A free Lambda-resolution of Z over a finite model through degree
    top: one vertex, d1 the row of g - 1 over the named generators, and
    the columns of each later d_k a Z-basis of ker d_(k-1) on the
    linearized complex, read back as Lambda-vectors (a Z-basis of a
    Lambda-submodule spans it over Lambda)."""
    from pdpairs.chains import (LambdaComplex, LambdaMatrix, int_vec_to_ring,
                                system_block_matrix)
    from pdpairs.intlinalg import LinearSolver
    elems = model.ball(0)
    gens = [g for _, g in model.named_generators()]
    ranks = {0: 1, 1: len(gens)}
    bd = {1: LambdaMatrix.from_rows(model, [[model.unit(g) - 1
                                             for g in gens]])}
    for k in range(2, top + 1):
        kernel = LinearSolver(system_block_matrix(bd[k - 1])).kernel_basis()
        cols = [int_vec_to_ring(model, elems, v, ranks[k - 1])
                for v in kernel]
        ranks[k] = len(cols)
        bd[k] = LambdaMatrix.from_columns(model, ranks[k - 1], cols)
    return LambdaComplex(model, ranks, bd, augmentation=[model.one()])


def contraction_defects(complex_, s):
    """The basis elements g.e of degree <= 2 of the universal cover at
    which d s + s d = 1 - eta eps fails, checked entry by entry on the
    integer coefficients of the cover, apart from the linearized complex:
    d(g.e) = sum of g w . e_m over the entries w of the boundary column."""
    model = complex_.model
    one = model.identity()

    def d_of(cell, g):
        deg, i = cell
        out = {}
        bd = complex_.boundary_or_zero(deg)
        for m in range(bd.rows):
            for w, c in bd.data[m][i].support.items():
                key = ((deg - 1, m), model.mul(g, w))
                out[key] = out.get(key, 0) + c
        return out

    def add_into(out, chain, n):
        for key, c in chain.items():
            out[key] = out.get(key, 0) + n * c

    bad = []
    for deg in range(3):
        for i in range(complex_.rank(deg)):
            for g in model.elements():
                cell = (deg, i)
                image = s(cell, g)
                if image is None:
                    bad.append((cell, g))
                    continue
                total = {}
                for (e, h), n in image.items():
                    add_into(total, d_of(e, h), n)
                for (e, h), n in d_of(cell, g).items():
                    lower = s(e, h)
                    if lower is None:
                        bad.append((cell, g))
                        break
                    add_into(total, lower, n)
                else:
                    expect = {(cell, g): 1}
                    if deg == 0:
                        eps = complex_.augmentation[i].aug()
                        add_into(expect, {(s.base, one): 1}, -eps)
                    diff = dict(total)
                    add_into(diff, expect, -1)
                    if any(diff.values()):
                        bad.append((cell, g))
    return bad


def spans_reference(relations, m, radius=4):
    """Whether every column of m lies in the column span of relations,
    asked of one LambdaColumnSolver per column, as modules once did."""
    from pdpairs.chains import LambdaColumnSolver
    for col in m.columns():
        if all(e.is_zero() for e in col):
            continue
        if relations.cols == 0:
            return False
        if LambdaColumnSolver(relations, radius).solve(col) is None:
            return False
    return True


def integer_system_reference(system, support):
    """(rows, rhs, kept, log) of a LambdaLinearSystem over a finite model,
    or None when Lambda-level elimination refutes it: _linearize on the
    residual of _eliminate, then each distinct (row, right-hand side) at
    its first occurrence."""
    parts, n = system._statement()
    reduced = system._eliminate(parts)
    if reduced is None:
        return None
    parts, log = reduced
    gone = {entry[0] for entry in log}
    kept = [k for k in range(n) if k not in gone]
    distinct = {}
    for row, b in zip(*system._linearize(parts, support, kept)):
        distinct.setdefault((frozenset(row.items()), b), row)
    return list(distinct.values()), [b for _, b in distinct], kept, log


def verify_pd_finite_reference(pair, x):
    """(status, reason, certificates, witness_kind) of verify_pd's finite
    branch for the class x, as it was when the whole cone of the cap was
    linearized and its integer homology read degree by degree."""
    from pdpairs.chains import mapping_cone
    cone, _ = mapping_cone(pair.cap_with(x, side="P"))
    lin = cone.linearized()
    certificates = []
    for d, hom in sorted(lin.all_homology().items()):
        if not hom.is_trivial():
            return ("fail", f"cap is not a quasi-isomorphism: cone "
                    f"H_{d} = {hom.describe()}", [], "")
        certificates.append(
            {"degree": d, "cone_homology": "0", "method": "linearized"})
    return "pass", "", certificates, "linearized-acyclic"


def quotient_reference(pair):
    """(Q, D, q_index, d_index) of the pair, cut from P by hand."""
    from pdpairs.chains import LambdaComplex, LambdaMatrix
    P = pair.P
    q_index, d_index = {}, {}
    q_ranks, d_ranks, q_names, d_names = {}, {}, {}, {}
    for d in P.degrees():
        subs = pair.sub_cells.get(d, ())
        qi, di = [], []
        for i in range(P.rank(d)):
            if i in subs:
                q_index[(d, i)] = len(qi)
                qi.append(i)
            else:
                d_index[(d, i)] = len(di)
                di.append(i)
        if qi:
            q_ranks[d] = len(qi)
            q_names[d] = tuple(P.name_of(d, i) for i in qi)
        if di:
            d_ranks[d] = len(di)
            d_names[d] = tuple(P.name_of(d, i) for i in di)
    q_cells = {d: [i for i in range(P.rank(d)) if (d, i) in q_index]
               for d in P.degrees()}
    d_cells = {d: [i for i in range(P.rank(d)) if (d, i) in d_index]
               for d in P.degrees()}

    def submatrix(m, rows, cols):
        return LambdaMatrix(P.model, len(rows), len(cols),
                            [[m.data[r][c] for c in cols] for r in rows])

    q_boundary, d_boundary = {}, {}
    for d, m in P.boundary.items():
        qr, qc = q_cells.get(d - 1, []), q_cells.get(d, [])
        dr, dc = d_cells.get(d - 1, []), d_cells.get(d, [])
        if qr or qc:
            q_boundary[d] = submatrix(m, qr, qc)
        if dr or dc:
            d_boundary[d] = submatrix(m, dr, dc)
    q_aug = None
    if P.augmentation is not None and q_cells.get(0):
        q_aug = [P.augmentation[i] for i in q_cells[0]]
    Q = LambdaComplex(P.model, q_ranks, q_boundary, augmentation=q_aug,
                      basis_names=q_names, check=False)
    D = LambdaComplex(P.model, d_ranks, d_boundary, basis_names=d_names,
                      check=False)
    return Q, D, q_index, d_index


def pair_maps_reference(pair):
    """Components of the inclusion Q -> P, the projection P -> D, the
    connecting map D -> Q and the dual connecting map Q* -> D*, each
    filled entry by entry."""
    from pdpairs.chains import LambdaMatrix
    model, P = pair.model, pair.P
    q_cells, d_cells = pair._q_cells, pair._d_cells
    inclusion, projection, connecting, dual = {}, {}, {}, {}
    for d in pair.Q.degrees():
        m = LambdaMatrix.zero(model, P.rank(d), pair.Q.rank(d))
        for j, i in enumerate(q_cells[d]):
            m.data[i][j] = model.one()
        inclusion[d] = m
    for d in pair.D.degrees():
        m = LambdaMatrix.zero(model, pair.D.rank(d), P.rank(d))
        for j, i in enumerate(d_cells[d]):
            m.data[j][i] = model.one()
        projection[d] = m
        qr, dc = q_cells.get(d - 1, []), d_cells.get(d, [])
        if qr and dc:
            bd = P.boundary_or_zero(d)
            connecting[d] = LambdaMatrix(
                model, len(qr), len(dc),
                [[bd.data[r][c] for c in dc] for r in qr])
    for d in pair.Q.degrees():
        dc, qc = d_cells.get(d + 1, []), q_cells.get(d, [])
        if dc and qc:
            bd = P.boundary_or_zero(d + 1).bar_transpose()
            dual[-d] = LambdaMatrix(model, len(dc), len(qc),
                                    [[bd.data[r][c] for c in qc]
                                     for r in dc])
    return {"inclusion": inclusion, "projection": projection,
            "connecting": connecting, "dual_connecting": dual}


def component_subcomplex_reference(pair, comp):
    """The Z^omega complex of one boundary component, cut from P."""
    from pdpairs.chains import IntComplex
    from pdpairs.intlinalg import IntMatrix
    cells = {d: sorted(idxs) for d, idxs in comp.cells.items()}
    boundary = {}
    for d, idxs in cells.items():
        prev = cells.get(d - 1, [])
        if prev:
            bd = pair.P.boundary_or_zero(d)
            boundary[d] = IntMatrix(
                len(prev), len(idxs),
                [[bd.data[r][c].aug_signed() for c in idxs] for r in prev])
    return IntComplex({d: len(idxs) for d, idxs in cells.items()}, boundary,
                      check=False)


def boundary_pair_reference(pair):
    """The boundary Q as a closed pair, its diagonals and components
    renumbered by hand (marked discs were not carried)."""
    from pdpairs.pairs import BoundaryComponent, ChainPairData
    remap = {}
    for d, idxs in pair._q_cells.items():
        for j, i in enumerate(idxs):
            remap[(d, i)] = (d, j)
    diag = {}
    for (d, i), j in pair.q_index.items():
        diag[(d, j)] = pair.diagonal[(d, i)].map_cells(lambda a: remap[a],
                                                       lambda b: remap[b])
    comps = [BoundaryComponent(comp.name,
                               {d: tuple(remap[(d, i)][1] for i in idxs)
                                for d, idxs in comp.cells.items()},
                               comp.group, comp.kappa)
             for comp in pair.boundary_components]
    return ChainPairData(pair.Q, {}, diag, boundary_components=comps,
                         name=f"{pair.name}-boundary", check=False)


def skeleton_reference(pair):
    """The 2-skeleton pair of a 3-dimensional pair, as the realization
    export built it from P's own matrices."""
    from pdpairs.chains import LambdaComplex
    from pdpairs.pairs import BoundaryComponent, ChainPairData
    P = pair.P
    ranks = {d: P.rank(d) for d in P.degrees() if d <= 2}
    boundary = {d: P.boundary[d] for d in P.boundary if d <= 2}
    names = {d: P.basis_names[d] for d in ranks}
    complex_ = LambdaComplex(P.model, ranks, boundary,
                             augmentation=P.augmentation, basis_names=names,
                             check=False)
    diag = {c: t for c, t in pair.diagonal.items() if c[0] <= 2}
    comps = [BoundaryComponent(c.name, dict(c.cells), c.group, dict(c.kappa),
                               c.marked_disc)
             for c in pair.boundary_components]
    return ChainPairData(complex_, dict(pair.sub_cells), diag,
                         boundary_components=comps,
                         name=f"{pair.name}-skeleton")


def restrict_pair_reference(pair, keep, new_sub, name=""):
    """restrict_pair as it was written with its own slicing and
    renumbering."""
    from pdpairs.chains import LambdaComplex, LambdaMatrix
    from pdpairs.pairs import ChainPairData, PairError, _auto_components
    P, model = pair.P, pair.model
    cells = {d: [i for i in range(P.rank(d)) if (d, i) in keep]
             for d in P.degrees()}
    ranks = {d: len(idxs) for d, idxs in cells.items() if idxs}
    remap, names = {}, {}
    for d, idxs in cells.items():
        for j, i in enumerate(idxs):
            remap[(d, i)] = (d, j)
        if idxs:
            names[d] = tuple(P.name_of(d, i) for i in idxs)
    boundary = {}
    for d, idxs in cells.items():
        prev = cells.get(d - 1, [])
        if not idxs:
            continue
        bd = P.boundary_or_zero(d)
        for i in idxs:
            for r in range(bd.rows):
                if not bd.data[r][i].is_zero() and (d - 1, r) not in keep:
                    raise PairError(
                        "partition not closed under boundaries: "
                        f"{P.name_of(d, i)} -> {P.name_of(d - 1, r)}")
        if prev:
            boundary[d] = LambdaMatrix(model, len(prev), len(idxs),
                                       [[bd.data[r][c] for c in idxs]
                                        for r in prev])
    aug = None
    if P.augmentation is not None and cells.get(0):
        aug = [P.augmentation[i] for i in cells[0]]
    sub_complex = LambdaComplex(model, ranks, boundary, augmentation=aug,
                                basis_names=names, check=False)
    diag = {}
    for (d, i) in remap:
        tensor = pair.diagonal[(d, i)]
        for (a, g, b) in tensor.terms:
            if a not in remap or b not in remap:
                raise PairError(
                    f"diagonal of {P.name_of(d, i)} leaves the sub-pair")
        diag[remap[(d, i)]] = tensor.map_cells(lambda a: remap.get(a),
                                               lambda b: remap.get(b))
    subcells = {}
    for (d, i) in new_sub & keep:
        subcells.setdefault(d, []).append(remap[(d, i)][1])
    comps = _auto_components(sub_complex, subcells, diag)
    return ChainPairData(sub_complex, subcells, diag,
                         boundary_components=comps, name=name)


def try_middle_reference(f, q_rank, rows, radius):
    """The middle and inverse _try_middle finds (or None), with the
    well-definedness of the middle checked before the inverse is solved."""
    from pdpairs.chains import LambdaMatrix
    from pdpairs.presented import ModuleMorphism, _stabilized, _try_middle
    b_ext = _stabilized(f.target, q_rank)
    middle = LambdaMatrix.zero(f.source.model, b_ext.ngens, f.source.ngens)
    for i in range(f.target.ngens):
        for j in range(f.source.ngens):
            middle.data[i][j] = f.matrix.data[i][j]
    for k, row in enumerate(rows):
        for j, e in enumerate(row):
            middle.data[f.target.ngens + k][j] = e
    if not ModuleMorphism(f.source, b_ext, middle,
                          check=False).well_defined(radius):
        return None
    return _try_middle(f, q_rank, rows, radius)


def ring_add(a, b):
    return a + b


def ring_mul(a, b):
    return a * b


def augmentation_ideal_membership(a):
    return a.in_augmentation_ideal()


def transpose(a):
    from pdpairs.intlinalg import IntMatrix
    return IntMatrix(a.cols, a.rows,
                     [[a.data[i][j] for i in range(a.rows)]
                      for j in range(a.cols)])


def is_zero(a):
    return all(all(x == 0 for x in row) for row in a.data)


def mat_mul(a, b):
    """Dense product of two IntMatrix values."""
    from pdpairs.intlinalg import IntMatrix
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    bt = transpose(b).data
    out = [[sum(x * y for x, y in zip(row, col)) for col in bt]
           for row in a.data]
    return IntMatrix(a.rows, b.cols, out)


def diagonal_matrix(res):
    """The D of U * A * V = D for an intlinalg.SnfResult."""
    from pdpairs.intlinalg import IntMatrix
    m = IntMatrix.zero(*res.shape)
    for i, d in enumerate(res.diag):
        m.data[i][i] = d
    return m


def solve_integral(A, b):
    from pdpairs.intlinalg import LinearSolver
    return LinearSolver(A).solve(b)


def snf_reference(A):
    """intlinalg.snf as it was when every operation updated the dense
    witnesses, Uinv included: returns (diag, U, V, Uinv).

    The package's snf must make the same pivots and quotients in the same
    order, and so return the same four matrices.
    """
    from pdpairs.intlinalg import IntMatrix
    m, n = A.rows, A.cols
    D = [row[:] for row in A.data]
    U = IntMatrix.identity(m)
    Uinv = IntMatrix.identity(m)
    V = IntMatrix.identity(n)

    def row_add(i, k, q):  # row i += q * row k
        D[i] = [x + q * y for x, y in zip(D[i], D[k])]
        U.data[i] = [x + q * y for x, y in zip(U.data[i], U.data[k])]
        for r in range(m):
            Uinv.data[r][k] -= q * Uinv.data[r][i]

    def row_swap(i, k):
        D[i], D[k] = D[k], D[i]
        U.data[i], U.data[k] = U.data[k], U.data[i]
        for r in range(m):
            Uinv.data[r][i], Uinv.data[r][k] = Uinv.data[r][k], Uinv.data[r][i]

    def row_neg(i):
        D[i] = [-x for x in D[i]]
        U.data[i] = [-x for x in U.data[i]]
        for r in range(m):
            Uinv.data[r][i] = -Uinv.data[r][i]

    def col_add(j, k, q):  # col j += q * col k
        for r in range(m):
            D[r][j] += q * D[r][k]
        for r in range(n):
            V.data[r][j] += q * V.data[r][k]

    def col_swap(j, k):
        for r in range(m):
            D[r][j], D[r][k] = D[r][k], D[r][j]
        for r in range(n):
            V.data[r][j], V.data[r][k] = V.data[r][k], V.data[r][j]

    def row_mix(i, j, t):  # rows (i, j) <- t . rows (i, j), det t = 1
        a, b, c, d = t
        D[i], D[j] = ([a * x + b * y for x, y in zip(D[i], D[j])],
                      [c * x + d * y for x, y in zip(D[i], D[j])])
        U.data[i], U.data[j] = (
            [a * x + b * y for x, y in zip(U.data[i], U.data[j])],
            [c * x + d * y for x, y in zip(U.data[i], U.data[j])])
        for r in range(m):
            x, y = Uinv.data[r][i], Uinv.data[r][j]
            Uinv.data[r][i] = x * d - y * c
            Uinv.data[r][j] = -x * b + y * a

    def col_mix(i, j, t):  # cols (i, j) <- cols (i, j) . t^T style, det 1
        a, b, c, d = t
        for r in range(m):
            x, y = D[r][i], D[r][j]
            D[r][i] = a * x + c * y
            D[r][j] = b * x + d * y
        for r in range(n):
            x, y = V.data[r][i], V.data[r][j]
            V.data[r][i] = a * x + c * y
            V.data[r][j] = b * x + d * y

    def find_pivot(s):
        best = None
        for i in range(s, m):
            row = D[i]
            for j in range(s, n):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if abs(x) == 1:
                        return best
        return best

    s = 0
    while s < m and s < n:
        piv = find_pivot(s)
        if piv is None:
            break
        _, pi, pj = piv
        if pi != s:
            row_swap(s, pi)
        if pj != s:
            col_swap(s, pj)
        clean = True
        for i in range(s + 1, m):
            if D[i][s] != 0:
                row_add(i, s, -(D[i][s] // D[s][s]))
                if D[i][s] != 0:
                    clean = False
        if not clean:
            continue  # a strictly smaller remainder exists; re-pivot
        for j in range(s + 1, n):
            if D[s][j] != 0:
                col_add(j, s, -(D[s][j] // D[s][s]))
                if D[s][j] != 0:
                    clean = False
        if not clean:
            continue
        if D[s][s] < 0:
            row_neg(s)
        s += 1

    # Enforce the divisibility chain with one Bezout transform per bad pair.
    r = s
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if a != 0 and b % a != 0:
                g, x, y = xgcd(a, b)
                # diag(a, b) -> diag(g, a b / g) by unimodular 2x2 mixes
                row_mix(i, i + 1, (x, y, -(b // g), a // g))
                col_mix(i, i + 1, (1, -(b // g) * y, 1, (a // g) * x))
                if D[i][i] < 0:
                    row_neg(i)
                if D[i + 1][i + 1] < 0:
                    row_neg(i + 1)
                changed = True
    diag = [D[i][i] for i in range(r) if D[i][i] != 0]
    return diag, U, V, Uinv


def _solve_with_reference(A, witnesses, b):
    """LinearSolver.solve on snf_reference witnesses: dense U b and V y."""
    from pdpairs.intlinalg import mat_vec
    diag, U, V, _ = witnesses
    c = mat_vec(U, b)
    y = [0] * A.cols
    for i in range(A.rows):
        if i < len(diag):
            if c[i] % diag[i] != 0:
                return None
            y[i] = c[i] // diag[i]
        elif c[i] != 0:
            return None
    return mat_vec(V, y)


def homology_at_reference(d_in, d_out):
    """intlinalg.homology_at as it was: a dense d_out * d_in check, dense
    pull-backs K * Uinv[:, i], every Smith form from snf_reference.

    Returns (free_rank, torsion, free_generators, torsion_generators).
    """
    from pdpairs.intlinalg import IntMatrix, mat_vec
    if d_in.rows != d_out.cols:
        raise ValueError("shape mismatch: d_out . d_in undefined")
    if not is_zero(mat_mul(d_out, d_in)):
        raise ValueError("not a complex: d_out . d_in != 0")
    diag, _, V, _ = snf_reference(d_out)
    kernel = [V.column(j) for j in range(len(diag), d_out.cols)]
    k = len(kernel)
    if k == 0:
        return 0, [], [], []
    K = IntMatrix.from_columns(kernel, rows=d_out.cols)
    kwit = snf_reference(K)
    ycols = []
    for j in range(d_in.cols):
        y = _solve_with_reference(K, kwit, d_in.column(j))
        if y is None:
            raise ValueError("image does not lie in kernel")
        ycols.append(y)
    Y = IntMatrix.from_columns(ycols, rows=k)
    ydiag, _, _, yUinv = snf_reference(Y)
    free_rank = k - len(ydiag)
    torsion = [d for d in ydiag if d > 1]
    free_gens = []
    torsion_gens = []
    for i in range(k):
        gen = mat_vec(K, yUinv.column(i))
        if i >= len(ydiag):
            free_gens.append(gen)
        elif ydiag[i] > 1:
            torsion_gens.append(gen)
    return free_rank, torsion, free_gens, torsion_gens
