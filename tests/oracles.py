"""Independent oracles for the acceptance suite.

Nothing here shares code with the package's elimination engine: invariant
factors come from the classical minors-gcd characterization (determinants
via fraction-free Bareiss), and homology comes from a from-scratch
xgcd-based kernel computation.  Two exceptions are references for a
solver's choices rather than independent oracles: sparse_solve_reference
finishes its residual core with the package's dense LinearSolver, and
column_solve_reference solves with the package's system_block_matrix and
LinearSolver.
"""

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


def sparse_solve_reference(rows, ncols, rhs):
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
