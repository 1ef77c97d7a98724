"""Exact integer matrix kernels.

Everything here is pure arbitrary-precision integer arithmetic: Smith normal
form with unimodular witnesses, kernel bases, integral linear solving, and
homology of integer chain complexes.  IntMatrix is a dense list of rows and
backs the Smith form, whose steps touch only the entries they change and
which builds Uinv only for a caller that reads it.  A LinearSolver caches
one SNF so repeated solves against the same matrix are cheap; it, and
homology_at, work over nonzero entries only.  sparse_solve takes rows as
dicts, eliminates unit pivots in Markowitz order from a candidate heap, and
hands only the residual core to the dense Smith form.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cached_property


@dataclass
class IntMatrix:
    rows: int
    cols: int
    data: list

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, [[0] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        m = cls.zero(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def from_rows(cls, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        for r in rows_list:
            if len(r) != cols:
                raise ValueError("ragged matrix")
        return cls(rows, cols, [list(r) for r in rows_list])

    @classmethod
    def from_columns(cls, cols_list, rows=None):
        if not cols_list:
            return cls(rows or 0, 0, [[] for _ in range(rows or 0)])
        rows = len(cols_list[0])
        return cls(rows, len(cols_list),
                   [[c[i] for c in cols_list] for i in range(rows)])

    def copy(self):
        return IntMatrix(self.rows, self.cols, [row[:] for row in self.data])

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def __eq__(self, other):
        return (isinstance(other, IntMatrix) and other.rows == self.rows
                and other.cols == self.cols and other.data == self.data)

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


def mat_vec(a: IntMatrix, v) -> list:
    if a.cols != len(v):
        raise ValueError("shape mismatch")
    return [sum(x * y for x, y in zip(row, v)) for row in a.data]


@dataclass
class SnfResult:
    """U * A * V = D with D diagonal in divisibility order.

    diag lists only the nonzero invariant factors; rank == len(diag).
    row_ops logs the elimination's row operations in order, as (kind, i,
    k, arg) with kind "add", "swap", "neg" or "mix".  Uinv is built on the
    first read, by replaying the log on the identity, and then kept.
    """

    diag: list
    U: IntMatrix
    V: IntMatrix
    shape: tuple
    row_ops: list = field(repr=False)

    @property
    def rank(self):
        return len(self.diag)

    @cached_property
    def Uinv(self) -> IntMatrix:
        # row operation E on U is the column operation E^-1 on Uinv; keep
        # Uinv as its list of columns, so each step is one comprehension
        m = self.shape[0]
        cols = IntMatrix.identity(m).data
        for kind, i, k, arg in self.row_ops:
            if kind == "add":  # row i += q * row k
                cols[k] = [x - arg * y for x, y in zip(cols[k], cols[i])]
            elif kind == "swap":
                cols[i], cols[k] = cols[k], cols[i]
            elif kind == "neg":
                cols[i] = [-x for x in cols[i]]
            else:  # rows (i, k) <- t . rows (i, k), t = (a, b, c, d)
                a, b, c, d = arg
                ci, ck = cols[i], cols[k]
                cols[i] = [x * d - y * c for x, y in zip(ci, ck)]
                cols[k] = [-x * b + y * a for x, y in zip(ci, ck)]
        return IntMatrix(m, m, [list(r) for r in zip(*cols)])


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def snf(A: IntMatrix) -> SnfResult:
    """Smith normal form with two-sided unimodular witnesses.

    Each round moves the globally smallest nonzero entry of the working
    block to the pivot and clears by division, leaving remainders in place
    for the next round; this is the classical growth-tamed scheme.  The
    divisibility chain is then enforced with closed-form Bezout 2x2
    transforms, so no Euclidean loop ever runs on grown entries.

    Each operation touches only what it can change.  Row operations update
    D and U and are logged for SnfResult.Uinv.  Rows above the pivot are
    zero off the diagonal, so a column swap of D runs over the working
    rows, a Bezout column mix over its two rows, and a column addition that
    clears row s (column s is then zero below the pivot) changes D[s][j]
    alone.  V is kept as its list of columns.
    """
    m, n = A.rows, A.cols
    D = [row[:] for row in A.data]
    U = IntMatrix.identity(m).data
    Vcols = IntMatrix.identity(n).data
    log = []

    def row_add(i, k, q):  # row i += q * row k
        D[i] = [x + q * y for x, y in zip(D[i], D[k])]
        U[i] = [x + q * y for x, y in zip(U[i], U[k])]
        log.append(("add", i, k, q))

    def row_swap(i, k):
        D[i], D[k] = D[k], D[i]
        U[i], U[k] = U[k], U[i]
        log.append(("swap", i, k, None))

    def row_neg(i):
        D[i] = [-x for x in D[i]]
        U[i] = [-x for x in U[i]]
        log.append(("neg", i, i, None))

    def row_mix(i, j, t):  # rows (i, j) <- t . rows (i, j), det t = 1
        a, b, c, d = t
        D[i], D[j] = ([a * x + b * y for x, y in zip(D[i], D[j])],
                      [c * x + d * y for x, y in zip(D[i], D[j])])
        U[i], U[j] = ([a * x + b * y for x, y in zip(U[i], U[j])],
                      [c * x + d * y for x, y in zip(U[i], U[j])])
        log.append(("mix", i, j, t))

    def col_swap(s, k):  # rows above s are zero in columns s and k >= s
        for r in range(s, m):
            row = D[r]
            row[s], row[k] = row[k], row[s]
        Vcols[s], Vcols[k] = Vcols[k], Vcols[s]

    def col_add(s, j, q):  # col j += q * col s, col s zero off row s
        D[s][j] += q * D[s][s]
        Vcols[j] = [x + q * y for x, y in zip(Vcols[j], Vcols[s])]

    def col_mix(i, j, t):  # cols (i, j) <- cols (i, j) . t^T style, det 1
        a, b, c, d = t  # D is diagonal but for the 2x2 block at (i, j)
        for row in (D[i], D[j]):
            x, y = row[i], row[j]
            row[i] = a * x + c * y
            row[j] = b * x + d * y
        x, y = Vcols[i], Vcols[j]
        Vcols[i] = [a * p + c * q for p, q in zip(x, y)]
        Vcols[j] = [b * p + d * q for p, q in zip(x, y)]

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
                q = -(D[i][s] // D[s][s])
                if q:
                    row_add(i, s, q)
                if D[i][s] != 0:
                    clean = False
        if not clean:
            continue  # a strictly smaller remainder exists; re-pivot
        for j in range(s + 1, n):
            if D[s][j] != 0:
                col_add(s, j, -(D[s][j] // D[s][s]))
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
                g, x, y = _xgcd(a, b)
                # diag(a, b) -> diag(g, a b / g) by unimodular 2x2 mixes
                row_mix(i, i + 1, (x, y, -(b // g), a // g))
                col_mix(i, i + 1, (1, -(b // g) * y, 1, (a // g) * x))
                if D[i][i] < 0:
                    row_neg(i)
                if D[i + 1][i + 1] < 0:
                    row_neg(i + 1)
                changed = True
    diag = [D[i][i] for i in range(r) if D[i][i] != 0]
    V = IntMatrix(n, n, [list(row) for row in zip(*Vcols)])
    return SnfResult(diag, IntMatrix(m, m, U), V, (m, n), log)


class LinearSolver:
    """Repeated exact solving of A x = b against a fixed A."""

    def __init__(self, A: IntMatrix):
        self.A = A
        self.res = snf(A)

    @property
    def rank(self):
        return self.res.rank

    def solve(self, b):
        """One integral solution of A x = b, or None."""
        res = self.res
        if len(b) != self.A.rows:
            raise ValueError("shape mismatch")
        # U b and V y over the nonzero entries only: right-hand sides are
        # mostly zero, and U and V are dense
        b_nz = [(j, x) for j, x in enumerate(b) if x]
        c = [sum(row[j] * x for j, x in b_nz) for row in res.U.data]
        y_nz = []
        for i, ci in enumerate(c):
            if i < res.rank:
                q, r = divmod(ci, res.diag[i])
                if r:
                    return None
                if q:
                    y_nz.append((i, q))
            elif ci:
                return None
        return [sum(row[i] * q for i, q in y_nz) for row in res.V.data]

    def kernel_basis(self):
        """Columns of V past the rank span ker(A) as a lattice."""
        res = self.res
        return [res.V.column(j) for j in range(res.rank, self.A.cols)]


@dataclass
class HomologyGroup:
    free_rank: int
    torsion: list
    free_generators: list = field(default_factory=list)
    torsion_generators: list = field(default_factory=list)

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def is_infinite_cyclic(self):
        return self.free_rank == 1 and not self.torsion

    def describe(self):
        parts = ["Z"] * self.free_rank + [f"Z/{t}" for t in self.torsion]
        return " + ".join(parts) if parts else "0"


def homology_at(d_in: IntMatrix, d_out: IntMatrix) -> HomologyGroup:
    """ker(d_out) / im(d_in) for integer matrices with d_out * d_in = 0.

    Presented in invariant-factor form with explicit generating cycles.
    """
    if d_in.rows != d_out.cols:
        raise ValueError("shape mismatch: d_out . d_in undefined")
    in_nz = [[(i, x) for i, x in enumerate(col) if x]
             for col in d_in.columns()]
    if any(sum(row[i] * x for i, x in nz) for row in d_out.data
           for nz in in_nz if nz):
        raise ValueError("not a complex: d_out . d_in != 0")
    out_solver = LinearSolver(d_out)
    kernel = out_solver.kernel_basis()
    k = len(kernel)
    if k == 0:
        return HomologyGroup(0, [])
    K = IntMatrix.from_columns(kernel, rows=d_out.cols)
    ksolver = LinearSolver(K)
    ycols = []
    for j in range(d_in.cols):
        y = ksolver.solve(d_in.column(j))
        if y is None:
            raise ValueError("image does not lie in kernel")
        ycols.append(y)
    Y = IntMatrix.from_columns(ycols, rows=k)
    yres = snf(Y)
    free_rank = k - yres.rank
    torsion = [d for d in yres.diag if d > 1]

    def pull_back(i):  # generator i in the new coordinates is Uinv[:, i]
        u_nz = [(l, c) for l, c in enumerate(yres.Uinv.column(i)) if c]
        return [sum(row[l] * c for l, c in u_nz) for row in K.data]

    free_gens = [pull_back(i) for i in range(yres.rank, k)]
    torsion_gens = [pull_back(i) for i, d in enumerate(yres.diag) if d > 1]
    return HomologyGroup(free_rank, torsion, free_gens, torsion_gens)


def sparse_solve(rows, ncols, rhs):
    """One integral solution of a sparse system, or None.

    rows: list of dicts col -> coefficient.  Unit pivots are eliminated by
    substitution first (these systems are mostly incidence-like), then the
    dense Smith engine finishes the residual core.

    Each pivot is the unit entry (r, c) of least Markowitz cost
    (len(row r) - 1) * (len(col_rows[c]) - 1), ties going to the smaller r
    and then the smaller c, so reports are byte-stable.  col_rows[c] also
    keeps the rows already used as pivots that held c.  Candidates wait in
    a heap of (cost, r, c) keys.  After each pivot, keys are pushed for the
    unit entries of the rows it changed and of the columns whose col_rows
    size changed; a popped key is dropped when its entry is gone, is no
    longer a unit or costs something else now.  So each step finds the
    pivot a scan of every live row would, at the price of what it touches.
    """
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


def class_coordinates(hom: HomologyGroup, boundary_in: IntMatrix, cycle):
    """Coordinates of a cycle's class over the free generators, or None.

    Only meaningful for torsion-free homology; returns the integer vector c
    with cycle ~ sum c_i * free_gen_i modulo im(boundary_in).
    """
    cols = [list(g) for g in hom.free_generators]
    n = len(cycle)
    aug_cols = cols + boundary_in.columns()
    if not aug_cols:
        return None if any(cycle) else []
    M = IntMatrix.from_columns(aug_cols, rows=n)
    x = LinearSolver(M).solve(list(cycle))
    if x is None:
        return None
    return x[:len(cols)]
