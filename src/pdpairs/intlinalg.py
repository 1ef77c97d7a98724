"""Exact integer matrix kernels.

Everything here is pure arbitrary-precision integer arithmetic: Smith normal
form with unimodular witnesses, kernel bases, integral linear solving, and
homology of integer chain complexes.  IntMatrix is a dense list of rows and
backs the Smith form, whose steps touch only the entries of D they change
and are logged; one replay applies a log, inverted or transposed if asked,
and the witnesses U, Uinv and V are replayed from the logs only for a
caller that reads them.  A LinearSolver caches one SNF so repeated solves
against the same matrix are cheap, and applies its witnesses over nonzero
entries only; it shares with sparse_solve the division of U b by the
invariant factors.  homology_at takes one Smith form of d_out and one
of d_in in kernel coordinates, which it reads, like its generators, by
replaying d_out's column log; it builds no U or V.  sparse_solve takes rows
as dicts, eliminates unit pivots in Markowitz order from a candidate heap
that starts with one key per row, and finishes the residual core with one
Smith form, applied to the right-hand side by replaying its logs.
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


def _replay(steps, rows, invert=False, transpose=False) -> list:
    """Apply logged steps, in the order given, as row operations on rows.

    Each step (kind, i, k, arg) is a block on rows (i, k): "add" is
    [[1, q], [0, 1]], "mix" is [[a, b], [c, d]] (det 1), "swap" exchanges
    the rows and "neg" negates row i.  invert applies each block's inverse
    instead, transpose its transpose, and both together the transpose of
    its inverse.  The rows of the input are not modified.
    """
    w = list(rows)
    for kind, i, k, arg in steps:
        if kind == "add":
            q = -arg if invert else arg
            if transpose:
                i, k = k, i
            w[i] = [x + q * y for x, y in zip(w[i], w[k])]
        elif kind == "swap":
            w[i], w[k] = w[k], w[i]
        elif kind == "neg":
            w[i] = [-x for x in w[i]]
        else:
            a, b, c, d = arg
            if invert:
                a, b, c, d = d, -b, -c, a
            if transpose:
                b, c = c, b
            wi, wk = w[i], w[k]
            w[i] = [a * x + b * y for x, y in zip(wi, wk)]
            w[k] = [c * x + d * y for x, y in zip(wi, wk)]
    return w


@dataclass
class SnfResult:
    """U * A * V = D with D diagonal in divisibility order.

    diag lists only the nonzero invariant factors; rank == len(diag).
    The elimination keeps no witness matrix, only two logs of its steps in
    order, each step a tuple (kind, i, k, arg) that _replay reads as a
    block on rows (i, k):

    - row_ops: ("add", i, k, q) for row i += q * row k, ("swap", i, k,
      None), ("neg", i, i, None), ("mix", i, k, (a, b, c, d)) for rows
      (i, k) <- (a r_i + b r_k, c r_i + d r_k), so U = E_t ... E_1;
    - col_ops: ("add", s, j, q) for col j += q * col s, ("swap", s, k,
      None), ("mix", i, j, (a, b, c, d)) for cols (i, j) <- (a c_i + c c_j,
      b c_i + d c_j), so V = E_1 ... E_t with E the same block.

    U_times, V_times and Vinv_times apply U, V and V^-1 to the rows of
    another matrix by one replay each, so a caller that needs only such
    products never builds U or V.  U, V and Uinv are replays on the
    identity, built the first time they are read and then kept; Uinv =
    E_1^-1 ... E_t^-1 is the transpose of the inverse-transposed row log
    replayed forwards.
    """

    diag: list
    shape: tuple
    row_ops: list = field(repr=False)
    col_ops: list = field(repr=False)

    @property
    def rank(self):
        return len(self.diag)

    @cached_property
    def U(self) -> IntMatrix:
        m = self.shape[0]
        return IntMatrix(m, m, self.U_times(IntMatrix.identity(m).data))

    def U_times(self, rows) -> list:
        return _replay(self.row_ops, rows)

    @cached_property
    def Uinv(self) -> IntMatrix:
        m = self.shape[0]
        cols = _replay(self.row_ops, IntMatrix.identity(m).data,
                       invert=True, transpose=True)
        return IntMatrix(m, m, [list(r) for r in zip(*cols)])

    @cached_property
    def V(self) -> IntMatrix:
        n = self.shape[1]
        return IntMatrix(n, n, self.V_times(IntMatrix.identity(n).data))

    def V_times(self, rows) -> list:
        return _replay(reversed(self.col_ops), rows)

    def Vinv_times(self, rows) -> list:
        return _replay(self.col_ops, rows, invert=True)


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

    Each operation touches only what it can change, in D alone: no witness
    is updated, every row and column operation is logged instead (see
    SnfResult).  Rows above the pivot are zero off the diagonal, so a
    column swap of D runs over the working rows, a Bezout column mix over
    its two rows, and a column addition that clears row s (column s is then
    zero below the pivot) changes D[s][j] alone.
    """
    m, n = A.rows, A.cols
    D = [row[:] for row in A.data]
    log = []
    col_log = []

    def row_add(i, k, q):  # row i += q * row k
        D[i] = [x + q * y for x, y in zip(D[i], D[k])]
        log.append(("add", i, k, q))

    def row_swap(i, k):
        D[i], D[k] = D[k], D[i]
        log.append(("swap", i, k, None))

    def row_neg(i):
        D[i] = [-x for x in D[i]]
        log.append(("neg", i, i, None))

    def row_mix(i, j, t):  # rows (i, j) <- t . rows (i, j), det t = 1
        a, b, c, d = t
        D[i], D[j] = ([a * x + b * y for x, y in zip(D[i], D[j])],
                      [c * x + d * y for x, y in zip(D[i], D[j])])
        log.append(("mix", i, j, t))

    def col_swap(s, k):  # rows above s are zero in columns s and k >= s
        for r in range(s, m):
            row = D[r]
            row[s], row[k] = row[k], row[s]
        col_log.append(("swap", s, k, None))

    def col_add(s, j, q):  # col j += q * col s, col s zero off row s
        D[s][j] += q * D[s][s]
        col_log.append(("add", s, j, q))

    def col_mix(i, j, t):  # cols (i, j) <- cols (i, j) . t^T style, det 1
        a, b, c, d = t  # D is diagonal but for the 2x2 block at (i, j)
        for row in (D[i], D[j]):
            x, y = row[i], row[j]
            row[i] = a * x + c * y
            row[j] = b * x + d * y
        col_log.append(("mix", i, j, t))

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
    return SnfResult(diag, (m, n), log, col_log)


def _divide(c, diag):
    """y with y_i = c_i / diag_i over the rank, or None when some division
    leaves a remainder or c is nonzero past the rank: the step from U b to
    a solution y of D y = U b, which V then maps to A x = b."""
    r = len(diag)
    if any(c[r:]):
        return None
    y = []
    for ci, di in zip(c, diag):
        q, rem = divmod(ci, di)
        if rem:
            return None
        y.append(q)
    return y


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
        y = _divide([sum(row[j] * x for j, x in b_nz) for row in res.U.data],
                    res.diag)
        if y is None:
            return None
        y_nz = [(i, q) for i, q in enumerate(y) if q]
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

    One Smith form U d_out V = D fixes everything.  With Z = V^-1 d_in,
    d_out d_in = U^-1 D Z, and the first r = rank rows of D are its only
    nonzero ones, each with a nonzero diagonal entry: so d_out d_in = 0
    exactly when Z[:r] = 0, which is the complex check.  The columns of
    K = V[:, r:] are a basis of ker(d_out), and d_in = K Z[r:], so Y =
    Z[r:] is the matrix of d_in in that basis, and a second Smith form of Y
    gives the torsion, the free rank and, through Y's Uinv, generators in
    kernel coordinates u, which V (0_r; u) maps back.  Both products replay
    d_out's column log; neither Smith form builds U or V.
    """
    if d_in.rows != d_out.cols:
        raise ValueError("shape mismatch: d_out . d_in undefined")
    res = snf(d_out)
    r = res.rank
    Z = res.Vinv_times(d_in.data)
    if any(any(row) for row in Z[:r]):
        raise ValueError("not a complex: d_out . d_in != 0")
    k = d_out.cols - r
    if k == 0:
        return HomologyGroup(0, [])
    yres = snf(IntMatrix(k, d_in.cols, Z[r:]))
    free_rank = k - yres.rank
    torsion = [d for d in yres.diag if d > 1]
    gens = list(range(yres.rank, k)) + [
        i for i, d in enumerate(yres.diag) if d > 1]
    Uinv = yres.Uinv.data
    W = [[0] * len(gens) for _ in range(r)]
    W += [[row[i] for i in gens] for row in Uinv]
    cols = [list(c) for c in zip(*res.V_times(W))]
    return HomologyGroup(free_rank, torsion, cols[:free_rank],
                         cols[free_rank:])


def sparse_solve(rows, ncols, rhs):
    """One integral solution of a sparse system, or None.

    rows: list of dicts col -> coefficient.  Unit pivots are eliminated by
    substitution first (these systems are mostly incidence-like), then one
    Smith form finishes the residual core.

    Each pivot is the unit entry (r, c) of least Markowitz cost
    (len(row r) - 1) * (len(col_rows[c]) - 1), ties going to the smaller r
    and then the smaller c, so reports are byte-stable.  col_rows[c] also
    keeps the rows already used as pivots that held c.  Candidates wait in
    a heap of (cost, r, c) keys.  Each row starts with one key, its seed:
    that of its least unit.  The invariant: every live unit entry has a
    queued key at most its current cost, or its row is still seeded and
    the seed is at most the row's least unit.  So a key is pushed when its
    entry becomes a unit (new fill, or a value that moves onto +-1), and
    for every unit of a row that got shorter (the row is then no longer
    seeded) or of a column whose col_rows got shorter, seeded or not; an
    entry whose cost only grew keeps its old key.  A popped key that does
    not pivot (its entry is gone, is no longer a unit, or costs more now)
    expands its row if the row is still seeded: the row queues a key for
    each of its units at the current cost and is no longer seeded.
    Otherwise the key is dropped, or pushed again at the current cost if
    its entry is still a unit.  A popped key is never above the cost: the
    lower key the invariant promises would have popped first.  A key equal
    to its cost pivots, and by the invariant that pivot is the least
    (cost, r, c) of all live units, the one a scan of every live row would
    pick.  A row that dies empty before its seed pops, as most rows of
    nu's systems over a finite group do, costs one key however many units
    it held.

    The core's Smith form U A V = D is applied by replaying its logs on
    the one right-hand side: U b, then V y, with neither U nor V built.
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

    def expand(ri):  # a key of seeded row ri popped without pivoting
        seeded[ri] = 0
        lr = len(rows[ri]) - 1
        for c, v in rows[ri].items():
            if v == 1 or v == -1:
                heapq.heappush(heap, (lr * (len(col_rows[c]) - 1), ri, c))

    seeded = bytearray(len(rows))
    heap = []
    for ri, row in enumerate(rows):
        # the row's length is common to its units, so its least unit has
        # the least (len(col_rows[c]), c)
        least = None
        for c, v in row.items():
            if v == 1 or v == -1:
                size = (len(col_rows[c]), c)
                if least is None or size < least:
                    least = size
        if least is not None:
            heap.append(((len(row) - 1) * (least[0] - 1), ri, least[1]))
            seeded[ri] = 1
    heapq.heapify(heap)
    while heap:
        key, ri, c = heapq.heappop(heap)
        row = rows[ri]
        val = row.get(c)
        if val not in (1, -1):  # stale key; dead rows are empty dicts
            if seeded[ri]:
                expand(ri)
            continue
        now = cost(ri, c)
        if now > key:  # the cost grew since the push
            if seeded[ri]:
                expand(ri)
            else:
                heapq.heappush(heap, (now, ri, c))
            continue
        snapshot = {cc: vv for cc, vv in row.items() if cc != c}
        eliminated.append((c, val, snapshot, b[ri]))
        users = col_rows.pop(c)
        users.discard(ri)
        alive_rows.discard(ri)
        alive_cols.discard(c)
        sizes = [(cc, len(col_rows[cc])) for cc in snapshot]
        push = set()
        for rj in users:
            if rj not in alive_rows:
                continue
            other = rows[rj]
            length = len(other)
            beta = other.pop(c, 0)
            if not beta:
                continue
            factor = beta * val
            for cc, vv in snapshot.items():
                old = other.get(cc, 0)
                nv = old - factor * vv
                if nv:
                    other[cc] = nv
                    col_rows[cc].add(rj)
                    if nv in (1, -1) and old not in (1, -1):
                        push.add((rj, cc))
                else:
                    other.pop(cc, None)
                    col_rows[cc].discard(rj)
            b[rj] -= factor * b[ri]
            if not other:
                if b[rj] != 0:
                    return None
                alive_rows.discard(rj)
            elif len(other) < length:  # all of rj's units get keys here
                seeded[rj] = 0
                push.update((rj, cc) for cc, vv in other.items()
                            if vv in (1, -1))
        rows[ri] = {}
        for cc, size in sizes:
            members = col_rows[cc]
            if len(members) < size:
                push.update((rj, cc) for rj in members
                            if rows[rj].get(cc) in (1, -1))
        for rj, cc in push:
            heapq.heappush(heap, (cost(rj, cc), rj, cc))
    # the residual core
    core_cols = sorted(alive_cols)
    col_pos = {c: i for i, c in enumerate(core_cols)}
    core_rows = sorted(alive_rows)
    solution = [0] * ncols
    if core_rows:
        mat = IntMatrix.zero(len(core_rows), len(core_cols))
        for k, ri in enumerate(core_rows):
            for c, vv in rows[ri].items():
                mat.data[k][col_pos[c]] = vv
        res = snf(mat)
        ub = res.U_times([[b[ri]] for ri in core_rows])
        y = _divide([ci for (ci,) in ub], res.diag)
        if y is None:
            return None
        y = [[q] for q in y] + [[0]] * (len(core_cols) - res.rank)
        for c, (x,) in zip(core_cols, res.V_times(y)):
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
