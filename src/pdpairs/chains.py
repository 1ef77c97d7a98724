"""Finitely generated free Lambda-chain complexes and their maps.

Conventions, fixed once for the whole library:

* A morphism of free left Lambda-modules is stored as a matrix of shape
  (target rank x source rank); column j holds the coefficients of the image
  of source basis element j.
* Coefficients multiply module elements from the left, so applying a matrix
  to a coefficient vector reads (M x)_i = sum_j x_j * M[i][j], with the ring
  product in exactly that order, and the matrix of a composite g.f is
  compose(M_g, M_f)[k][j] = sum_i M_f[i][j] * M_g[k][i].  Over a commutative
  group ring this is the ordinary product; over a noncommutative one the
  order matters and this is the one that makes d.d = 0 hold for cellular
  complexes of universal covers.
* Boundary matrices are indexed by their source degree: boundary[d] maps
  degree d to degree d-1.
* Cohomological degree k is stored as homological degree -k; the dual of a
  complex is its degree-negated bar-conjugate transpose.
* A chain map of shift n satisfies d.f = (-1)^n f.d degreewise.

eliminate_units removes pairs of cells joined by a unit boundary entry
+-g, over Lambda itself; what it leaves is chain homotopy equivalent to
its input, so a homology question can be asked of the smaller complex.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .groups import GroupModel, RingElem
from .intlinalg import IntMatrix, LinearSolver, homology_at, mat_vec


class ChainError(ValueError):
    """Raised for malformed complexes, maps, or mismatched models."""


# ---------------------------------------------------------------------------
# Matrices over the group ring


class LambdaMatrix:
    __slots__ = ("model", "rows", "cols", "data")

    def __init__(self, model: GroupModel, rows: int, cols: int, data=None):
        self.model = model
        self.rows = rows
        self.cols = cols
        if data is None:
            data = [[model.zero() for _ in range(cols)] for _ in range(rows)]
        self.data = data

    @classmethod
    def zero(cls, model, rows, cols):
        return cls(model, rows, cols)

    @classmethod
    def identity(cls, model, n):
        m = cls(model, n, n)
        for i in range(n):
            m.data[i][i] = model.one()
        return m

    @classmethod
    def from_rows(cls, model, rows_list):
        rows = len(rows_list)
        cols = len(rows_list[0]) if rows else 0
        for r in rows_list:
            if len(r) != cols:
                raise ChainError("ragged matrix")
        return cls(model, rows, cols, [list(r) for r in rows_list])

    @classmethod
    def from_columns(cls, model, rows, cols):
        """The rows x len(cols) matrix whose column j is cols[j]."""
        return cls(model, rows, len(cols),
                   [[col[i] for col in cols] for i in range(rows)])

    @classmethod
    def from_int_rows(cls, model, rows_list):
        return cls.from_rows(model, [[model.from_int(x) for x in row]
                                     for row in rows_list])

    def copy(self):
        return LambdaMatrix(self.model, self.rows, self.cols,
                            [row[:] for row in self.data])

    def column(self, j):
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def submatrix(self, rows, cols):
        """The entries at the given row and column indices, in that order."""
        rows, cols = list(rows), list(cols)
        return LambdaMatrix(self.model, len(rows), len(cols),
                            [[self.data[r][c] for c in cols] for r in rows])

    def is_zero(self):
        return all(e.is_zero() for row in self.data for e in row)

    def __eq__(self, other):
        return (isinstance(other, LambdaMatrix) and other.model == self.model
                and other.rows == self.rows and other.cols == self.cols
                and other.data == self.data)

    def __add__(self, other):
        if (other.rows, other.cols) != (self.rows, self.cols):
            raise ChainError("shape mismatch")
        return LambdaMatrix(self.model, self.rows, self.cols,
                            [[a + b for a, b in zip(r1, r2)]
                             for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c: int):
        return LambdaMatrix(self.model, self.rows, self.cols,
                            [[e * c for e in row] for row in self.data])

    def map_entries(self, fn):
        return LambdaMatrix(self.model, self.rows, self.cols,
                            [[fn(e) for e in row] for row in self.data])

    def bar_transpose(self):
        """Entry (i, j) of the result is bar of entry (j, i)."""
        return LambdaMatrix(self.model, self.cols, self.rows,
                            [[self.data[j][i].bar() for j in range(self.rows)]
                             for i in range(self.cols)])

    def to_int_plain(self) -> IntMatrix:
        """Apply the plain augmentation entrywise."""
        return IntMatrix(self.rows, self.cols,
                         [[e.aug() for e in row] for row in self.data])

    def to_int_signed(self) -> IntMatrix:
        """Apply the omega-twisted augmentation entrywise (Z^omega tensor)."""
        return IntMatrix(self.rows, self.cols,
                         [[e.aug_signed() for e in row] for row in self.data])

    def __repr__(self):
        return f"LambdaMatrix({self.rows}x{self.cols} over {self.model!r})"

    def pretty(self):
        return "[" + ", ".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.data
        ) + "]"


def compose(outer: LambdaMatrix, inner: LambdaMatrix) -> LambdaMatrix:
    """Matrix of the composite module map outer . inner."""
    if outer.model != inner.model:
        raise ChainError("model mismatch")
    if outer.cols != inner.rows:
        raise ChainError("shape mismatch in composition")
    model = outer.model
    out = LambdaMatrix(model, outer.rows, inner.cols)
    for k in range(outer.rows):
        for j in range(inner.cols):
            acc = model.zero()
            for i in range(outer.cols):
                e = inner.data[i][j]
                if not e.is_zero():
                    acc = acc + e * outer.data[k][i]
            out.data[k][j] = acc
    return out


def apply_matrix(m: LambdaMatrix, vec):
    """Image coefficients of the chain with coefficient vector vec."""
    if len(vec) != m.cols:
        raise ChainError("shape mismatch")
    model = m.model
    out = []
    for i in range(m.rows):
        acc = model.zero()
        for j in range(m.cols):
            x = vec[j]
            if isinstance(x, int):
                x = model.from_int(x)
            if not x.is_zero():
                acc = acc + x * m.data[i][j]
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# The regular representation.  A Lambda-vector whose entries are supported
# on a list of group elements is the integer vector of their coefficients,
# entry after entry; over a finite model that list is the whole group in
# sort_key order.


def _finite_order(model: GroupModel):
    if not model.is_finite():
        raise ChainError("regular representation: model is not finite")
    return model.ball(0)


def system_block_matrix(m: LambdaMatrix) -> IntMatrix:
    """Integer matrix whose column action mirrors apply_matrix.

    Block (i, j) is right multiplication by entry (i, j): its column g holds
    the coordinates of g * m[i][j], which is what the coefficients-on-the-
    left convention requires.
    """
    model = m.model
    elems = _finite_order(model)
    index = {g: i for i, g in enumerate(elems)}
    n = len(elems)
    out = IntMatrix.zero(m.rows * n, m.cols * n)
    for i in range(m.rows):
        for j in range(m.cols):
            for w, c in m.data[i][j].support.items():
                for k, g in enumerate(elems):
                    out.data[i * n + index[model.mul(g, w)]][j * n + k] += c
    return out


def int_vec_to_ring(model, support, vec, width):
    """The width ring elements whose coefficients over support are vec."""
    n = len(support)
    return [RingElem(model, {g: c for g, c in
                             zip(support, vec[j * n:(j + 1) * n]) if c})
            for j in range(width)]


# ---------------------------------------------------------------------------
# Solving Lambda-linear systems with unknowns supported on a word-metric
# ball: exact over finite models, where the ball is the whole group, and a
# bounded-support search over infinite ones.


class LambdaColumnSolver:
    """Solve apply(M, x) = b repeatedly for a fixed matrix M.

    The unknowns are supported on model.ball(radius), and the integer
    system has one equation (i, h) for each row i of M and each group
    element h that the support reaches through that row.  Over a finite
    model the ball is the whole group, so the solve is exact, and when M has
    no zero row the system is system_block_matrix(M); over an infinite model
    failure only means failure at this radius.  kernel() gives the integer
    kernel of that system as Lambda-vectors: over a finite model they span
    the solutions of apply(M, x) = 0.
    """

    def __init__(self, m: LambdaMatrix, radius: int = 4):
        self.m = m
        self.model = model = m.model
        self.radius = radius
        self.support = model.ball(radius)
        ns = len(self.support)
        # (i, h) -> {column of (j, g): coefficient of g^-1 h in m[i][j]}
        cells = {}
        keys = []
        for i in range(m.rows):
            reach = set()
            for j in range(m.cols):
                for w, c in m.data[i][j].support.items():
                    for gi, g in enumerate(self.support):
                        h = model.mul(g, w)
                        reach.add(h)
                        cells.setdefault((i, h), {})[j * ns + gi] = c
            # sorted from a set: where sort_key ties (free factors with equal
            # letter names) the set's iteration order decides the row order,
            # and the solution the elimination picks depends on it
            keys.extend((i, h) for h in sorted(reach, key=model.sort_key))
        self.row_index = {key: r for r, key in enumerate(keys)}
        mat = IntMatrix.zero(len(keys), m.cols * ns)
        for row, key in zip(mat.data, keys):
            for col, c in cells[key].items():
                row[col] = c
        self.solver = LinearSolver(mat)

    def solve(self, b):
        """b: list of RingElem of length m.rows -> list of RingElem or None."""
        if len(b) != self.m.rows:
            raise ChainError("shape mismatch")
        rhs = [0] * len(self.row_index)
        for i, r in enumerate(b):
            for h, c in r.support.items():
                idx = self.row_index.get((i, h))
                if idx is None:
                    return None  # unreachable at this radius
                rhs[idx] = c
        x = self.solver.solve(rhs)
        if x is None:
            return None
        return int_vec_to_ring(self.model, self.support, x, self.m.cols)

    def kernel(self):
        """A lattice basis of the integer kernel, as RingElem vectors."""
        return [int_vec_to_ring(self.model, self.support, v, self.m.cols)
                for v in self.solver.kernel_basis()]


_CENTRAL_COSETS = weakref.WeakKeyDictionary()  # model -> _central_cosets


def _central_cosets(model: GroupModel):
    """u -> (c, c^-1 u) for each element u of a finite model, c the least
    element of u Z(G) under sort_key, computed once per model.

    The pairs (u, w) and (u z, z^-1 w) act alike, g -> u g w, exactly when
    z is central, so (c, c^-1 u w) names the action of (u, w): equal
    actions get equal names.  Over an abelian group it is (1, u w).
    """
    cosets = _CENTRAL_COSETS.get(model)
    if cosets is None:
        mul = model.mul
        elems = model.ball(0)
        centre = [z for z in elems
                  if all(mul(z, g) == mul(g, z) for g in elems)]
        cosets = {}
        for u in elems:
            c = min((mul(u, z) for z in centre), key=model.sort_key)
            cosets[u] = (c, mul(model.inv(c), u))
        _CENTRAL_COSETS[model] = cosets
    return cosets


class LambdaLinearSystem:
    """General linear constraints over Lambda in several matrix unknowns.

    Constraints have the form  sum_t  c_t * (P_t . X_{v_t} . Q_t) = RHS,
    with module composition throughout.  The system is stated once, with
    no radius; solve(radius) supports the unknown entries on
    model.ball(radius).  The same system can be solved at several radii,
    as bounded_search does.

    Entry (r, s) of a constraint is one equation over Lambda,
    sum_X sum_(u, w) c . u X w = b, X running over the unknown entries, and
    its linearization sends X's coefficient at g to row (equation, u g w).
    Over a finite model the ball is the whole group and the answer exact:
    solve first eliminates, over Lambda, every unknown that some equation
    holds with a single two-sided unit +-u X w (the elimination lemma of
    eliminate_units, applied to a linear system), linearizes only the
    equations left for sparse_solve, and recovers the eliminated unknowns
    by back-substitution.  Over an infinite model the unknowns are confined
    to the ball, which substitution would not respect, so the system is
    linearized as stated.

    A finite system states many integer equations more than once.  The
    norm element N = sum g has N x = eps(x) N, so an equation whose
    coefficients are multiples of N linearizes to |pi| identical rows, one
    per h.  A lens space's d_2 is N, so such copies are most of nu's
    equations and all of a realized diagonal's residual; sparse_solve gets
    each distinct equation once.  Over an abelian model whose equations
    left after elimination are all of that form, each is stated once, one
    row per distinct right-hand side value (_norm_rows), with no row
    expanded; otherwise they are linearized and the copies dropped, the
    general path, kept as the fallback.  Both give the same rows in the
    same order.
    """

    def __init__(self, model: GroupModel):
        self.model = model
        self.vars = {}
        self.var_order = []
        self.constraints = []

    def add_var(self, name, rows, cols):
        if name in self.vars:
            raise ChainError(f"duplicate variable {name}")
        self.vars[name] = (rows, cols)
        self.var_order.append(name)

    def add_constraint(self, terms, rhs: LambdaMatrix):
        """terms: list of (int coeff, P or None, varname, Q or None)."""
        shape = None
        for c, P, v, Q in terms:
            vr, vc = self.vars[v]
            r = P.rows if P is not None else vr
            s = Q.cols if Q is not None else vc
            if P is not None and P.cols != vr:
                raise ChainError("term shape mismatch (P)")
            if Q is not None and Q.rows != vc:
                raise ChainError("term shape mismatch (Q)")
            if shape is None:
                shape = (r, s)
            elif shape != (r, s):
                raise ChainError("terms have differing shapes")
        if shape is None:
            shape = (rhs.rows, rhs.cols)
        if (rhs.rows, rhs.cols) != shape:
            raise ChainError("rhs shape mismatch")
        self.constraints.append((terms, rhs))

    def _statement(self):
        """The equations over Lambda, one part per constraint, and the
        number of unknown entries.

        Unknown k is entry (p, q) of a variable, numbered in var_order,
        then p, then q.  A part is (cid, values, blocks) for constraint
        cid, whose entry (r, s) is the equation (cid, r, s).  values lists
        (r, s, {h: coefficient}), the right-hand side.  blocks lists
        (k, coeff, column, row), one per term and entry (p, q) of its
        variable: column lists (rr, w, cw) over P's column p and row
        (ss, u, cu) over Q's row q, so the term holds coeff.cu.cw . u X_k w
        in equation (cid, rr, ss).  The order is the linearization's row
        order.
        """
        one = self.model.identity()
        first = {}
        n = 0
        for name in self.var_order:
            vr, vc = self.vars[name]
            first[name] = n
            n += vr * vc
        parts = []
        for cid, (terms, rhs) in enumerate(self.constraints):
            values = [(r, s, rhs.data[r][s].support)
                      for r in range(rhs.rows) for s in range(rhs.cols)]
            blocks = []
            for coeff, P, vname, Q in terms:
                vr, vc = self.vars[vname]
                for p in range(vr):
                    if P is None:
                        column = [(p, one, 1)]
                    else:
                        column = [(rr, w, cw) for rr in range(P.rows)
                                  for w, cw in P.data[rr][p].support.items()]
                    for q in range(vc):
                        if Q is None:
                            row = [(q, one, 1)]
                        else:
                            row = [(ss, u, cu) for ss in range(Q.cols)
                                   for u, cu in Q.data[q][ss].support.items()]
                        if column and row:
                            blocks.append((first[vname] + p * vc + q, coeff,
                                           column, row))
            parts.append((cid, values, blocks))
        return parts, n

    def _linearize(self, parts, support, unknowns):
        """The integer system of parts on support: one dict column -> value
        per equation (cid, r, s, h), in order of first appearance, and the
        right-hand side.  unknowns lists the unknowns given columns, in
        column order, len(support) columns apiece."""
        model = self.model
        ns = len(support)
        start = {k: i * ns for i, k in enumerate(unknowns)}
        row_index = {}
        row_dicts = []
        rhs_vals = []

        def row_of(cid, r, s, h):
            key = (cid, r, s, h)
            idx = row_index.get(key)
            if idx is None:
                idx = len(row_dicts)
                row_index[key] = idx
                row_dicts.append({})
                rhs_vals.append(0)
            return idx

        for cid, values, blocks in parts:
            for r, s, b in values:
                for h, c in b.items():
                    rhs_vals[row_of(cid, r, s, h)] = c
            for k, coeff, column, row in blocks:
                base = start[k]
                for gi, g in enumerate(support):
                    col = base + gi
                    for rr, w, cw in column:
                        for ss, u, cu in row:
                            h = model.mul(model.mul(u, g), w)
                            eq = row_dicts[row_of(cid, rr, ss, h)]
                            nv = eq.get(col, 0) + coeff * cu * cw
                            if nv:
                                eq[col] = nv
                            else:
                                eq.pop(col, None)
        return row_dicts, rhs_vals

    def _eliminate(self, parts):
        """Eliminate, over Lambda, each unknown X that some equation holds
        with a single two-sided unit coefficient +-u X w.

        The pivot is the (equation, X) of least Markowitz cost (unknowns in
        the equation - 1) * (equations holding X - 1), ties to the lower
        equation, then the lower unknown.  X = sign . u^-1 (b - rest) w^-1
        is substituted into every other equation holding X.  Returns
        (residual, log), the residual in _statement's form and log the
        pivots in order as (X, u, w, sign, rest, b); with no pivot the
        residual is parts itself.  None when an equation is left with no
        unknowns and a nonzero right-hand side: the system has no solution.
        Terms are keyed by their action (_central_cosets), so fill that
        acts alike is merged.
        """
        model = self.model
        mul, inv = model.mul, model.inv
        cosets = _central_cosets(model)

        def canon(u, w):
            c, z = cosets[u]
            return c, mul(z, w)

        eqs = {}  # equation -> {X: {(u, w): coefficient}}, nonzero only
        rhs = {}  # equation -> {h: coefficient}
        for cid, values, blocks in parts:
            for r, s, b in values:
                if b:
                    rhs[cid, r, s] = dict(b)
            for k, coeff, column, row in blocks:
                for rr, w, cw in column:
                    for ss, u, cu in row:
                        coeffs = eqs.setdefault((cid, rr, ss), {}) \
                            .setdefault(k, {})
                        key = canon(u, w)
                        coeffs[key] = coeffs.get(key, 0) + coeff * cu * cw
        holders = {}  # X -> the equations holding X
        for e in list(eqs):
            row = eqs[e]
            for k in list(row):
                row[k] = {key: c for key, c in row[k].items() if c}
                if row[k]:
                    holders.setdefault(k, set()).add(e)
                else:
                    del row[k]
            if not row:
                del eqs[e]
        if any(e not in eqs for e in rhs):
            return None

        log = []
        while True:
            best = None
            for e, row in eqs.items():
                lr = len(row) - 1
                for k, coeffs in row.items():
                    if len(coeffs) == 1:
                        (c,) = coeffs.values()
                        if c == 1 or c == -1:
                            key = (lr * (len(holders[k]) - 1), e, k)
                            if best is None or key < best:
                                best = key
            if best is None:
                break
            _, e, x = best
            rest = eqs.pop(e)
            (u, w), sign = rest.pop(x).popitem()
            b = rhs.pop(e, {})
            for y in rest:
                holders[y].discard(e)
            holders[x].discard(e)
            uinv, winv = inv(u), inv(w)
            for f in sorted(holders.pop(x)):
                row = eqs[f]
                fb = rhs.setdefault(f, {})
                for (u2, w2), d in row.pop(x).items():
                    # d u2 X w2 = d sign L (b - rest) R
                    left, right = mul(u2, uinv), mul(winv, w2)
                    ds = d * sign
                    for y, coeffs in rest.items():
                        target = row.setdefault(y, {})
                        for (a, a2), c in coeffs.items():
                            key = canon(mul(left, a), mul(a2, right))
                            nv = target.get(key, 0) - ds * c
                            if nv:
                                target[key] = nv
                            else:
                                del target[key]
                    for h, c in b.items():
                        h = mul(mul(left, h), right)
                        nv = fb.get(h, 0) - ds * c
                        if nv:
                            fb[h] = nv
                        else:
                            del fb[h]
                for y in rest:
                    if row[y]:
                        holders[y].add(f)
                    else:
                        del row[y]
                        holders[y].discard(f)
                if not fb:
                    del rhs[f]
                if not row:
                    if fb:
                        return None
                    del eqs[f]
            log.append((x, u, w, sign, rest, b))
        if not log:
            return parts, log
        residual = {}
        for (cid, r, s), b in sorted(rhs.items()):
            residual.setdefault(cid, ([], []))[0].append((r, s, b))
        for k, es in sorted(holders.items()):
            for cid, r, s in sorted(es):
                # one block per left factor: over an abelian group, one
                columns = {}
                for (u, w), c in eqs[cid, r, s][k].items():
                    columns.setdefault(u, []).append((r, w, c))
                residual.setdefault(cid, ([], []))[1].extend(
                    (k, 1, column, [(s, u, 1)])
                    for u, column in columns.items())
        return [(cid, *part) for cid, part in sorted(residual.items())], log

    def _integer_system(self, support):
        """What sparse_solve gets on support, (rows, rhs, kept, log): kept
        lists the unknowns given columns, log the Lambda-level pivots; None
        when elimination already shows there is no solution.  Kept apart
        from solve so that the statement and the row index, which only the
        build needs, are freed before sparse_solve starts.

        Over a finite model each distinct (row, right-hand side) is kept
        once, first occurrences in order: the norm element's copies (see
        the class docstring) go, while rows that differ only on the right
        still refute the system.  _norm_rows builds them without the copies
        when it can."""
        parts, n = self._statement()
        if not self.model.is_finite():
            kept = list(range(n))
            return (*self._linearize(parts, support, kept), kept, [])
        reduced = self._eliminate(parts)
        if reduced is None:
            return None
        parts, log = reduced
        gone = {entry[0] for entry in log}
        kept = [k for k in range(n) if k not in gone]
        direct = self._norm_rows(parts, support, kept)
        if direct is not None:
            return (*direct, kept, log)
        distinct = {}
        for row, b in zip(*self._linearize(parts, support, kept)):
            distinct.setdefault((frozenset(row.items()), b), row)
        return list(distinct.values()), [b for _, b in distinct], kept, log

    def _norm_rows(self, parts, support, kept):
        """The rows and right-hand side that _linearize and the
        de-duplication give, built from the equations over Lambda; None
        unless the model is abelian and each unknown's operator in each
        equation is 0 or d N.

        Over an abelian group u g w = g (u w), so the operator on X in
        equation e is a_X = sum c . u w, and row (e, h) holds a_X(g^-1 h) at
        X's column g.  For a_X = d_X N that is d_X at every g, whatever h:
        e's rows differ only in b_h, one row per distinct value, b_h = 0 off
        b's support once some term reaches e (then every h is reached).

        Each row goes where its first copy would.  _linearize's loops nest,
        so the tuple (cid, phase, loop indices) of the step that first
        reaches a row orders the rows as their first appearance does.  A
        value of b first appears in the values phase, at its place in b;
        the value 0 at the first step, in the order (block, g, column term,
        row term), of the first block reaching e that lands outside b.
        """
        model = self.model
        one = model.identity()
        if any(c != one for c, _ in _central_cosets(model).values()):
            return None
        mul = model.mul
        ns = len(support)
        start = {k: i * ns for i, k in enumerate(kept)}
        first = {}  # ((X, d_X) pairs, b_h) -> index of its first step
        for cid, values, blocks in parts:
            ops = {}  # (r, s) -> {X: {u w: coefficient}}
            reach = {}  # (r, s) -> (block, [(ci, ri, u, w)]), first block
            for bi, (k, coeff, column, row) in enumerate(blocks):
                for ci, (rr, w, cw) in enumerate(column):
                    for ri, (ss, u, cu) in enumerate(row):
                        a = ops.setdefault((rr, ss), {}).setdefault(k, {})
                        uw = mul(u, w)
                        a[uw] = a.get(uw, 0) + coeff * cu * cw
                        steps = reach.setdefault((rr, ss), (bi, []))
                        if steps[0] == bi:
                            steps[1].append((ci, ri, u, w))
            multiples = {}  # (r, s) -> frozenset of (X, d_X)
            for e, terms in ops.items():
                lhs = []
                for k, a in terms.items():
                    cs = [c for c in a.values() if c]
                    if not cs:
                        continue
                    if len(cs) != ns or cs.count(cs[0]) != ns:
                        return None
                    lhs.append((k, cs[0]))
                multiples[e] = frozenset(lhs)
            rhs = {}
            for i, (r, s, b) in enumerate(values):
                rhs[r, s] = b
                lhs = multiples.get((r, s), frozenset())
                for j, c in enumerate(b.values()):
                    first.setdefault((lhs, c), (cid, 0, i, j))
            for e, (bi, steps) in reach.items():
                b = rhs.get(e, {})
                if len(b) == ns:
                    continue
                at = next((cid, 1, bi, gi, ci, ri)
                          for gi, g in enumerate(support)
                          for ci, ri, u, w in steps
                          if mul(mul(u, g), w) not in b)
                key = (multiples[e], 0)
                first[key] = min(first.get(key, at), at)
        order = sorted(first, key=first.get)
        rows = [{start[k] + gi: d for k, d in lhs for gi in range(ns)}
                for lhs, _ in order]
        return rows, [c for _, c in order]

    def solve(self, radius: int = 4):
        """A solution with entries supported on model.ball(radius), as a
        dict variable name -> LambdaMatrix, or None when there is none."""
        from .intlinalg import sparse_solve
        model = self.model
        mul, inv = model.mul, model.inv
        support = model.ball(radius)
        ns = len(support)
        system = self._integer_system(support)
        if system is None:
            return None
        rows, rhs, kept, log = system
        x = sparse_solve(rows, len(kept) * ns, rhs)
        if x is None:
            return None
        values = {k: {g: c for g, c in zip(support, x[i * ns:(i + 1) * ns])
                      if c}
                  for i, k in enumerate(kept)}
        for k, u, w, sign, rest, b in reversed(log):
            acc = dict(b)
            for y, coeffs in rest.items():
                for (a, a2), c in coeffs.items():
                    for g, v in values[y].items():
                        h = mul(mul(a, g), a2)
                        acc[h] = acc.get(h, 0) - c * v
            uinv, winv = inv(u), inv(w)
            values[k] = {mul(mul(uinv, h), winv): sign * v
                         for h, v in acc.items() if v}
        out = {}
        k = 0
        for name in self.var_order:
            vr, vc = self.vars[name]
            out[name] = LambdaMatrix(model, vr, vc, [
                [RingElem(model, values[k + p * vc + q]) for q in range(vc)]
                for p in range(vr)])
            k += vr * vc
        return out


def bounded_search(model: GroupModel, radius: int, attempt, first=(2,)):
    """Run attempt(r) over the search radii; (result, r) for the first r
    whose result is not None, else (None, None).

    This is the one place that knows the radius schedule.  Over a finite
    model every ball is the whole group, so one exact attempt at radius
    decides.  Over an infinite model the radii of first (ascending) below
    radius come first, then radius itself.
    """
    radii = [radius] if model.is_finite() else \
        [r for r in first if r < radius] + [radius]
    for rad in radii:
        result = attempt(rad)
        if result is not None:
            return result, rad
    return None, None


# ---------------------------------------------------------------------------
# Complexes


class IntComplex:
    """Integer chain complex; boundary[d] maps degree d to d-1."""

    def __init__(self, ranks: dict, boundary: dict, check: bool = True):
        self.ranks = {d: r for d, r in ranks.items() if r}
        self.boundary = {d: m for d, m in boundary.items()
                         if m.rows or m.cols}
        if check:
            for d, m in self.boundary.items():
                if (m.rows, m.cols) != (self.rank(d - 1), self.rank(d)):
                    raise ChainError(f"boundary {d}: bad shape")

    def rank(self, d):
        return self.ranks.get(d, 0)

    def degrees(self):
        return sorted(self.ranks)

    def boundary_or_zero(self, d) -> IntMatrix:
        m = self.boundary.get(d)
        if m is None:
            return IntMatrix.zero(self.rank(d - 1), self.rank(d))
        return m

    def homology(self, d):
        return homology_at(self.boundary_or_zero(d + 1),
                           self.boundary_or_zero(d))

    def all_homology(self):
        degs = self.degrees()
        if not degs:
            return {}
        return {d: self.homology(d) for d in range(min(degs), max(degs) + 1)}


class LambdaComplex:
    """Finitely generated free complex of left Lambda-modules."""

    def __init__(self, model, ranks, boundary, augmentation=None,
                 basis_names=None, check=True):
        self.model = model
        self.ranks = {d: r for d, r in ranks.items() if r}
        self.boundary = {}
        for d, m in boundary.items():
            if isinstance(m, list):
                m = LambdaMatrix.from_rows(model, m)
            if m.rows or m.cols:
                self.boundary[d] = m
        self.augmentation = augmentation
        self.basis_names = dict(basis_names) if basis_names else None
        if check:
            self.validate()

    def validate(self):
        for d, m in self.boundary.items():
            if m.model != self.model:
                raise ChainError("boundary over wrong model")
            if (m.rows, m.cols) != (self.rank(d - 1), self.rank(d)):
                raise ChainError(
                    f"boundary {d}: shape {(m.rows, m.cols)} expected "
                    f"{(self.rank(d - 1), self.rank(d))}")
        for d in list(self.boundary):
            nxt = self.boundary.get(d + 1)
            if nxt is not None and not compose(self.boundary[d], nxt).is_zero():
                raise ChainError(f"d.d != 0 at degree {d + 1}")
        if self.augmentation is not None:
            if len(self.augmentation) != self.rank(0):
                raise ChainError("augmentation: wrong length")
            d1 = self.boundary.get(1)
            if d1 is not None:
                for j in range(d1.cols):
                    total = 0
                    for i in range(d1.rows):
                        total += (d1.data[i][j] * self.augmentation[i]).aug()
                    if total != 0:
                        raise ChainError("augmentation does not kill d1")

    def __eq__(self, other):
        return (isinstance(other, LambdaComplex)
                and other.model == self.model and other.ranks == self.ranks
                and all(other.boundary_or_zero(d) == self.boundary_or_zero(d)
                        for d in set(self.boundary) | set(other.boundary)))

    def __hash__(self):
        return hash((self.model, tuple(sorted(self.ranks.items()))))

    def rank(self, d):
        return self.ranks.get(d, 0)

    def degrees(self):
        return sorted(self.ranks)

    def top_degree(self):
        return max(self.ranks) if self.ranks else 0

    def boundary_or_zero(self, d) -> LambdaMatrix:
        m = self.boundary.get(d)
        if m is None:
            return LambdaMatrix.zero(self.model, self.rank(d - 1), self.rank(d))
        return m

    def name_of(self, d, i):
        if self.basis_names and d in self.basis_names:
            return self.basis_names[d][i]
        return f"c{d}_{i}"

    def cell_index(self, name):
        if not self.basis_names:
            raise ChainError("complex has no basis names")
        for d, names in self.basis_names.items():
            if name in names:
                return (d, names.index(name))
        raise ChainError(f"unknown cell {name!r}")

    def augment_chain(self, vec) -> int:
        if self.augmentation is None:
            raise ChainError("complex has no augmentation")
        total = 0
        for x, row in zip(vec, self.augmentation):
            if isinstance(x, int):
                total += x * row.aug()
            else:
                total += (x * row).aug()
        return total

    def restrict(self, cells, augmented: bool = False) -> "LambdaComplex":
        """The complex on the kept cells (degree -> indices, ascending), with
        their names and, if augmented, their augmentation; unchecked."""
        boundary = {d: m.submatrix(cells.get(d - 1, ()), cells.get(d, ()))
                    for d, m in self.boundary.items()}
        names = {d: tuple(self.name_of(d, i) for i in idxs)
                 for d, idxs in cells.items() if idxs}
        aug = None
        if augmented and self.augmentation is not None and cells.get(0):
            aug = [self.augmentation[i] for i in cells[0]]
        return LambdaComplex(self.model,
                             {d: len(idxs) for d, idxs in cells.items()},
                             boundary, augmentation=aug, basis_names=names,
                             check=False)

    def hom_dual(self) -> "LambdaComplex":
        """Degree-negated complex of bar-conjugate transposes."""
        ranks = {-d: r for d, r in self.ranks.items()}
        boundary = {}
        for d in self.ranks:
            nxt = self.boundary.get(d + 1)
            if nxt is not None:
                boundary[-d] = nxt.bar_transpose()
        names = None
        if self.basis_names:
            names = {-d: tuple(f"{n}*" for n in ns)
                     for d, ns in self.basis_names.items()}
        return LambdaComplex(self.model, ranks, boundary, basis_names=names)

    def tensor_Zomega(self) -> IntComplex:
        return IntComplex(dict(self.ranks),
                          {d: m.to_int_signed() for d, m in self.boundary.items()},
                          check=False)

    def linearized(self) -> IntComplex:
        """Faithful integer form over a finite model (system blocks)."""
        n = len(_finite_order(self.model))
        return IntComplex({d: r * n for d, r in self.ranks.items()},
                          {d: system_block_matrix(m)
                           for d, m in self.boundary.items()},
                          check=False)

    def induce_to(self, target_model) -> "LambdaComplex":
        """Extension of scalars along a free-product factor inclusion."""
        embed = _embedding_fn(self.model, target_model)
        if embed is None:
            raise ChainError("factor not found in target free product")

        def conv(r: RingElem) -> RingElem:
            return RingElem(target_model,
                            {embed(g): c for g, c in r.support.items()})

        boundary = {d: m.map_entries(conv) for d, m in self.boundary.items()}
        aug = None
        if self.augmentation is not None:
            aug = [conv(r) for r in self.augmentation]
        return LambdaComplex(target_model, dict(self.ranks), boundary,
                             augmentation=aug, basis_names=self.basis_names,
                             check=False)


def _embedding_fn(source_model, target_model):
    if source_model == target_model:
        return lambda k: k
    from .groups import FreeProduct
    if isinstance(target_model, FreeProduct):
        return target_model.factor_embedding(source_model)
    return None


def embed_ring(r: RingElem, target_model) -> RingElem:
    embed = _embedding_fn(r.model, target_model)
    if embed is None:
        raise ChainError("factor not found in target free product")
    return RingElem(target_model, {embed(g): c for g, c in r.support.items()})


class CoverContraction:
    """A Z-linear contracting homotopy s of the universal cover of a
    complex over a finite model, in degrees 0 to 2.

    The cover's chains of degree d have the Z-basis g.e, for g in the group
    and e a d-cell.  s(e, g) is the image of g.e, a dict {(cell, g'): n}
    of degree d + 1, and d s + s d = 1 - eta eps, where eps is the
    augmentation and eta(1) = v0, the first vertex of augmentation 1.  Each
    s(e, g) solves d y = g.e - s(d(g.e)) - eta eps(g.e) on the linearized
    complex, with one LinearSolver per degree, and is memoised.  The right
    side is a cycle, so a solve fails only when the cover has homology in
    that degree (reduced homology in degree 0); s then returns None.
    Brown, Cohomology of Groups, ch. I, section 7.
    """

    def __init__(self, complex_: LambdaComplex):
        self.complex = complex_
        self.elems = _finite_order(complex_.model)
        self.index = {g: k for k, g in enumerate(self.elems)}
        lin = complex_.linearized()
        self.solvers = {d: LinearSolver(lin.boundary_or_zero(d + 1))
                        for d in range(3)}
        self.base = next(((0, i) for i, e in
                          enumerate(complex_.augmentation or ())
                          if e.aug() == 1), None)
        self.memo = {}

    def __call__(self, cell, g):
        key = (cell, g)
        if key not in self.memo:
            self.memo[key] = self._solve(cell, g)
        return self.memo[key]

    def _solve(self, cell, g):
        complex_, index = self.complex, self.index
        model = complex_.model
        n = len(self.elems)
        d, i = cell
        b = [0] * (complex_.rank(d) * n)
        b[i * n + index[g]] = 1
        if d == 0:
            eps = complex_.augmentation[i].aug()
            if eps:
                if self.base is None:
                    return None
                b[self.base[1] * n + index[model.identity()]] -= eps
        bd = complex_.boundary_or_zero(d)
        for m in range(bd.rows):
            for w, c in bd.data[m][i].support.items():
                lower = self((d - 1, m), model.mul(g, w))
                if lower is None:
                    return None
                for (low, h), k in lower.items():
                    b[low[1] * n + index[h]] -= c * k
        y = self.solvers[d].solve(b)
        if y is None:
            return None
        return {((d + 1, j // n), self.elems[j % n]): v
                for j, v in enumerate(y) if v}


class LambdaChainMap:
    """Degree-shifting chain map; components[d] maps C_d to D_{d+shift}."""

    def __init__(self, source, target, shift, components, check=True):
        self.source = source
        self.target = target
        self.shift = shift
        self.components = {d: m for d, m in components.items()
                           if m.rows or m.cols}
        if check:
            self.validate()

    def validate(self):
        n = self.shift
        for d, m in self.components.items():
            want = (self.target.rank(d + n), self.source.rank(d))
            if (m.rows, m.cols) != want:
                raise ChainError(f"component {d}: shape {(m.rows, m.cols)}"
                                 f" expected {want}")
        degs = set(self.source.ranks)
        for d in sorted(degs):
            lhs = compose(self.target.boundary_or_zero(d + n),
                          self.component(d))
            rhs = compose(self.component(d - 1),
                          self.source.boundary_or_zero(d)).scale((-1) ** (n % 2))
            if not (lhs - rhs).is_zero():
                raise ChainError(f"not a chain map at degree {d}")

    def component(self, d) -> LambdaMatrix:
        m = self.components.get(d)
        if m is None:
            return LambdaMatrix.zero(self.source.model,
                                     self.target.rank(d + self.shift),
                                     self.source.rank(d))
        return m

    def is_zero(self):
        return all(m.is_zero() for m in self.components.values())

    def __add__(self, other):
        if (other.source, other.target, other.shift) != \
                (self.source, self.target, self.shift):
            raise ChainError("chain map mismatch")
        degs = set(self.components) | set(other.components)
        return LambdaChainMap(self.source, self.target, self.shift,
                              {d: self.component(d) + other.component(d)
                               for d in degs}, check=False)

    def scale(self, c: int):
        return LambdaChainMap(self.source, self.target, self.shift,
                              {d: m.scale(c) for d, m in self.components.items()},
                              check=False)

    def __sub__(self, other):
        return self + other.scale(-1)

    def compose_with(self, inner: "LambdaChainMap") -> "LambdaChainMap":
        """self . inner (apply inner first)."""
        if inner.target is not self.source and inner.target != self.source:
            raise ChainError("composition mismatch")
        comps = {}
        for d in inner.source.ranks:
            m = compose(self.component(d + inner.shift), inner.component(d))
            comps[d] = m
        return LambdaChainMap(inner.source, self.target,
                              self.shift + inner.shift, comps, check=False)

    def dual_map(self) -> "LambdaChainMap":
        """phi -> phi . f between the dual complexes; same shift."""
        src_dual = self.target.hom_dual()
        tgt_dual = self.source.hom_dual()
        comps = {}
        for d, m in self.components.items():
            # f_d : C_d -> D_{d+n} dualizes to (D*)_{-(d+n)} -> (C*)_{-d}
            comps[-(d + self.shift)] = m.bar_transpose()
        return LambdaChainMap(src_dual, tgt_dual, self.shift, comps)

    def tensor_Zomega(self):
        return {d: m.to_int_signed() for d, m in self.components.items()}

    @classmethod
    def identity(cls, c: LambdaComplex):
        return cls(c, c, 0, {d: LambdaMatrix.identity(c.model, r)
                             for d, r in c.ranks.items()}, check=False)


class ChainHomotopy:
    """h with f - g = d.h + (-1)^shift h.d."""

    def __init__(self, f: LambdaChainMap, g: LambdaChainMap, components,
                 check=True):
        self.f = f
        self.g = g
        self.components = components
        if check:
            self.validate()

    def component(self, d):
        m = self.components.get(d)
        if m is None:
            return LambdaMatrix.zero(self.f.source.model,
                                     self.f.target.rank(d + self.f.shift + 1),
                                     self.f.source.rank(d))
        return m

    def validate(self):
        f, g = self.f, self.g
        n = f.shift
        sign = (-1) ** (n % 2)
        for d in set(f.source.ranks):
            lhs = f.component(d) - g.component(d)
            rhs = compose(f.target.boundary_or_zero(d + n + 1),
                          self.component(d)) + \
                compose(self.component(d - 1),
                        f.source.boundary_or_zero(d)).scale(sign)
            if not (lhs - rhs).is_zero():
                raise ChainError(f"not a homotopy at degree {d}")


@dataclass
class NullHomotopyVerdict:
    status: str  # "homotopic" | "no" | "unknown"
    homotopy: ChainHomotopy | None = None
    obstruction: str | None = None

    def found(self):
        return self.status == "homotopic"


def kills_homology(f: LambdaChainMap):
    """Test whether f induces zero on the homology of Z^omega (x) -.

    Returns None when it does (every homology generator of the source maps
    to a boundary), else the obstruction "nonzero on homology at degree d"
    for the first degree d where one does not.
    """
    src, tgt = f.source.tensor_Zomega(), f.target.tensor_Zomega()
    for d in f.source.degrees():
        h = src.homology(d)
        gens = h.free_generators + h.torsion_generators
        if not gens:
            continue
        fm = f.component(d).to_int_signed()
        boundary_solver = LinearSolver(
            tgt.boundary_or_zero(d + f.shift + 1))
        for gen in gens:
            img = mat_vec(fm, gen)
            if any(img) and boundary_solver.solve(img) is None:
                return f"nonzero on homology at degree {d}"
    return None


def is_nullhomotopic(f: LambdaChainMap, radius: int = 4) -> NullHomotopyVerdict:
    """Decide (finite models) or search (bounded support) f ~ 0.

    A nonvanishing induced map on Z^omega homology refutes soundly for any
    model; otherwise finite models are decided exactly and infinite models
    report unknown when the radius is exhausted.
    """
    if f.is_zero():
        zero = f.scale(0)
        return NullHomotopyVerdict("homotopic", ChainHomotopy(f, zero, {}))
    # Sound refutation for every model: a nullhomotopic map kills homology
    # of the Z^omega reduction.
    obstruction = kills_homology(f)
    if obstruction is not None:
        return NullHomotopyVerdict("no", obstruction=obstruction)
    model = f.source.model
    system = LambdaLinearSystem(model)
    degs = sorted(f.source.ranks)
    n = f.shift
    for d in degs:
        rows = f.target.rank(d + n + 1)
        cols = f.source.rank(d)
        system.add_var(f"h{d}", rows, cols)
    sign = (-1) ** (n % 2)
    for d in degs:
        terms = []
        if f.target.rank(d + n + 1) and f.source.rank(d):
            terms.append((1, f.target.boundary_or_zero(d + n + 1),
                          f"h{d}", None))
        if d - 1 in f.source.ranks and f.target.rank(d + n):
            if f.source.rank(d):
                terms.append((sign, None, f"h{d - 1}",
                              f.source.boundary_or_zero(d)))
        rhs = f.component(d)
        if not terms:
            if not rhs.is_zero():
                return NullHomotopyVerdict(
                    "no" if model.is_finite() else "unknown",
                    obstruction=f"no homotopy slots at degree {d}")
            continue
        system.add_constraint(terms, rhs)
    sol, _ = bounded_search(model, radius, system.solve, first=(1, 2))
    if sol is not None:
        comps = {d: sol[f"h{d}"] for d in degs if f"h{d}" in sol}
        zero = f.scale(0)
        return NullHomotopyVerdict(
            "homotopic", ChainHomotopy(f, zero, comps))
    if model.is_finite():
        return NullHomotopyVerdict("no", obstruction="exact system unsolvable")
    return NullHomotopyVerdict("unknown",
                               obstruction=f"radius {radius} exhausted")


def eta_matrix(model, rank: int) -> LambdaMatrix:
    """Evaluation map of a f.g. free module into its double twisted dual.

    In the twisted dual-dual coordinates the evaluation is the identity,
    which is the invertibility witness; naturality is what the tests check.
    """
    return LambdaMatrix.identity(model, rank)


def mapping_cone(f: LambdaChainMap) -> tuple:
    """Cone of a shift-n chain map, with the block bookkeeping.

    Cone_d = A_{d-n-1} (+) B_d, boundary (a, b) ->
    (-(-1)^n dA a, f(a) + dB b).  Returns (cone, layout) where layout maps
    degree -> (a_rank, b_rank).
    """
    A, B, n = f.source, f.target, f.shift
    model = A.model
    sign = -((-1) ** (n % 2))
    ranks = {}
    layout = {}
    degs = set()
    for d in A.ranks:
        degs.add(d + n + 1)
    for d in B.ranks:
        degs.add(d)
    for d in degs:
        ar = A.rank(d - n - 1)
        br = B.rank(d)
        if ar + br:
            ranks[d] = ar + br
            layout[d] = (ar, br)
    boundary = {}
    for d in sorted(ranks):
        ar, br = layout[d]
        ar1 = A.rank(d - n - 2)
        br1 = B.rank(d - 1)
        if ar1 + br1 == 0:
            continue
        m = LambdaMatrix.zero(model, ar1 + br1, ar + br)
        dA = A.boundary_or_zero(d - n - 1)
        for i in range(ar1):
            for j in range(ar):
                m.data[i][j] = dA.data[i][j] * sign
        fc = f.component(d - n - 1)
        for i in range(br1):
            for j in range(ar):
                m.data[ar1 + i][j] = fc.data[i][j]
        dB = B.boundary_or_zero(d)
        for i in range(br1):
            for j in range(br):
                m.data[ar1 + i][ar + j] = dB.data[i][j]
        boundary[d] = m
    cone = LambdaComplex(model, ranks, boundary, check=False)
    return cone, layout


def eliminate_units(c: LambdaComplex) -> LambdaComplex:
    """A smaller complex, chain homotopy equivalent to c over Lambda.

    Gaussian elimination on unit entries (Bar-Natan, Fast Khovanov homology
    computations, arXiv math/0606318, Lemma 4.2).  While some boundary entry
    u = d_k[a][b] is a unit +-g, cell b of degree k and cell a of degree k-1
    are dropped, d_k[i][j] becomes d[i][j] - d[a][j] . u^-1 . d[i][b] (the
    product in compose's order), and row b of d_{k+1} and column a of
    d_{k-1} go.  Each pivot is the unit of least Markowitz cost
    (row nnz - 1) * (column nnz - 1), ties to the lower degree, then row,
    then column.  The surviving cells keep their order; the augmentation
    and basis names are not carried over.
    """
    model = c.model
    rows = {}  # k -> {i: {j: d_k[i][j]}}, nonzero entries only
    cols = {}  # k -> {j: {i: d_k[i][j]}}
    for k, m in c.boundary.items():
        rows[k], cols[k] = {}, {}
        for i, row in enumerate(m.data):
            for j, e in enumerate(row):
                if not e.is_zero():
                    rows[k].setdefault(i, {})[j] = e
                    cols[k].setdefault(j, {})[i] = e

    def drop(by, other, k, key):
        # remove line key of d_k from its index by, and its entries from the
        # transposed index other
        for o in by.get(k, {}).pop(key, ()):
            del other[k][o][key]

    live = {k: set(range(r)) for k, r in c.ranks.items()}
    while True:
        best = None
        for k, rk in rows.items():
            for i, row in rk.items():
                for j, e in row.items():
                    if e.is_unit_monomial() is not None:
                        key = ((len(row) - 1) * (len(cols[k][j]) - 1),
                               k, i, j)
                        if best is None or key < best:
                            best = key
        if best is None:
            break
        _, k, a, b = best
        g, sign = rows[k][a][b].is_unit_monomial()
        uinv = model.unit(model.inv(g), sign)
        row_a = {j: e for j, e in rows[k][a].items() if j != b}
        col_b = {i: uinv * e for i, e in cols[k][b].items() if i != a}
        drop(rows, cols, k, a)
        drop(cols, rows, k, b)
        for i, t in col_b.items():
            row_i = rows[k][i]
            for j, e in row_a.items():
                new = row_i.get(j, model.zero()) - e * t
                if new.is_zero():
                    row_i.pop(j, None)
                    cols[k][j].pop(i, None)
                else:
                    row_i[j] = new
                    cols[k][j][i] = new
        drop(rows, cols, k + 1, b)
        drop(cols, rows, k - 1, a)
        live[k].discard(b)
        live[k - 1].discard(a)

    keep = {k: sorted(s) for k, s in live.items() if s}
    boundary = {}
    for k, rk in rows.items():
        src, tgt = keep.get(k), keep.get(k - 1)
        if src and tgt:
            boundary[k] = LambdaMatrix(model, len(tgt), len(src), [
                [rk.get(i, {}).get(j, model.zero()) for j in src]
                for i in tgt])
    return LambdaComplex(model, {k: len(s) for k, s in keep.items()},
                         boundary, check=False)


def find_contraction(cone: LambdaComplex, radius: int = 4):
    """Inductive contracting homotopy d h + h d = 1 of an exact complex.

    Solves degree by degree, column by column, against cached solvers.
    Returns dict degree -> LambdaMatrix, or None when some solve fails
    (for infinite models that only means failure at this radius).
    """
    model = cone.model
    degs = sorted(cone.ranks)
    if not degs:
        return {}
    h = {}
    prev_h = None
    prev_d = None
    for d in degs:
        rank_d = cone.rank(d)
        nxt = cone.boundary_or_zero(d + 1)
        # residual R = 1 - h_{d-1} . boundary_d
        ident = LambdaMatrix.identity(model, rank_d)
        if prev_h is not None and prev_d == d - 1:
            R = ident - compose(prev_h, cone.boundary_or_zero(d))
        else:
            R = ident
        if cone.rank(d + 1) == 0:
            if not R.is_zero():
                return None
            prev_h, prev_d = None, d
            continue
        solver = LambdaColumnSolver(nxt, radius)
        cols = []
        for j in range(rank_d):
            x = solver.solve(R.column(j))
            if x is None:
                return None
            cols.append(x)
        hd = LambdaMatrix.from_columns(model, cone.rank(d + 1), cols)
        h[d] = hd
        prev_h, prev_d = hd, d
    return h


def verify_contraction(cone: LambdaComplex, h: dict) -> bool:
    model = cone.model
    for d in cone.degrees():
        ident = LambdaMatrix.identity(model, cone.rank(d))
        hd = h.get(d)
        term1 = (compose(cone.boundary_or_zero(d + 1), hd)
                 if hd is not None else
                 LambdaMatrix.zero(model, cone.rank(d), cone.rank(d)))
        hprev = h.get(d - 1)
        term2 = (compose(hprev, cone.boundary_or_zero(d))
                 if hprev is not None and cone.rank(d - 1) else
                 LambdaMatrix.zero(model, cone.rank(d), cone.rank(d)))
        if not (term1 + term2 - ident).is_zero():
            return False
    return True
