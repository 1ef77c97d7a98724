"""Geometric chain pairs and the duality engine.

A geometric chain pair is an augmented free Lambda-complex P with an
equivariant diagonal and a basis-subset subcomplex Q; D = P/Q.  Tensor data
is kept in orbit normal form: the Lambda-basis of C (x) D consists of
triples (cell, group element, cell), an elementary tensor (g.c, h.d) being
g times the basis triple (c, g^{-1} h, d).

The cap products follow the slant formula phi / (z (x) c (x) d)
= z phi(c) (x) d, with the identification lambda (x) c = bar(lambda) c used
to land in plain chains.  Cap with a fixed degree-n cycle is packaged as an
honest chain map of shift n by a per-degree sign normalization chosen so the
top-degree component is unsigned; the normalization is forced by the Hom
differential and is validated by the chain-map constructor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chains import (
    CoverContraction,
    IntComplex,
    LambdaChainMap,
    LambdaComplex,
    LambdaLinearSystem,
    LambdaMatrix,
    apply_matrix,
    bounded_search,
    eliminate_units,
    find_contraction,
    is_nullhomotopic,
    mapping_cone,
    verify_contraction,
)
from .groups import GroupModel, RingElem
from .intlinalg import class_coordinates, mat_vec


class PairError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Tensor normal forms


class LambdaTensor:
    """Element of C (x) D with the diagonal action, in orbit normal form.

    Keys are triples ((deg, idx), group key, (deg, idx)); values are ring
    coefficients.
    """

    __slots__ = ("model", "terms")

    def __init__(self, model, terms=None):
        self.model = model
        self.terms = {}
        for key, coeff in (terms or {}).items():
            if not coeff.is_zero():
                self.terms[key] = coeff

    def copy(self):
        return LambdaTensor(self.model, dict(self.terms))

    def add_term(self, left_cell, gkey, right_cell, coeff: RingElem):
        key = (left_cell, gkey, right_cell)
        cur = self.terms.get(key)
        new = coeff if cur is None else cur + coeff
        if new.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    def __add__(self, other):
        out = self.copy()
        for key, coeff in other.terms.items():
            out.add_term(*key, coeff)
        return out

    def scale_ring(self, coeff: RingElem):
        out = LambdaTensor(self.model)
        for key, c in self.terms.items():
            out.add_term(*key, coeff * c)
        return out

    def scale(self, n: int):
        out = LambdaTensor(self.model)
        for key, c in self.terms.items():
            out.add_term(*key, c * n)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, LambdaTensor) and other.model == self.model
                and other.terms == self.terms)

    def map_cells(self, left_fn, right_fn):
        """Relabel (or drop, returning None) the cells of each triple."""
        out = LambdaTensor(self.model)
        for (a, g, b), coeff in self.terms.items():
            la = left_fn(a)
            rb = right_fn(b)
            if la is None or rb is None:
                continue
            out.add_term(la, g, rb, coeff)
        return out

    def boundary(self, left_complex, right_complex):
        """Boundary for the (x)-differential with the diagonal action.

        Sums integer supports per key and builds one RingElem per key at
        the end; keys and supports come out in add_term's order, a key or
        group element that cancels re-entering at the end.
        """
        model = self.model
        mul, inv = model.mul, model.inv
        acc = {}

        def add(key, items):
            cur = acc.get(key)
            if cur is None:
                acc[key] = dict(items)
                return
            for k, c in items:
                c += cur.get(k, 0)
                if c:
                    cur[k] = c
                else:
                    del cur[k]
            if not cur:
                del acc[key]

        for (a, g, b), coeff in self.terms.items():
            da, ia = a
            db, ib = b
            support = coeff.support
            left_b = left_complex.boundary_or_zero(da)
            for m in range(left_b.rows):
                for h, c in left_b.data[m][ia].support.items():
                    # (h e_m (x) g e_b) = h (e_m (x) h^{-1} g e_b)
                    add(((da - 1, m), mul(inv(h), g), b),
                        [(mul(k, h), x * c) for k, x in support.items()])
            sign = -1 if da % 2 else 1
            right_b = right_complex.boundary_or_zero(db)
            for m in range(right_b.rows):
                for w, c in right_b.data[m][ib].support.items():
                    add((a, mul(g, w), (db - 1, m)),
                        [(k, x * sign * c) for k, x in support.items()])
        out = LambdaTensor(model)
        out.terms = {key: RingElem(model, sup) for key, sup in acc.items()}
        return out

    def left_counit(self, left_complex):
        """(eps (x) id): per right cell, sum eps(a) * (coeff * g)."""
        model = self.model
        out = {}
        for (a, g, b), coeff in self.terms.items():
            da, ia = a
            if da != 0:
                continue
            eps = left_complex.augmentation[ia].aug()
            if eps == 0:
                continue
            add = coeff * model.unit(g, eps)
            cur = out.get(b)
            out[b] = add if cur is None else cur + add
        return {b: v for b, v in out.items() if not v.is_zero()}

    def right_counit(self, right_complex):
        """(id (x) eps): per left cell, sum coeff * eps(b)."""
        out = {}
        for (a, g, b), coeff in self.terms.items():
            db, ib = b
            if db != 0:
                continue
            eps = right_complex.augmentation[ib].aug()
            if eps == 0:
                continue
            add = coeff * eps
            cur = out.get(a)
            out[a] = add if cur is None else cur + add
        return {a: v for a, v in out.items() if not v.is_zero()}


def slant(model, phi_degree: int, phi_values, z: LambdaTensor):
    """The twisted slant phi / z in B^omega (x) D coordinates, B = Lambda.

    z is read in Z^omega (x)_Lambda (C (x) D): each term's coefficient
    through its twisted augmentation.  phi_values maps first-factor cell
    index -> Lambda value of the cochain; the result maps second-factor
    cells to their twisted coordinates mu_b = sum z * bar(g) * phi(a).
    """
    out = {}
    for (a, g, b), coeff in z.terms.items():
        da, ia = a
        if da != phi_degree:
            continue
        zc = coeff.aug_signed()
        if not zc:
            continue
        val = phi_values(ia)
        if val is None or val.is_zero():
            continue
        add = (model.unit(model.inv(g), -1 if model.omega(g) else 1)
               * val) * zc
        cur = out.get(b)
        out[b] = add if cur is None else cur + add
    return {b: v for b, v in out.items() if not v.is_zero()}


def twisted_to_chain(values: dict):
    """Identify lambda (x) c with bar(lambda) c."""
    return {b: v.bar() for b, v in values.items()}


def cap_sign(source_degree: int, n: int) -> int:
    """Per-degree normalization making cap with an n-cycle a chain map.

    Forced by the Hom-complex differential; anchored at +1 in source degree
    -n so the top-degree cap is the bare slant formula.
    """
    m = source_degree + n
    return -1 if (m * (m + 3) // 2) % 2 else 1


def cap_side_sign(n: int) -> int:
    """Global factor on the cochain-side cap of an n-cycle.

    Chosen so the evaluation square (cap-then-dualize against
    dualize-then-cap) commutes on the nose for odd n, compatibly with the
    unsigned top-degree anchor of the chain-side cap.
    """
    return -1 if (n * (n + 3) // 2) % 2 else 1


def tensor_of_chains(model, left_vec, left_deg, right_vec, right_deg):
    """Normalized form of (sum lambda_m c_m) (x) (sum mu_j e_j)."""
    out = LambdaTensor(model)
    for m, lam in enumerate(left_vec):
        if lam.is_zero():
            continue
        for j, mu in enumerate(right_vec):
            if mu.is_zero():
                continue
            for g, a in lam.support.items():
                for h, b in mu.support.items():
                    out.add_term((left_deg, m),
                                 model.mul(model.inv(g), h),
                                 (right_deg, j),
                                 model.unit(g, a * b))
    return out


def solve_diagonal_cell(complex_: LambdaComplex, diagonal: dict, cell,
                        radius: int = 2, end_vertices=None):
    """Solve for a diagonal of one top cell, given all lower diagonals.

    Fixes the counit-forced end terms (v0, 1, cell) and (cell, k, v1) for
    candidate vertices and translations in deterministic order, then solves
    for middle terms of inner degrees, at radii 1 to radius in turn (one
    exact attempt over a finite model).  At each radius the middle terms
    are the unknowns of one Lambda-matrix M: a column per basis triple
    ((p, i), k, (d - p, j)) with k in the ball, holding the boundary of that
    triple, and a row per triple those boundaries reach.  Each end choice
    is one LambdaLinearSystem M x = deficit on the same ball.  Over a
    finite group its solve first eliminates, over Lambda, the middle terms
    whose coefficient in some row is a single unit +-g (for L(p,1) 2p - 2
    of 2p), and states each distinct integer equation of those left once
    (for L(p,1) 1 x 2p of the 3p^2 x 2p^2 system), then the sparse engine
    takes unit pivots in Markowitz order and a Smith form of the small
    residual core only.  Returns a validated LambdaTensor or None.
    Realize uses transfer_diagonal over finite pi and this search where
    the transfer fails or pi is infinite.
    end_vertices pins (v0, v1), which keeps the end terms of several top
    cells coherent.
    """
    model = complex_.model
    d = cell[0]
    target = _diagonal_of_boundary(complex_, diagonal, cell)
    verts = [i for i in range(complex_.rank(0))
             if complex_.augmentation[i].aug() == 1]
    lefts = verts if end_vertices is None else [end_vertices[0]]
    rights = verts if end_vertices is None else [end_vertices[1]]

    def attempt(rad):
        middles, row_index, m = _middle_matrix(complex_, d, rad)
        for v_left in lefts:
            for v_right in rights:
                for k_end in model.ball(rad):
                    ends = LambdaTensor(model)
                    ends.add_term((0, v_left), model.identity(), cell,
                                  model.one())
                    ends.add_term(cell, k_end, (0, v_right), model.one())
                    deficit = target - ends.boundary(complex_, complex_)
                    if any(key not in row_index for key in deficit.terms):
                        continue  # a triple no middle term reaches
                    rhs = LambdaMatrix(model, m.rows, 1)
                    for key, coeff in deficit.terms.items():
                        rhs.data[row_index[key]][0] = coeff
                    system = LambdaLinearSystem(model)
                    system.add_var("x", m.cols, 1)
                    system.add_constraint([(1, m, "x", None)], rhs)
                    sol = system.solve(rad)
                    if sol is None:
                        continue
                    tentative = ends
                    for key, row in zip(middles, sol["x"].data):
                        if not row[0].is_zero():
                            tentative.add_term(*key, row[0])
                    # validate the chain-map law exactly
                    if (tentative.boundary(complex_, complex_)
                            - target).is_zero():
                        return tentative
        return None

    return bounded_search(model, radius, attempt, first=range(1, radius))[0]


def _diagonal_of_boundary(complex_: LambdaComplex, diagonal: dict, cell):
    """Delta(d e) for a cell e, from the diagonals of the cells below it."""
    bd = complex_.boundary_or_zero(cell[0])
    target = LambdaTensor(complex_.model)
    for m in range(bd.rows):
        entry = bd.data[m][cell[1]]
        if not entry.is_zero():
            target = target + diagonal[(cell[0] - 1, m)].scale_ring(entry)
    return target


def transfer_diagonal(s: CoverContraction, complex_: LambdaComplex,
                      diagonal: dict, cell):
    """The diagonal of a cell of degree 1 to 3 by homotopy transfer, given
    the lower diagonals and a contracting homotopy s of the universal cover
    in degrees 0 to 2 (over a finite model), or None where s fails.

    On the cover's tensor square, d (s (x) 1) + (s (x) 1) d = 1 - eta eps
    (x) 1.  With ends = (v0|1|e) + (e|1|v0), z = Delta(de) - d ends is a
    cycle, and (eps (x) 1) z = de - de = 0 by the counit law of the lower
    diagonals, so Delta(e) = ends + (s (x) 1) z has d Delta(e) = Delta(de).
    (The contraction s (x) 1 + eta eps (x) s of the square would add
    v0 (x) s((eps (x) 1) z) = 0.)  The added part has no term of left
    degree 0, and (1 (x) eps) z = 0 as well, so both counits hold.  z is
    expanded over Z, an elementary tensor k e_a (x) m e_b returning to
    orbit form as the triple (a, k^-1 m, b) with coefficient k.  No ends
    are searched and no Lambda-system is solved.
    """
    model = complex_.model
    v0 = s.base
    if v0 is None:
        return None
    one = model.identity()
    ends = LambdaTensor(model)
    ends.add_term(v0, one, cell, model.one())
    ends.add_term(cell, one, v0, model.one())
    defect = (_diagonal_of_boundary(complex_, diagonal, cell)
              - ends.boundary(complex_, complex_))
    mul, inv = model.mul, model.inv
    acc = {}
    for (a, g, b), coeff in defect.terms.items():
        for h, c in coeff.support.items():
            image = s(a, h)  # of h e_a, in the term c (h e_a (x) hg e_b)
            if image is None:
                return None
            hg = mul(h, g)
            for (left, k), n in image.items():
                support = acc.setdefault((left, mul(inv(k), hg), b), {})
                support[k] = support.get(k, 0) + c * n
    for key, support in acc.items():
        ends.add_term(*key, RingElem(model, support))
    return ends


def _middle_matrix(complex_, d: int, radius: int):
    """The middle triples of a d-cell's diagonal, the row index of the
    triples their boundaries reach, and the Lambda-matrix of those
    boundaries."""
    model = complex_.model
    ball = model.ball(radius)
    middles = []
    columns = []
    row_index = {}
    for p in range(1, d):
        for i in range(complex_.rank(p)):
            for j in range(complex_.rank(d - p)):
                for k in ball:
                    base = LambdaTensor(model)
                    base.add_term((p, i), k, (d - p, j), model.one())
                    col = base.boundary(complex_, complex_).terms
                    for key in col:
                        row_index.setdefault(key, len(row_index))
                    middles.append(((p, i), k, (d - p, j)))
                    columns.append(col)
    # one shared zero: a RingElem per empty entry would dominate the memory
    zero = model.zero()
    m = LambdaMatrix(model, len(row_index), len(columns),
                     [[zero] * len(columns) for _ in row_index])
    for c, col in enumerate(columns):
        for key, coeff in col.items():
            m.data[row_index[key]][c] = coeff
    return middles, row_index, m


# ---------------------------------------------------------------------------
# Boundary components


@dataclass
class SurfaceDescription:
    """Presentation-level record for boundary groups with no oracle."""

    name: str
    gens: tuple
    relators: tuple = ()


@dataclass
class BoundaryComponent:
    name: str
    cells: dict                      # degree -> tuple of P-cell indices
    group: object = None             # GroupModel | SurfaceDescription | None
    kappa: dict = field(default_factory=dict)  # gen name -> ambient key
    marked_disc: tuple | None = None  # (disc 2-cell name, rim 1-cell name)

    def cell_set(self):
        return {(d, i) for d, idxs in self.cells.items() for i in idxs}


# ---------------------------------------------------------------------------
# The pair


def _index(cells: dict) -> dict:
    """(degree, index) -> the index's position in its degree's list."""
    return {(d, i): j for d, idxs in cells.items() for j, i in enumerate(idxs)}


class ChainPairData:
    """The engine's model of (C(X), C(dX)) with diagonal data."""

    def __init__(self, complex_p: LambdaComplex, sub_cells: dict,
                 diagonal: dict, boundary_components=None, top_cell=None,
                 class_override=None, name: str = "", check: bool = True):
        self.P = complex_p
        self.model = complex_p.model
        self.name = name
        self.sub_cells = {d: tuple(sorted(idxs))
                          for d, idxs in sub_cells.items() if idxs}
        self.diagonal = diagonal
        self.boundary_components = list(boundary_components or [])
        self.top_cell = top_cell
        self.class_override = class_override
        self._build_quotient()
        if check:
            self.validate()

    # -- construction -----------------------------------------------------

    def _build_quotient(self):
        P = self.P
        self._q_cells, self._d_cells = {}, {}
        for d in P.degrees():
            subs = self.sub_cells.get(d, ())
            self._q_cells[d] = [i for i in range(P.rank(d)) if i in subs]
            self._d_cells[d] = [i for i in range(P.rank(d)) if i not in subs]
        self.q_index = _index(self._q_cells)
        self.d_index = _index(self._d_cells)
        for d, m in P.boundary.items():
            # closure: Q-columns must vanish on D-rows
            for c in self._q_cells.get(d, []):
                for r in self._d_cells.get(d - 1, []):
                    if not m.data[r][c].is_zero():
                        raise PairError(
                            f"subcomplex is not closed: boundary of "
                            f"{P.name_of(d, c)} meets {P.name_of(d - 1, r)}")
        self.Q = P.restrict(self._q_cells, augmented=True)
        self.D = P.restrict(self._d_cells)

    def restrict(self, cells: dict, sub_cells: dict, components,
                 name: str = "", check: bool = True) -> "ChainPairData":
        """The pair on a boundary-closed set of P's cells.

        cells and sub_cells map a degree to P-indices, and components name
        P-cells too; the result renumbers all three, and the diagonals,
        into the restricted complex.  A kept cell whose boundary or
        diagonal reaches a dropped cell is a PairError.
        """
        P = self.P
        keep = {d: sorted(cells[d]) for d in sorted(cells) if cells[d]}
        remap = _index(keep)
        for (d, i) in remap:
            bd = P.boundary_or_zero(d)
            for r in range(bd.rows):
                if not bd.data[r][i].is_zero() and (d - 1, r) not in remap:
                    raise PairError(
                        "partition not closed under boundaries: "
                        f"{P.name_of(d, i)} -> {P.name_of(d - 1, r)}")
        diag = {}
        for (d, i), j in remap.items():
            tensor = self.diagonal[(d, i)]
            if any(a not in remap or b not in remap
                   for (a, _, b) in tensor.terms):
                raise PairError(
                    f"diagonal of {P.name_of(d, i)} leaves the sub-pair")
            diag[(d, j)] = tensor.map_cells(lambda a: (a[0], remap[a]),
                                            lambda b: (b[0], remap[b]))

        def renumber(by_degree):
            return {d: tuple(remap[(d, i)] for i in idxs)
                    for d, idxs in by_degree.items()}

        comps = [BoundaryComponent(c.name, renumber(c.cells), c.group,
                                   c.kappa, c.marked_disc)
                 for c in components]
        return ChainPairData(P.restrict(keep, augmented=True),
                             renumber(sub_cells), diag,
                             boundary_components=comps, name=name,
                             check=check)

    # -- validation --------------------------------------------------------

    def validate(self):
        P = self.P
        if P.augmentation is None:
            raise PairError("pair requires an augmented complex")
        P.validate()
        self.Q.validate()
        self.D.validate()
        for d in P.degrees():
            for i in range(P.rank(d)):
                if (d, i) not in self.diagonal:
                    raise PairError(f"no diagonal for cell {P.name_of(d, i)}")
        for (d, i), tensor in self.diagonal.items():
            for (a, g, b), coeff in tensor.terms.items():
                if a[0] + b[0] != d:
                    raise PairError(
                        f"diagonal of {P.name_of(d, i)} has a term of "
                        f"degree {a[0]} + {b[0]} != {d}")
        self._check_counit()
        self._check_compatibility()
        self._check_diagonal_chain_map()
        self._check_components()

    def _check_counit(self):
        P = self.P
        for (d, i), tensor in self.diagonal.items():
            left = tensor.left_counit(P)
            right = tensor.right_counit(P)
            expect = {(d, i): P.model.one()}
            if left != expect or right != expect:
                raise PairError(
                    f"counit law fails on cell {P.name_of(d, i)}")

    def _check_compatibility(self):
        sub = set(self.q_index)
        for (d, i) in self.q_index:
            tensor = self.diagonal[(d, i)]
            for (a, g, b) in tensor.terms:
                if a not in sub or b not in sub:
                    raise PairError(
                        f"diagonal of subcomplex cell "
                        f"{self.P.name_of(d, i)} leaves the subcomplex")

    def _check_diagonal_chain_map(self):
        P = self.P
        for d in P.degrees():
            bd = P.boundary_or_zero(d)
            for i in range(P.rank(d)):
                lhs = self.diagonal[(d, i)].boundary(P, P)
                rhs = LambdaTensor(self.model)
                for m in range(bd.rows):
                    entry = bd.data[m][i]
                    if not entry.is_zero():
                        rhs = rhs + self.diagonal[(d - 1, m)].scale_ring(entry)
                if not (lhs - rhs).is_zero():
                    raise PairError(
                        f"diagonal is not a chain map at {P.name_of(d, i)}")

    def _check_components(self):
        if not self.boundary_components:
            return
        seen = set()
        allq = set(self.q_index)
        for comp in self.boundary_components:
            cells = comp.cell_set()
            if cells & seen:
                raise PairError(f"component {comp.name} overlaps another")
            if not cells <= allq:
                raise PairError(f"component {comp.name} leaves the subcomplex")
            seen |= cells
            # closure under the boundary
            for (d, i) in cells:
                col = self.P.boundary_or_zero(d)
                for r in range(col.rows):
                    if not col.data[r][i].is_zero() and (d - 1, r) not in cells:
                        raise PairError(
                            f"component {comp.name} is not boundary-closed")
        if seen != allq:
            raise PairError("boundary components do not partition the "
                            "subcomplex basis")

    # -- basic accessors ----------------------------------------------------

    @property
    def dimension(self):
        return self.D.top_degree()

    def cell(self, name):
        return self.P.cell_index(name)

    def inclusion_map(self) -> LambdaChainMap:
        comps = {d: LambdaMatrix.identity(self.model, self.P.rank(d))
                 .submatrix(range(self.P.rank(d)), self._q_cells[d])
                 for d in self.Q.degrees()}
        return LambdaChainMap(self.Q, self.P, 0, comps, check=False)

    def projection_map(self) -> LambdaChainMap:
        comps = {d: LambdaMatrix.identity(self.model, self.P.rank(d))
                 .submatrix(self._d_cells[d], range(self.P.rank(d)))
                 for d in self.D.degrees()}
        return LambdaChainMap(self.P, self.D, 0, comps, check=False)

    def connecting_map(self) -> LambdaChainMap:
        """Chain-level connecting map D -> Q of shift -1 from the splitting."""
        comps = {}
        for d in self.D.degrees():
            qr = self._q_cells.get(d - 1, [])
            dc = self._d_cells.get(d, [])
            if qr and dc:
                comps[d] = self.P.boundary_or_zero(d).submatrix(qr, dc)
        return LambdaChainMap(self.D, self.Q, -1, comps, check=False)

    def dual_connecting_map(self) -> LambdaChainMap:
        """Q* -> D* of shift -1: the cohomology connecting map."""
        comps = {}
        for d in self.Q.degrees():
            # source degree -d; the boundary of P* from -d to -d-1 has a row
            # per P_{d+1} dual and a column per P_d dual
            dc = self._d_cells.get(d + 1, [])
            qc = self._q_cells.get(d, [])
            if dc and qc:
                comps[-d] = self.P.boundary_or_zero(d + 1).bar_transpose() \
                    .submatrix(dc, qc)
        return LambdaChainMap(self.Q.hom_dual(), self.D.hom_dual(), -1, comps,
                              check=False)

    # -- diagonals ----------------------------------------------------------

    def relative_diagonal(self, cell, side: str = "left") -> LambdaTensor:
        """Diagonal of a D-cell pushed to P (x) D (left) or D (x) P (right).

        Projected factors are relabeled to quotient indices; the other
        factor keeps its ambient labels.
        """
        d, i = cell
        if (d, i) in self.q_index:
            raise PairError("relative diagonal wants a quotient cell")
        tensor = self.diagonal[(d, i)]

        def project(c):
            j = self.d_index.get(c)
            return None if j is None else (c[0], j)

        if side == "left":
            return tensor.map_cells(lambda a: a, project)
        return tensor.map_cells(project, lambda b: b)

    def class_tensor(self, x, side: str = "left") -> LambdaTensor:
        """Delta_rel(x) for an integer D_n-vector x; its reduction
        (aug_signed of each coefficient) is 1 (x) Delta_rel(x) in
        Z^omega (x)_Lambda (P (x) D)."""
        n = self.dimension
        total = LambdaTensor(self.model)
        for j, c in enumerate(x):
            if not c:
                continue
            cell = (n, self._d_cells[n][j])
            total = total + self.relative_diagonal(cell, side).scale(c)
        return total

    # -- cap products --------------------------------------------------------

    def cap_with(self, x, side: str = "P") -> LambdaChainMap:
        """Cap with the cycle 1 (x) x as a chain map of shift n.

        side "P": hom_dual(P) -> D (P-cochains against Delta_rel).
        side "D": hom_dual(D) -> P (D-cochains against Delta'_rel).
        """
        n = self.dimension
        if not self.is_relative_cycle(x):
            raise PairError("cap_with: class is not a cycle")
        if side == "P":
            z = self.class_tensor(x, "left")
            source_complex, target_complex = self.P, self.D
        else:
            z = self.class_tensor(x, "right")
            source_complex, target_complex = self.D, self.P
        src_dual = source_complex.hom_dual()
        comps = {}
        for k in source_complex.degrees():
            rows = target_complex.rank(n - k)
            cols = source_complex.rank(k)
            if rows == 0 or cols == 0:
                continue
            comps[-k] = LambdaMatrix.zero(self.model, rows, cols)
        for (a, g, b), coeff in z.terms.items():
            zc = coeff.aug_signed()
            if not zc:
                continue
            da, ia = a
            m = comps.get(-da)
            if m is None:
                continue
            col = ia     # P-index (side P) or D-index (side D, projected)
            row = b[1]   # D-index (side P, projected) or P-index (side D)
            s = cap_sign(-da, n)
            if side == "P":
                s *= cap_side_sign(n)
            m.data[row][col] = m.data[row][col] + \
                self.model.unit(g, s * zc)
        return LambdaChainMap(src_dual, target_complex, n, comps)

    # -- classes -------------------------------------------------------------

    def is_relative_cycle(self, x) -> bool:
        n = self.dimension
        bd = self.D.tensor_Zomega().boundary_or_zero(n)
        return all(v == 0 for v in mat_vec(bd, list(x)))

    def fundamental_class_candidate(self):
        """Generator of H_n(D; Z^omega) with normalized orientation.

        Returns (vector, homology) or (None, homology) when H_n is not
        infinite cyclic.
        """
        n = self.dimension
        intd = self.D.tensor_Zomega()
        h = intd.homology(n)
        if not h.is_infinite_cyclic():
            return None, h
        gen = list(h.free_generators[0])
        if self.class_override is not None:
            return list(self.class_override), h
        idx = 0
        if self.top_cell is not None:
            d, i = self.cell(self.top_cell) if isinstance(self.top_cell, str) \
                else self.top_cell
            if d != n:
                raise PairError("top cell has wrong degree")
            idx = self.d_index[(d, i)]
        if gen[idx] < 0:
            gen = [-c for c in gen]
        elif gen[idx] == 0:
            for c in gen:
                if c:
                    if c < 0:
                        gen = [-v for v in gen]
                    break
        return gen, h

    def boundary_class(self, x):
        """delta_*(1 (x) x) as an integer vector over Q_{n-1}."""
        w = self.connecting_map()
        n = self.dimension
        m = w.component(n).to_int_signed()
        return mat_vec(m, list(x))

    def component_subcomplex(self, comp: BoundaryComponent) -> IntComplex:
        cells = {d: sorted(idxs) for d, idxs in comp.cells.items()}
        return self.P.restrict(cells).tensor_Zomega()


# ---------------------------------------------------------------------------
# Verification


@dataclass
class PDVerdict:
    status: str                      # "pass" | "fail" | "unknown"
    reason: str = ""
    fundamental_class: list | None = None
    class_degree: int | None = None
    certificates: list = field(default_factory=list)
    boundary_classes: dict = field(default_factory=dict)
    witness_kind: str = ""
    witness: object = None

    def passed(self):
        return self.status == "pass"

    def to_json_dict(self):
        wit = None
        if self.witness_kind == "contraction" and self.witness is not None:
            wit = {str(d): m.pretty() for d, m in sorted(self.witness.items())}
        return {
            "status": self.status,
            "reason": self.reason,
            "fundamental_class": self.fundamental_class,
            "class_degree": self.class_degree,
            "degree_certificates": self.certificates,
            "boundary_classes": {k: list(v)
                                 for k, v in self.boundary_classes.items()},
            "witness_kind": self.witness_kind,
            "witnesses": wit,
        }


def verify_pd(pair: ChainPairData, radius: int = 4) -> PDVerdict:
    """Certify or refute Poincare duality for the pair at B = Lambda.

    Finite models: the mapping cone of the cap must be acyclic (exact).
    Its unit entries are eliminated over Lambda first (eliminate_units), and
    the integer homology of the linearized remainder, which is chain
    homotopy equivalent to the cone, is read in every degree of the cone's
    span; the certificates keep the method name "linearized".  Infinite
    models: integer screens refute; a contracting homotopy of the cone
    certifies; otherwise unknown at this radius.
    """
    n = pair.dimension
    if pair.class_override is not None and \
            not pair.is_relative_cycle(pair.class_override):
        return PDVerdict("fail", reason="class is not a cycle",
                         fundamental_class=list(pair.class_override),
                         class_degree=n)
    x, h = pair.fundamental_class_candidate()
    if x is None:
        return PDVerdict(
            "fail",
            reason=f"H_{n}(D; Z^omega) = {h.describe()} is not infinite cyclic",
            class_degree=n)
    if pair.class_override is not None:
        coords = class_coordinates(
            h, pair.D.tensor_Zomega().boundary_or_zero(n + 1), x)
        if coords is None or coords not in ([1], [-1]):
            return PDVerdict("fail", reason="class does not generate H_n",
                             fundamental_class=list(x), class_degree=n)
    verdict = PDVerdict("pass", fundamental_class=list(x), class_degree=n)
    # boundary fundamental classes, componentwise
    if pair.boundary_components:
        delta = pair.boundary_class(x)
        for comp in pair.boundary_components:
            sub = pair.component_subcomplex(comp)
            local = [delta[pair.q_index[(n - 1, i)]]
                     for i in sorted(comp.cells.get(n - 1, ()))]
            hcomp = sub.homology(n - 1)
            if not hcomp.is_infinite_cyclic():
                return PDVerdict(
                    "fail", reason=f"boundary component {comp.name} has "
                    f"H_{n-1} = {hcomp.describe()}",
                    fundamental_class=list(x), class_degree=n)
            coords = class_coordinates(
                hcomp, sub.boundary_or_zero(n), local)
            if coords is None or coords not in ([1], [-1]):
                return PDVerdict(
                    "fail", reason=f"delta class of component {comp.name} "
                    "is not a fundamental class",
                    fundamental_class=list(x), class_degree=n)
            verdict.boundary_classes[comp.name] = local
    cap = pair.cap_with(x, side="P")
    cone, _ = mapping_cone(cap)
    if pair.model.is_finite():
        lin = eliminate_units(cone).linearized()
        degs = cone.degrees()
        for d in range(degs[0], degs[-1] + 1):
            hom = lin.homology(d)
            if not hom.is_trivial():
                return PDVerdict(
                    "fail", reason=f"cap is not a quasi-isomorphism: cone "
                    f"H_{d} = {hom.describe()}",
                    fundamental_class=list(x), class_degree=n)
            verdict.certificates.append(
                {"degree": d, "cone_homology": "0", "method": "linearized"})
        verdict.witness_kind = "linearized-acyclic"
        return verdict
    # infinite model: integer screens first (sound refutation)
    intcone = cone.tensor_Zomega()
    for d, hom in sorted(intcone.all_homology().items()):
        if not hom.is_trivial():
            return PDVerdict(
                "fail", reason=f"cap fails over Z: cone H_{d} = "
                f"{hom.describe()}",
                fundamental_class=list(x), class_degree=n)
    contraction, rad = bounded_search(
        pair.model, radius, lambda r: find_contraction(cone, r))
    if contraction is not None:
        if not verify_contraction(cone, contraction):
            raise PairError("contraction verification failed")
        verdict.witness_kind = "contraction"
        verdict.witness = contraction
        for d in cone.degrees():
            verdict.certificates.append(
                {"degree": d, "cone_homology": "0",
                 "method": f"contraction(radius<={rad})"})
        return verdict
    return PDVerdict("unknown",
                     reason=f"no contraction found within radius {radius}",
                     fundamental_class=list(x), class_degree=n)


# ---------------------------------------------------------------------------
# The cap product ladder


def boundary_pair(pair: ChainPairData) -> ChainPairData:
    """The boundary Q as a closed pair with the restricted diagonal."""
    return pair.restrict(pair._q_cells, {}, pair.boundary_components,
                         name=f"{pair.name}-boundary", check=False)


@dataclass
class LadderSquare:
    name: str
    sign: int | None
    status: str  # "commutes" | "fail" | "unknown"
    method: str = ""


@dataclass
class LadderReport:
    squares: list
    status: str

    def sign_table(self):
        return [(sq.name, sq.sign if sq.sign is not None else 0,
                 sq.status) for sq in self.squares]


def _maps_homotopy_equal(a: LambdaChainMap, b: LambdaChainMap, radius: int):
    """Find a sign making a ~ eps b; returns (eps, method) or (None, why)."""
    for eps in (1, -1):
        v = is_nullhomotopic(a - b.scale(eps), radius)
        if v.found():
            return eps, "chain-homotopy"
    if a.source.model.is_finite():  # is_nullhomotopic decides exactly
        return None, "fail"
    return None, "unknown"


def verify_ladder(pair: ChainPairData, x=None, radius: int = 4) -> LadderReport:
    """Check the three square families of the cap ladder up to sign.

    Each family is one chain-level comparison, covering every cohomological
    degree r at once; the recorded sign applies across the family.
    """
    n = pair.dimension
    if x is None:
        x, h = pair.fundamental_class_candidate()
        if x is None:
            return LadderReport([], "fail")
    if not pair.Q.ranks:
        return LadderReport(
            [LadderSquare("restriction", 1, "commutes", "degenerate"),
             LadderSquare("boundary", 1, "commutes", "degenerate"),
             LadderSquare("connecting", 1, "commutes", "degenerate")],
            "pass")
    capP = pair.cap_with(x, side="P")
    capD = pair.cap_with(x, side="D")
    bpair = boundary_pair(pair)
    deltax = pair.boundary_class(x)
    capQ = bpair.cap_with(deltax, side="P")
    iota = pair.inclusion_map()
    pi = pair.projection_map()
    w = pair.connecting_map()
    wstar = pair.dual_connecting_map()
    # align Q-complex instances: boundary_pair rebuilt Q structurally equal
    capQ = LambdaChainMap(pair.Q.hom_dual(), pair.Q, n - 1,
                          capQ.components, check=False)
    squares = []
    # (1) restriction: capP . pi* vs pi . capD  (both D* -> D)
    lhs = capP.compose_with(pi.dual_map())
    rhs = pi.compose_with(capD)
    eps, method = _maps_homotopy_equal(lhs, rhs, radius)
    squares.append(LadderSquare(
        "restriction", eps, "commutes" if eps else method, method))
    # (2) boundary: capQ . iota* vs w . capP  (both P* -> Q)
    lhs = capQ.compose_with(iota.dual_map())
    rhs = w.compose_with(capP)
    eps, method = _maps_homotopy_equal(lhs, rhs, radius)
    squares.append(LadderSquare(
        "boundary", eps, "commutes" if eps else method, method))
    # (3) connecting: capD . wstar vs iota . capQ  (both Q* -> P)
    lhs = capD.compose_with(wstar)
    rhs = iota.compose_with(capQ)
    eps, method = _maps_homotopy_equal(lhs, rhs, radius)
    squares.append(LadderSquare(
        "connecting", eps, "commutes" if eps else method, method))
    status = "pass" if all(s.sign is not None for s in squares) else \
        ("unknown" if any(s.status == "unknown" for s in squares) else "fail")
    return LadderReport(squares, status)


# ---------------------------------------------------------------------------
# Lemma-style cap identity at the top degree


def base_vertex(pair: ChainPairData) -> int:
    for i in range(pair.P.rank(0)):
        if pair.P.augmentation[i].aug() == 1:
            return i
    raise PairError("no augmented base vertex")


def cap_top_identity(pair: ChainPairData, x, radius: int = 4):
    """Find w1 in C_1(X) with phi cap (1 (x) x) = bar(phi(x)) (v + d w1)
    for every top cocycle phi, v the base vertex; returns w1's coefficient
    vector or None.  With a single 0-cell this is the classical
    bar(phi(x)) (1 + d w1) form.
    """
    n = pair.dimension
    capD = pair.cap_with(x, side="D")
    m = capD.component(-n)  # (P_0 rank x D_n rank)
    model = pair.model
    vb = base_vertex(pair)
    system = LambdaLinearSystem(model)
    rank0 = pair.P.rank(0)
    rank1 = pair.P.rank(1)
    system.add_var("w", rank1, 1)
    d1 = pair.P.boundary_or_zero(1)
    for i in range(pair.D.rank(n)):
        barx = model.from_int(list(x)[i]).bar()
        rhs = LambdaMatrix(model, rank0, 1)
        for r in range(rank0):
            base = barx if r == vb else model.zero()
            rhs.data[r][0] = m.data[r][i] - base
        q = LambdaMatrix(model, 1, 1, [[barx]])
        system.add_constraint([(1, d1, "w", q)], rhs)
    sol = system.solve(radius)
    if sol is None:
        return None
    return [sol["w"].data[j][0] for j in range(rank1)]


def check_cap_top_identity(pair: ChainPairData, x, w1, phi_values):
    """Exact chain-level check of the identity for one cocycle row phi."""
    model = pair.model
    n = pair.dimension
    capD = pair.cap_with(x, side="D")
    m = capD.component(-n)
    vb = base_vertex(pair)
    rank0 = pair.P.rank(0)
    # cap(phi) with phi = sum lambda_i e_i^*: by left-linearity the image is
    # sum lambda_i cap(e_i^*)
    total = [model.zero()] * rank0
    for i, lam in enumerate(phi_values):
        for r in range(rank0):
            total[r] = total[r] + lam * m.data[r][i]
    phix = model.zero()
    for i, lam in enumerate(phi_values):
        # phi(x) = sum x_i * phi(e_i) = sum x_i * bar(lambda_i)
        phix = phix + model.from_int(list(x)[i]) * lam.bar()
    d1 = pair.P.boundary_or_zero(1)
    dw = apply_matrix(d1, w1) if pair.P.rank(1) else \
        [model.zero()] * rank0
    scale = phix.bar()
    for r in range(rank0):
        base = model.one() if r == vb else model.zero()
        if total[r] != scale * (base + dw[r]):
            return False
    return True


# ---------------------------------------------------------------------------
# Algebraic sums (Browder-style two-out-of-three)


@dataclass
class SumConditions:
    big: PDVerdict
    middle: PDVerdict
    sides: list
    implications: list
    classes: dict

    def all_pass(self):
        return (self.big.passed() and self.middle.passed()
                and all(v.passed() for v in self.sides))


def restrict_pair(pair: ChainPairData, keep: set, new_sub: set,
                  name: str = "") -> ChainPairData:
    """Sub-pair on a boundary-closed subset of P's basis, its boundary
    components found by connectivity."""
    sub = pair.restrict(_by_degree(keep), _by_degree(new_sub & keep), [],
                        name=name, check=False)
    sub.boundary_components = _auto_components(sub.P, sub.sub_cells,
                                               sub.diagonal)
    sub.validate()
    return sub


def _by_degree(cells) -> dict:
    out = {}
    for (d, i) in cells:
        out.setdefault(d, []).append(i)
    return out


def _auto_components(complex_, subcells: dict, diagonal: dict):
    """Partition subcomplex cells into connected components.

    Connectivity uses boundary support and diagonal support; the diagonal
    links every cell to the vertices it sits over, which boundaries alone
    miss for cells with vanishing boundary.
    """
    cells = {(d, i) for d, idxs in subcells.items() for i in idxs}
    if not cells:
        return []
    parent = {c: c for c in cells}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for (d, i) in cells:
        bd = complex_.boundary_or_zero(d)
        for r in range(bd.rows):
            if not bd.data[r][i].is_zero() and (d - 1, r) in cells:
                union((d, i), (d - 1, r))
        for (a, g, b) in diagonal.get((d, i), LambdaTensor(complex_.model)).terms:
            if a in cells:
                union((d, i), a)
            if b in cells:
                union((d, i), b)
    groups = {}
    for c in cells:
        groups.setdefault(find(c), []).append(c)
    comps = []
    for k, group in enumerate(sorted(groups.values())):
        bydeg = {}
        for (d, i) in sorted(group):
            bydeg.setdefault(d, []).append(i)
        comps.append(BoundaryComponent(
            f"component-{k}", {d: tuple(v) for d, v in bydeg.items()}))
    return comps


def algebraic_sum(pair: ChainPairData, assignment: dict,
                  radius: int = 4) -> SumConditions:
    """Run the two-out-of-three duality conditions on a decomposition.

    assignment maps each P-cell name to 0 (shared), 1 or 2.  A = the pair's
    subcomplex; A_i = A intersect B_i; the three candidate pairs are (B, A),
    (B_0, A_0) and (B_i, B_0 + A_i).
    """
    P = pair.P
    sides = {0: set(), 1: set(), 2: set()}
    for d in P.degrees():
        for i in range(P.rank(d)):
            name = P.name_of(d, i)
            if name not in assignment:
                raise PairError(f"cell {name} not assigned")
            sides[assignment[name]].add((d, i))
    b0 = sides[0]
    b1 = sides[0] | sides[1]
    b2 = sides[0] | sides[2]
    a_cells = set(pair.q_index)
    n = pair.dimension
    for label, cells in (("B0", b0), ("B1", b1), ("B2", b2)):
        for (d, i) in cells:
            bd = P.boundary_or_zero(d)
            for r in range(bd.rows):
                if not bd.data[r][i].is_zero() and (d - 1, r) not in cells:
                    raise PairError(
                        f"partition not closed under boundaries: "
                        f"{P.name_of(d, i)} in {label} has boundary outside")
    verdict_big = verify_pd(pair, radius)
    x, _ = pair.fundamental_class_candidate()
    if x is None:
        return SumConditions(verdict_big, verdict_big, [], [], {})
    classes = {"big": list(x) if x else None}
    # middle pair (B0, A0)
    middle_pair = restrict_pair(pair, b0, a_cells & b0,
                                name=f"{pair.name}-middle")
    dzero = _mayer_vietoris_connecting(pair, b0, b1, b2, x)
    classes["middle"] = dzero
    middle_pair.class_override = dzero
    verdict_middle = verify_pd(middle_pair, radius)
    side_verdicts = []
    for k, bk in ((1, b1), (2, b2)):
        other = sides[2] if k == 1 else sides[1]
        sub = (b0 | (a_cells & bk)) - other
        side_pair = restrict_pair(pair, bk, sub, name=f"{pair.name}-side{k}")
        eta = _restrict_class(pair, side_pair, bk, x)
        classes[f"side{k}"] = eta
        side_pair.class_override = eta
        side_verdicts.append(verify_pd(side_pair, radius))
    conds = [verdict_big.passed(), verdict_middle.passed(),
             all(v.passed() for v in side_verdicts)]
    implications = []
    for k in range(3):
        i, j = [t for t in range(3) if t != k]
        holds = (not (conds[i] and conds[j])) or conds[k]
        implications.append(
            {"premises": [i + 1, j + 1], "conclusion": k + 1,
             "confirmed": holds})
    return SumConditions(verdict_big, verdict_middle, side_verdicts,
                         implications, classes)


def _mayer_vietoris_connecting(pair, b0, b1, b2, x):
    """partial_0 of the class along B0/A0 >-> B1/A1 (+) B2/A2 ->> B/A."""
    n = pair.dimension
    P = pair.P
    a_cells = set(pair.q_index)
    # lift x to the side-1 copy for shared cells
    z1 = {}
    z2 = {}
    for j, c in enumerate(x):
        if not c:
            continue
        cell = (n, pair._d_cells[n][j])
        if cell in b1:
            z1[cell] = c
        elif cell in b2:
            z2[cell] = c
        else:
            raise PairError("class cell escapes the decomposition")
    def b0_part(cells):
        out = {}
        for (d, i), c in cells.items():
            bd = P.boundary_or_zero(d)
            for r in range(bd.rows):
                e = bd.data[r][i]
                if e.is_zero():
                    continue
                tgt = (d - 1, r)
                if tgt in b0 and tgt not in a_cells:
                    out[tgt] = out.get(tgt, 0) + c * e.aug_signed()
        return out

    left = b0_part(z1)
    right = b0_part(z2)
    idxs = sorted(i for (d, i) in b0
                  if d == n - 1 and (n - 1, i) not in a_cells)
    for i in idxs:
        if left.get((n - 1, i), 0) != -right.get((n - 1, i), 0):
            raise PairError("decomposition class is not a relative cycle")
    return [left.get((n - 1, i), 0) for i in idxs]


def _restrict_class(pair, side_pair, bk, x):
    n = pair.dimension
    out = []
    for d_idx in side_pair._d_cells.get(n, []):
        name = side_pair.P.name_of(n, d_idx)
        di, pi_ = pair.cell(name)
        j = pair.d_index.get((di, pi_))
        out.append(list(x)[j] if j is not None else 0)
    return out


# ---------------------------------------------------------------------------
# Evaluation square (duality of the two cap versions)


def evaluation_square_maps(pair: ChainPairData, x):
    """The two composites of the theta / double-dual square, as chain maps
    from hom_dual(D) to the double dual of P."""
    capP = pair.cap_with(x, side="P")
    capD = pair.cap_with(x, side="D")
    via_dual = capP.dual_map()  # h om_dual(D) -> double dual of P
    pdd = capP.source.hom_dual()
    eta_side = LambdaChainMap(capD.source, pdd, capD.shift,
                              dict(capD.components), check=False)
    return via_dual, eta_side
