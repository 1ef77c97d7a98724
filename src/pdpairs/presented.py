"""Finitely presented Lambda-modules and the derived module category.

A module is always a cokernel: Lambda^n modulo the column span of a
relation matrix.  Morphisms are matrices on generators that descend through
the presentations; equality, well-definedness and factorization through
projectives all reduce to Lambda-linear solving, which is exact over finite
models and bounded-support over infinite ones.

The key fact used throughout: a morphism h: M -> N between presented
modules factors through a projective if and only if its generator matrix
lifts through the free cover of N, i.e. there is S with S . R_M = 0 exactly
and S = h mod relations of N.  That characterization is linear, so homotopy
equivalence in the derived category becomes one solvable system.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import (
    LambdaColumnSolver,
    LambdaComplex,
    LambdaLinearSystem,
    LambdaMatrix,
    bounded_search,
    compose,
)
from .groups import GroupModel, RingElem
from .intlinalg import IntMatrix, LinearSolver, mat_vec, snf


class ModuleError(ValueError):
    pass


class PresentedModule:
    """Lambda^{ngens} / column span of relations."""

    def __init__(self, model: GroupModel, ngens: int,
                 relations: LambdaMatrix | None = None, label: str = ""):
        self.model = model
        self.ngens = ngens
        if relations is None:
            relations = LambdaMatrix.zero(model, ngens, 0)
        if relations.rows != ngens:
            raise ModuleError("relations have wrong height")
        cols = [relations.column(j) for j in range(relations.cols)
                if any(not e.is_zero() for e in relations.column(j))]
        self.relations = LambdaMatrix.from_columns(model, ngens, cols)
        self.label = label

    def spans(self, m: LambdaMatrix, radius: int = 4) -> bool:
        """Whether every column of m is zero in the module, i.e. lies in the
        column span of the relations: one system R . V = m, exact over a
        finite model and with V supported on model.ball(radius) otherwise.
        """
        if m.is_zero():
            return True
        if self.relations.cols == 0:
            return False
        system = LambdaLinearSystem(self.model)
        system.add_var("v", self.relations.cols, m.cols)
        system.add_constraint([(1, self.relations, "v", None)], m)
        return system.solve(radius) is not None

    def __repr__(self):
        tag = self.label or "module"
        return (f"PresentedModule({tag}: Lambda^{self.ngens} / "
                f"{self.relations.cols} relations)")


class ModuleMorphism:
    """Matrix on generators, columns = images of source generators."""

    def __init__(self, source: PresentedModule, target: PresentedModule,
                 matrix: LambdaMatrix, check: bool = True, radius: int = 4):
        if source.model != target.model:
            raise ModuleError("model mismatch")
        self.source = source
        self.target = target
        self.matrix = matrix
        if (matrix.rows, matrix.cols) != (target.ngens, source.ngens):
            raise ModuleError("morphism matrix has wrong shape")
        if check and not self.well_defined(radius):
            raise ModuleError("morphism does not descend through presentations")

    def well_defined(self, radius: int = 4) -> bool:
        return self.target.spans(
            compose(self.matrix, self.source.relations), radius)

    def is_zero(self, radius: int = 4) -> bool:
        return self.target.spans(self.matrix, radius)

    def equals(self, other: "ModuleMorphism", radius: int = 4) -> bool:
        return (self - other).is_zero(radius)

    def __add__(self, other):
        return ModuleMorphism(self.source, self.target,
                              self.matrix + other.matrix, check=False)

    def __sub__(self, other):
        return ModuleMorphism(self.source, self.target,
                              self.matrix - other.matrix, check=False)

    def scale(self, c: int):
        return ModuleMorphism(self.source, self.target, self.matrix.scale(c),
                              check=False)

    def compose_with(self, inner: "ModuleMorphism") -> "ModuleMorphism":
        return ModuleMorphism(inner.source, self.target,
                              compose(self.matrix, inner.matrix), check=False)

    @classmethod
    def identity(cls, m: PresentedModule):
        return cls(m, m, LambdaMatrix.identity(m.model, m.ngens), check=False)

    def __repr__(self):
        return f"ModuleMorphism({self.source!r} -> {self.target!r})"


# ---------------------------------------------------------------------------
# The cokernel functors


def G_functor(c: LambdaComplex, n: int) -> PresentedModule:
    """coker of the boundary landing in degree n."""
    rel = c.boundary_or_zero(n + 1)
    return PresentedModule(c.model, c.rank(n), rel, label=f"G_{n}")


def G_on_map(f, n: int) -> ModuleMorphism:
    src = G_functor(f.source, n)
    tgt = G_functor(f.target, n + f.shift)
    return ModuleMorphism(src, tgt, f.component(n), check=False)


def F_functor(c: LambdaComplex, r: int) -> PresentedModule:
    """Cochain cokernel in cohomological degree r: C^r / im d*_{r-1}."""
    rel = c.boundary_or_zero(r).bar_transpose()
    return PresentedModule(c.model, c.rank(r), rel, label=f"F^{r}")


# ---------------------------------------------------------------------------
# The augmentation ideal


def augmentation_ideal(model: GroupModel) -> PresentedModule:
    """I(G) presented on the standard generators g - 1.

    Free models (trivial, Z, free groups) give free presentations; free
    abelian models take the Koszul relations; finite models compute the
    relation lattice exactly through the regular representation; free
    products recurse along the direct sum decomposition
    I(A * B) = L_A I(A) (+) L_B I(B).
    """
    from .groups import FiniteTable, FreeAbelian, FreeProduct
    gens = augmentation_ideal_generators(model)
    r = len(gens)
    cols = []
    if isinstance(model, FreeAbelian):
        # Koszul relations (g_j - 1) e_i - (g_i - 1) e_j
        for i in range(r):
            for j in range(i + 1, r):
                col = [model.zero()] * r
                col[i] = gens[j]
                col[j] = -gens[i]
                cols.append(col)
    elif isinstance(model, FiniteTable):
        cols = LambdaColumnSolver(LambdaMatrix(model, 1, r, [gens])).kernel()
    elif isinstance(model, FreeProduct):
        row_offset = 0
        for side, child in enumerate(model.children):
            part = augmentation_ideal(child)
            for rel in part.relations.columns():
                col = [model.zero()] * r
                for i, e in enumerate(rel):
                    col[row_offset + i] = RingElem(
                        model, {model.embed(side, k): c
                                for k, c in e.support.items()})
                cols.append(col)
            row_offset += part.ngens
    return PresentedModule(model, r, LambdaMatrix.from_columns(model, r, cols),
                           label="I")


def augmentation_ideal_generators(model: GroupModel):
    """The ring elements g - 1 matching the presentation's generators."""
    return [model.unit(g) - 1 for _, g in model.named_generators()]


def express_in_ideal(model: GroupModel, elem: RingElem, radius: int = 4):
    """Write an augmentation-zero element over the standard I generators."""
    if elem.aug() != 0:
        raise ModuleError("element is not in the augmentation ideal")
    gens = augmentation_ideal_generators(model)
    if not gens:
        if elem.is_zero():
            return []
        raise ModuleError("nonzero element of the zero ideal")
    row = LambdaMatrix(model, 1, len(gens), [list(gens)])
    sol = LambdaColumnSolver(row, radius).solve([elem])
    if sol is None:
        raise ModuleError("could not express element in ideal generators "
                          f"at radius {radius}")
    return sol


# ---------------------------------------------------------------------------
# Derived module category


@dataclass
class DerivedVerdict:
    status: str  # "equivalence" | "not" | "unknown"
    inverse: ModuleMorphism | None = None
    reason: str = ""

    def is_equivalence(self):
        return self.status == "equivalence"


def _torsion_data(m: PresentedModule):
    """SNF splitting of Z (x) M: (U, moduli per torsion coordinate)."""
    res = snf(m.relations.to_int_plain())
    moduli = [(i, d) for i, d in enumerate(res.diag) if d > 1]
    return res, moduli


def _stable_torsion_iso(f: ModuleMorphism) -> bool:
    """Sound screen: a derived equivalence induces an isomorphism on the
    torsion of the integral reductions (free summands are stably zero, so
    plain Z (x) - isomorphy is not necessary and is not required here)."""
    res_a, tors_a = _torsion_data(f.source)
    res_b, tors_b = _torsion_data(f.target)
    order_a = 1
    for _, d in tors_a:
        order_a *= d
    order_b = 1
    for _, d in tors_b:
        order_b *= d
    if order_a != order_b:
        return False
    if not tors_b:
        return True
    fm = f.matrix.to_int_plain()
    # images of A-torsion generators, in B's SNF coordinates
    cols = []
    for i, _ in tors_a:
        rep = res_a.Uinv.column(i)
        img = mat_vec(fm, rep)
        coords = mat_vec(res_b.U, img)
        cols.append([coords[j] for j, _ in tors_b])
    # surjectivity onto the finite torsion group (equal orders => bijective)
    width = len(cols) + len(tors_b)
    mat = IntMatrix.zero(len(tors_b), width)
    for c, col in enumerate(cols):
        for r, v in enumerate(col):
            mat.data[r][c] = v
    for r, (_, d) in enumerate(tors_b):
        mat.data[r][len(cols) + r] = d
    solver = LinearSolver(mat)
    for r in range(len(tors_b)):
        e = [0] * len(tors_b)
        e[r] = 1
        if solver.solve(e) is None:
            return False
    return True


def derived_equivalence(f: ModuleMorphism, radius: int = 4) -> DerivedVerdict:
    """Homotopy equivalence test in the projective homotopy category.

    Screens with the stable integral reduction (torsion isomorphy is
    necessary; free summands are stably trivial, so nothing stronger is),
    then solves for an inverse g together with factorizations of g f - 1
    and f g - 1 through the free covers.
    """
    model = f.source.model
    if not _stable_torsion_iso(f):
        return DerivedVerdict(
            "not", reason="integral torsion reduction is not an isomorphism")
    A, B = f.source, f.target
    ra, rb = A.relations, B.relations
    system = LambdaLinearSystem(model)
    system.add_var("g", A.ngens, B.ngens)
    system.add_var("s1", A.ngens, A.ngens)
    system.add_var("s2", B.ngens, B.ngens)
    system.add_var("w", ra.cols, rb.cols)
    system.add_var("v1", ra.cols, A.ngens)
    system.add_var("v2", rb.cols, B.ngens)
    # g is well-defined: g . R_B = R_A . w
    system.add_constraint([(1, None, "g", rb), (-1, ra, "w", None)],
                          LambdaMatrix.zero(model, A.ngens, rb.cols))
    # g f - 1 = s1 + R_A v1,  s1 . R_A = 0
    system.add_constraint([(1, None, "g", f.matrix), (-1, None, "s1", None),
                           (-1, ra, "v1", None)],
                          LambdaMatrix.identity(model, A.ngens))
    system.add_constraint([(1, None, "s1", ra)],
                          LambdaMatrix.zero(model, A.ngens, ra.cols))
    # f g - 1 = s2 + R_B v2,  s2 . R_B = 0
    system.add_constraint([(1, f.matrix, "g", None), (-1, None, "s2", None),
                           (-1, rb, "v2", None)],
                          LambdaMatrix.identity(model, B.ngens))
    system.add_constraint([(1, None, "s2", rb)],
                          LambdaMatrix.zero(model, B.ngens, rb.cols))
    sol, _ = bounded_search(model, radius, system.solve)
    if sol is not None:
        g = ModuleMorphism(B, A, sol["g"], check=False)
        return DerivedVerdict("equivalence", inverse=g)
    if model.is_finite():
        return DerivedVerdict("not", reason="exact inverse system unsolvable")
    return DerivedVerdict("unknown", reason=f"radius {radius} exhausted")


def morphism_null_in_derived(f: ModuleMorphism, radius: int = 4):
    """Does f factor through a projective?  Linear: f lifts through the free
    cover of the target.  Returns "yes" / "no" / "unknown"."""
    model = f.source.model
    A, B = f.source, f.target
    system = LambdaLinearSystem(model)
    system.add_var("s", B.ngens, A.ngens)
    system.add_var("v", B.relations.cols, A.ngens)
    system.add_constraint([(1, None, "s", None), (1, B.relations, "v", None)],
                          f.matrix)
    system.add_constraint([(1, None, "s", A.relations)],
                          LambdaMatrix.zero(model, B.ngens, A.relations.cols))
    if bounded_search(model, radius, system.solve)[0] is not None:
        return "yes"
    return "no" if model.is_finite() else "unknown"


# ---------------------------------------------------------------------------
# Factorizations through projectives


@dataclass
class Factorization:
    """f = (project) . middle: A -> B + Q ->> B, with Q = Lambda^q free.

    Q is recorded by its rank; the middle map is an isomorphism witnessed
    by an explicit two-sided inverse.
    """

    f: ModuleMorphism
    q_rank: int             # rank of the free complement on the target
    middle: LambdaMatrix    # (B.ngens + q_rank) x A.ngens
    middle_inverse: LambdaMatrix


def _stabilized(module: PresentedModule, extra: int) -> PresentedModule:
    model = module.model
    rel = module.relations
    total = module.ngens + extra
    data = [[rel.data[i][j] for j in range(rel.cols)]
            for i in range(module.ngens)]
    data += [[model.zero()] * rel.cols for _ in range(extra)]
    return PresentedModule(model, total,
                           LambdaMatrix(model, total, rel.cols, data),
                           label=f"{module.label}+L^{extra}")


def verify_factorization(fact: Factorization, radius: int = 4) -> bool:
    """Exact checks: middle is invertible and the composite equals f."""
    f = fact.f
    model = f.source.model
    b_ext = _stabilized(f.target, fact.q_rank)
    m = fact.middle
    minv = fact.middle_inverse
    if (m.rows, m.cols) != (b_ext.ngens, f.source.ngens):
        return False
    ident_a = LambdaMatrix.identity(model, f.source.ngens)
    ident_b = LambdaMatrix.identity(model, b_ext.ngens)
    mid = ModuleMorphism(f.source, b_ext, m, check=False)
    if not mid.well_defined(radius):
        return False
    left = compose(minv, m) - ident_a
    right = compose(m, minv) - ident_b
    if not ModuleMorphism(f.source, f.source, left,
                          check=False).is_zero(radius):
        return False
    if not ModuleMorphism(b_ext, b_ext, right, check=False).is_zero(radius):
        return False
    # composite: project . middle . include = f
    diff = m.submatrix(range(f.target.ngens), range(f.source.ngens)) \
        - f.matrix
    return ModuleMorphism(f.source, f.target, diff, check=False).is_zero(radius)


def _try_middle(f: ModuleMorphism, q_rank: int, rows,
                radius: int) -> Factorization | None:
    """Fix candidate completion rows, then solving for the inverse is linear."""
    model = f.source.model
    b_ext = _stabilized(f.target, q_rank)
    middle = LambdaMatrix.zero(model, b_ext.ngens, f.source.ngens)
    for i in range(f.target.ngens):
        for j in range(f.source.ngens):
            middle.data[i][j] = f.matrix.data[i][j]
    for k, row in enumerate(rows):
        for j, e in enumerate(row):
            middle.data[f.target.ngens + k][j] = e
    ra, rb = f.source.relations, b_ext.relations
    system = LambdaLinearSystem(model)
    system.add_var("inv", f.source.ngens, b_ext.ngens)
    system.add_var("u1", ra.cols, f.source.ngens)
    system.add_var("u2", rb.cols, b_ext.ngens)
    system.add_var("w", ra.cols, rb.cols)
    system.add_constraint([(1, None, "inv", middle), (-1, ra, "u1", None)],
                          LambdaMatrix.identity(model, f.source.ngens))
    system.add_constraint([(1, middle, "inv", None), (-1, rb, "u2", None)],
                          LambdaMatrix.identity(model, b_ext.ngens))
    system.add_constraint([(1, None, "inv", rb), (-1, ra, "w", None)],
                          LambdaMatrix.zero(model, f.source.ngens, rb.cols))
    sol = system.solve(radius)
    if sol is None:
        return None
    fact = Factorization(f, q_rank, middle, sol["inv"])
    return fact if verify_factorization(fact, radius) else None


def search_factorization(f: ModuleMorphism,
                         radius: int = 4) -> Factorization | None:
    """Find a mono-epi middle through free complements, smallest first.

    Candidate completion rows are coordinate projections of the source in
    deterministic order, for complements of rank at most 4; the inverse
    solve certifies invertibility.
    """
    import itertools
    model = f.source.model
    # q_rank = 0: f itself must be invertible
    fact = _try_middle(f, 0, [], radius)
    if fact is not None:
        return fact
    for q_rank in range(1, 5):
        for combo in itertools.combinations(range(f.source.ngens), q_rank):
            rows = []
            for idx in combo:
                row = [model.zero()] * f.source.ngens
                row[idx] = model.one()
                rows.append(row)
            fact = _try_middle(f, q_rank, rows, radius)
            if fact is not None:
                return fact
    return None
