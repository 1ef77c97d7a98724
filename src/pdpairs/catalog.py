"""Builtin example pairs and their expected behaviour.

Each builder returns a freshly constructed ChainPairData, so entries stay
immutable from the caller's point of view.  Diagonals are literal data,
revalidated by the pair constructor on every build.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chains import LambdaComplex, LambdaMatrix
from .groups import FiniteTable, FreeAbelian, InfiniteCyclic, TrivialGroup
from .pairs import BoundaryComponent, ChainPairData, LambdaTensor


def _tensor(model, complex_, *terms):
    """terms: (coeff ring-or-int, left name, group key, right name)."""
    out = LambdaTensor(model)
    for coeff, left, g, right in terms:
        if isinstance(coeff, int):
            coeff = model.from_int(coeff)
        out.add_term(complex_.cell_index(left), g,
                     complex_.cell_index(right), coeff)
    return out


def build_d3() -> ChainPairData:
    """The 3-ball: one vertex, the boundary sphere, one 3-cell."""
    triv = TrivialGroup()
    one = triv.one()
    c = LambdaComplex(
        triv, {0: 1, 2: 1, 3: 1},
        {3: LambdaMatrix.from_rows(triv, [[one]])},
        augmentation=[one],
        basis_names={0: ("v",), 2: ("F",), 3: ("E",)})
    e = triv.identity()
    diag = {
        c.cell_index("v"): _tensor(triv, c, (1, "v", e, "v")),
        c.cell_index("F"): _tensor(triv, c, (1, "v", e, "F"),
                                   (1, "F", e, "v")),
        c.cell_index("E"): _tensor(triv, c, (1, "v", e, "E"),
                                   (1, "E", e, "v")),
    }
    comp = BoundaryComponent("sphere", {0: (0,), 2: (0,)}, TrivialGroup(), {})
    return ChainPairData(c, {0: (0,), 2: (0,)}, diag,
                         boundary_components=[comp], top_cell="E", name="d3")


def build_d3_collared() -> ChainPairData:
    """The 3-ball with a collar: boundary sphere, middle sphere, shell."""
    triv = TrivialGroup()
    one = triv.one()
    zero = triv.zero()
    c = LambdaComplex(
        triv, {0: 2, 1: 1, 2: 2, 3: 2},
        {1: LambdaMatrix.from_rows(triv, [[-one], [one]]),
         2: LambdaMatrix.from_rows(triv, [[zero, zero]]),
         3: LambdaMatrix.from_rows(triv, [[one, zero], [-one, one]])},
        augmentation=[one, one],
        basis_names={0: ("v", "u"), 1: ("s",), 2: ("Fb", "Fm"),
                     3: ("E1", "E2")})
    e = triv.identity()
    diag = {
        c.cell_index("v"): _tensor(triv, c, (1, "v", e, "v")),
        c.cell_index("u"): _tensor(triv, c, (1, "u", e, "u")),
        c.cell_index("s"): _tensor(triv, c, (1, "v", e, "s"),
                                   (1, "s", e, "u")),
        c.cell_index("Fb"): _tensor(triv, c, (1, "u", e, "Fb"),
                                    (1, "Fb", e, "u")),
        c.cell_index("Fm"): _tensor(triv, c, (1, "v", e, "Fm"),
                                    (1, "Fm", e, "v")),
        c.cell_index("E1"): _tensor(triv, c, (1, "v", e, "E1"),
                                    (1, "E1", e, "v"),
                                    (1, "s", e, "Fb"), (1, "Fb", e, "s")),
        c.cell_index("E2"): _tensor(triv, c, (1, "v", e, "E2"),
                                    (1, "E2", e, "v")),
    }
    comp = BoundaryComponent("sphere", {0: (1,), 2: (0,)}, TrivialGroup(), {})
    return ChainPairData(c, {0: (1,), 2: (0,)}, diag,
                         boundary_components=[comp], top_cell="E2",
                         name="d3-collared")


def _torus_boundary_group():
    return FreeAbelian(["x", "y"])


def build_solid_torus() -> ChainPairData:
    """S^1 x D^2 with a marked disc on the boundary torus.

    Boundary cells: v; a (meridian), b (longitude), c (disc rim);
    T (torus complement of the disc), d (rim disc).  Interior: m (meridian
    disc), E.  Over Z[t, t^-1] with a -> 1, b -> t.
    """
    z = InfiniteCyclic("t")
    one = z.one()
    zero = z.zero()
    t = z.unit(1)
    tinv = z.unit(-1)
    c = LambdaComplex(
        z, {0: 1, 1: 3, 2: 3, 3: 1},
        {1: LambdaMatrix.from_rows(z, [[zero, t - 1, zero]]),
         2: LambdaMatrix.from_rows(z, [[one - t, zero, one],
                                       [zero, zero, zero],
                                       [-one, one, zero]]),
         3: LambdaMatrix.from_rows(z, [[one], [one], [t - 1]])},
        augmentation=[one],
        basis_names={0: ("v",), 1: ("a", "b", "c"), 2: ("T", "d", "m"),
                     3: ("E",)})
    e = z.identity()
    tk = 1   # key of t
    diag = {
        c.cell_index("v"): _tensor(z, c, (1, "v", e, "v")),
        c.cell_index("a"): _tensor(z, c, (1, "v", e, "a"), (1, "a", e, "v")),
        c.cell_index("b"): _tensor(z, c, (1, "v", e, "b"), (1, "b", tk, "v")),
        c.cell_index("c"): _tensor(z, c, (1, "v", e, "c"), (1, "c", e, "v")),
        c.cell_index("T"): _tensor(z, c, (1, "v", e, "T"), (1, "T", e, "v"),
                                   (t, "a", -1, "b"), (-1, "b", tk, "a")),
        c.cell_index("d"): _tensor(z, c, (1, "v", e, "d"), (1, "d", e, "v")),
        c.cell_index("m"): _tensor(z, c, (1, "v", e, "m"), (1, "m", e, "v")),
        c.cell_index("E"): _tensor(z, c, (1, "v", e, "E"), (1, "E", e, "v"),
                                   (1, "b", tk, "m"), (t, "m", -1, "b")),
    }
    comp = BoundaryComponent(
        "torus", {0: (0,), 1: (0, 1, 2), 2: (0, 1)},
        _torus_boundary_group(), {"x": z.identity(), "y": 1},
        marked_disc=("d", "c"))
    return ChainPairData(c, {0: (0,), 1: (0, 1, 2), 2: (0, 1)}, diag,
                         boundary_components=[comp], top_cell="E",
                         name="solid-torus")


def build_solid_torus_collared() -> ChainPairData:
    """Solid torus with an interior basepoint and a split-off interior ball.

    Adds: interior vertex w, edge s: w -> u (the torus basepoint), a middle
    sphere S, a shell E1 and the inner ball E2 with dE2 = S.
    """
    z = InfiniteCyclic("t")
    one = z.one()
    zero = z.zero()
    t = z.unit(1)
    c = LambdaComplex(
        z, {0: 2, 1: 4, 2: 4, 3: 2},
        # order: vertices (u, w); edges (a, b, c, s); faces (T, d, m, S)
        # s runs from w to u, so ds = u - w
        {1: LambdaMatrix.from_rows(
            z, [[zero, t - 1, zero, one], [zero, zero, zero, -one]]),
         2: LambdaMatrix.from_rows(
            z, [[one - t, zero, one, zero],
                [zero, zero, zero, zero],
                [-one, one, zero, zero],
                [zero, zero, zero, zero]]),
         3: LambdaMatrix.from_rows(
            z, [[one, zero], [one, zero], [t - 1, zero],
                [-one, one]])},
        augmentation=[one, one],
        basis_names={0: ("u", "w"), 1: ("a", "b", "c", "s"),
                     2: ("T", "d", "m", "S"), 3: ("E1", "E2")})
    e = z.identity()
    tk = 1
    diag = {
        c.cell_index("u"): _tensor(z, c, (1, "u", e, "u")),
        c.cell_index("w"): _tensor(z, c, (1, "w", e, "w")),
        c.cell_index("a"): _tensor(z, c, (1, "u", e, "a"), (1, "a", e, "u")),
        c.cell_index("b"): _tensor(z, c, (1, "u", e, "b"), (1, "b", tk, "u")),
        c.cell_index("c"): _tensor(z, c, (1, "u", e, "c"), (1, "c", e, "u")),
        c.cell_index("s"): _tensor(z, c, (1, "w", e, "s"), (1, "s", e, "u")),
        c.cell_index("T"): _tensor(z, c, (1, "u", e, "T"), (1, "T", e, "u"),
                                   (t, "a", -1, "b"), (-1, "b", tk, "a")),
        c.cell_index("d"): _tensor(z, c, (1, "u", e, "d"), (1, "d", e, "u")),
        c.cell_index("m"): _tensor(z, c, (1, "u", e, "m"), (1, "m", e, "u")),
        c.cell_index("S"): _tensor(z, c, (1, "w", e, "S"), (1, "S", e, "w")),
        c.cell_index("E2"): _tensor(z, c, (1, "w", e, "E2"),
                                    (1, "E2", e, "w")),
        # end terms at w, as for E2, so both top cells share their end terms
        c.cell_index("E1"): _tensor(z, c, (1, "w", e, "E1"),
                                    (1, "E1", e, "w"), (1, "b", tk, "m"),
                                    (1, "s", e, "T"), (1, "s", e, "d"),
                                    (-1, "s", e, "m"), (1, "s", tk, "m"),
                                    (1, "T", e, "s"), (1, "d", e, "s"),
                                    (t, "m", -1, "b"), (-1, "m", e, "s"),
                                    (t, "m", -1, "s")),
    }
    comp = BoundaryComponent(
        "torus", {0: (0,), 1: (0, 1, 2), 2: (0, 1)},
        _torus_boundary_group(), {"x": z.identity(), "y": 1},
        marked_disc=("d", "c"))
    return ChainPairData(c, {0: (0,), 1: (0, 1, 2), 2: (0, 1)}, diag,
                         boundary_components=[comp], top_cell="E2",
                         name="solid-torus-collared")


def build_lens(p: int) -> ChainPairData:
    """The lens space L(p, 1) as a closed pair over Z[Z/p]."""
    g = FiniteTable.cyclic(p, "g")
    gen = g.unit(1)
    norm = g.zero()
    for k in range(p):
        norm = norm + g.unit(k)
    c = LambdaComplex(
        g, {0: 1, 1: 1, 2: 1, 3: 1},
        {1: LambdaMatrix.from_rows(g, [[gen - 1]]),
         2: LambdaMatrix.from_rows(g, [[norm]]),
         3: LambdaMatrix.from_rows(g, [[gen - 1]])},
        augmentation=[g.one()],
        basis_names={0: ("v",), 1: ("e",), 2: ("F",), 3: ("E",)})
    e = g.identity()
    diag_f = _tensor(g, c, (1, "v", e, "F"), (1, "F", e, "v"),
                     *((g.unit(r), "e", g.mul(s, g.inv(r)), "e")
                       for r in range(p) for s in range(r + 1, p)))
    diag = {
        c.cell_index("v"): _tensor(g, c, (1, "v", e, "v")),
        c.cell_index("e"): _tensor(g, c, (1, "v", e, "e"), (1, "e", 1, "v")),
        c.cell_index("F"): diag_f,
        c.cell_index("E"): _tensor(g, c, (1, "v", e, "E"), (1, "E", 1, "v"),
                                   (1, "e", 1, "F"), (1, "F", e, "e")),
    }
    return ChainPairData(c, {}, diag, top_cell="E", name=f"lens-{p}")


# ---------------------------------------------------------------------------
# Deliberately broken fixtures


def build_broken_boundary_sign() -> ChainPairData:
    """Solid torus with one sign flipped in the torus relation.

    Still a complex with valid diagonal data, but the boundary surface
    degenerates and H_3 of the quotient dies: duality must fail.
    """
    base = build_solid_torus()
    z = base.model
    one = z.one()
    zero = z.zero()
    t = z.unit(1)
    c = LambdaComplex(
        z, dict(base.P.ranks),
        {1: base.P.boundary[1],
         2: LambdaMatrix.from_rows(z, [[one + t, zero, one],
                                       [zero, zero, zero],
                                       [-one, one, zero]]),
         3: LambdaMatrix.from_rows(z, [[one], [one], [-one - t]])},
        augmentation=[one],
        basis_names=base.P.basis_names)
    e = z.identity()
    diag = dict(base.diagonal)
    diag[c.cell_index("T")] = _tensor(
        z, c, (1, "v", e, "T"), (1, "T", e, "v"),
        (1, "b", 1, "a"), (-t, "a", -1, "b"))
    diag[c.cell_index("E")] = _tensor(
        z, c, (1, "v", e, "E"), (1, "E", e, "v"),
        (-1, "b", 1, "m"), (-t, "m", -1, "b"))
    comp = BoundaryComponent(
        "twisted-surface", {0: (0,), 1: (0, 1, 2), 2: (0, 1)}, None, {})
    return ChainPairData(c, dict(base.sub_cells), diag,
                         boundary_components=[comp], top_cell="E",
                         name="broken-boundary-sign")


def build_broken_doubled() -> ChainPairData:
    """Solid torus whose top cell runs over its boundary twice."""
    base = build_solid_torus()
    z = base.model
    one = z.one()
    t = z.unit(1)
    c = LambdaComplex(
        z, dict(base.P.ranks),
        {1: base.P.boundary[1], 2: base.P.boundary[2],
         3: LambdaMatrix.from_rows(z, [[2 * one], [2 * one],
                                       [2 * (t - 1)]])},
        augmentation=[one],
        basis_names=base.P.basis_names)
    e = z.identity()
    diag = dict(base.diagonal)
    diag[c.cell_index("E")] = _tensor(
        z, c, (1, "v", e, "E"), (1, "E", e, "v"),
        (2, "b", 1, "m"), (2 * t, "m", -1, "b"))
    comp = BoundaryComponent(
        "torus", {0: (0,), 1: (0, 1, 2), 2: (0, 1)},
        _torus_boundary_group(), {"x": z.identity(), "y": 1},
        marked_disc=("d", "c"))
    return ChainPairData(c, dict(base.sub_cells), diag,
                         boundary_components=[comp], top_cell="E",
                         name="broken-doubled")


def build_broken_noncycle() -> ChainPairData:
    """The sign-broken pair with an explicit non-cycle class override."""
    pair = build_broken_boundary_sign()
    pair.class_override = [1]
    pair.name = "broken-noncycle-class"
    return pair


# ---------------------------------------------------------------------------
# Catalog table


@dataclass
class CatalogEntry:
    name: str
    builder: object
    expected_status: str
    expected_homology: dict = field(default_factory=dict)
    # relative H_*(D; Z^omega) rows: degree -> (free rank, torsion tuple)


def _sum_entries(radius):
    from .pairs import verify_pd
    from .sums import SumRecipe, boundary_sum, interior_sum

    def two_copies(builder, kind, names):
        def build():
            left = builder()
            right = builder()
            verdicts = (verify_pd(left, radius), verify_pd(right, radius))
            if kind == "boundary":
                recipe = SumRecipe(kind, left, right, components=names)
                return boundary_sum(recipe, verdicts, radius).pair
            recipe = SumRecipe(kind, left, right, top_cells=names)
            return interior_sum(recipe, verdicts, radius).pair
        return build

    return [
        CatalogEntry("handlebody-genus-2",
                     two_copies(build_solid_torus, "boundary",
                                ("torus", "torus")),
                     "pass", {3: (1, ()), 2: (2, ())}),
        CatalogEntry("interior-sum-d3-d3",
                     two_copies(build_d3_collared, "interior", ("E2", "E2")),
                     "pass", {3: (1, ())}),
        CatalogEntry("interior-sum-st-st",
                     two_copies(build_solid_torus_collared, "interior",
                                ("E2", "E2")),
                     "pass", {3: (1, ())}),
    ]


def catalog_entries(radius: int = 4):
    """The catalog; the sum entries verify their operands and glue at
    radius."""
    entries = [
        CatalogEntry("d3", build_d3, "pass", {3: (1, ())}),
        CatalogEntry("d3-collared", build_d3_collared, "pass", {3: (1, ())}),
        CatalogEntry("solid-torus", build_solid_torus, "pass",
                     {3: (1, ()), 2: (1, ())}),
        CatalogEntry("solid-torus-collared", build_solid_torus_collared,
                     "pass", {3: (1, ())}),
        CatalogEntry("lens-2", lambda: build_lens(2), "pass",
                     {3: (1, ()), 2: (0, ()), 1: (0, (2,)), 0: (1, ())}),
        CatalogEntry("lens-3", lambda: build_lens(3), "pass",
                     {3: (1, ()), 2: (0, ()), 1: (0, (3,)), 0: (1, ())}),
        CatalogEntry("lens-5", lambda: build_lens(5), "pass",
                     {3: (1, ()), 2: (0, ()), 1: (0, (5,)), 0: (1, ())}),
    ]
    entries.extend(_sum_entries(radius))
    entries.extend([
        CatalogEntry("broken-boundary-sign", build_broken_boundary_sign,
                     "fail"),
        CatalogEntry("broken-doubled", build_broken_doubled, "fail"),
        CatalogEntry("broken-noncycle-class", build_broken_noncycle, "fail"),
    ])
    return entries
