"""Connected sums and realization round trips.

``PYTHONPATH=src python tests/test_sums.py`` re-records
``tests/golden/sums.json`` from the current tree; do that only for a change
that means to alter the pairs the sums build.
"""

import json
import pathlib

import pytest

from pdpairs.catalog import (
    build_d3,
    build_d3_collared,
    build_lens,
    build_solid_torus,
    build_solid_torus_collared,
)
from pdpairs.dsl import load_scenario
from pdpairs.groups import FiniteTable
from pdpairs.invariants import extract_triple, nu_difference_is_null, nu_of_pair
from pdpairs.chains import CoverContraction
from pdpairs.pairs import (
    ChainPairData,
    LambdaTensor,
    SurfaceDescription,
    transfer_diagonal,
    verify_pd,
)
from pdpairs.sums import (
    RealizationInput,
    SumError,
    SumRecipe,
    boundary_sum,
    decomposition_forward_check,
    export_realization_input,
    interior_sum,
    realize_free_case,
)

from oracles import free_resolution


def verified(builder):
    pair = builder()
    verdict = verify_pd(pair)
    assert verdict.passed()
    return pair, verdict


def interior(builder, tops=("E2", "E2")):
    left, lv = verified(builder)
    right, rv = verified(builder)
    recipe = SumRecipe("interior", left, right, top_cells=tops)
    return interior_sum(recipe, (lv, rv)), (lv, rv)


def test_interior_sum_d3_passes_and_adds_classes():
    outcome, (lv, rv) = interior(build_d3_collared)
    verdict = verify_pd(outcome.pair)
    assert verdict.passed()
    h = outcome.pair.D.tensor_Zomega().homology(3)
    assert h.is_infinite_cyclic()
    rep = decomposition_forward_check(outcome, verdict, (lv, rv))
    assert rep.passed(), rep.details


def test_interior_sum_with_ball_is_like_the_operand():
    # summing with the collared ball must not change relative homology
    st, sv = verified(build_solid_torus_collared)
    ball, bv = verified(build_d3_collared)
    recipe = SumRecipe("interior", st, ball, top_cells=("E2", "E2"))
    outcome = interior_sum(recipe, (sv, bv))
    verdict = verify_pd(outcome.pair)
    assert verdict.passed()
    ha = outcome.pair.D.tensor_Zomega().all_homology()
    hb = st.D.tensor_Zomega().all_homology()
    for d in (2, 3):
        assert (ha[d].free_rank, ha[d].torsion) == \
            (hb[d].free_rank, hb[d].torsion)


def test_interior_sum_rejects_boundary_touching_top():
    left, lv = verified(build_d3)
    right, rv = verified(build_d3)
    recipe = SumRecipe("interior", left, right, top_cells=("E", "E"))
    with pytest.raises(SumError, match="touches the boundary"):
        interior_sum(recipe, (lv, rv))


def test_interior_sum_mu_additivity_exact():
    outcome, (lv, rv) = interior(build_solid_torus_collared)
    verdict = verify_pd(outcome.pair)
    assert verdict.passed()
    triple = extract_triple(outcome.pair, verdict)
    pair = outcome.pair
    n = 3
    operands = (outcome.recipe.left, outcome.recipe.right)
    verdicts = (lv, rv)
    for k, (src, sv) in enumerate(zip(operands, verdicts)):
        top = src.cell(outcome.recipe.top_cells[k])
        mu_src = sv.fundamental_class
        for j, i in enumerate(src._d_cells[n]):
            if (n, i) == top:
                idx = pair.d_index[pair.cell(outcome.new_top)]
            else:
                idx = pair.d_index[outcome.cell_maps[k][(n, i)]]
            assert triple.mu[idx] == mu_src[j]


def test_boundary_sum_is_genus_two_handlebody():
    left, lv = verified(build_solid_torus)
    right, rv = verified(build_solid_torus)
    recipe = SumRecipe("boundary", left, right,
                       components=("torus", "torus"))
    outcome = boundary_sum(recipe, (lv, rv))
    pair = outcome.pair
    verdict = verify_pd(pair)
    assert verdict.passed()
    # Euler characteristic of the merged boundary surface is -2
    comp = pair.boundary_components[0]
    euler = sum(((-1) ** d) * len(idxs) for d, idxs in comp.cells.items())
    assert euler == -2
    assert isinstance(comp.group, SurfaceDescription)
    rep = decomposition_forward_check(outcome, verdict, (lv, rv))
    assert rep.passed(), rep.details


def test_boundary_sum_of_balls_is_a_ball():
    # need marked discs: the ball catalog model has none, so expect the
    # documented error
    left, lv = verified(build_d3)
    right, rv = verified(build_d3)
    recipe = SumRecipe("boundary", left, right,
                       components=("sphere", "sphere"))
    with pytest.raises(SumError, match="marked disc"):
        boundary_sum(recipe, (lv, rv))


def test_boundary_sum_requires_verified_operands():
    from pdpairs.catalog import build_broken_boundary_sign
    broken = build_broken_boundary_sign()
    good, gv = verified(build_solid_torus)
    recipe = SumRecipe("boundary", broken, good,
                       components=("twisted-surface", "torus"))
    with pytest.raises(SumError, match="not a verified"):
        boundary_sum(recipe, (verify_pd(broken), gv))


def test_export_and_realize_round_trip():
    for builder in (build_d3, build_solid_torus, lambda: build_lens(2),
                    lambda: build_lens(3)):
        pair, verdict = verified(builder)
        inp = export_realization_input(pair, verdict)
        outcome = realize_free_case(inp)
        assert outcome.verdict.passed(), pair.name
        assert not outcome.contradiction
        nu1 = nu_of_pair(pair, verdict.fundamental_class)
        nu2 = nu_of_pair(outcome.pair,
                         outcome.verdict.fundamental_class)
        assert nu_difference_is_null(nu1, nu2) == "yes", pair.name
        # same boundary component structure
        assert [c.name for c in outcome.pair.boundary_components] == \
            [c.name for c in pair.boundary_components]


def test_realize_exact_rebuild_for_lens():
    pair, verdict = verified(lambda: build_lens(3))
    inp = export_realization_input(pair, verdict)
    outcome = realize_free_case(inp)
    assert outcome.pair.P.boundary_or_zero(3) == pair.P.boundary_or_zero(3)


def test_realize_missing_factorization():
    pair, verdict = verified(build_d3)
    inp = export_realization_input(pair, verdict)
    inp.factorization = None
    with pytest.raises(SumError, match="factorization"):
        realize_free_case(inp)


def test_realize_detects_mismatched_factorization():
    pair, verdict = verified(lambda: build_lens(3))
    inp = export_realization_input(pair, verdict)
    from pdpairs.chains import LambdaMatrix
    inp.factorization.middle = LambdaMatrix.identity(pair.model, 2)
    with pytest.raises(SumError, match="does not match"):
        realize_free_case(inp)


def _diagonal_spy(monkeypatch):
    """Each diagonal realize transfers, and its calls of the search."""
    import pdpairs.sums as sums
    seen = {"transferred": [], "searched": []}
    real_transfer = sums.transfer_diagonal
    real_search = sums.solve_diagonal_cell

    def transfer(s, complex_, diagonal, cell):
        out = real_transfer(s, complex_, diagonal, cell)
        seen["transferred"].append((cell, out))
        return out

    def search(complex_, diagonal, cell, **kwargs):
        seen["searched"].append(cell)
        return real_search(complex_, diagonal, cell, **kwargs)

    monkeypatch.setattr(sums, "transfer_diagonal", transfer)
    monkeypatch.setattr(sums, "solve_diagonal_cell", search)
    return seen


def _assert_diagonal_laws(pair, cell):
    """The chain-map law and both counits at one cell, written out."""
    P, tensor = pair.P, pair.diagonal[cell]
    bd = P.boundary_or_zero(cell[0])
    target = LambdaTensor(P.model)
    for m in range(bd.rows):
        entry = bd.data[m][cell[1]]
        if not entry.is_zero():
            target = target + pair.diagonal[(cell[0] - 1, m)].scale_ring(entry)
    assert (tensor.boundary(P, P) - target).is_zero()
    assert tensor.left_counit(P) == {cell: P.model.one()}
    assert tensor.right_counit(P) == {cell: P.model.one()}


def _transferred(complex_, vertex_diagonal):
    """Every diagonal of complex_ transferred up from its vertices'."""
    s = CoverContraction(complex_)
    diagonal = dict(vertex_diagonal)
    for d in (1, 2, 3):
        for i in range(complex_.rank(d)):
            diagonal[(d, i)] = transfer_diagonal(s, complex_, diagonal, (d, i))
    return diagonal


def test_transfer_rebuilds_the_lens_diagonals():
    # transferred up from the vertex, every diagonal of L(p,1) is the
    # hand-written one, the norm sum of the 2-cell's included
    for p in range(2, 41):
        pair = build_lens(p)
        diagonal = _transferred(pair.P, {(0, 0): pair.diagonal[(0, 0)]})
        assert diagonal == pair.diagonal, p
        rebuilt = ChainPairData(pair.P, {}, diagonal, top_cell="E")
        for cell in diagonal:
            _assert_diagonal_laws(rebuilt, cell)
        assert verify_pd(rebuilt).passed(), p


def test_transfer_gives_a_resolution_of_s3_a_diagonal():
    resolution = free_resolution(FiniteTable.symmetric3())
    model = resolution.model
    vertex = LambdaTensor(model)
    vertex.add_term((0, 0), model.identity(), (0, 0), model.one())
    diagonal = _transferred(resolution, {(0, 0): vertex})
    assert None not in diagonal.values()
    pair = ChainPairData(resolution, {}, diagonal)
    for cell in diagonal:
        _assert_diagonal_laws(pair, cell)
    # some coefficient is a group element other than 1, so each term's
    # return to orbit form is seen
    assert any(k != model.identity() for t in diagonal.values()
               for coeff in t.terms.values() for k in coeff.support)


@pytest.mark.parametrize("builder", [build_d3] + [
    (lambda p: lambda: build_lens(p))(p) for p in range(2, 15)],
    ids=["d3"] + [f"lens-{p}" for p in range(2, 15)])
def test_realized_cells_over_finite_pi_are_transferred(monkeypatch, builder):
    seen = _diagonal_spy(monkeypatch)
    pair, verdict = verified(builder)
    outcome = realize_free_case(export_realization_input(pair, verdict))
    assert seen["searched"] == []
    assert seen["transferred"]
    for cell, tensor in seen["transferred"]:
        assert tensor is not None and outcome.pair.diagonal[cell] is tensor
        _assert_diagonal_laws(outcome.pair, cell)
    assert outcome.verdict.passed()


def test_realize_searches_where_the_cover_has_homology(monkeypatch):
    # over the trivial group: vertices v, w joined by an edge, and two
    # 2-spheres at w whose sum bounds the new 3-cell; e1 alone is a
    # 2-cycle of the cover that bounds nothing, so the transfer fails and
    # realize falls back on the search
    from pdpairs.chains import LambdaComplex, LambdaMatrix
    from pdpairs.groups import TrivialGroup
    from pdpairs.sums import _assemble_realized
    triv = TrivialGroup()
    one, e = triv.one(), triv.identity()
    P = LambdaComplex(triv, {0: 2, 1: 1, 2: 2},
                      {1: LambdaMatrix.from_rows(triv, [[-one], [one]])},
                      augmentation=[one, one],
                      basis_names={0: ("v", "w"), 1: ("a",),
                                   2: ("e1", "e2")})
    v, w, a = (0, 0), (0, 1), (1, 0)

    def tensor(*terms):
        out = LambdaTensor(triv)
        for left, right in terms:
            out.add_term(left, e, right, one)
        return out

    diagonal = {v: tensor((v, v)), w: tensor((w, w)),
                a: tensor((v, a), (a, w))}
    for i in range(2):
        diagonal[(2, i)] = tensor((w, (2, i)), ((2, i), w))
    skeleton = ChainPairData(P, {}, diagonal, name="spheres")
    seen = _diagonal_spy(monkeypatch)
    d3_rel = LambdaMatrix.from_rows(triv, [[one], [one]])
    outcome = _assemble_realized(skeleton, d3_rel,
                                 RealizationInput(skeleton, None, {}), 4)
    assert seen["transferred"] == [((3, 0), None)]
    assert seen["searched"] == [(3, 0)]
    _assert_diagonal_laws(outcome.pair, (3, 0))


# ---------------------------------------------------------------------------
# Golden sums: every cell, entry and diagonal term, in iteration order

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "sums.json"
FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "pdpairs" \
    / "fixtures"


def _fixture(name):
    scenario = load_scenario((FIXTURES / name).read_text())
    return scenario.pairs[sorted(scenario.pairs)[0]]


def _interior_of(left, right, tops):
    recipe = SumRecipe("interior", left, right, top_cells=tops)
    return interior_sum(recipe, (verify_pd(left), verify_pd(right)))


def _boundary_of(left, right, comps):
    recipe = SumRecipe("boundary", left, right, components=comps)
    return boundary_sum(recipe, (verify_pd(left), verify_pd(right)))


def _triple_sum(build):
    acc = _interior_of(build(), build(), ("E2", "E2")).pair
    return _interior_of(acc, build(), ("Esum", "E2"))


def golden_sums():
    """Name -> builder of every sum whose pair the golden file pins."""
    return {
        "d3c#d3c": lambda: _interior_of(build_d3_collared(),
                                        build_d3_collared(), ("E2", "E2")),
        "stc#stc": lambda: _interior_of(build_solid_torus_collared(),
                                        build_solid_torus_collared(),
                                        ("E2", "E2")),
        "stc#d3c": lambda: _interior_of(build_solid_torus_collared(),
                                        build_d3_collared(), ("E2", "E2")),
        "L(2,1)#L(3,1)": lambda: _interior_of(build_lens(2), build_lens(3),
                                              ("E", "E")),
        "L(3,1)#L(3,1)": lambda: _interior_of(build_lens(3), build_lens(3),
                                              ("E", "E")),
        "solid_torus.pdp&solid_torus.pdp": lambda: _boundary_of(
            _fixture("solid_torus.pdp"), _fixture("solid_torus.pdp"),
            ("torus", "torus")),
        "st#st#st": lambda: _triple_sum(build_solid_torus_collared),
        "d3#d3#d3": lambda: _triple_sum(build_d3_collared),
        "handlebody-genus-2": lambda: _boundary_of(
            build_solid_torus(), build_solid_torus(), ("torus", "torus")),
    }


def _ring(e):
    return [[repr(k), c] for k, c in e.support.items()]


def _group(group):
    if isinstance(group, SurfaceDescription):
        return [group.name, list(group.gens), list(group.relators)]
    return type(group).__name__


def fingerprint(outcome):
    """The sum's pair and cell maps; every dict becomes a list in its order."""
    pair = outcome.pair
    P = pair.P
    return {
        "names": [[d, list(P.basis_names[d])] for d in P.degrees()],
        "augmentation": [_ring(e) for e in P.augmentation],
        "boundary": [[d, [[r, c, _ring(e)]
                          for r, row in enumerate(m.data)
                          for c, e in enumerate(row) if not e.is_zero()]]
                     for d, m in P.boundary.items()],
        "diagonal": [[list(cell), [[list(a), repr(g), list(b), _ring(x)]
                                    for (a, g, b), x in t.terms.items()]]
                     for cell, t in pair.diagonal.items()],
        "sub_cells": [[d, list(idxs)] for d, idxs in pair.sub_cells.items()],
        "components": [{"name": comp.name,
                        "cells": [[d, list(idxs)]
                                  for d, idxs in comp.cells.items()],
                        "group": _group(comp.group),
                        "kappa": [[g, repr(key)]
                                  for g, key in comp.kappa.items()],
                        "marked_disc": comp.marked_disc and
                        list(comp.marked_disc)}
                       for comp in pair.boundary_components],
        "top_cell": pair.top_cell,
        "name": pair.name,
        "cell_maps": [[[list(a), list(b)] for a, b in cm.items()]
                      for cm in outcome.cell_maps],
        "new_top": outcome.new_top,
        "merged_component": outcome.merged_component,
    }


def record_golden():
    runs = {name: fingerprint(build())
            for name, build in golden_sums().items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(runs, indent=1) + "\n")


@pytest.mark.parametrize("name", list(golden_sums()))
def test_sum_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(golden_sums())
    got = json.loads(json.dumps(fingerprint(golden_sums()[name]())))
    assert got == golden[name]


if __name__ == "__main__":
    record_golden()
