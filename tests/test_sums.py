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
from pdpairs.invariants import extract_triple, nu_difference_is_null, nu_of_pair
from pdpairs.pairs import SurfaceDescription, verify_pd
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
