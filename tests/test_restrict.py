"""Restriction of a pair to a set of its cells.

The quotient Q and D, the maps between P, Q and D, the boundary pair, a
boundary component's integer complex, the realization 2-skeleton and the
splitting pieces are all cuts of one pair along a set of cells.  Each is
checked against the hand-made cut it replaced (tests/oracles.py) on every
catalog pair, every golden sum and every fixture pair, and the restriction
itself is checked on random cell subsets.
"""

import functools
import pathlib
import types

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    boundary_pair_reference,
    component_subcomplex_reference,
    pair_maps_reference,
    quotient_reference,
    restrict_pair_reference,
    skeleton_reference,
)
from pdpairs import sums
from pdpairs.catalog import catalog_entries
from pdpairs.chains import LambdaComplex
from pdpairs.dsl import load_scenario
from pdpairs.groups import TrivialGroup
from pdpairs.pairs import (
    ChainPairData,
    LambdaTensor,
    PairError,
    PDVerdict,
    boundary_pair,
    restrict_pair,
)

from test_sums import golden_sums

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "pdpairs" \
    / "fixtures"


def _fixture_pairs():
    out = {}
    for path in sorted(FIXTURES.glob("*.pdp")):
        try:
            scenario = load_scenario(path.read_text())
        except ValueError:
            continue  # the negative fixtures that do not load
        for name, pair in sorted(scenario.pairs.items()):
            out[f"{path.name}:{name}"] = pair
    return out


@functools.lru_cache(maxsize=None)
def all_pairs():
    """Name -> pair: the catalog, the golden sums and the fixture pairs."""
    pairs = {f"catalog:{e.name}": e.builder() for e in catalog_entries()}
    pairs.update({f"sum:{name}": build().pair
                  for name, build in golden_sums().items()})
    pairs.update(_fixture_pairs())
    return pairs


NAMES = sorted(all_pairs())


def _span(c):
    """The degrees where a boundary of c can be nonempty."""
    return range(min(c.ranks, default=0), max(c.ranks, default=0) + 2)


def complex_key(c):
    """Everything a restriction sets on a complex, comparable with ==."""
    return (c.model, c.ranks,
            [(d, c.boundary_or_zero(d)) for d in _span(c)],
            c.augmentation,
            {d: tuple(ns) for d, ns in (c.basis_names or {}).items()})


def int_complex_key(c):
    boundaries = [(d, c.boundary_or_zero(d)) for d in _span(c)]
    return c.ranks, [(d, m.rows, m.cols, m.data) for d, m in boundaries]


def pair_key(pair, marked_discs=True):
    comps = [(c.name, {d: tuple(v) for d, v in c.cells.items()}, c.group,
              c.kappa, c.marked_disc if marked_discs else None)
             for c in pair.boundary_components]
    return (complex_key(pair.P), pair.sub_cells, pair.diagonal, comps,
            pair.name, complex_key(pair.Q), complex_key(pair.D),
            pair.q_index, pair.d_index)


def outcome(fn, *args):
    """The value of fn, or the message of the PairError it raises."""
    try:
        return fn(*args)
    except PairError as exc:
        return f"PairError: {exc}"


@pytest.mark.parametrize("name", NAMES)
def test_quotient_and_maps_match_reference(name):
    pair = all_pairs()[name]
    Q, D, q_index, d_index = quotient_reference(pair)
    assert complex_key(pair.Q) == complex_key(Q)
    assert complex_key(pair.D) == complex_key(D)
    assert (pair.q_index, pair.d_index) == (q_index, d_index)
    maps = {"inclusion": pair.inclusion_map(),
            "projection": pair.projection_map(),
            "connecting": pair.connecting_map(),
            "dual_connecting": pair.dual_connecting_map()}
    for label, ref in pair_maps_reference(pair).items():
        assert maps[label].components == ref, label
    assert complex_key(maps["dual_connecting"].source) == \
        complex_key(pair.Q.hom_dual())
    assert complex_key(maps["dual_connecting"].target) == \
        complex_key(pair.D.hom_dual())


@pytest.mark.parametrize("name", NAMES)
def test_boundary_pair_matches_reference(name):
    pair = all_pairs()[name]
    # the hand-made boundary pair dropped the marked discs; restrict keeps
    # them, and nothing on the boundary pair reads them
    assert pair_key(boundary_pair(pair), marked_discs=False) == \
        pair_key(boundary_pair_reference(pair), marked_discs=False)


@pytest.mark.parametrize("name", NAMES)
def test_component_subcomplexes_match_reference(name):
    pair = all_pairs()[name]
    for comp in pair.boundary_components:
        got = pair.component_subcomplex(comp)
        ref = component_subcomplex_reference(pair, comp)
        assert int_complex_key(got) == int_complex_key(ref)
        for d in range(3):
            assert got.homology(d).describe() == ref.homology(d).describe()


@pytest.mark.parametrize("name", NAMES)
def test_realization_skeleton_matches_reference(name, monkeypatch):
    pair = all_pairs()[name]
    if pair.dimension != 3:
        pytest.skip("realization handles 3-dimensional pairs")
    # the skeleton alone: nu and its factorization are not this test's
    monkeypatch.setattr(sums, "compute_nu",
                        lambda *args: types.SimpleNamespace(morphism=None))
    monkeypatch.setattr(sums, "search_factorization", lambda *args: None)

    def export(p):
        return sums.export_realization_input(p, PDVerdict("pass")).skeleton

    assert outcome(lambda p: pair_key(export(p)), pair) == \
        outcome(lambda p: pair_key(skeleton_reference(p)), pair)


def _closure(pair, cells):
    """The smallest boundary-closed set of P-cells holding cells."""
    out, todo = set(), list(cells)
    while todo:
        d, i = todo.pop()
        if (d, i) in out:
            continue
        out.add((d, i))
        bd = pair.P.boundary_or_zero(d)
        todo.extend((d - 1, r) for r in range(bd.rows)
                    if not bd.data[r][i].is_zero())
    return out


def _all_cells(pair):
    return {(d, i) for d in pair.P.degrees() for i in range(pair.P.rank(d))}


def _pieces(pair):
    """Closed cell sets to cut along: the whole pair, its subcomplex, its
    2-skeleton, each boundary component and each top cell's closure."""
    every = _all_cells(pair)
    pieces = [every, set(pair.q_index),
              {c for c in every if c[0] <= 2}]
    pieces += [comp.cell_set() for comp in pair.boundary_components]
    n = pair.dimension
    pieces += [_closure(pair, [(n, i)]) for i in range(pair.P.rank(n))]
    return [p for p in pieces if p]


def _same_restriction(pair, keep, new_sub):
    got = outcome(lambda: pair_key(restrict_pair(pair, keep, new_sub, "x")))
    ref = outcome(lambda: pair_key(
        restrict_pair_reference(pair, keep, new_sub, "x")))
    return got, ref


@pytest.mark.parametrize("name", NAMES)
def test_restrict_pair_pieces_match_reference(name):
    pair = all_pairs()[name]
    sub = set(pair.q_index)
    for keep in _pieces(pair):
        got, ref = _same_restriction(pair, keep, sub & keep)
        assert got == ref


def test_algebraic_sum_pieces_match_reference(monkeypatch):
    from pdpairs import pairs
    pair = all_pairs()["sum:d3c#d3c"]
    calls = []

    def spy(p, keep, new_sub, name=""):
        calls.append(name)
        got, ref = _same_restriction(p, keep, new_sub)
        assert got == ref
        return restrict_pair(p, keep, new_sub, name)

    monkeypatch.setattr(pairs, "restrict_pair", spy)
    assign = {}
    for d in pair.P.degrees():
        for i in range(pair.P.rank(d)):
            nm = pair.P.name_of(d, i)
            if nm in ("v", "Fm.2"):
                assign[nm] = 0
            elif nm.endswith(".1") or nm == "Esum":
                assign[nm] = 1
            else:
                assign[nm] = 2
    assert pairs.algebraic_sum(pair, assign).all_pass()
    assert len(calls) == 3


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_restriction_of_random_cell_sets(data):
    pair = all_pairs()[data.draw(st.sampled_from(NAMES))]
    cells = sorted(_all_cells(pair))
    drawn = data.draw(st.sets(st.sampled_from(cells), min_size=1))
    sub = set(pair.q_index)
    got, ref = _same_restriction(pair, drawn, sub & drawn)
    assert got == ref
    closed = _closure(pair, drawn)
    if closed != drawn:
        assert got.startswith("PairError: partition not closed")
        return
    escapes = any(a not in drawn or b not in drawn
                  for cell in drawn for (a, _, b) in pair.diagonal[cell].terms)
    if escapes:
        assert got.startswith("PairError: diagonal of")
        assert got.endswith("leaves the sub-pair")
        return
    # a closed set the diagonal does not leave restricts to a valid pair
    piece = restrict_pair(pair, drawn, sub & drawn)
    piece.validate()
    assert sorted(piece.P.ranks.items()) == sorted(
        (d, sum(1 for c in drawn if c[0] == d))
        for d in {c[0] for c in drawn})


def _circle():
    """S^1 with one vertex v and one loop e of zero boundary."""
    triv = TrivialGroup()
    one = triv.one()
    c = LambdaComplex(triv, {0: 1, 1: 1}, {}, augmentation=[one],
                      basis_names={0: ("v",), 1: ("e",)})
    diag = {
        (0, 0): LambdaTensor(triv, {((0, 0), (), (0, 0)): one}),
        (1, 0): LambdaTensor(triv, {((0, 0), (), (1, 0)): one,
                                    ((1, 0), (), (0, 0)): one}),
    }
    return ChainPairData(c, {}, diag, name="circle")


def test_restrict_rejects_a_diagonal_that_leaves_the_kept_cells():
    pair = _circle()
    # {e} is closed under the boundary (d e = 0), but e's diagonal is on v
    with pytest.raises(PairError, match="diagonal of e leaves the sub-pair"):
        restrict_pair(pair, {(1, 0)}, set())
    with pytest.raises(PairError, match="leaves the sub-pair"):
        pair.restrict({1: [0]}, {}, [])
    assert pair.restrict({0: [0]}, {}, []).P.ranks == {0: 1}


def test_restrict_rejects_a_set_not_closed_under_the_boundary():
    pair = all_pairs()["catalog:d3"]
    with pytest.raises(PairError, match="partition not closed"):
        pair.restrict({3: [0]}, {}, [])
