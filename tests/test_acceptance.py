"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with -s to see the lines; every tolerance here is exact (the subject
is exact algebra, so there are no numerical tolerances to tune).
"""

import json
import pathlib
import random
import time

import pytest

from pdpairs.catalog import catalog_entries
from pdpairs.chains import eta_matrix, compose, LambdaMatrix
from pdpairs.dsl import ParseError, SemanticError, load_scenario, parse, \
    print_document
from pdpairs.groups import FiniteTable, InfiniteCyclic, TrivialGroup
from pdpairs.intlinalg import IntMatrix, homology_at, snf
from pdpairs.invariants import check_realisation_necessity, extract_triple, \
    nu_difference_is_null, nu_of_pair
from pdpairs.pairs import (algebraic_sum, cap_top_identity,
                           check_cap_top_identity, verify_ladder, verify_pd)
from pdpairs.report import verdict_report
from pdpairs.sums import (SumRecipe, boundary_sum, decomposition_forward_check,
                          export_realization_input, interior_sum,
                          realize_free_case)

import oracles

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "pdpairs" \
    / "fixtures"


def tell(criterion, ok, detail=""):
    badge = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {badge}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def catalog():
    entries = {}
    for entry in catalog_entries():
        pair = entry.builder()
        verdict = verify_pd(pair)
        entries[entry.name] = (entry, pair, verdict)
    return entries


def test_criterion_1_catalog_duality(catalog):
    t0 = time.time()
    required = ["d3", "solid-torus", "handlebody-genus-2",
                "lens-2", "lens-3", "lens-5"]
    for name in required:
        entry, pair, verdict = catalog[name]
        assert verdict.passed(), (name, verdict.reason)
        for deg, (free, torsion) in entry.expected_homology.items():
            h = pair.D.tensor_Zomega().homology(deg)
            assert (h.free_rank, tuple(h.torsion)) == (free, tuple(torsion))
    elapsed = time.time() - t0
    broken = [name for name in ("broken-boundary-sign", "broken-doubled",
                                "broken-noncycle-class")
              if catalog[name][2].status == "fail"]
    ok = len(broken) >= 2 and elapsed < 60
    tell(1, ok, f"6 catalog pairs pass in {elapsed:.1f}s (< 60s); "
                f"{len(broken)} broken fixtures fail")


def test_criterion_2_cap_product_ladder(catalog):
    tables = {}
    for name, (entry, pair, verdict) in sorted(catalog.items()):
        if not verdict.passed():
            continue
        rep1 = verify_ladder(pair, verdict.fundamental_class)
        rep2 = verify_ladder(pair, verdict.fundamental_class)
        assert rep1.status == "pass", (name, rep1.sign_table())
        b1 = json.dumps(rep1.sign_table(), sort_keys=True).encode()
        b2 = json.dumps(rep2.sign_table(), sort_keys=True).encode()
        assert b1 == b2, f"{name}: sign table not byte-stable"
        tables[name] = rep1.sign_table()
    tell(2, len(tables) >= 9,
         f"ladder commutes up to sign on {len(tables)} pass pairs; "
         "sign tables byte-stable")


def test_criterion_3_cap_with_generator_identity(catalog):
    rng = random.Random(20260808)
    checked = 0
    for name, (entry, pair, verdict) in sorted(catalog.items()):
        if not verdict.passed():
            continue
        x = verdict.fundamental_class
        w1 = cap_top_identity(pair, x)
        assert w1 is not None, f"{name}: no w1 found"
        ball = pair.model.ball(2)
        for _ in range(20):
            phi = [sum((pair.model.unit(ball[rng.randrange(len(ball))],
                                        rng.randint(-3, 3))
                        for _ in range(2)), pair.model.zero())
                   for _ in range(pair.D.rank(pair.dimension))]
            assert check_cap_top_identity(pair, x, w1, phi), name
        checked += 1
    tell(3, checked >= 9,
         f"exact chain identity with explicit w1 on {checked} pass pairs "
         "x 20 random cocycles")


def test_criterion_4_sum_theorem(catalog):
    # interior sum of collared balls
    _, ball_pair, _ = catalog["interior-sum-d3-d3"]
    assign = {}
    for d in ball_pair.P.degrees():
        for i in range(ball_pair.P.rank(d)):
            nm = ball_pair.P.name_of(d, i)
            if nm in ("v", "Fm.2"):
                assign[nm] = 0
            elif nm.endswith(".1") or nm == "Esum":
                assign[nm] = 1
            else:
                assign[nm] = 2
    conds1 = algebraic_sum(ball_pair, assign)
    # boundary sum of the solid tori, split at the identified disc
    _, hb_pair, _ = catalog["handlebody-genus-2"]
    assign = {}
    for d in hb_pair.P.degrees():
        for i in range(hb_pair.P.rank(d)):
            nm = hb_pair.P.name_of(d, i)
            if nm in ("v.1", "c.1", "d.1"):
                assign[nm] = 0
            elif nm.endswith(".1"):
                assign[nm] = 1
            else:
                assign[nm] = 2
    conds2 = algebraic_sum(hb_pair, assign)
    ok = True
    for label, conds in (("interior", conds1), ("boundary", conds2)):
        ok = ok and conds.all_pass()
        ok = ok and all(im["confirmed"] for im in conds.implications)
    tell(4, ok, "conditions (1)-(3) all hold and pairwise imply the third "
                "on both constructed decompositions")


def test_criterion_5_realisation_necessity(catalog):
    count = 0
    witness_ok = False
    for name, (entry, pair, verdict) in sorted(catalog.items()):
        if not verdict.passed():
            continue
        rep = check_realisation_necessity(pair, verdict)
        assert rep.status() == "homotopy-equivalence", name
        if name == "solid-torus":
            model = pair.model
            witness_ok = rep.nu.raw_images == [model.unit(-1) - 1]
        count += 1
    tell(5, count >= 9 and witness_ok,
         f"nu is a homotopy equivalence on {count} pass pairs; "
         "solid-torus witness is 1 -> t^-1 - 1 exactly")


def test_criterion_6_realization_round_trip(catalog):
    names = ["d3", "solid-torus", "lens-2", "lens-3", "lens-5"]
    results = []
    for name in names:
        entry, pair, verdict = catalog[name]
        inp = export_realization_input(pair, verdict)
        outcome = realize_free_case(inp)
        assert outcome.verdict.passed(), name
        nu1 = nu_of_pair(pair, verdict.fundamental_class)
        nu2 = nu_of_pair(outcome.pair, outcome.verdict.fundamental_class)
        assert nu_difference_is_null(nu1, nu2) == "yes", name
        t1 = extract_triple(pair, verdict)
        t2 = extract_triple(outcome.pair, outcome.verdict)
        assert [c.name for c in t1.system] == [c.name for c in t2.system]
        assert all(t1.system[k].kappa == t2.system[k].kappa
                   for k in range(len(t1.system)))
        results.append(name)
    tell(6, len(results) == len(names) and len(names) >= 5,
         f"rebuilt pairs pass and triples agree under the identity for "
         f"{results}")


def test_criterion_7_mu_additivity(catalog):
    checks = []
    for builder_name, tops in (("d3-collared", ("E2", "E2")),
                               ("solid-torus-collared", ("E2", "E2"))):
        entry, left, lv = catalog[builder_name]
        right = entry.builder()
        rv = verify_pd(right)
        outcome = interior_sum(
            SumRecipe("interior", left, right, top_cells=tops), (lv, rv))
        sv = verify_pd(outcome.pair)
        assert sv.passed()
        triple = extract_triple(outcome.pair, sv)
        n = outcome.pair.dimension
        exact = True
        for k, (src, srcv) in enumerate(((left, lv), (right, rv))):
            top = src.cell(tops[k])
            for j, i in enumerate(src._d_cells[n]):
                idx = outcome.pair.d_index[
                    outcome.pair.cell(outcome.new_top)] if (n, i) == top \
                    else outcome.pair.d_index[outcome.cell_maps[k][(n, i)]]
                exact = exact and triple.mu[idx] == srcv.fundamental_class[j]
        rep = decomposition_forward_check(outcome, sv, (lv, rv))
        checks.append(exact and rep.passed())
    # boundary sum forward check
    entry, left, lv = catalog["solid-torus"]
    right = entry.builder()
    rv = verify_pd(right)
    outcome = boundary_sum(SumRecipe("boundary", left, right,
                                     components=("torus", "torus")),
                           (lv, rv))
    sv = verify_pd(outcome.pair)
    rep = decomposition_forward_check(outcome, sv, (lv, rv))
    checks.append(rep.passed())
    tell(7, all(checks),
         "mu additivity exact and forward decomposition checks pass on all "
         "constructed sums")


def test_criterion_8_exact_linalg_oracles():
    rng = random.Random(5)
    count = 0
    for _ in range(500):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)]
        A = IntMatrix.from_rows(rows)
        res = snf(A)
        assert res.diag == oracles.minors_gcd_invariant_factors(rows, m, n)
        D = oracles.diagonal_matrix(res)
        assert oracles.mat_mul(oracles.mat_mul(res.U, A), res.V) == D
        count += 1
    # homology against the independent kernel/minors oracle
    hcount = 0
    for _ in range(150):
        n1 = rng.randint(1, 5)
        n2 = rng.randint(1, 5)
        n0 = rng.randint(1, 5)
        d2 = [[rng.randint(-3, 3) for _ in range(n2)] for _ in range(n1)]
        # force a complex: compose with zero d1
        d1 = [[0] * n1 for _ in range(n0)]
        h = homology_at(IntMatrix.from_rows(d2),
                        IntMatrix.from_rows(d1))
        free, torsion = oracles.homology_oracle(d2, (n1, n2), d1, (n0, n1))
        assert (h.free_rank, h.torsion) == (free, torsion)
        hcount += 1
    # eta invertibility on free modules up to rank 5
    eta_count = 0
    for model in (TrivialGroup(), FiniteTable.cyclic(2, "s"),
                  FiniteTable.cyclic(3, "g"), InfiniteCyclic("t")):
        for rank in range(1, 6):
            e = eta_matrix(model, rank)
            assert compose(e, e) == LambdaMatrix.identity(model, rank)
            eta_count += 1
    tell(8, count == 500 and hcount == 150 and eta_count == 20,
         f"SNF oracle agreement on {count} matrices, homology oracle on "
         f"{hcount} complexes, eta invertible on {eta_count} free modules")


def test_criterion_9_parser():
    good = ["d3.pdp", "solid_torus.pdp", "lens_3.pdp", "torus_delta.pdp",
            "broken_sign.pdp", "broken_noncycle.pdp"]
    for name in good:
        text = (FIXTURES / name).read_text()
        doc = parse(text)
        printed = print_document(doc)
        assert print_document(parse(printed)) == printed, name
        load_scenario(text)
    neg_ok = 0
    try:
        parse((FIXTURES / "bad_token.pdp").read_text())
    except ParseError as exc:
        assert exc.line and exc.col
        neg_ok += 1
    try:
        load_scenario((FIXTURES / "bad_matrix.pdp").read_text())
    except SemanticError as exc:
        assert "boundary 1" in str(exc) and "expected 3" in str(exc)
        neg_ok += 1
    try:
        load_scenario((FIXTURES / "broken_dsq.pdp").read_text())
    except SemanticError as exc:
        assert "d.d != 0" in str(exc)
        neg_ok += 1
    # --json schema of the verify report
    from pdpairs.cli import main
    import io
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", str(FIXTURES / "solid_torus.pdp"), "--json"])
    data = json.loads(buf.getvalue())
    schema_ok = {"status", "degree_certificates", "sign_table", "witnesses",
                 "timings"} <= set(data) and code == 0
    tell(9, neg_ok == 3 and schema_ok,
         "all fixtures round-trip, negative fixtures raise the documented "
         "error classes, --json schema validated")
