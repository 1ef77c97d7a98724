"""The benchmark's workloads: inputs, tasks and the facts each task yields.

A task is one user-level request (what one ``pdpairs`` command does) and
returns its outcome as facts: statuses, exit codes, homology tables,
``triple_agreement``, ``all_expected``.  Facts never include witnesses, so
a different but valid contraction gives the same facts.

Each workload is a list of strata.  A stratum is a list of members and a
member is a list of tasks.  Every round takes one member of each stratum,
chosen by the seeded generator, and runs the round's tasks in a seeded
order.  A stratum with one member is a fixed input; a stratum of adjacent
sizes is how a size band is sampled without letting the draw swing the
round's cost.  The functions in ``WORKLOADS`` build or locate every
member's input, so the timed loop sees only prepared inputs.

pdpairs is imported inside those functions so that the parent process can
read the workload names without importing the program.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "pdpairs" / "fixtures"

# verify_pd costs of adjacent p are close, so the seed picks one p of each
# pair; realization cost grows about 1.5 times per step of p, so no two
# members cost alike and the band runs whole (the seed only orders it)
VERIFY_LENS_BAND = [(30, 31), (32, 33), (34, 35), (36, 37), (38, 39)]
REALIZE_LENS_BAND = range(7, 15)


@dataclass
class Task:
    id: str
    run: Callable[[], dict]
    lead: bool = False   # runs first in its round, whatever the seed


# ---------------------------------------------------------------------------
# Library requests (what `pdpairs verify|nu|homology|realize|sum` do)


def verify_request(pair):
    from pdpairs.pairs import verify_ladder, verify_pd
    verdict = verify_pd(pair)
    facts = {"status": verdict.status}
    if verdict.passed():
        ladder = verify_ladder(pair, verdict.fundamental_class)
        facts["ladder"] = ladder.status
        facts["squares"] = [[sq.name, sq.status] for sq in ladder.squares]
    return facts


def nu_request(pair):
    from pdpairs.invariants import nu_of_pair, nu_verdict
    from pdpairs.pairs import verify_pd
    verdict = verify_pd(pair)
    facts = {"status": verdict.status}
    if verdict.passed():
        nu = nu_verdict(nu_of_pair(pair, verdict.fundamental_class))
        facts["nu"] = nu.verdict.status
    return facts


def homology_request(pair):
    from pdpairs.report import homology_table
    tables = {"total": homology_table(pair.P.tensor_Zomega())}
    if pair.Q.ranks:
        tables["boundary"] = homology_table(pair.Q.tensor_Zomega())
        tables["relative"] = homology_table(pair.D.tensor_Zomega())
    return tables


def realize_request(pair):
    from pdpairs.invariants import nu_difference_is_null, nu_of_pair
    from pdpairs.pairs import verify_pd
    from pdpairs.sums import export_realization_input, realize_free_case
    verdict = verify_pd(pair)
    outcome = realize_free_case(export_realization_input(pair, verdict))
    agree = "unknown"
    if outcome.verdict.passed():
        agree = nu_difference_is_null(
            nu_of_pair(pair, verdict.fundamental_class),
            nu_of_pair(outcome.pair, outcome.verdict.fundamental_class))
    return {"status": outcome.verdict.status,
            "contradiction": outcome.contradiction,
            "triple_agreement": agree}


def sum_request(kind, left, right, cells):
    from pdpairs.pairs import verify_pd
    from pdpairs.sums import SumRecipe, boundary_sum, interior_sum
    verdicts = (verify_pd(left), verify_pd(right))
    if kind == "interior":
        outcome = interior_sum(SumRecipe(kind, left, right, top_cells=cells),
                               verdicts)
    else:
        outcome = boundary_sum(SumRecipe(kind, left, right, components=cells),
                               verdicts)
    return {"status": verify_pd(outcome.pair).status}


def interior_iterate(build, count):
    """The interior sum of ``count`` copies of a collared operand."""
    from pdpairs.pairs import verify_pd
    from pdpairs.sums import SumRecipe, interior_sum
    acc, top = build(), "E2"
    for _ in range(count - 1):
        right = build()
        acc = interior_sum(SumRecipe("interior", acc, right,
                                     top_cells=(top, "E2")),
                           (verify_pd(acc), verify_pd(right))).pair
        top = "Esum"
    return acc


def genus2_handlebody():
    from pdpairs.catalog import build_solid_torus
    from pdpairs.pairs import verify_pd
    from pdpairs.sums import SumRecipe, boundary_sum
    left, right = build_solid_torus(), build_solid_torus()
    return boundary_sum(SumRecipe("boundary", left, right,
                                  components=("torus", "torus")),
                        (verify_pd(left), verify_pd(right))).pair


def _bind(fn, *args):
    return lambda: fn(*args)


# ---------------------------------------------------------------------------
# CLI requests


def cli_request(argv):
    """Run ``pdpairs.cli.main`` with output captured; facts from its JSON."""
    from pdpairs.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    facts = {"exit": code}
    text = out.getvalue()
    if not text.strip():
        return facts
    data = json.loads(text)
    command = argv[0]
    if command == "verify":
        facts["status"] = data["status"]
        facts["squares"] = [[sq["square"], sq["status"]]
                            for sq in data["sign_table"]]
    elif command == "homology":
        facts["tables"] = data
    elif command == "realize":
        facts.update(status=data["status"],
                     triple_agreement=data["triple_agreement"],
                     contradiction=data["contradiction"])
    elif command == "catalog":
        facts["all_expected"] = data["all_expected"]
        facts["statuses"] = {e["name"]: e["status"] for e in data["entries"]}
        # a measurement, not a fact: keys starting with "_" are not checked
        facts["_entry_seconds"] = sum(e["seconds"] for e in data["entries"])
    else:  # nu, sum
        facts["status"] = data["status"]
    return facts


# ---------------------------------------------------------------------------
# Workloads


def _lens_member(p, build_lens):
    pair = build_lens(p)
    name = f"lens-{p}"
    return [Task(f"verify:{name}", _bind(verify_request, pair)),
            Task(f"nu:{name}", _bind(nu_request, pair)),
            Task(f"homology:{name}", _bind(homology_request, pair))]


def verify_lens():
    from pdpairs.catalog import build_lens
    return [[_lens_member(p, build_lens) for p in stratum]
            for stratum in VERIFY_LENS_BAND]


def verify_sums():
    """Ten verify requests a round, most of them small.

    st#st#st runs once, st#st and d3#d3#d3 twice, and the genus-2
    handlebody five times.  With ten samples the tail (fewer than 11) is
    the slowest task, st#st#st, and the median (the mean of the fifth and
    sixth of ten, below which run the two fast d3#d3#d3 samples) falls
    between handlebody samples rather than between two inputs.

    st#st#st sets the workload's peak memory, and it leads each round.
    Run first after set-up, it peaks at about 105 MB, as it does when it
    is the only request its process runs.  Run after other requests, its
    peak depends on what their allocations left behind and lands anywhere
    from 86 to 105 MB from run to run, with the same seed.
    """
    from pdpairs.catalog import build_d3_collared, build_solid_torus_collared
    inputs = [
        ("handlebody-genus-2", genus2_handlebody(), 5),
        ("st#st", interior_iterate(build_solid_torus_collared, 2), 2),
        ("st#st#st", interior_iterate(build_solid_torus_collared, 3), 1),
        ("d3#d3#d3", interior_iterate(build_d3_collared, 3), 2),
    ]
    return [[[Task(f"verify:{name}", _bind(verify_request, pair),
                   lead=name == "st#st#st")]]
            for name, pair, repeat in inputs for _ in range(repeat)]


def realize_lens():
    from pdpairs.catalog import (build_d3, build_d3_collared, build_lens,
                                 build_solid_torus,
                                 build_solid_torus_collared)
    strata = [[[Task("realize:d3", _bind(realize_request, build_d3()))]],
              [[Task("realize:solid-torus",
                     _bind(realize_request, build_solid_torus()))]]]
    for p in REALIZE_LENS_BAND:
        strata.append([[Task(f"realize:lens-{p}",
                             _bind(realize_request, build_lens(p)))]])
    sums = [
        ("sum:interior d3-collared#d3-collared", "interior",
         build_d3_collared(), build_d3_collared(), ("E2", "E2")),
        ("sum:interior st-collared#st-collared", "interior",
         build_solid_torus_collared(), build_solid_torus_collared(),
         ("E2", "E2")),
        ("sum:boundary solid-torus#solid-torus", "boundary",
         build_solid_torus(), build_solid_torus(), ("torus", "torus")),
    ]
    for task_id, kind, left, right, cells in sums:
        strata.append([[Task(task_id, _bind(sum_request, kind, left, right,
                                            cells))]])
    return strata


def cli_sweep():
    import pdpairs.cli  # noqa: F401  (the import is part of set-up)
    strata = []
    for path in sorted(FIXTURES.glob("*.pdp")):
        for command in ("verify", "homology", "nu", "realize"):
            argv = [command, str(path), "--json"]
            strata.append([[Task(f"cli:{command} {path.name}",
                                 _bind(cli_request, argv))]])
    torus = str(FIXTURES / "solid_torus.pdp")
    argv = ["sum", torus, torus, "--boundary", "torus", "torus", "--json"]
    strata.append([[Task("cli:sum --boundary solid_torus.pdp",
                         _bind(cli_request, argv))]])
    strata.append([[Task("cli:catalog", _bind(cli_request,
                                              ["catalog", "--json"]))]])
    return strata


WORKLOADS = {
    "verify-lens": verify_lens,
    "verify-sums": verify_sums,
    "realize-lens": realize_lens,
    "cli-sweep": cli_sweep,
}


def round_tasks(strata, rng):
    """One round: a member of each stratum, in a seeded order, with the
    tasks marked ``lead`` first."""
    tasks = [task for stratum in strata for task in rng.choice(stratum)]
    rng.shuffle(tasks)
    tasks.sort(key=lambda task: not task.lead)
    return tasks


def all_tasks(strata):
    return [task for stratum in strata for member in stratum
            for task in member]
