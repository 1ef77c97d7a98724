"""Command-line driver.

Subcommands: homology, verify, nu, sum, realize, catalog.  Exit codes:
0 pass / expected, 1 fail, 2 unknown, 3 input error, which includes a bad
flag or a missing argument.  The bounded-search radius is a positive
integer: --radius, before or after the subcommand (after wins), else the
PD3_SEARCH_RADIUS environment variable, else 4.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import report as rpt
from .catalog import catalog_entries
from .dsl import ParseError, SemanticError, load_scenario
from .invariants import nu_of_pair, nu_verdict
from .pairs import PairError, verify_ladder, verify_pd

EXIT_PASS, EXIT_FAIL, EXIT_UNKNOWN, EXIT_INPUT = 0, 1, 2, 3


def _exit_code(status):
    """The exit code of a verdict that did not pass: fail or unknown."""
    return EXIT_FAIL if status == "fail" else EXIT_UNKNOWN


def _positive_radius(text):
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"search radius must be a positive integer, not {text!r}")
    return value


def search_radius(args):
    if args.radius is not None:
        return args.radius
    env = os.environ.get("PD3_SEARCH_RADIUS")
    if not env:
        return 4
    try:
        return _positive_radius(env)
    except argparse.ArgumentTypeError as exc:
        print(f"error: PD3_SEARCH_RADIUS: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text ({exc})", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    try:
        return load_scenario(text)
    except (ParseError, SemanticError, PairError) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _single_pair(scenario, path):
    if not scenario.pairs:
        print(f"{path}: no pair in scenario", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)
    name = sorted(scenario.pairs)[0]
    return name, scenario.pairs[name]


def cmd_homology(args):
    scenario = _load(args.file)
    radius = search_radius(args)
    del radius
    out = {}
    for name, pair in sorted(scenario.pairs.items()):
        tables = {"total": rpt.homology_table(pair.P.tensor_Zomega())}
        if pair.Q.ranks:
            tables["boundary"] = rpt.homology_table(pair.Q.tensor_Zomega())
            tables["relative"] = rpt.homology_table(pair.D.tensor_Zomega())
        out[name] = tables
    for name, cx in sorted(scenario.complexes.items()):
        out.setdefault(name, {"total": rpt.homology_table(cx.tensor_Zomega())})
    if args.json:
        print(rpt.to_json(out))
    else:
        for name, tables in out.items():
            print(rpt.render_homology_text(name, tables))
    return EXIT_PASS


def cmd_verify(args):
    scenario = _load(args.file)
    name, pair = _single_pair(scenario, args.file)
    radius = search_radius(args)
    timings = {}
    t0 = time.perf_counter()
    verdict = verify_pd(pair, radius)
    timings["verify_pd"] = round(time.perf_counter() - t0, 3)
    ladder = None
    if verdict.passed():
        t0 = time.perf_counter()
        ladder = verify_ladder(pair, verdict.fundamental_class, radius)
        timings["verify_ladder"] = round(time.perf_counter() - t0, 3)
    if args.json:
        print(rpt.to_json(rpt.verdict_report(verdict, ladder, timings)))
    else:
        print(rpt.render_verdict_text(name, verdict, ladder))
    if verdict.passed():
        if ladder is not None and ladder.status != "pass":
            return _exit_code(ladder.status)
        return EXIT_PASS
    return _exit_code(verdict.status)


def cmd_nu(args):
    scenario = _load(args.file)
    name, pair = _single_pair(scenario, args.file)
    radius = search_radius(args)
    t0 = time.perf_counter()
    verdict = verify_pd(pair, radius)
    if not verdict.passed():
        print(f"{name}: not a verified pair ({verdict.status}: "
              f"{verdict.reason})", file=sys.stderr)
        return _exit_code(verdict.status)
    nu = nu_of_pair(pair, verdict.fundamental_class, radius)
    nu = nu_verdict(nu, radius)
    timings = {"total": round(time.perf_counter() - t0, 3)}
    if args.json:
        print(rpt.to_json(rpt.nu_report(nu, nu.verdict, timings)))
    else:
        print(rpt.render_nu_text(name, nu, nu.verdict))
    if nu.verdict.is_equivalence():
        return EXIT_PASS
    return EXIT_FAIL if nu.verdict.status == "not" else EXIT_UNKNOWN


def cmd_sum(args):
    from .sums import SumRecipe, boundary_sum, interior_sum
    left_sc = _load(args.left)
    right_sc = _load(args.right)
    _, left = _single_pair(left_sc, args.left)
    _, right = _single_pair(right_sc, args.right)
    radius = search_radius(args)
    lv = verify_pd(left, radius)
    rv = verify_pd(right, radius)
    for nm, v in ((args.left, lv), (args.right, rv)):
        if not v.passed():
            print(f"operand {nm}: {v.status} ({v.reason})", file=sys.stderr)
            return _exit_code(v.status)
    try:
        if args.interior:
            recipe = SumRecipe("interior", left, right,
                               top_cells=tuple(args.interior))
            outcome = interior_sum(recipe, (lv, rv), radius)
        else:
            recipe = SumRecipe("boundary", left, right,
                               components=tuple(args.boundary))
            outcome = boundary_sum(recipe, (lv, rv), radius)
    except Exception as exc:
        print(f"sum construction failed: {exc}", file=sys.stderr)
        return EXIT_INPUT
    verdict = verify_pd(outcome.pair, radius)
    if args.json:
        print(rpt.to_json(rpt.verdict_report(verdict)))
    else:
        print(rpt.render_verdict_text(outcome.pair.name, verdict))
    if verdict.passed():
        return EXIT_PASS
    return _exit_code(verdict.status)


def cmd_realize(args):
    from .invariants import nu_difference_is_null, nu_of_pair as nu_of
    from .sums import export_realization_input, realize_free_case
    scenario = _load(args.file)
    name, pair = _single_pair(scenario, args.file)
    radius = search_radius(args)
    verdict = verify_pd(pair, radius)
    if not verdict.passed():
        print(f"{name}: not a verified pair ({verdict.status})",
              file=sys.stderr)
        return _exit_code(verdict.status)
    try:
        inp = export_realization_input(pair, verdict, radius)
        outcome = realize_free_case(inp, radius)
    except Exception as exc:
        print(f"realization failed: {exc}", file=sys.stderr)
        return EXIT_INPUT
    agree = "unknown"
    if outcome.verdict.passed():
        nu1 = nu_of(pair, verdict.fundamental_class, radius)
        nu2 = nu_of(outcome.pair, outcome.verdict.fundamental_class, radius)
        agree = nu_difference_is_null(nu1, nu2, radius)
    data = {
        "status": outcome.verdict.status,
        "contradiction": outcome.contradiction,
        "triple_agreement": agree,
        "notes": outcome.notes,
        "rebuilt_boundary": outcome.pair.P.boundary_or_zero(3).pretty(),
    }
    if args.json:
        print(rpt.to_json(data))
    else:
        print(f"realize {name}: {outcome.verdict.status}")
        print(f"  triple agreement (nu comparison): {agree}")
        print(f"  rebuilt top boundary: {data['rebuilt_boundary']}")
    if outcome.verdict.passed() and agree == "yes":
        return EXIT_PASS
    return EXIT_FAIL if outcome.contradiction else EXIT_UNKNOWN


def _run_catalog_entry(entry, radius):
    t0 = time.perf_counter()
    try:
        pair = entry.builder()
        verdict = verify_pd(pair, radius)
        status = verdict.status
        reason = verdict.reason
        hom_ok = True
        for deg, (free, torsion) in entry.expected_homology.items():
            h = pair.D.tensor_Zomega().homology(deg)
            if (h.free_rank, tuple(h.torsion)) != (free, tuple(torsion)):
                hom_ok = False
        ok = (status == entry.expected_status) and hom_ok
    except Exception as exc:  # construction failures count as input errors
        status, reason, ok = "error", str(exc), False
    return {
        "name": entry.name,
        "status": status,
        "expected": entry.expected_status,
        "ok": ok,
        "reason": reason,
        "seconds": round(time.perf_counter() - t0, 3),
    }


def cmd_catalog(args):
    radius = search_radius(args)
    results = sorted((_run_catalog_entry(e, radius)
                      for e in catalog_entries(radius)),
                     key=lambda r: r["name"])
    all_ok = all(r["ok"] for r in results)
    if args.json:
        print(rpt.to_json({"entries": results, "all_expected": all_ok}))
    else:
        for r in results:
            flag = "ok" if r["ok"] else "MISMATCH"
            print(f"{r['name']:24s} {r['status']:8s} expected "
                  f"{r['expected']:8s} [{flag}] ({r['seconds']}s)"
                  + (f"  {r['reason']}" if r["reason"] else ""))
        print("catalog:", "all entries as expected" if all_ok
              else "UNEXPECTED RESULTS")
    return EXIT_PASS if all_ok else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_INPUT; argparse's own 2 means unknown
    here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser():
    ap = _Parser(
        prog="pdpairs",
        description="Chain-level Poincare duality workbench for "
                    "3-dimensional pairs")
    radius_help = "bounded-search radius (default 4, or PD3_SEARCH_RADIUS)"
    ap.add_argument("--radius", type=_positive_radius, default=None,
                    help=radius_help)
    # the same flag after the subcommand; SUPPRESS leaves the global value
    # alone when it is not given there
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--radius", type=_positive_radius,
                        default=argparse.SUPPRESS, help=radius_help)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", parents=[common],
                       help="homology tables of a scenario")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("verify", parents=[common],
                       help="duality verdict and cap ladder")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("nu", parents=[common],
                       help="the nu morphism and its derived verdict")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_nu)

    p = sub.add_parser("sum", parents=[common],
                       help="connected sums of two scenarios")
    p.add_argument("left")
    p.add_argument("right")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--interior", nargs=2, metavar=("TOP1", "TOP2"))
    group.add_argument("--boundary", nargs=2, metavar=("COMP1", "COMP2"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_sum)

    p = sub.add_parser("realize", parents=[common],
                       help="round-trip realization from the 2-skeleton")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("catalog", parents=[common],
                       help="run all builtin examples")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_catalog)
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
