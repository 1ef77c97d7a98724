"""Every function in pdpairs is reached from the command line, or listed.

cli.main runs under sys.setprofile over verify, homology, nu and realize on
every fixture, one boundary and one interior sum, and catalog, each in text
and JSON.  A function of the package that none of these runs calls must be
on UNREACHED; a function on UNREACHED that a run calls fails the test too,
so the list can only shrink.  Functions are named module.qualname; lambdas
and comprehensions are not counted.
"""

import contextlib
import importlib
import inspect
import io
import pathlib
import pkgutil
import sys
import types

import pytest

import pdpairs

PACKAGE = pathlib.Path(pdpairs.__file__).resolve().parent
MODULES = [importlib.import_module(f"pdpairs.{info.name}")
           for info in pkgutil.iter_modules([str(PACKAGE)])]
FIXTURES = PACKAGE / "fixtures"

UNREACHED = frozenset({
    # chains: test helpers and conversions no command needs
    "chains.LambdaChainMap.identity", "chains.LambdaChainMap.tensor_Zomega",
    "chains.LambdaComplex.__hash__", "chains.LambdaComplex.augment_chain",
    "chains.LambdaComplex.induce_to",
    "chains.LambdaComplex.induce_to.<locals>.conv",
    "chains.LambdaMatrix.__repr__", "chains.LambdaMatrix.columns",
    "chains.LambdaMatrix.copy", "chains.LambdaMatrix.from_int_rows",
    "chains.LambdaMatrix.map_entries", "chains.eta_matrix",
    # cli: usage errors and --radius, which no scanned run passes
    "cli._Parser.error", "cli._positive_radius",
    # dsl: the document printer (ROADMAP item 3) and parse-error paths
    "dsl.Document.statements", "dsl.Parser.error", "dsl._print_entry",
    "dsl._print_matrix", "dsl._print_tensor", "dsl._print_word",
    "dsl.print_document",
    # groups: abstract GroupModel methods, models no fixture declares (free,
    # free-abelian, S3), the word budget over free products, which no
    # fixture declares either, and test-only ring helpers
    "groups.FiniteTable.__repr__", "groups.FiniteTable.letters",
    "groups.FiniteTable.symmetric3",
    "groups.FiniteTable.symmetric3.<locals>.compose",
    "groups.FreeAbelian.__eq__", "groups.FreeAbelian.__hash__",
    "groups.FreeAbelian.__repr__", "groups.FreeAbelian.format_elem",
    "groups.FreeAbelian.identity", "groups.FreeAbelian.inv",
    "groups.FreeAbelian.letters", "groups.FreeAbelian.mul",
    "groups.FreeAbelian.named_generators", "groups.FreeAbelian.omega",
    "groups.FreeAbelian.word_length", "groups.FreeGroup.__eq__",
    "groups.FreeGroup.__hash__", "groups.FreeGroup.__init__",
    "groups.FreeGroup.__repr__", "groups.FreeGroup.format_elem",
    "groups.FreeGroup.identity", "groups.FreeGroup.inv",
    "groups.FreeGroup.letters", "groups.FreeGroup.mul",
    "groups.FreeGroup.named_generators", "groups.FreeGroup.omega",
    "groups.FreeGroup.word_length", "groups.FreeProduct.__hash__",
    "groups.FreeProduct.__repr__", "groups.FreeProduct.embed_word",
    "groups.FreeProduct.keys_grow_with_power",
    "groups.FreeProduct.named_generators", "groups.GroupModel.elements",
    "groups.GroupModel.format_elem", "groups.GroupModel.identity",
    "groups.GroupModel.inv", "groups.GroupModel.letters",
    "groups.GroupModel.mul", "groups.GroupModel.named_generators",
    "groups.GroupModel.omega", "groups.GroupModel.sample_elements",
    "groups.GroupModel.word_length", "groups.InfiniteCyclic.__hash__",
    "groups.InfiniteCyclic.__repr__", "groups.RingElem.__hash__",
    "groups.RingElem.__rsub__", "groups.RingElem.in_augmentation_ideal",
    "groups.TrivialGroup.__repr__", "groups.TrivialGroup.letters",
    # intlinalg: snf's Bezout branch, which no scanned matrix needs, and test
    # helpers
    "intlinalg.IntMatrix.__eq__", "intlinalg.IntMatrix.__repr__",
    "intlinalg.IntMatrix.copy", "intlinalg.IntMatrix.from_rows",
    "intlinalg.LinearSolver.rank", "intlinalg._xgcd",
    "intlinalg.snf.<locals>.col_mix", "intlinalg.snf.<locals>.row_mix",
    # invariants: the triple comparison and the realisation check, reachable
    # only from tests
    "invariants.ComponentSignature.kappa_names",
    "invariants.RealisationReport.status",
    "invariants._sampled_homomorphism_check",
    "invariants.check_realisation_necessity", "invariants.extract_triple",
    "invariants.triples_isomorphic_under",
    # pairs: the splitting criterion, the cap-top identity and tensor helpers,
    # reachable only from tests
    "pairs.LadderReport.sign_table", "pairs.LambdaTensor.__eq__",
    "pairs.SumConditions.all_pass", "pairs._auto_components.<locals>.find",
    "pairs._auto_components.<locals>.union", "pairs._by_degree",
    "pairs._mayer_vietoris_connecting",
    "pairs._mayer_vietoris_connecting.<locals>.b0_part",
    "pairs._restrict_class", "pairs.algebraic_sum", "pairs.base_vertex",
    "pairs.cap_top_identity", "pairs.check_cap_top_identity",
    "pairs.evaluation_square_maps", "pairs.restrict_pair", "pairs.slant",
    "pairs.tensor_of_chains", "pairs.twisted_to_chain",
    # presented: the G functor and module-morphism algebra used by tests
    "presented.G_functor", "presented.G_on_map",
    "presented.ModuleMorphism.__add__", "presented.ModuleMorphism.__repr__",
    "presented.ModuleMorphism.compose_with", "presented.ModuleMorphism.equals",
    "presented.ModuleMorphism.identity", "presented.ModuleMorphism.scale",
    "presented.PresentedModule.__repr__",
    # report: to_json's fallback for values JSON cannot encode
    "report.to_json.<locals>.default",
    # sums: the forward decomposition check, reachable only from tests
    "sums.DecompositionReport.passed", "sums.decomposition_forward_check",
})


def _runs():
    for path in sorted(FIXTURES.glob("*.pdp")):
        for command in ("verify", "homology", "nu", "realize"):
            yield [command, str(path)]
    torus = str(FIXTURES / "solid_torus.pdp")
    lens = str(FIXTURES / "lens_3.pdp")
    yield ["sum", torus, torus, "--boundary", "torus", "torus"]
    yield ["sum", lens, lens, "--interior", "E", "E"]
    yield ["catalog"]


def _defined():
    """module.qualname of every function the package's source defines
    (class bodies are code objects too, but not optimized ones)."""
    names = set()
    for module in MODULES:
        path = pathlib.Path(module.__file__)
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            for const in stack.pop().co_consts:
                if isinstance(const, types.CodeType):
                    stack.append(const)
                    if const.co_flags & inspect.CO_OPTIMIZED and \
                            not const.co_name.startswith("<"):
                        names.add(f"{path.stem}.{const.co_qualname}")
    return names


@pytest.fixture(scope="module")
def scan():
    from pdpairs import cli
    files = {module.__file__: pathlib.Path(module.__file__).stem
             for module in MODULES}
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            stem = files.get(code.co_filename)
            if stem is not None:
                called.add(f"{stem}.{code.co_qualname}")

    cli._parser.cache_clear()  # so the run builds the parser itself
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            for argv in _runs():
                for form in ([], ["--json"]):
                    cli.main(argv + form)
        finally:
            sys.setprofile(None)
    return _defined(), called


def test_every_function_is_reached_from_the_cli_or_listed(scan):
    defined, called = scan
    missed = sorted(defined - called - UNREACHED)
    assert not missed, f"called by no CLI run and not listed: {missed}"


def test_listed_functions_stay_unreached(scan):
    defined, called = scan
    reached = sorted(UNREACHED & called)
    assert not reached, f"reached now, drop them from UNREACHED: {reached}"
    gone = sorted(UNREACHED - defined)
    assert not gone, f"no longer defined, drop them from UNREACHED: {gone}"
