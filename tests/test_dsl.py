"""Parser and elaborator: fixtures, round trips, error classes."""

import pathlib

import pytest

from pdpairs.dsl import (
    ParseError,
    SemanticError,
    load_scenario,
    parse,
    print_document,
    tokenize,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "src" / "pdpairs" \
    / "fixtures"

GOOD = ["d3.pdp", "solid_torus.pdp", "lens_3.pdp", "torus_delta.pdp",
        "broken_sign.pdp", "broken_noncycle.pdp"]


def read(name):
    return (FIXTURES / name).read_text()


@pytest.mark.parametrize("name", GOOD)
def test_fixture_parses_and_round_trips(name):
    text = read(name)
    doc = parse(text)
    printed = parse(print_document(doc))
    assert print_document(printed) == print_document(doc)


@pytest.mark.parametrize("name", GOOD)
def test_fixture_elaborates(name):
    scenario = load_scenario(read(name))
    assert scenario.pairs


def test_empty_document():
    doc = parse("")
    assert not doc.statements()


def test_parse_error_carries_location_and_expectations():
    with pytest.raises(ParseError) as err:
        parse("group G = wiggly")
    assert err.value.line == 1
    assert err.value.expected  # the allowed group kinds


def test_bad_token_fixture():
    with pytest.raises(ParseError, match="unexpected character"):
        parse(read("bad_token.pdp"))


def test_bad_matrix_fixture_names_block_and_width():
    with pytest.raises(SemanticError) as err:
        load_scenario(read("bad_matrix.pdp"))
    assert "boundary 1" in str(err.value)
    assert "expected 3" in str(err.value)


def test_broken_dsq_fixture_is_input_error():
    with pytest.raises(SemanticError, match="d.d != 0"):
        load_scenario(read("broken_dsq.pdp"))


def test_unknown_group_reference():
    with pytest.raises(SemanticError, match="unknown group"):
        load_scenario("complex P over Missing { basis { 0: v } }")


def test_unknown_cell_in_subcomplex():
    text = """
group G = trivial
complex P over G { basis { 0: v } augmentation [1] }
pair X { complex P subcomplex w diagonal { v -> (v|1|v); } }
"""
    with pytest.raises(SemanticError, match="unknown cell"):
        load_scenario(text)


def test_ring_entry_syntax():
    text = """
group Z = cyclic-infinite(t)
complex P over Z {
  basis { 0: v; 1: e }
  boundary 1 [[3*t^-1 - 5 + 2*t^2]]
  augmentation [1]
}
"""
    sc = load_scenario(text)
    entry = sc.complexes["P"].boundary_or_zero(1).data[0][0]
    z = sc.groups["Z"]
    assert entry == 3 * z.unit(-1) - 5 + 2 * z.unit(2)


def test_omega_declaration():
    sc = load_scenario("group Z = cyclic-infinite(t) omega { t: 1 }")
    assert sc.groups["Z"].omega(1) == 1


def test_free_product_group_expr():
    sc = load_scenario("""
group A = cyclic(2, s)
group B = cyclic(3, g)
group G = free-product(A, B)
""")
    g = sc.groups["G"]
    assert g.kind == "free-product"
    assert g.omega(((0, 1),)) == 0


def test_solid_torus_fixture_structure():
    sc = load_scenario(read("solid_torus.pdp"))
    pair = sc.pairs["X"]
    assert pair.dimension == 3
    comp = pair.boundary_components[0]
    assert comp.marked_disc == ("d", "c")
    assert pair.top_cell == "E"


def test_class_override_parses():
    sc = load_scenario(read("broken_noncycle.pdp"))
    assert sc.pairs["X"].class_override == [1]


def test_finite_table_group_expr():
    text = """
group K = finite-table { names e, s; table [[0, 1], [1, 0]]; generators s } omega { s: 1 }
"""
    sc = load_scenario(text)
    k = sc.groups["K"]
    assert k.order == 2
    assert k.omega(1) == 1
    printed = print_document(parse(text))
    assert print_document(parse(printed)) == printed


def test_finite_table_rejects_bad_table():
    with pytest.raises(SemanticError, match="finite-table"):
        load_scenario("group K = finite-table { names e, s; table [[0, 1], [1, 1]] }")


def _count_mul(monkeypatch, model):
    calls = []
    real = model.mul

    def mul(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(model, "mul", mul)
    return calls


def _word_to_key(model, word):
    """word_to_key on (name, power) letters, each placed at 1:1."""
    from pdpairs.dsl import generator_names, word_to_key
    return word_to_key(model, generator_names(model),
                       [(name, power, 1, 1) for name, power in word])


def test_word_to_key_raises_to_large_powers_by_squaring(monkeypatch):
    from pdpairs.groups import FiniteTable, InfiniteCyclic
    z = InfiniteCyclic("t")
    calls = _count_mul(monkeypatch, z)
    assert _word_to_key(z, [("t", 10 ** 12)]) == 10 ** 12
    # one product per bit and one per set bit: O(log |power|), not 10^12
    assert len(calls) <= 2 * (10 ** 12).bit_length()
    assert _word_to_key(z, [("t", -(10 ** 12)), ("t", 3)]) == 3 - 10 ** 12
    c5 = FiniteTable.cyclic(5, "g")
    calls = _count_mul(monkeypatch, c5)
    g = _word_to_key(c5, [("g", 1)])
    assert _word_to_key(c5, [("g", 1000000000001)]) == g
    assert _word_to_key(c5, [("g", -4)]) == g
    assert len(calls) <= 1 + 2 * (10 ** 12 + 1).bit_length() + 2 * 3


def test_word_to_key_small_powers_match_repeated_products():
    from pdpairs.groups import FiniteTable, FreeGroup
    for model, name in ((FiniteTable.symmetric3(), "r"),
                        (FreeGroup(["a", "b"]), "a")):
        g = _word_to_key(model, [(name, 1)])
        for power in range(-7, 8):
            key = model.identity()
            step = g if power >= 0 else model.inv(g)
            for _ in range(abs(power)):
                key = model.mul(key, step)
            assert _word_to_key(model, [(name, power)]) == key


def test_word_power_limit_is_checked_before_any_product(monkeypatch):
    from pdpairs import dsl
    from pdpairs.groups import FreeGroup, FreeProduct, InfiniteCyclic
    limit = dsl.WORD_POWER_LIMIT
    free = FreeGroup(["a", "b"])
    assert len(_word_to_key(free, [("a", limit - 1), ("b", -1)])) == limit
    calls = _count_mul(monkeypatch, free)
    with pytest.raises(SemanticError, match=f"^1:1: word of total power "
                                            f"{limit + 1} exceeds the limit"):
        _word_to_key(free, [("a", limit), ("b", -1)])
    assert calls == []
    # a free factor makes a free product's keys grow; over Z * Z a power is
    # one letter, however large
    s, t = InfiniteCyclic("s"), InfiniteCyclic("t")
    with pytest.raises(SemanticError, match="exceeds the limit"):
        _word_to_key(FreeProduct(s, FreeGroup(["a"])), [("a", limit + 1)])
    assert _word_to_key(FreeProduct(s, t), [("t", 10 ** 12)]) == \
        ((1, 10 ** 12),)


def test_cyclic_order_limit_is_checked_before_the_table(monkeypatch):
    from pdpairs import dsl
    # ROADMAP item 7's L(p, 1) series runs to p = 640
    assert dsl.CYCLIC_ORDER_LIMIT >= 640
    orders = []
    monkeypatch.setattr(dsl.FiniteTable, "cyclic", lambda p, name, omega:
                        orders.append(p) or dsl.TrivialGroup())
    load_scenario(f"group G = cyclic({dsl.CYCLIC_ORDER_LIMIT}, g)\n")
    with pytest.raises(SemanticError, match="1:1: cyclic: order 1025 exceeds"):
        load_scenario(f"group G = cyclic({dsl.CYCLIC_ORDER_LIMIT + 1}, g)\n")
    assert orders == [dsl.CYCLIC_ORDER_LIMIT]


def test_shared_free_factor_name_fails_at_the_word_that_uses_it():
    head = ("group A = free(a, t)\ngroup B = cyclic-infinite(t)\n"
            "group G = free-product(A, B)\n")
    body = ("complex P over G {{ basis {{ 0: v; 1: e }} boundary 1 [[{}]] "
            "augmentation [1] }}\n")
    d1 = load_scenario(head + body.format("a - 1")).complexes["P"]
    assert d1.boundary_or_zero(1).data[0][0].support == {((0, ((0, 1),)),): 1,
                                                         (): -1}
    with pytest.raises(SemanticError, match="^4:56: generator 't' appears"):
        load_scenario(head + body.format("a*t - 1"))


def test_each_group_builds_its_name_table_once(monkeypatch):
    from pdpairs import groups
    calls = []
    for cls in (groups.TrivialGroup, groups.InfiniteCyclic,
                groups.FreeAbelian, groups.FreeGroup, groups.FiniteTable,
                groups.FreeProduct):
        def count(self, real=cls.named_generators):
            calls.append(type(self).__name__)
            return real(self)

        monkeypatch.setattr(cls, "named_generators", count)
    # solid_torus.pdp declares one group and reads 59 words over it
    assert load_scenario(read("solid_torus.pdp")).pairs
    assert calls == ["InfiniteCyclic"]


def test_comments_advance_the_column():
    assert [(t.kind, t.line, t.col) for t in tokenize("a # c\n  b # d")] \
        == [("name", 1, 1), ("name", 2, 3), ("eof", 2, 8)]
    # an end-of-input error after a trailing comment points past it
    with pytest.raises(ParseError) as err:
        parse("group G = # c")
    assert (err.value.line, err.value.col) == (1, 14)


def test_large_exponent_parses_quickly():
    text = """
group Z = cyclic-infinite(t)
complex P over Z {
  basis { 0: v; 1: e }
  boundary 1 [[t^1000000000000 - 1]]
  augmentation [1]
}
"""
    complex_ = load_scenario(text).complexes["P"]
    entry = complex_.boundary_or_zero(1).data[0][0]
    assert entry.support == {10 ** 12: 1, 0: -1}
