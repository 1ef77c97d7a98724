"""The workbench input language.

One file describes one scenario: group declarations, complexes with
row-major boundary matrices over the group ring, pairs with subcomplex
lists, boundary components and diagonal blocks, and labeled
delta-complexes.  Parsing is two-phase: a total grammar pass producing an
AST with spans, then elaboration with semantic checks (unknown names, rank
mismatches) reported against those spans.

Ring-entry syntax:  3*t^-1 - 1 + 2*x*y^2   (integer coefficients, words in
declared generators, ^ powers, * products).
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import LambdaComplex, LambdaMatrix
from .delta import DeltaComplexInput, Simplex, build_equivariant_pair
from .groups import (
    FiniteTable,
    FreeAbelian,
    FreeGroup,
    FreeProduct,
    GroupError,
    GroupModel,
    InfiniteCyclic,
    RingElem,
    TrivialGroup,
)
from .pairs import BoundaryComponent, ChainPairData, LambdaTensor


class ParseError(ValueError):
    def __init__(self, message, line, col, expected=()):
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        exp = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{exp}")


class SemanticError(ValueError):
    def __init__(self, message, line=0, col=0):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}" if line else message)


KEYWORDS = {
    "group", "complex", "pair", "delta-complex", "over", "basis", "boundary",
    "augmentation", "subcomplex", "boundary-component", "cells", "kappa",
    "disc", "top-cell", "class", "diagonal", "aw", "vertices", "edges",
    "triangles", "label", "trivial", "cyclic-infinite", "cyclic", "free",
    "free-abelian", "free-product", "omega",
}

PUNCT = ("->", "{", "}", "(", ")", "[", "]", ",", ";", ":", "|", "+", "-",
         "*", "^", "=")


@dataclass
class Token:
    kind: str   # "name" | "int" | "punct" | "eof"
    text: str
    line: int
    col: int


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        matched = None
        for p in PUNCT:
            if text.startswith(p, i):
                matched = p
                break
        if matched:
            tokens.append(Token("punct", matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n:
                c = text[j]
                if c.isalnum() or c == "_":
                    j += 1
                elif c == "-" and j + 1 < n and text[j + 1].isalpha():
                    # hyphenated keywords; a minus sign otherwise
                    j += 2
                else:
                    break
            tokens.append(Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# AST


@dataclass
class GroupDecl:
    name: str
    kind: str
    args: list
    omega: dict
    span: tuple


@dataclass
class ComplexDecl:
    name: str
    group: str
    basis: dict            # degree -> [names]
    boundaries: dict       # degree -> [[entry-ast]]
    augmentation: list | None
    span: tuple


@dataclass
class ComponentDecl:
    name: str
    cells: list
    group: object | None   # GroupDecl-like tuple or name
    kappa: dict
    disc: tuple | None
    span: tuple


@dataclass
class PairDecl:
    name: str
    complex_name: str
    sub: list
    components: list
    top_cell: str | None
    class_vec: list | None
    diagonal: object       # "aw" | dict cell -> tensor ast
    span: tuple


@dataclass
class DeltaDecl:
    name: str
    group: str
    vertices: list
    edges: dict            # name -> (v0, v1, word-ast)
    triangles: dict        # name -> (e12, e02, e01)
    sub: list
    span: tuple


@dataclass
class Document:
    groups: list
    complexes: list
    pairs: list
    deltas: list

    def statements(self):
        return self.groups + self.complexes + self.pairs + self.deltas


class Parser:
    def __init__(self, text):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def error(self, message, expected=()):
        t = self.peek()
        raise ParseError(message, t.line, t.col, expected)

    def expect_punct(self, p):
        t = self.peek()
        if t.kind != "punct" or t.text != p:
            self.error(f"got {t.text!r}", expected=(repr(p),))
        return self.next()

    def expect_name(self, *specific):
        t = self.peek()
        if t.kind != "name" or (specific and t.text not in specific):
            self.error(f"got {t.text!r}",
                       expected=specific or ("identifier",))
        return self.next()

    def expect_int(self):
        t = self.peek()
        if t.kind != "int":
            self.error(f"got {t.text!r}", expected=("integer",))
        return int(self.next().text)

    def at_punct(self, p):
        t = self.peek()
        return t.kind == "punct" and t.text == p

    def at_name(self, *words):
        t = self.peek()
        return t.kind == "name" and (not words or t.text in words)

    # -- grammar ------------------------------------------------------------

    def parse_document(self) -> Document:
        doc = Document([], [], [], [])
        while not self.peek().kind == "eof":
            t = self.peek()
            if self.at_name("group"):
                doc.groups.append(self.parse_group())
            elif self.at_name("complex"):
                doc.complexes.append(self.parse_complex())
            elif self.at_name("pair"):
                doc.pairs.append(self.parse_pair())
            elif self.at_name("delta-complex"):
                doc.deltas.append(self.parse_delta())
            else:
                self.error(f"got {t.text!r}",
                           expected=("group", "complex", "pair",
                                     "delta-complex"))
        return doc

    def parse_namelist(self):
        names = [self.expect_name().text]
        while self.at_punct(","):
            self.next()
            names.append(self.expect_name().text)
        return names

    def parse_group(self):
        start = self.peek()
        self.expect_name("group")
        name = self.expect_name().text
        self.expect_punct("=")
        kind, args = self.parse_group_expr()
        omega = {}
        if self.at_name("omega"):
            self.next()
            self.expect_punct("{")
            while not self.at_punct("}"):
                gen = self.expect_name().text
                self.expect_punct(":")
                omega[gen] = self.expect_int()
                if self.at_punct(","):
                    self.next()
            self.expect_punct("}")
        return GroupDecl(name, kind, args, omega, (start.line, start.col))

    def parse_group_expr(self):
        t = self.expect_name("trivial", "cyclic-infinite", "cyclic", "free",
                             "free-abelian", "free-product", "finite-table")
        kind = t.text
        args = []
        if kind == "trivial":
            return kind, args
        if kind == "finite-table":
            self.expect_punct("{")
            self.expect_name("names")
            names = self.parse_namelist()
            if self.at_punct(";"):
                self.next()
            self.expect_name("table")
            self.expect_punct("[")
            table = []
            while True:
                self.expect_punct("[")
                row = [self.expect_int()]
                while self.at_punct(","):
                    self.next()
                    row.append(self.expect_int())
                self.expect_punct("]")
                table.append(row)
                if self.at_punct(","):
                    self.next()
                    continue
                break
            self.expect_punct("]")
            gens = None
            if self.at_punct(";"):
                self.next()
            if self.at_name("generators"):
                self.next()
                gens = self.parse_namelist()
            self.expect_punct("}")
            return kind, [names, table, gens]
        self.expect_punct("(")
        if kind == "cyclic":
            args.append(self.expect_int())
            self.expect_punct(",")
            args.append(self.expect_name().text)
        elif kind == "cyclic-infinite":
            args.append(self.expect_name().text)
        elif kind in ("free", "free-abelian"):
            args.extend(self.parse_namelist())
        elif kind == "free-product":
            args.append(self.expect_name().text)
            self.expect_punct(",")
            args.append(self.expect_name().text)
        self.expect_punct(")")
        return kind, args

    def parse_entry(self):
        """Lambda-expression AST: list of (coeff, word) with word a list of
        letters (gen, power, line, col)."""
        terms = []
        sign = 1
        if self.at_punct("-"):
            self.next()
            sign = -1
        elif self.at_punct("+"):
            self.next()
        while True:
            terms.append(self.parse_term(sign))
            if self.at_punct("+"):
                self.next()
                sign = 1
            elif self.at_punct("-"):
                self.next()
                sign = -1
            else:
                break
        return terms

    def parse_term(self, sign):
        t = self.peek()
        coeff = sign
        word = []
        if t.kind == "int":
            coeff = sign * self.expect_int()
            if self.at_punct("*"):
                self.next()
                word = self.parse_word()
        elif t.kind == "name":
            word = self.parse_word()
        else:
            self.error(f"got {t.text!r}", expected=("integer", "identifier"))
        return (coeff, word)

    def parse_word(self):
        word = [self.parse_letter()]
        while self.at_punct("*"):
            save = self.pos
            self.next()
            if self.peek().kind != "name":
                self.pos = save
                break
            word.append(self.parse_letter())
        return word

    def parse_letter(self):
        """(name, power, line, col), at the position of the name."""
        t = self.expect_name()
        name = t.text
        power = 1
        if self.at_punct("^"):
            self.next()
            neg = False
            if self.at_punct("-"):
                self.next()
                neg = True
            power = self.expect_int()
            if neg:
                power = -power
        return (name, power, t.line, t.col)

    def parse_matrix(self):
        self.expect_punct("[")
        rows = []
        if self.at_punct("]"):
            self.next()
            return rows
        while True:
            self.expect_punct("[")
            row = []
            if not self.at_punct("]"):
                row.append(self.parse_entry())
                while self.at_punct(","):
                    self.next()
                    row.append(self.parse_entry())
            self.expect_punct("]")
            rows.append(row)
            if self.at_punct(","):
                self.next()
                continue
            break
        self.expect_punct("]")
        return rows

    def parse_complex(self):
        start = self.peek()
        self.expect_name("complex")
        name = self.expect_name().text
        self.expect_name("over")
        group = self.expect_name().text
        self.expect_punct("{")
        basis = {}
        boundaries = {}
        boundary_spans = {}
        augmentation = None
        self.expect_name("basis")
        self.expect_punct("{")
        while not self.at_punct("}"):
            deg = self.expect_int()
            self.expect_punct(":")
            basis[deg] = self.parse_namelist()
            if self.at_punct(";"):
                self.next()
        self.expect_punct("}")
        while self.at_name("boundary") or self.at_name("augmentation"):
            if self.at_name("boundary"):
                tok = self.next()
                deg = self.expect_int()
                boundaries[deg] = self.parse_matrix()
                boundary_spans[deg] = (tok.line, tok.col)
            else:
                self.next()
                self.expect_punct("[")
                augmentation = [self.parse_entry()]
                while self.at_punct(","):
                    self.next()
                    augmentation.append(self.parse_entry())
                self.expect_punct("]")
        self.expect_punct("}")
        decl = ComplexDecl(name, group, basis, boundaries, augmentation,
                           (start.line, start.col))
        decl.boundary_spans = boundary_spans
        return decl

    def parse_pair(self):
        start = self.peek()
        self.expect_name("pair")
        name = self.expect_name().text
        self.expect_punct("{")
        self.expect_name("complex")
        complex_name = self.expect_name().text
        sub = []
        self.expect_name("subcomplex")
        if not (self.at_name("boundary-component", "top-cell", "class",
                             "diagonal") or self.at_punct("}")):
            sub = self.parse_namelist()
        components = []
        while self.at_name("boundary-component"):
            components.append(self.parse_component())
        top_cell = None
        if self.at_name("top-cell"):
            self.next()
            top_cell = self.expect_name().text
        class_vec = None
        if self.at_name("class"):
            self.next()
            self.expect_punct("[")
            class_vec = []
            while not self.at_punct("]"):
                sign = 1
                if self.at_punct("-"):
                    self.next()
                    sign = -1
                class_vec.append(sign * self.expect_int())
                if self.at_punct(","):
                    self.next()
            self.expect_punct("]")
        self.expect_name("diagonal")
        if self.at_name("aw"):
            self.next()
            diagonal = "aw"
        else:
            self.expect_punct("{")
            diagonal = {}
            while not self.at_punct("}"):
                cell = self.expect_name().text
                self.expect_punct("->")
                diagonal[cell] = self.parse_tensor()
                if self.at_punct(";"):
                    self.next()
            self.expect_punct("}")
        self.expect_punct("}")
        return PairDecl(name, complex_name, sub, components, top_cell,
                        class_vec, diagonal, (start.line, start.col))

    def parse_component(self):
        start = self.peek()
        self.expect_name("boundary-component")
        name = self.expect_name().text
        self.expect_punct("{")
        self.expect_name("cells")
        cells = self.parse_namelist()
        group = None
        kappa = {}
        disc = None
        while not self.at_punct("}"):
            if self.at_name("group"):
                self.next()
                group = self.parse_group_expr()
            elif self.at_name("kappa"):
                self.next()
                self.expect_punct("{")
                while not self.at_punct("}"):
                    gen = self.expect_name().text
                    self.expect_punct("->")
                    kappa[gen] = self.parse_entry()
                    if self.at_punct(","):
                        self.next()
                self.expect_punct("}")
            elif self.at_name("disc"):
                self.next()
                d1 = self.expect_name().text
                d2 = self.expect_name().text
                disc = (d1, d2)
            else:
                self.error(f"got {self.peek().text!r}",
                           expected=("group", "kappa", "disc", "'}'"))
        self.expect_punct("}")
        return ComponentDecl(name, cells, group, kappa, disc,
                             (start.line, start.col))

    def parse_tensor(self):
        terms = []
        sign = 1
        if self.at_punct("-"):
            self.next()
            sign = -1
        while True:
            terms.append(self.parse_tensor_term(sign))
            if self.at_punct("+"):
                self.next()
                sign = 1
            elif self.at_punct("-"):
                self.next()
                sign = -1
            else:
                break
        return terms

    def parse_tensor_term(self, sign):
        coeff = [(sign, [])]
        if not self.at_punct("("):
            entry = self.parse_term(sign)
            coeff = [entry]
            self.expect_punct("*")
        self.expect_punct("(")
        left = self.expect_name().text
        self.expect_punct("|")
        if self.peek().kind == "int":
            word = []
            if self.expect_int() != 1:
                self.error("group slot must be a word or 1")
        else:
            word = self.parse_word()
        self.expect_punct("|")
        right = self.expect_name().text
        self.expect_punct(")")
        return (coeff, left, word, right)

    def parse_delta(self):
        start = self.peek()
        self.expect_name("delta-complex")
        name = self.expect_name().text
        self.expect_name("over")
        group = self.expect_name().text
        self.expect_punct("{")
        self.expect_name("vertices")
        vertices = self.parse_namelist()
        if self.at_punct(";"):
            self.next()
        edges = {}
        triangles = {}
        sub = []
        while not self.at_punct("}"):
            if self.at_name("edges"):
                self.next()
                self.expect_punct("{")
                while not self.at_punct("}"):
                    ename = self.expect_name().text
                    self.expect_punct(":")
                    v0 = self.expect_name().text
                    v1 = self.expect_name().text
                    self.expect_name("label")
                    if self.peek().kind == "int":
                        if self.expect_int() != 1:
                            self.error("labels are words or 1")
                        word = []
                    else:
                        word = self.parse_word()
                    edges[ename] = (v0, v1, word)
                    if self.at_punct(";"):
                        self.next()
                self.expect_punct("}")
            elif self.at_name("triangles"):
                self.next()
                self.expect_punct("{")
                while not self.at_punct("}"):
                    tname = self.expect_name().text
                    self.expect_punct(":")
                    e12 = self.expect_name().text
                    e02 = self.expect_name().text
                    e01 = self.expect_name().text
                    triangles[tname] = (e12, e02, e01)
                    if self.at_punct(";"):
                        self.next()
                self.expect_punct("}")
            elif self.at_name("subcomplex"):
                self.next()
                sub = self.parse_namelist()
            else:
                self.error(f"got {self.peek().text!r}",
                           expected=("edges", "triangles", "subcomplex",
                                     "'}'"))
        self.expect_punct("}")
        return DeltaDecl(name, group, vertices, edges, triangles, sub,
                         (start.line, start.col))


def parse(text: str) -> Document:
    return Parser(text).parse_document()


# ---------------------------------------------------------------------------
# Elaboration


# the largest p that `cyclic(p, g)` accepts: its model holds a p x p table
CYCLIC_ORDER_LIMIT = 1024

# the largest total |power| of one word over a model whose keys grow with
# it: a^1000000000000 over free(a) would be a key of 10^12 letters
WORD_POWER_LIMIT = 10000


@dataclass
class Scenario:
    groups: dict
    complexes: dict
    pairs: dict
    document: Document


def _build_group(decl: GroupDecl, groups: dict) -> GroupModel:
    om = decl.omega

    def omega_for(names):
        return [om.get(n, 0) for n in names]

    if decl.kind == "trivial":
        return TrivialGroup()
    if decl.kind == "cyclic-infinite":
        return InfiniteCyclic(decl.args[0], om.get(decl.args[0], 0))
    if decl.kind == "cyclic":
        if decl.args[0] > CYCLIC_ORDER_LIMIT:
            raise SemanticError(
                f"cyclic: order {decl.args[0]} exceeds the limit "
                f"{CYCLIC_ORDER_LIMIT}", *decl.span)
        try:
            return FiniteTable.cyclic(decl.args[0], decl.args[1],
                                      om.get(decl.args[1], 0))
        except GroupError as exc:
            raise SemanticError(str(exc), *decl.span)
    if decl.kind in ("free", "free-abelian"):
        for i, n in enumerate(decl.args):
            if n in decl.args[:i]:
                raise SemanticError(
                    f"{decl.kind}: generator {n!r} is named twice",
                    *decl.span)
        model = FreeGroup if decl.kind == "free" else FreeAbelian
        return model(decl.args, omega_for(decl.args))
    if decl.kind == "free-product":
        for ref in decl.args:
            if ref not in groups:
                raise SemanticError(f"unknown group {ref!r}", *decl.span)
        return FreeProduct(groups[decl.args[0]], groups[decl.args[1]])
    if decl.kind == "finite-table":
        names, table, gens = decl.args
        omega_vec = [om.get(n, 0) for n in names]
        generators = None
        if gens is not None:
            generators = [names.index(g) for g in gens]
        try:
            return FiniteTable(table, names, omega_vec, generators)
        except Exception as exc:
            raise SemanticError(f"finite-table: {exc}", *decl.span)
    raise SemanticError(f"unknown group kind {decl.kind}", *decl.span)


def generator_names(model: GroupModel) -> dict:
    """Name -> key of model's named generators, the table words are read
    with; None for a name that two generators share, as the factors of a
    free product may."""
    names = {}
    for name, g in model.named_generators():
        names[name] = g if names.get(name, g) == g else None
    return names


def word_to_key(model: GroupModel, names: dict, word):
    """The key of word over model, names its generator_names; each error
    gives the line:col of the letter at fault, or of the word's first."""
    if model.keys_grow_with_power and word:
        total = sum(abs(power) for _, power, _, _ in word)
        if total > WORD_POWER_LIMIT:
            raise SemanticError(
                f"word of total power {total} exceeds the limit "
                f"{WORD_POWER_LIMIT} over a {model.kind} group", *word[0][2:])
    key = model.identity()
    for name, power, line, col in word:
        if name not in names:
            raise SemanticError(f"unknown generator {name!r}", line, col)
        g = names[name]
        if g is None:
            raise SemanticError(
                f"generator {name!r} appears in both free factors", line, col)
        if power < 0:
            g = model.inv(g)
            power = -power
        while power:  # repeated squaring: O(log power) products
            if power & 1:
                key = model.mul(key, g)
            power >>= 1
            if power:
                g = model.mul(g, g)
    return key


def entry_to_ring(model: GroupModel, names: dict, entry_ast) -> RingElem:
    out = model.zero()
    for coeff, word in entry_ast:
        key = word_to_key(model, names, word)
        out = out + model.unit(key, coeff)
    return out


def elaborate(doc: Document) -> Scenario:
    groups, tables = {}, {}
    for decl in doc.groups:
        if decl.name in groups:
            raise SemanticError(f"duplicate group {decl.name!r}", *decl.span)
        groups[decl.name] = _build_group(decl, groups)
        tables[decl.name] = generator_names(groups[decl.name])
    complexes, complex_tables = {}, {}
    for decl in doc.complexes:
        if decl.group not in groups:
            raise SemanticError(f"unknown group {decl.group!r}", *decl.span)
        model = groups[decl.group]
        table = complex_tables[decl.name] = tables[decl.group]
        ranks = {d: len(ns) for d, ns in decl.basis.items()}
        names = {d: tuple(ns) for d, ns in decl.basis.items()}
        boundary = {}
        for d, rows in decl.boundaries.items():
            want_rows = ranks.get(d - 1, 0)
            want_cols = ranks.get(d, 0)
            span = getattr(decl, "boundary_spans", {}).get(d, decl.span)
            if len(rows) != want_rows:
                raise SemanticError(
                    f"boundary {d} of complex {decl.name!r} has {len(rows)} "
                    f"rows, expected {want_rows}", *span)
            for row in rows:
                if len(row) != want_cols:
                    raise SemanticError(
                        f"boundary {d} of complex {decl.name!r} has a row of "
                        f"width {len(row)}, expected {want_cols}", *span)
            boundary[d] = LambdaMatrix.from_rows(
                model, [[entry_to_ring(model, table, e) for e in row]
                        for row in rows])
        aug = None
        if decl.augmentation is not None:
            if len(decl.augmentation) != ranks.get(0, 0):
                raise SemanticError(
                    f"augmentation of {decl.name!r} has wrong length",
                    *decl.span)
            aug = [entry_to_ring(model, table, e)
                   for e in decl.augmentation]
        try:
            complexes[decl.name] = LambdaComplex(
                model, ranks, boundary, augmentation=aug, basis_names=names)
        except Exception as exc:
            raise SemanticError(f"complex {decl.name!r}: {exc}", *decl.span)
    pairs = {}
    for decl in doc.pairs:
        pairs[decl.name] = _build_pair(decl, groups, complexes,
                                       complex_tables)
    for decl in doc.deltas:
        pairs[decl.name] = _build_delta_pair(decl, groups, tables)
    return Scenario(groups, complexes, pairs, doc)


def _build_pair(decl: PairDecl, groups, complexes,
                complex_tables) -> ChainPairData:
    if decl.complex_name not in complexes:
        raise SemanticError(f"unknown complex {decl.complex_name!r}",
                            *decl.span)
    complex_ = complexes[decl.complex_name]
    model = complex_.model
    names = complex_tables[decl.complex_name]
    sub = {}
    for n in decl.sub:
        try:
            d, i = complex_.cell_index(n)
        except Exception:
            raise SemanticError(f"unknown cell {n!r} in subcomplex",
                                *decl.span)
        sub.setdefault(d, []).append(i)
    sub = {d: tuple(sorted(v)) for d, v in sub.items()}
    if decl.diagonal == "aw":
        raise SemanticError(
            "diagonal aw is only available for delta-complex blocks; "
            "pair blocks must supply diagonal data", *decl.span)
    diagonal = {}
    for cell_name, tensor_ast in decl.diagonal.items():
        try:
            cell = complex_.cell_index(cell_name)
        except Exception:
            raise SemanticError(f"unknown cell {cell_name!r} in diagonal",
                                *decl.span)
        tensor = LambdaTensor(model)
        for coeff_ast, left, word, right in tensor_ast:
            coeff = entry_to_ring(model, names, coeff_ast)
            key = word_to_key(model, names, word)
            try:
                lcell = complex_.cell_index(left)
                rcell = complex_.cell_index(right)
            except Exception:
                raise SemanticError(
                    f"unknown cell in diagonal of {cell_name!r}", *decl.span)
            tensor.add_term(lcell, key, rcell, coeff)
        diagonal[cell] = tensor
    comps = []
    for cd in decl.components:
        cells = {}
        for n in cd.cells:
            d, i = complex_.cell_index(n)
            cells.setdefault(d, []).append(i)
        cells = {d: tuple(sorted(v)) for d, v in cells.items()}
        group = None
        if cd.group is not None:
            group = _build_group(
                GroupDecl("", cd.group[0], cd.group[1], {}, cd.span), groups)
        kappa = {}
        for gen, entry in cd.kappa.items():
            ring = entry_to_ring(model, names, entry)
            unit = ring.is_unit_monomial()
            if unit is None or unit[1] != 1:
                raise SemanticError(
                    f"kappa image of {gen!r} must be a group element",
                    *cd.span)
            kappa[gen] = unit[0]
        comps.append(BoundaryComponent(cd.name, cells, group, kappa,
                                       cd.disc))
    try:
        return ChainPairData(complex_, sub, diagonal,
                             boundary_components=comps,
                             top_cell=decl.top_cell,
                             class_override=decl.class_vec, name=decl.name)
    except Exception as exc:
        raise SemanticError(f"pair {decl.name!r}: {exc}", *decl.span)


def _build_delta_pair(decl: DeltaDecl, groups, tables) -> ChainPairData:
    if decl.group not in groups:
        raise SemanticError(f"unknown group {decl.group!r}", *decl.span)
    model = groups[decl.group]
    names = tables[decl.group]
    simplices = {}
    for name, (v0, v1, word) in decl.edges.items():
        for v in (v0, v1):
            if v not in decl.vertices:
                raise SemanticError(f"edge {name!r}: unknown vertex {v!r}",
                                    *decl.span)
        simplices[name] = Simplex(name, 1, (v0, v1),
                                  word_to_key(model, names, word))
    for name, faces in decl.triangles.items():
        simplices[name] = Simplex(name, 2, faces)
    dc = DeltaComplexInput(model, list(decl.vertices), simplices,
                           set(decl.sub), name=decl.name)
    try:
        return build_equivariant_pair(dc)
    except Exception as exc:
        raise SemanticError(f"delta-complex {decl.name!r}: {exc}", *decl.span)


def load_scenario(text: str) -> Scenario:
    return elaborate(parse(text))


# ---------------------------------------------------------------------------
# Printing (round-trip support)


def print_document(doc: Document) -> str:
    out = []
    for g in doc.groups:
        args = ""
        if g.kind == "cyclic":
            args = f"({g.args[0]}, {g.args[1]})"
        elif g.kind in ("cyclic-infinite",):
            args = f"({g.args[0]})"
        elif g.kind in ("free", "free-abelian", "free-product"):
            args = "(" + ", ".join(str(a) for a in g.args) + ")"
        elif g.kind == "finite-table":
            names, table, gens = g.args
            rows = ", ".join("[" + ", ".join(str(x) for x in row) + "]"
                             for row in table)
            args = " { names " + ", ".join(names) + "; table [" + rows + "]"
            if gens:
                args += "; generators " + ", ".join(gens)
            args += " }"
        line = f"group {g.name} = {g.kind}{args}"
        if g.omega:
            inner = ", ".join(f"{k}: {v}" for k, v in g.omega.items())
            line += f" omega {{ {inner} }}"
        out.append(line)
    for c in doc.complexes:
        out.append(f"complex {c.name} over {c.group} {{")
        basis = "; ".join(f"{d}: " + ", ".join(ns)
                          for d, ns in sorted(c.basis.items()))
        out.append(f"  basis {{ {basis} }}")
        for d, rows in sorted(c.boundaries.items()):
            out.append(f"  boundary {d} {_print_matrix(rows)}")
        if c.augmentation is not None:
            inner = ", ".join(_print_entry(e) for e in c.augmentation)
            out.append(f"  augmentation [{inner}]")
        out.append("}")
    for p in doc.pairs:
        out.append(f"pair {p.name} {{")
        out.append(f"  complex {p.complex_name}")
        out.append("  subcomplex " + ", ".join(p.sub) if p.sub
                   else "  subcomplex")
        for comp in p.components:
            out.append(f"  boundary-component {comp.name} {{")
            out.append("    cells " + ", ".join(comp.cells))
            if comp.group is not None:
                kind, args = comp.group
                inner = f"({', '.join(str(a) for a in args)})" if args else ""
                out.append(f"    group {kind}{inner}")
            if comp.kappa:
                inner = ", ".join(f"{g} -> {_print_entry(e)}"
                                  for g, e in comp.kappa.items())
                out.append(f"    kappa {{ {inner} }}")
            if comp.disc:
                out.append(f"    disc {comp.disc[0]} {comp.disc[1]}")
            out.append("  }")
        if p.top_cell:
            out.append(f"  top-cell {p.top_cell}")
        if p.class_vec is not None:
            out.append("  class [" + ", ".join(str(c) for c in p.class_vec)
                       + "]")
        if p.diagonal == "aw":
            out.append("  diagonal aw")
        else:
            out.append("  diagonal {")
            for cell, terms in p.diagonal.items():
                out.append(f"    {cell} -> {_print_tensor(terms)};")
            out.append("  }")
        out.append("}")
    for d in doc.deltas:
        out.append(f"delta-complex {d.name} over {d.group} {{")
        out.append("  vertices " + ", ".join(d.vertices) + ";")
        if d.edges:
            out.append("  edges {")
            for n, (v0, v1, word) in d.edges.items():
                w = _print_word(word) if word else "1"
                out.append(f"    {n}: {v0} {v1} label {w};")
            out.append("  }")
        if d.triangles:
            out.append("  triangles {")
            for n, fs in d.triangles.items():
                out.append(f"    {n}: {fs[0]} {fs[1]} {fs[2]};")
            out.append("  }")
        if d.sub:
            out.append("  subcomplex " + ", ".join(d.sub))
        out.append("}")
    return "\n".join(out) + "\n"


def _print_word(word):
    parts = []
    for name, power, _, _ in word:
        parts.append(name if power == 1 else f"{name}^{power}")
    return "*".join(parts) if parts else "1"


def _print_entry(entry_ast):
    parts = []
    for coeff, word in entry_ast:
        w = _print_word(word) if word else ""
        if not w:
            term = str(abs(coeff))
        elif abs(coeff) == 1:
            term = w
        else:
            term = f"{abs(coeff)}*{w}"
        if not parts:
            parts.append(term if coeff >= 0 else f"- {term}")
        else:
            parts.append(f"+ {term}" if coeff >= 0 else f"- {term}")
    return " ".join(parts) if parts else "0"


def _print_matrix(rows):
    inner = ", ".join(
        "[" + ", ".join(_print_entry(e) for e in row) + "]" for row in rows)
    return f"[{inner}]"


def _print_tensor(terms):
    parts = []
    for coeff_ast, left, word, right in terms:
        w = _print_word(word) if word else "1"
        core = f"({left}|{w}|{right})"
        c, cw = coeff_ast[0]
        if cw:
            prefix = _print_entry([(abs(c), cw)]) + "*"
        elif abs(c) != 1:
            prefix = f"{abs(c)}*"
        else:
            prefix = ""
        term = prefix + core
        if not parts:
            parts.append(term if c >= 0 else f"- {term}")
        else:
            parts.append(f"+ {term}" if c >= 0 else f"- {term}")
    return " ".join(parts)
